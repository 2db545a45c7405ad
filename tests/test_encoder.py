"""Encoding operators: direct form, gate composition, and the family rule."""

import tracemalloc

import numpy as np
import pytest
from dense_oracle import (
    ALT4,
    bell_table,
    composition_overlaps_stacked,
    cross_column_mixer,
    encode_composed,
    encode_law_residuals_loop,
    factor_blocks,
    family_shift_gates,
    member_mixer_gates,
    paley_order_12,
    partial_trace,
    resolve_composition_order_stacked,
    resolve_member_mixer_reading_all_families,
    sign_matrix,
    table_blocks,
    whole_table_encode_law_residuals,
)

import sdc.encoder as enc
from sdc import hadamard
from sdc.bell import (
    BellLabel,
    all_labels,
    bell_state,
    compose_family,
    family_factors,
)
from sdc.encoder import (
    encode_direct,
    encode_law_residuals,
    family_shift,
    member_mixer,
    resolve_composition_order,
    resolve_member_mixer_reading,
)
from sdc.errors import ArgOutOfRange, DimensionMismatch, PropertyViolated, SdcError
from sdc.gates import channel_sign_gate
from sdc.hilbert import SignedPermutationOp, apply, compose_perms, phi_plus_overlap

# the member mixer under each exponent reading: the encoder's, and the
# literal cross-column one that its law rules out
READINGS = {"cross-column": cross_column_mixer, "same-column": member_mixer}


class TestDirectForm:
    def test_identity_label(self):
        H = hadamard.build(4)
        op = encode_direct(2, H, BellLabel(1, +1, 1))
        assert np.array_equal(np.asarray(op), np.eye(4))

    def test_global_flip_label(self):
        # label (1, -1, 1) exchanges every +-n pair with plus signs
        N = 2
        op = encode_direct(N, hadamard.build(4), BellLabel(1, -1, 1))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1.0
        assert np.array_equal(np.asarray(op).real, expected)

    def test_flip_moves_start_family_up(self):
        N = 2
        H = hadamard.build(4)
        op = encode_direct(N, H, BellLabel(1, -1, 1))
        moved = apply(op, 0, bell_state(N, BellLabel(1, -1, 1), H))
        target = bell_state(N, BellLabel(1, +1, 1), H)
        assert np.max(np.abs(moved.amp - target.amp)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_all_ops_are_signed_permutations(self, N):
        H = hadamard.build(2 * N)
        for lab in all_labels(N):
            m = np.abs(np.asarray(encode_direct(N, H, lab)))
            assert np.array_equal(m.sum(axis=0), np.ones(2 * N))
            assert np.array_equal(m.sum(axis=1), np.ones(2 * N))


def landing_overlap(N, H, op_label, start_family, expected):
    """|<expected| encode(op_label) |start_family, member 1>|.

    Unit modulus means the encoded state is the expected basis state (up to
    a global phase), since the basis is orthonormal.
    """
    kp, rp = start_family
    moved = apply(encode_direct(N, H, op_label), 0, bell_state(N, BellLabel(kp, rp, 1), H))
    return abs(np.vdot(bell_state(N, expected, H).amp, moved.amp))


class TestActionCheck:
    def test_identity_leaves_family(self):
        H = hadamard.build(4)
        out = landing_overlap(2, H, BellLabel(1, +1, 1), (2, -1), BellLabel(2, -1, 1))
        assert abs(out - 1.0) < 1e-10

    def test_flip_on_base_family(self):
        H = hadamard.build(4)
        out = landing_overlap(2, H, BellLabel(1, -1, 1), (1, -1), BellLabel(1, +1, 1))
        assert abs(out - 1.0) < 1e-10

    @pytest.mark.parametrize("N", [1, 2])
    def test_exhaustive_family_rule(self, N):
        H = hadamard.build(2 * N)
        for lab in all_labels(N):
            for kp in range(1, N + 1):
                for rp in (+1, -1):
                    kpp, rpp = compose_family(lab.k, lab.r, kp, rp, N)
                    out = landing_overlap(N, H, lab, (kp, rp), BellLabel(kpp, rpp, lab.j))
                    assert abs(out - 1.0) < 1e-10

    def test_member_index_carries_through(self):
        H = hadamard.build(2)
        out = landing_overlap(1, H, BellLabel(1, +1, 2), (1, -1), BellLabel(1, -1, 2))
        assert abs(out - 1.0) < 1e-10


class TestMemberMixer:
    def test_anchor_member_is_identity(self):
        H = hadamard.build(4)
        assert np.array_equal(np.asarray(member_mixer(2, H, 1)), np.eye(4))

    def test_one_pair_second_member_is_the_sign_gate(self):
        H = hadamard.build(2)
        assert np.array_equal(np.asarray(member_mixer(1, H, 2)), np.asarray(channel_sign_gate(1, 1)))

    def test_row_product_law_at_one_pair(self):
        N, H = 1, hadamard.build(2)
        rows = {tuple(H.ints[i]): i + 1 for i in range(2)}
        for j in (1, 2):
            op = member_mixer(N, H, j)
            for lab in all_labels(N):
                jpp = rows[tuple(H.ints[j - 1] * H.ints[lab.j - 1])]
                moved = apply(op, 0, bell_state(N, lab, H))
                target = bell_state(N, BellLabel(lab.k, lab.r, jpp), H)
                assert np.max(np.abs(moved.amp - target.amp)) < 1e-12

    def test_member_group_closure(self):
        # applying mixers j then j' equals the mixer of the entrywise product row
        N, H = 2, hadamard.build(4)
        rows = {tuple(H.ints[i]): i + 1 for i in range(4)}
        start = bell_state(N, BellLabel(1, +1, 1), H)
        for j in range(1, 5):
            for jp in range(1, 5):
                jpp = rows[tuple(H.ints[j - 1] * H.ints[jp - 1])]
                mixed = apply(member_mixer(N, H, j), 0, start)
                chained = apply(member_mixer(N, H, jp), 0, mixed)
                direct = apply(member_mixer(N, H, jpp), 0, start)
                assert np.max(np.abs(chained.amp - direct.amp)) < 1e-12

    def test_reading_resolution(self):
        # every N checks family (1, +1)'s block alone
        for N in (1, 2, 4, 16):
            info = resolve_member_mixer_reading(N, hadamard.build(2 * N))
            assert info["reading"] == "same-column"
            assert info["max_deviation"] < 1e-12

    def test_failing_reading_names_its_first_deviating_member(self):
        # Sylvester with indices 1 and 2 swapped (P H P^T): symmetric, rows
        # closed under products, but the all-plus row is row 2, so mixer 1,
        # the identity, leaves member 1 where row 1 * row 1 names member 2
        swap = [1, 0, *range(2, 8)]
        H = hadamard.build(8, custom={8: hadamard.build(8).ints[swap][:, swap]})
        with pytest.raises(PropertyViolated) as info:
            resolve_member_mixer_reading(4, H)
        assert str(info.value) == (
            "the same-column member mixer breaks the row-product law: "
            "mixer 1 on BellLabel(k=1, r=1, j=1) deviates by 7.071e-01"
        )
        with pytest.raises(PropertyViolated) as oracle:
            resolve_member_mixer_reading_all_families(4, H)
        assert str(oracle.value) == str(info.value)

    def test_cross_column_reading_violates_the_law(self):
        # the rejected reading builds a different operator for member 2
        N, H = 1, hadamard.build(2)
        assert not np.array_equal(np.asarray(cross_column_mixer(N, H, 2)), np.asarray(member_mixer(N, H, 2)))

    def test_argument_range(self):
        with pytest.raises(ArgOutOfRange):
            member_mixer(2, hadamard.build(4), 5)


class TestMemberMixerOracle:
    """The diagonal mixer against the gate-by-gate product, exactly."""

    @staticmethod
    def assert_matches_gates(N, H):
        for reading, build in READINGS.items():
            for j in range(1, 2 * N + 1):
                assert build(N, H, j) == member_mixer_gates(N, H, j, reading)

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_sylvester(self, N):
        self.assert_matches_gates(N, hadamard.build(2 * N))

    def test_rows_not_closed_under_products(self):
        self.assert_matches_gates(2, hadamard.build(4, custom={4: ALT4}))

    def test_paley_order_12(self):
        H = paley_order_12()
        assert (H @ H.T == 12 * np.eye(12)).all() and (H == H.T).all() and (H[0] == 1).all()
        self.assert_matches_gates(6, hadamard.build(12, custom={12: H}))

    @pytest.mark.parametrize("name,N", [("flipped", 2), ("flipped", 4), ("flipped", 8), ("minus", 1)])
    def test_first_row_not_all_plus(self, name, N):
        # row 1 holds a minus sign: mixer 1 is row 1 times itself, the
        # identity, and the cross-column mixer 1 is not
        H = sign_matrix(name, N)
        assert (H.row(1) == -1).any()
        assert (member_mixer(N, H, 1).phase == 1).all()
        assert (cross_column_mixer(N, H, 1).phase != 1).any()
        self.assert_matches_gates(N, H)


class TestFamilyShift:
    def test_neutral_shift_is_identity(self):
        assert np.array_equal(np.asarray(family_shift(3, 1, +1)), np.eye(6))

    def test_sign_shift_is_the_global_flip(self):
        N = 2
        got = np.asarray(family_shift(N, 1, -1))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1.0
        assert np.array_equal(got.real, expected)

    def test_family_moves_with_member_preserved(self):
        N, H = 2, hadamard.build(4)
        shift = family_shift(N, 2, +1)
        for j in range(1, 5):
            moved = apply(shift, 0, bell_state(N, BellLabel(1, +1, j), H))
            target = bell_state(N, BellLabel(2, +1, j), H)
            overlap = np.vdot(target.amp, moved.amp)
            assert abs(abs(overlap) - 1.0) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_equals_the_gate_product(self, N):
        for k in range(1, N + 1):
            for r in (+1, -1):
                assert family_shift(N, k, r) == family_shift_gates(N, k, r)

    def test_argument_range(self):
        with pytest.raises(ArgOutOfRange):
            family_shift(2, 3, +1)
        with pytest.raises(ArgOutOfRange):
            family_shift(2, 1, 0)


class TestComposedForm:
    def test_identity_label(self):
        H = hadamard.build(2)
        op = encode_composed(1, H, BellLabel(1, +1, 1))
        assert np.array_equal(np.asarray(op), np.eye(2))

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_action_matches_direct_on_all_member_one_states(self, N):
        H = hadamard.build(2 * N)
        for lab in all_labels(N):
            direct = encode_direct(N, H, lab)
            composed = encode_composed(N, H, lab)
            for kp in range(1, N + 1):
                for rp in (+1, -1):
                    start = bell_state(N, BellLabel(kp, rp, 1), H)
                    a = apply(direct, 0, start).amp
                    b = apply(composed, 0, start).amp
                    overlap = np.vdot(a, b)
                    assert abs(abs(overlap) - 1.0) < 1e-10

    def test_wrong_family_shift_matches_no_order(self, monkeypatch):
        shift = enc.family_shift
        # family (2, -1) gets the shift of family (2, +1)
        monkeypatch.setattr(enc, "family_shift", lambda N, k, r: shift(N, k, 1 if k == 2 else r))
        match = "the family-shift-first composition does not reproduce"
        with pytest.raises(PropertyViolated, match=match):
            resolve_composition_order(2, hadamard.build(4))
        with pytest.raises(PropertyViolated, match=match):
            resolve_composition_order_stacked(2, hadamard.build(4))

    @pytest.mark.parametrize(
        "name,arg,bad,message",
        [
            ("member_mixer", 1, lambda d: (np.zeros(d), np.ones(d)), "not a permutation"),
            ("member_mixer", 1, lambda d: (np.arange(d), 2 * np.ones(d)), "unit modulus"),
            ("family_shift", 0, lambda d: (np.arange(d) // 2, np.ones(d)), "not a permutation"),
        ],
        ids=["mixer-repeated-target", "mixer-non-unit-phase", "shift-repeated-target"],
    )
    def test_unchecked_non_permutation_is_caught_once_stacked(
        self, monkeypatch, name, arg, bad, message
    ):
        # the gates are built unchecked, so each family's check stands in for
        # the constructor's: one broken build (member j = 2, family k = 2)
        # raises the constructor's error, as on the whole-stack route
        build = getattr(enc, name)

        def broken(N, *args):
            op = build(N, *args)
            return SignedPermutationOp._trusted(op.dim, *bad(op.dim)) if args[arg] == 2 else op

        monkeypatch.setattr(enc, name, broken)
        with pytest.raises(DimensionMismatch, match=message):
            resolve_composition_order(2, hadamard.build(4))
        with pytest.raises(DimensionMismatch, match=message):
            resolve_composition_order_stacked(2, hadamard.build(4))

    def test_non_diagonal_mixer_is_refused(self, monkeypatch):
        # mixer 2 swapped with a valid permutation: the stacked constructor
        # took it, the order check needs every mixer's targets to be the identity
        build = enc.member_mixer

        def swapped(N, H, j):
            op = build(N, H, j)
            return SignedPermutationOp(op.dim, op.target[::-1], op.phase) if j == 2 else op

        monkeypatch.setattr(enc, "member_mixer", swapped)
        with pytest.raises(DimensionMismatch, match="member mixer 2: target is not a permutation fixing every index"):
            resolve_composition_order(2, hadamard.build(4))

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_resolved_order_gives_matrix_equality(self, N):
        info = resolve_composition_order(N, hadamard.build(2 * N))
        assert info["order"] == "family-shift-first"
        assert info["matrix_equal_to_direct"] is True
        assert info["max_phase_deviation"] < 1e-12


@pytest.mark.parametrize("N", [1, 2, 4])
def test_encoding_never_signals(N):
    # the partner particle's reduced state stays maximally mixed
    H = hadamard.build(2 * N)
    start = bell_state(N, BellLabel(1, -1, 1), H)
    target = np.eye(2 * N) / (2 * N)
    for lab in all_labels(N):
        moved = apply(encode_direct(N, H, lab), 0, start)
        assert np.max(np.abs(partial_trace(moved, 1) - target)) < 1e-12


def test_law_failure_is_reported_not_repaired():
    # a registered sign matrix without the all-plus anchor row still yields an
    # orthonormal basis, but its rows do not close under entrywise products,
    # so the encoding law genuinely fails and the check must say so
    H = hadamard.build(4, custom={4: ALT4})
    out = landing_overlap(2, H, BellLabel(1, +1, 1), (1, +1), BellLabel(1, +1, 1))
    assert abs(out - 1.0) > 1e-10


def member_one_states(N, H):
    return [bell_state(N, BellLabel(kp, rp, 1), H) for kp in range(1, N + 1) for rp in (+1, -1)]


def dense_encode_law_residuals(N, H):
    """The dense route the exact encode-law checks replace.

    Every encoded state is a (2N)^2 grid, compared with the predicted basis
    state by vdot and traced down to the partner particle.  The landing
    family is read through the encoder module, so a patched rule reaches
    both routes.
    """
    dim = 2 * N
    families = [(kp, rp) for kp in range(1, N + 1) for rp in (+1, -1)]
    starts = member_one_states(N, H)
    structure = rule = signaling = 0.0
    for lab in all_labels(N):
        op = encode_direct(N, H, lab)
        dense = np.abs(np.asarray(op))
        structure = max(
            structure,
            np.max(np.abs(dense.sum(axis=0) - 1.0)),
            np.max(np.abs(dense.sum(axis=1) - 1.0)),
        )
        for (kp, rp), start in zip(families, starts):
            moved = apply(op, 0, start)
            kpp, rpp = enc.compose_family(lab.k, lab.r, kp, rp, N)
            expected = bell_state(N, BellLabel(kpp, rpp, lab.j), H)
            rule = max(rule, abs(abs(np.vdot(expected.amp, moved.amp)) - 1.0))
            rho_b = partial_trace(moved, 1)
            signaling = max(signaling, np.max(np.abs(rho_b - np.eye(dim) / dim)))
    return {"structure": structure, "family_rule": rule, "no_signaling": signaling}


def order_overlaps(N, H, mixer):
    """<direct S|composed S> for every label and member-1 start S: (exact, dense).

    The composed encoder takes its member mixer from `mixer(N, H, j)`.
    """
    ops = [encode_direct(N, H, BellLabel(kp, rp, 1)) for kp in range(1, N + 1) for rp in (+1, -1)]
    stack = SignedPermutationOp(2 * N, [op.target for op in ops], [op.phase for op in ops])
    exact, dense = [], []
    for lab in all_labels(N):
        direct = encode_direct(N, H, lab)
        composed = compose_perms(mixer(N, H, lab.j), family_shift(N, lab.k, lab.r))
        exact.extend(
            phi_plus_overlap(compose_perms(direct, stack), compose_perms(composed, stack))
        )
        for start in member_one_states(N, H):
            dense.append(np.vdot(apply(direct, 0, start).amp, apply(composed, 0, start).amp))
    return np.array(exact), np.array(dense)


class TestExactLawChecks:
    """The exact index/sign checks against the dense amplitude route."""

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_exact_residuals_match_the_dense_route(self, N):
        H = hadamard.build(2 * N)
        exact = encode_law_residuals(family_factors(N, H))
        dense = dense_encode_law_residuals(N, H)
        assert exact == {"structure": 0.0, "family_rule": 0.0, "no_signaling": 0.0}
        for name, value in dense.items():
            assert abs(value - exact[name]) <= 1e-12
        exact_overlaps, dense_overlaps = order_overlaps(N, H, member_mixer)
        assert np.max(np.abs(exact_overlaps - dense_overlaps)) <= 1e-12
        assert np.max(np.abs(np.abs(dense_overlaps) - 1.0)) <= 1e-12
        assert resolve_composition_order(N, H)["max_overlap_deviation"] == 0.0

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_rejected_reading_overlaps_match_the_dense_route(self, N):
        # the cross-column mixer moves states off their labels: a real failure
        exact, dense = order_overlaps(N, hadamard.build(2 * N), cross_column_mixer)
        assert np.max(np.abs(exact - dense)) <= 1e-12
        assert np.max(np.abs(np.abs(exact) - 1.0)) > 1e-10

    @pytest.mark.parametrize("reading", READINGS)
    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_every_start_overlap_is_the_encoders_own_overlap(self, N, reading):
        # <(D S x I)Phi+|(C S x I)Phi+> = tr(D^H C) / 2N for every start S, which
        # lets resolve_composition_order overlap the encoders themselves
        H = hadamard.build(2 * N)
        per_start, _ = order_overlaps(N, H, READINGS[reading])
        own = []
        for lab in all_labels(N):
            mixer = READINGS[reading](N, H, lab.j)
            composed = compose_perms(mixer, family_shift(N, lab.k, lab.r))
            own.append(phi_plus_overlap(encode_direct(N, H, lab), composed))
        own = np.array(own)
        assert (per_start.reshape(-1, 2 * N) == own[:, None]).all()
        if reading == "cross-column":  # a failing reading: some overlaps are not unit
            assert np.max(np.abs(np.abs(own) - 1.0)) > 1e-10

    @pytest.mark.parametrize(
        "matrix,N,rule",
        [
            *(("sylvester", n, 0.0) for n in (1, 2, 4, 8, 16)),
            ("alt4", 2, 0.5),
            ("paley", 6, 0.0),
            *(("flipped", n, 1 / n) for n in (2, 4, 8, 16)),
        ],
    )
    def test_factored_residuals_equal_the_per_label_loop(self, matrix, N, rule):
        # the family rule depends on row 1 and the pairing only: a row 1 with
        # one minus sign reads 1/N
        H = sign_matrix(matrix, N)
        exact = encode_law_residuals(family_factors(N, H))
        assert exact == encode_law_residuals_loop(bell_table(N, H))
        assert exact == {"structure": 0.0, "family_rule": rule, "no_signaling": 0.0}

    @pytest.mark.parametrize(
        "matrix,N",
        [
            *(("sylvester", n) for n in (1, 2, 4, 8, 16)),
            ("alt4", 2),
            ("paley", 6),
            *(("flipped", n) for n in (2, 4, 8, 16)),
        ],
    )
    def test_streamed_residuals_equal_the_whole_table_route(self, matrix, N):
        H = sign_matrix(matrix, N)
        assert encode_law_residuals(family_factors(N, H)) == whole_table_encode_law_residuals(bell_table(N, H))

    def test_no_temporary_is_table_sized(self):
        # one start family at a time: beyond the factors, only (2N)^2-entry
        # temporaries are held (about 8 of them at N = 32), where the table's
        # phases alone hold 4N^2 * 2N.  The factors are read beforehand, so
        # only the check's own arrays are traced.
        N, dim = 32, 64
        H = hadamard.build(dim)
        factors = family_factors(N, H)
        tracemalloc.start()
        try:
            encode_law_residuals(factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * dim * dim * 16  # 16 complex (2N)^2 arrays, a quarter of the table's phases

    def test_unfactored_table_fails_on_both_routes(self):
        # member 2 takes another sign in family 1 than in family 0, so no
        # member-j diagonal serves every family: the table does not factor,
        # and both oracles fail the family rule
        table = bell_table(2, hadamard.build(4))
        phase = table.phase.copy()
        phase[4 + 1, 0] *= -1  # family 1, member 2, column 0
        mixed = SignedPermutationOp._trusted(table.dim, table.target, phase)
        whole = whole_table_encode_law_residuals(mixed)
        loop = encode_law_residuals_loop(mixed)
        assert factor_blocks(table_blocks(mixed))[1] is False
        assert whole["family_rule"] == 1.0
        assert loop["family_rule"] > 1e-10
        assert whole["structure"] == loop["structure"] == 0.0
        assert whole["no_signaling"] == loop["no_signaling"] == 0.0

    def test_lawless_matrix_fails_on_both_routes(self):
        H = hadamard.build(4, custom={4: ALT4})
        exact = encode_law_residuals(family_factors(2, H))
        dense = dense_encode_law_residuals(2, H)
        assert exact["family_rule"] > 1e-10
        for name, value in dense.items():
            assert abs(value - exact[name]) <= 1e-12

    def test_wrong_family_rule_fails_on_both_routes(self, monkeypatch):
        # shifting the landing family by one more step breaks the rule at N = 2
        monkeypatch.setattr(
            enc, "compose_family", lambda k, r, kp, rp, N: ((k + kp - 1) % N + 1, r * rp)
        )
        H = hadamard.build(4)
        exact = encode_law_residuals(family_factors(2, H))
        dense = dense_encode_law_residuals(2, H)
        assert exact["family_rule"] == 1.0
        for name, value in dense.items():
            assert abs(value - exact[name]) <= 1e-12


def resolution(resolve, *args):
    """What `resolve` returns, or the type and text of the SdcError it raises."""
    try:
        return resolve(*args)
    except SdcError as exc:
        return type(exc), str(exc)


LAWFUL_AND_LAWLESS = [
    *(("sylvester", n) for n in (1, 2, 4, 8)),
    ("alt4", 2),
    ("paley", 6),
    *(("flipped", n) for n in (2, 4, 8)),
]


class TestFamilyBlockRoutes:
    """The resolutions, one family block at a time, against their whole-table
    oracles in `dense_oracle`: the same result or the same error text."""

    @pytest.mark.parametrize("reading", READINGS)
    @pytest.mark.parametrize("matrix,N", [("sylvester", 16), *LAWFUL_AND_LAWLESS])
    def test_order_equals_the_stacked_route(self, monkeypatch, matrix, N, reading):
        # the cross-column mixer, patched in on both routes, fails on
        # Sylvester, so both outcomes are compared
        monkeypatch.setattr(enc, "member_mixer", READINGS[reading])
        H = sign_matrix(matrix, N)
        got = resolution(resolve_composition_order, N, H)
        assert got == resolution(resolve_composition_order_stacked, N, H)
        if matrix == "sylvester":
            passes = reading == "same-column"
            assert isinstance(got, dict) if passes else got[0] is PropertyViolated

    @pytest.mark.parametrize("matrix,N", LAWFUL_AND_LAWLESS)
    def test_reading_equals_the_all_families_route(self, matrix, N):
        H = sign_matrix(matrix, N)
        got = resolution(resolve_member_mixer_reading, N, H)
        assert got == resolution(resolve_member_mixer_reading_all_families, N, H)

    def test_global_phase_on_one_family_is_not_matrix_equality(self, monkeypatch):
        # family (1, +1)'s shift carries a global -1: every overlap stays of
        # modulus 1, so the order passes, but that family's composed encoders
        # differ from the direct ones as matrices
        shift = enc.family_shift

        def negated(N, k, r):
            op = shift(N, k, r)
            return SignedPermutationOp(op.dim, op.target, -op.phase) if (k, r) == (1, 1) else op

        monkeypatch.setattr(enc, "family_shift", negated)
        H = hadamard.build(8)
        got = resolve_composition_order(4, H)
        assert got == resolve_composition_order_stacked(4, H)
        assert got["order"] == "family-shift-first"
        assert got["matrix_equal_to_direct"] is False
        assert (got["max_overlap_deviation"], got["max_phase_deviation"]) == (0.0, 2.0)

    def test_order_check_holds_no_table_sized_array(self):
        # only one family's (2N)^2-entry mixers, shift, direct rows and
        # compositions are held at a time; a table (targets plus phases,
        # 6 MiB at N = 32) is never built.  The whole-stack route peaks at
        # about 3.8 tables.
        N = 32
        H = hadamard.build(2 * N)
        table = bell_table(N, H)
        size = table.target.nbytes + table.phase.nbytes
        del table
        tracemalloc.start()
        try:
            resolve_composition_order(N, H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * size

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_mixer_first_relabels_members_from_four_pairs(self, N):
        # T_f Psi_j carries another member's signs once a family moves more
        # than one channel pair: the order COMPOSITION_ORDER rules out
        overlap, matrix_equal = composition_overlaps_stacked(N, hadamard.build(2 * N), "member-mix-first")
        assert (np.max(np.abs(np.abs(overlap) - 1.0)) > 1e-10) == (N >= 4)
        assert matrix_equal is False


def row_product_law_holds(N, H, mixer):
    """Whether every mixer(N, H, j) sends member j' to the member whose row
    is row j * row j', read label by label on the factors."""
    psi = family_factors(N, H).psi
    rows = {row.tobytes(): i for i, row in enumerate(H.ints)}
    for j in range(1, 2 * N + 1):
        phase = mixer(N, H, j).phase
        for jp, row in enumerate(H.ints):
            jpp = rows.get((H.ints[j - 1] * row).tobytes())
            if jpp is None or not np.array_equal(phase * psi[jp], psi[jpp]):
                return False
    return True


def conjugated_draws(seed, count):
    """(N, H) for seeded P D H D P^T draws, H Sylvester of order 2..32 or
    Paley's of order 12, P a permutation and D a +-1 diagonal.  Every
    fourth draw keeps D = I and P(1) = 1, so some draws keep the member law."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        order = int(rng.choice([2, 4, 8, 12, 16, 32]))
        base = paley_order_12() if order == 12 else hadamard.build(order).ints
        perm, d = rng.permutation(order), rng.choice([-1, 1], order)
        if i % 2:
            d[:] = 1
        if i % 4 in (2, 3):
            perm = np.concatenate([[0], perm[perm != 0]])
        ints = (d[:, None] * base * d)[perm][:, perm]
        yield order // 2, hadamard.build(order, custom={order: ints})


def test_each_law_admits_one_reading_and_one_order():
    # the proofs beside MEMBER_MIXER_READING and COMPOSITION_ORDER: the
    # cross-column mixer never keeps the row-product law; the same-column one
    # keeps it only with an all-plus row 1, where the shift-first composition
    # equals the direct encoder entry for entry
    registries = [
        *(("sylvester", n) for n in (1, 2, 4, 8, 16)),
        ("alt4", 2), ("paley", 6), ("minus", 1),
        *(("flipped", n) for n in (2, 4, 8, 16)),
    ]
    matrices = [(N, sign_matrix(name, N)) for name, N in registries]
    matrices += conjugated_draws(seed=40, count=100)
    lawful = 0
    for N, H in matrices:
        assert not row_product_law_holds(N, H, cross_column_mixer)
        holds = row_product_law_holds(N, H, member_mixer)
        assert isinstance(resolution(resolve_member_mixer_reading, N, H), dict) == holds
        if holds:
            lawful += 1
            assert (H.row(1) == 1).all()
            assert resolve_composition_order(N, H) == {
                "order": "family-shift-first",
                "max_overlap_deviation": 0.0,
                "max_phase_deviation": 0.0,
                "matrix_equal_to_direct": True,
            }
    assert 5 < lawful < len(matrices)  # beyond the five Sylvester registries, some draws keep the law
