"""Encoding operators: direct form, gate composition, and the family rule."""

import numpy as np
import pytest

import sdc.encoder as enc
from sdc import hadamard
from sdc.bell import BellLabel, all_labels, bell_state, compose_family
from sdc.encoder import (
    _member_mixer_with_reading,
    encode_composed,
    encode_direct,
    encode_law_residuals,
    family_shift,
    member_mixer,
    resolve_composition_order,
    resolve_member_mixer_reading,
)
from sdc.errors import ArgOutOfRange, PropertyViolated
from sdc.gates import channel_sign_gate
from sdc.hilbert import apply, compose_perms, partial_trace

# a symmetric sign matrix of order 4 whose rows do not close under products
ALT4 = np.array([[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]])


def resolved_order(N, H):
    """`resolve_composition_order` under a fresh member-mixer resolution."""
    return resolve_composition_order(N, H, resolve_member_mixer_reading(N, H)["reading"])


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
        assert np.array_equal(
            np.asarray(member_mixer(1, H, 2)), np.asarray(channel_sign_gate(1, 1))
        )

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
                chained = apply(member_mixer(N, H, jp), 0, apply(member_mixer(N, H, j), 0, start))
                direct = apply(member_mixer(N, H, jpp), 0, start)
                assert np.max(np.abs(chained.amp - direct.amp)) < 1e-12

    def test_reading_resolution(self):
        # N = 16 checks the single-family branch
        for N in (1, 2, 4, 16):
            info = resolve_member_mixer_reading(N, hadamard.build(2 * N))
            assert info["reading"] == "same-column"
            assert info["max_deviation"] < 1e-12

    def test_failing_reading_names_its_first_deviating_member(self, monkeypatch):
        import sdc.encoder as enc

        monkeypatch.setattr(enc, "MEMBER_MIXER_READINGS", ("cross-column",))
        with pytest.raises(PropertyViolated) as info:
            resolve_member_mixer_reading(4, hadamard.build(8))
        assert "mixer 2 on BellLabel(k=1, r=1, j=1) deviates by 7.071e-01" in str(info.value)

    def test_cross_column_reading_violates_the_law(self):
        # the rejected reading builds a different operator for member 2
        N, H = 1, hadamard.build(2)
        literal = _member_mixer_with_reading(N, H, 2, "cross-column")
        resolved = member_mixer(N, H, 2)
        assert not np.array_equal(np.asarray(literal), np.asarray(resolved))

    def test_argument_range(self):
        with pytest.raises(ArgOutOfRange):
            member_mixer(2, hadamard.build(4), 5)


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

    def test_argument_range(self):
        with pytest.raises(ArgOutOfRange):
            family_shift(2, 3, +1)
        with pytest.raises(ArgOutOfRange):
            family_shift(2, 1, 0)


class TestComposedForm:
    def test_identity_label(self):
        H = hadamard.build(2)
        assert np.array_equal(np.asarray(encode_composed(1, H, BellLabel(1, +1, 1))), np.eye(2))

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
        with pytest.raises(PropertyViolated, match="neither composition order"):
            resolved_order(2, hadamard.build(4))

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_resolved_order_gives_matrix_equality(self, N):
        info = resolved_order(N, hadamard.build(2 * N))
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


def order_overlaps(N, H, reading):
    """<direct S|composed S> for every label and member-1 start S: (exact, dense).

    The composed encoder takes its member mixer in the given exponent reading.
    """
    ops = [encode_direct(N, H, BellLabel(kp, rp, 1)) for kp in range(1, N + 1) for rp in (+1, -1)]
    stack = (np.array([op.target for op in ops]), np.array([op.phase for op in ops]))
    exact, dense = [], []
    for lab in all_labels(N):
        mixer = _member_mixer_with_reading(N, H, lab.j, reading)
        direct = encode_direct(N, H, lab)
        composed = compose_perms(mixer, family_shift(N, lab.k, lab.r))
        exact.extend(
            enc._overlaps(
                enc._after(direct.target, direct.phase, *stack),
                enc._after(composed.target, composed.phase, *stack),
            )
        )
        for start in member_one_states(N, H):
            dense.append(np.vdot(apply(direct, 0, start).amp, apply(composed, 0, start).amp))
    return np.array(exact), np.array(dense)


class TestExactLawChecks:
    """The exact index/sign checks against the dense amplitude route."""

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_exact_residuals_match_the_dense_route(self, N):
        H = hadamard.build(2 * N)
        exact = encode_law_residuals(N, H)
        dense = dense_encode_law_residuals(N, H)
        assert exact == {"structure": 0.0, "family_rule": 0.0, "no_signaling": 0.0}
        for name, value in dense.items():
            assert abs(value - exact[name]) <= 1e-12
        exact_overlaps, dense_overlaps = order_overlaps(N, H, "same-column")
        assert np.max(np.abs(exact_overlaps - dense_overlaps)) <= 1e-12
        assert np.max(np.abs(np.abs(dense_overlaps) - 1.0)) <= 1e-12
        assert resolved_order(N, H)["max_overlap_deviation"] == 0.0

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_rejected_reading_overlaps_match_the_dense_route(self, N):
        # the cross-column mixer moves states off their labels: a real failure
        exact, dense = order_overlaps(N, hadamard.build(2 * N), "cross-column")
        assert np.max(np.abs(exact - dense)) <= 1e-12
        assert np.max(np.abs(np.abs(exact) - 1.0)) > 1e-10

    def test_lawless_matrix_fails_on_both_routes(self):
        H = hadamard.build(4, custom={4: ALT4})
        exact = encode_law_residuals(2, H)
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
        exact = encode_law_residuals(2, H)
        dense = dense_encode_law_residuals(2, H)
        assert exact["family_rule"] == 1.0
        for name, value in dense.items():
            assert abs(value - exact[name]) <= 1e-12
