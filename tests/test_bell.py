"""Bell families: construction, orthonormality, entanglement, relabeling."""

import tracemalloc

import numpy as np
import pytest
from dense_oracle import (
    bell_basis_matrix,
    bell_table,
    compact_bell_state,
    compact_partner,
    compact_state_loop,
    dense_relabel,
    dense_residuals,
    encode_direct_loop,
    encode_law_residuals_loop,
    factor_blocks,
    factor_table,
    index_to_label,
    interleave_loop,
    partial_trace,
    sign_matrix,
    stack_blocks,
    table_basis,
    table_blocks,
    table_residuals_grouped,
    whole_table_relabel_holds,
    whole_table_residuals,
)

import sdc.bell as bell_mod
from sdc import hadamard
from sdc.bell import (
    BellLabel,
    FamilyFactors,
    all_labels,
    bell_state,
    compact_partner_table,
    compact_relabel_holds,
    compose_family,
    encode_direct,
    encoder_table,
    family_factors,
    family_pairing,
    first_particle_interleave,
    label_to_message,
    message_to_label,
    table_residuals,
)
from sdc.errors import ArgOutOfRange, OrderMismatch
from sdc.hilbert import (
    TOL_CHAINED,
    TOL_EXACT,
    SignedPermutationOp,
    apply,
    identity_perm,
    label_to_index,
)


def partners(N, k, r):
    """Signed partner channel r*f(n) of each first-particle channel +n, n = 1..N.

    Read off the direct encoder of family (k, r), which sends partner channel
    r*f(n) to +n: the column landing on row index n-1.
    """
    op = encode_direct(N, hadamard.build(2 * N), BellLabel(k, r, 1))
    source = np.argsort(op.target)
    return [index_to_label(int(source[n - 1]), N) for n in range(1, N + 1)]


class TestModularMap:
    """The signed cyclic pairing n -> r * ((n + k - 1) zero-free mod N)."""

    def test_identity_member(self):
        for N in (1, 2, 4):
            assert partners(N, 1, +1) == list(range(1, N + 1))

    def test_sign_flip_member(self):
        assert partners(4, 1, -1) == [-1, -2, -3, -4]

    def test_wraparound(self):
        for N in (2, 4, 8):
            assert partners(N, 2, +1)[N - 1] == 1

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_unsigned_part_is_bijection(self, N):
        for k in range(1, N + 1):
            for r in (+1, -1):
                values = {abs(v) for v in partners(N, k, r)}
                assert values == set(range(1, N + 1))

    def test_argument_range(self):
        with pytest.raises(ArgOutOfRange):
            encode_direct(2, hadamard.build(4), BellLabel(3, +1, 1))


class TestStandardFamily:
    def test_base_states_at_one_pair(self):
        H = hadamard.build(2)
        plus = bell_state(1, BellLabel(1, -1, 1), H)
        minus = bell_state(1, BellLabel(1, -1, 2), H)
        # |1,-1> is index pair (0,1); |-1,1> is (1,0)
        expected_plus = np.zeros(4, dtype=complex)
        expected_plus[0 * 2 + 1] = expected_plus[1 * 2 + 0] = 1 / np.sqrt(2)
        expected_minus = np.zeros(4, dtype=complex)
        expected_minus[0 * 2 + 1] = 1 / np.sqrt(2)
        expected_minus[1 * 2 + 0] = -1 / np.sqrt(2)
        assert np.max(np.abs(plus.amp - expected_plus)) < 1e-15
        assert np.max(np.abs(minus.amp - expected_minus)) < 1e-15

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_gram_is_identity(self, N):
        basis = bell_basis_matrix(N, hadamard.build(2 * N))
        gram = basis.conj() @ basis.T
        assert np.max(np.abs(gram - np.eye(4 * N * N))) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_maximal_entanglement(self, N):
        H = hadamard.build(2 * N)
        target = np.eye(2 * N) / (2 * N)
        for lab in all_labels(N):
            s = bell_state(N, lab, H)
            for keep in (0, 1):
                assert np.max(np.abs(partial_trace(s, keep) - target)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_amplitudes_are_structured(self, N):
        H = hadamard.build(2 * N)
        allowed = {0.0, 1.0 / np.sqrt(2 * N)}
        for lab in all_labels(N):
            mags = np.abs(bell_state(N, lab, H).amp)
            for value in np.unique(np.round(mags, 14)):
                assert min(abs(value - a) for a in allowed) < 1e-12
            assert np.count_nonzero(mags) == 2 * N

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            bell_state(2, BellLabel(1, +1, 1), hadamard.build(2))

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_matches_the_channel_by_channel_reference(self, N):
        # +n pairs with r*f(n) under sign h[j, 2n-1]; -n with -r*f(n) under h[j, 2n]
        H = hadamard.build(2 * N)
        for lab in all_labels(N):
            grid = np.zeros((2 * N, 2 * N), dtype=np.complex128)
            row = H.row(lab.j)
            for n in range(1, N + 1):
                fn = lab.r * (((n + lab.k - 2) % N) + 1)
                grid[label_to_index(n, N), label_to_index(fn, N)] = row[2 * n - 2]
                grid[label_to_index(-n, N), label_to_index(-fn, N)] = row[2 * n - 1]
            expected = grid.reshape(-1) / np.sqrt(2 * N)
            assert np.array_equal(bell_state(N, lab, H).amp, expected)


class TestCompactFamily:
    def test_example_at_one_pair(self):
        s = compact_bell_state(1, BellLabel(1, +1, 1), hadamard.build(2))
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)  # (|1,1> + |2,2>)/sqrt2
        assert np.max(np.abs(s.amp - expected)) < 1e-15

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_gram_is_identity(self, N):
        basis = bell_basis_matrix(N, hadamard.build(2 * N), compact=True)
        gram = basis.conj() @ basis.T
        assert np.max(np.abs(gram - np.eye(4 * N * N))) < 1e-12

    @pytest.mark.parametrize("N", [1, 2])
    def test_maximal_entanglement(self, N):
        H = hadamard.build(2 * N)
        target = np.eye(2 * N) / (2 * N)
        for lab in all_labels(N):
            s = compact_bell_state(N, lab, H)
            for keep in (0, 1):
                assert np.max(np.abs(partial_trace(s, keep) - target)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_partner_maps_disagree_pointwise(self, N):
        # distinct families must never share a partner at any first label;
        # this is what makes the family orthonormal and the readout injective
        partner = compact_partner_table(N)
        for m in range(1, 2 * N + 1):
            assert len(set(partner[:, m - 1])) == 2 * N

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_partner_table_matches_the_scalar_formula(self, N):
        expected = [
            [compact_partner(N, k, r, m) - 1 for m in range(1, 2 * N + 1)]
            for k in range(1, N + 1)
            for r in (+1, -1)
        ]
        assert np.array_equal(compact_partner_table(N), expected)

    def test_gram_identity_at_eight_pairs(self):
        basis = bell_basis_matrix(8, hadamard.build(16), compact=True)
        assert np.max(np.abs(basis.conj() @ basis.T - np.eye(256))) < 1e-12


class TestCompactRelabel:
    """The decoder's pair: interleave the first particle, identity on the second."""

    def test_single_pair_is_identity(self):
        H = hadamard.build(2)
        assert first_particle_interleave(1) == identity_perm(2)
        assert bell_table(1, H, compact=True) == bell_table(1, H)

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 32])
    def test_relabel_holds_at_every_size(self, N):
        H = hadamard.build(2 * N)
        assert compact_relabel_holds(family_factors(N, H), family_factors(N, H, compact=True))

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_relabel_equation_holds_for_all_labels(self, N):
        H = hadamard.build(2 * N)
        interleave = first_particle_interleave(N)
        for lab in all_labels(N):
            moved = apply(interleave, 0, bell_state(N, lab, H))
            assert np.array_equal(moved.amp, compact_bell_state(N, lab, H).amp)

    def test_relabel_composes_one_family_block_at_a_time(self):
        # given both families' factors, the relabel holds only (2N)^2-entry
        # temporaries: under 0.05 tables at N = 32 (a table is its targets
        # plus phases, 6 MiB there)
        N = 32
        H = hadamard.build(2 * N)
        standard = bell_table(N, H)
        size = standard.target.nbytes + standard.phase.nbytes
        factors = family_factors(N, H), family_factors(N, H, compact=True)
        tracemalloc.start()
        try:
            assert compact_relabel_holds(*factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * size


class TestFamilyTables:
    """Each family's table of signed permutations against the dense per-state route."""

    @pytest.mark.parametrize("compact", [False, True], ids=["standard", "compact"])
    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_table_rows_are_the_dense_states(self, N, compact):
        H = hadamard.build(2 * N)
        dense = bell_basis_matrix(N, H, compact)
        assert np.array_equal(table_basis(bell_table(N, H, compact)), dense)

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 32])
    def test_standard_table_is_the_per_label_encoder_stack(self, N):
        H = hadamard.build(2 * N)
        rows = [encode_direct_loop(N, H, lab) for lab in all_labels(N)]
        table = bell_table(N, H)
        for got, want in zip((table.target, table.phase), map(np.array, zip(*rows))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_encode_direct_matches_the_channel_by_channel_reference(self, N):
        H = hadamard.build(2 * N)
        for lab in all_labels(N):
            op, (target, phase) = encode_direct(N, H, lab), encode_direct_loop(N, H, lab)
            assert op.target.tobytes() == target.tobytes()
            assert op.phase.tobytes() == phase.tobytes()

    def test_encoder_table_rows_follow_the_requested_messages(self):
        H = hadamard.build(8)
        picked = [63, 0, 17, 17]
        assert encoder_table(4, H, picked) == bell_table(4, H)[picked]
        with pytest.raises(OrderMismatch):
            encoder_table(2, H, [0])

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_compact_states_match_the_channel_by_channel_reference(self, N):
        H = hadamard.build(2 * N)
        for lab in all_labels(N):
            got, want = compact_bell_state(N, lab, H), compact_state_loop(N, lab, H)
            assert np.array_equal(got.amp, want.amp)

    @pytest.mark.parametrize("compact", [False, True], ids=["standard", "compact"])
    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_residuals_are_exact_and_match_the_dense_route(self, N, compact):
        H = hadamard.build(2 * N)
        exact = table_residuals(family_factors(N, H, compact))
        dense = dense_residuals(bell_basis_matrix(N, H, compact))
        assert exact == {"gram": 0.0, "partial_trace": 0.0, "amplitude": 0.0}
        for name, value in dense.items():
            assert abs(value - exact[name]) <= 1e-12

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_shared_partner_breaks_both_grams(self, N, monkeypatch):
        table = bell_mod.compact_partner_table

        def colliding(n):
            # family slot 1 takes slot 0's partner at first label 1; the swap
            # inside its own row keeps that row a permutation
            partner = table(n).copy()
            other = int(np.flatnonzero(partner[1] == partner[0, 0])[0])
            partner[1, [0, other]] = partner[1, [other, 0]]
            return partner

        monkeypatch.setattr(bell_mod, "compact_partner_table", colliding)
        H = hadamard.build(2 * N)
        built = bell_table(N, H, compact=True)
        streamed = table_residuals(family_factors(N, H, compact=True))
        exact = streamed["gram"]
        dense = dense_residuals(bell_basis_matrix(N, H, compact=True))["gram"]
        assert exact >= 1.0 / (2 * N)
        assert abs(exact - dense) <= 1e-12
        assert streamed == table_residuals_grouped(built) == whole_table_residuals(built)

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_flipped_phase_breaks_both_grams(self, N):
        # the encoder of message 0, label (1, +1, 1), gets one sign flipped:
        # its block still shares one target row, but member 1's signs now
        # differ between families, so the table does not factor; the
        # whole-table routes read the deviation
        table = bell_table(N, hadamard.build(2 * N))
        phase = table.phase.copy()
        phase[0, 0] *= -1
        flipped = SignedPermutationOp(table.dim, table.target, phase)
        assert factor_blocks(table_blocks(flipped))[1] is False
        dense = dense_residuals(table_basis(flipped))["gram"]
        whole = whole_table_residuals(flipped)["gram"]
        assert whole >= 1.0 / N and abs(whole - dense) <= 1e-12
        assert table_residuals_grouped(flipped)["gram"] == whole
        assert encode_law_residuals_loop(flipped)["family_rule"] > TOL_CHAINED

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_relabel_matches_the_dense_search(self, N):
        H = hadamard.build(2 * N)
        assert compact_relabel_holds(family_factors(N, H), family_factors(N, H, compact=True))
        found = dense_relabel(N, H)
        assert found is not None  # the search finds some pair at 2N <= 4
        if N <= 2:
            return
        method, perm_a, perm_b, label_map = found  # beyond, it checks the decoder's pair
        assert method == "constructive"
        assert perm_a == first_particle_interleave(N)
        assert perm_b == identity_perm(2 * N)
        assert all(lab == out for lab, out in label_map.items())


class TestResidualRoutes:
    """`table_residuals` reads the family factors; the whole-table route reads
    the family blocks off one table, and the grouped route searches for them."""

    @pytest.mark.parametrize("compact", [False, True], ids=["standard", "compact"])
    @pytest.mark.parametrize(
        "matrix,N",
        [
            *(("sylvester", n) for n in (1, 2, 4, 8, 16)),
            ("alt4", 2),
            ("paley", 6),
            *(("flipped", n) for n in (2, 4, 8, 16)),
        ],
    )
    def test_layout_route_equals_the_grouped_route(self, matrix, N, compact):
        H = sign_matrix(matrix, N)
        table = bell_table(N, H, compact)
        streamed = table_residuals(family_factors(N, H, compact))
        assert streamed == whole_table_residuals(table) == table_residuals_grouped(table)

    @pytest.mark.parametrize("compact", [False, True], ids=["standard", "compact"])
    def test_families_sharing_every_target_fail_on_all_routes(self, compact):
        # block 1 takes block 0's targets: the two families' states overlap,
        # and block 1's phases are no longer psi on its targets, so the
        # table does not factor, and the oracles read the overlap
        blocks = table_blocks(bell_table(4, hadamard.build(8), compact))
        blocks[1] = SignedPermutationOp._trusted(blocks[1].dim, blocks[0].target, blocks[1].phase)
        table = stack_blocks(blocks)
        assert factor_blocks(blocks)[1] is False
        assert whole_table_residuals(table)["gram"] > TOL_EXACT
        assert table_residuals_grouped(table)["gram"] > TOL_EXACT

    def test_unblocked_table_fails_on_both_routes(self):
        # member 2 of family 0 swaps two of its targets: its row is still a
        # permutation, but no longer in its family's block
        table = bell_table(2, hadamard.build(4))
        target = table.target.copy()
        target[1, [0, 1]] = target[1, [1, 0]]
        unblocked = SignedPermutationOp(table.dim, target, table.phase)
        assert factor_blocks(table_blocks(unblocked))[1] is False
        assert whole_table_residuals(unblocked)["gram"] == 1.0
        assert table_residuals_grouped(unblocked)["gram"] > TOL_EXACT

    def test_no_temporary_is_table_sized(self):
        # building the factors and reading the residuals off them hold
        # (2N)^2-entry arrays; the table's phases alone hold 4 MiB
        N = 32
        H = hadamard.build(2 * N)
        tracemalloc.start()
        try:
            table_residuals(family_factors(N, H))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


STREAMED_MATRICES = [
    *(("sylvester", n) for n in (1, 2, 4, 8, 16)),
    ("alt4", 2),
    ("paley", 6),
    *(("flipped", n) for n in (2, 4, 8, 16)),
    ("minus", 1),
]


class TestFamilyBlocks:
    """The closed-form factors against the whole tables and their blocks."""

    @pytest.mark.parametrize("compact", [False, True], ids=["standard", "compact"])
    @pytest.mark.parametrize("matrix,N", STREAMED_MATRICES)
    def test_blocks_are_the_table_rows(self, matrix, N, compact):
        # the factors stand for the table, and factoring its blocks (the
        # standard table's are `encoder_table`'s rows) gives them back
        H = sign_matrix(matrix, N)
        factors, table = family_factors(N, H, compact), bell_table(N, H, compact)
        assert factors.target.shape == factors.psi.shape == (2 * N, 2 * N)
        assert factor_table(factors) == table
        read, factored = factor_blocks(table_blocks(table))
        assert factored is True
        assert read.psi.dtype == factors.psi.dtype
        assert np.array_equal(read.target, factors.target) and np.array_equal(read.psi, factors.psi)

    @pytest.mark.parametrize("matrix,N", STREAMED_MATRICES)
    def test_streamed_relabel_equals_the_whole_table_route(self, matrix, N):
        H = sign_matrix(matrix, N)
        standard, compact = family_factors(N, H), family_factors(N, H, compact=True)
        streamed = compact_relabel_holds(standard, compact)
        assert streamed is whole_table_relabel_holds(bell_table(N, H), bell_table(N, H, compact=True))
        twisted = FamilyFactors(compact.psi * np.exp(0.1j), compact.target)
        assert not compact_relabel_holds(standard, twisted)
        assert not whole_table_relabel_holds(bell_table(N, H), factor_table(twisted))

    def test_out_of_range_block_and_wrong_order_are_refused(self):
        blocks = table_blocks(bell_table(2, hadamard.build(4)))
        assert factor_blocks(blocks)[1] is True
        with pytest.raises(IndexError):
            factor_blocks(blocks + blocks[:1])  # a fifth block has no family
        assert factor_blocks(blocks[:-1])[1] is False  # a missing block reads target -1
        for compact in (False, True):
            with pytest.raises(OrderMismatch):
                family_factors(2, hadamard.build(8), compact)

    @pytest.mark.parametrize("compact", [False, True], ids=["standard", "compact"])
    def test_a_streamed_pass_holds_one_block(self, compact):
        # both families' factors are built in closed form: the factors and
        # their (2N)^2-entry temporaries, under 0.1 tables (a table, targets
        # plus phases, is 6 MiB at N = 32)
        N = 32
        H = hadamard.build(2 * N)
        table = bell_table(N, H, compact)
        size = table.target.nbytes + table.phase.nbytes
        del table
        tracemalloc.start()
        try:
            family_factors(N, H, compact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * size


@pytest.mark.parametrize("N", [*range(1, 65), 128, 256, 512])
def test_sign_columns_are_the_interleaved_targets(N):
    # `family_factors` reads psi off family 0's sign columns; every family's
    # encoders are psi[j, T_f] because each sign column is the interleave of
    # its target
    target, column = family_pairing(N, np.arange(2 * N))
    assert np.array_equal(column, first_particle_interleave(N).target[target])


@pytest.mark.parametrize("N", range(1, 33))
def test_interleave_matches_the_channel_by_channel_reference(N):
    got = first_particle_interleave(N)
    assert got.target.tobytes() == interleave_loop(N).tobytes()
    assert np.array_equal(got.phase, np.ones(2 * N))


class TestLabels:
    def test_count(self):
        for N in (1, 2, 4):
            labels = all_labels(N)
            assert len(labels) == 4 * N * N
            assert len(set(labels)) == 4 * N * N

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_message_bijection_round_trip(self, N):
        for m in range(4 * N * N):
            assert label_to_message(message_to_label(m, N), N) == m

    def test_message_formula(self):
        # family slot is (k-1)*2 + (1-r)/2, member fills the low block
        assert label_to_message(BellLabel(1, -1, 1), 2) == 4
        assert label_to_message(BellLabel(2, +1, 3), 2) == 10
        assert message_to_label(0, 4) == BellLabel(1, +1, 1)

    def test_message_range(self):
        with pytest.raises(ArgOutOfRange):
            message_to_label(4, 1)

    def test_label_validation(self):
        with pytest.raises(ArgOutOfRange):
            BellLabel(0, 1, 1).validate(2)
        with pytest.raises(ArgOutOfRange):
            BellLabel(1, 2, 1).validate(2)
        with pytest.raises(ArgOutOfRange):
            BellLabel(1, 1, 5).validate(2)


@pytest.mark.parametrize("N", [1, 2, 4])
def test_everything_is_real_valued(N):
    # complex carriers are used throughout, so realness is a checkable
    # invariant of the construction instead of an assumption
    H = hadamard.build(2 * N)
    for lab in all_labels(N):
        assert np.max(np.abs(bell_state(N, lab, H).amp.imag)) == 0.0
        assert np.max(np.abs(compact_bell_state(N, lab, H).amp.imag)) == 0.0


class TestFamilyComposition:
    def test_identity_element(self):
        for N in (1, 2, 4):
            for kp in range(1, N + 1):
                for rp in (+1, -1):
                    assert compose_family(1, +1, kp, rp, N) == (kp, rp)

    def test_sign_flip(self):
        assert compose_family(1, -1, 1, -1, 4) == (1, +1)

    def test_wraparound(self):
        assert compose_family(2, +1, 2, +1, 2) == (1, +1)

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_fixed_op_permutes_families(self, N):
        families = [(k, r) for k in range(1, N + 1) for r in (+1, -1)]
        for k, r in families:
            images = {compose_family(k, r, kp, rp, N) for kp, rp in families}
            assert images == set(families)
