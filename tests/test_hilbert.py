"""Indexing, state arithmetic, and operator application."""

import numpy as np
import pytest
from dense_oracle import (
    apply_block_loop,
    apply_dense,
    basis_state,
    bell_table,
    grand_operator_loop,
    index_to_label,
    inner,
    mixer_csc,
    partial_trace,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sdc import hadamard
from sdc.bell import BellLabel, bell_state
from sdc.decoder import grand_blocks, make_decoder
from sdc.encoder import MEMBER_MIXER_READINGS, family_shift, member_mixer
from sdc.errors import DimensionMismatch, LabelOutOfRange, UnsupportedOperator
from sdc.gates import (
    channel_hadamard_gate,
    channel_sign_gate,
    channel_swap_gate,
    hadamard_layer,
    ladder_shift_gate,
    nonlocal_mixer,
)
from sdc.hilbert import (
    PermutedBlockOp,
    SignedPermutationOp,
    StateVector,
    apply,
    compose_perms,
    identity_perm,
    label_to_index,
    phi_plus_overlap,
    state_from_dict,
    state_to_dict,
)


class TestIndexing:
    @pytest.mark.parametrize("n,N,expected", [(1, 4, 0), (-1, 4, 4), (-4, 4, 7), (3, 4, 2)])
    def test_convention(self, n, N, expected):
        assert label_to_index(n, N) == expected

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 8])
    def test_round_trip(self, N):
        for i in range(2 * N):
            assert label_to_index(index_to_label(i, N), N) == i
        for n in list(range(1, N + 1)) + [-m for m in range(1, N + 1)]:
            assert index_to_label(label_to_index(n, N), N) == n

    @pytest.mark.parametrize("n", [0, 5, -5])
    def test_out_of_range(self, n):
        with pytest.raises(LabelOutOfRange):
            label_to_index(n, 4)


def _full_swap(N):
    """Permutation sending every +n to -n and back."""
    dim = 2 * N
    target = np.array([label_to_index(-index_to_label(i, N), N) for i in range(dim)])
    return SignedPermutationOp(dim, target, np.ones(dim, dtype=np.complex128))


class TestApply:
    def test_identity(self):
        N = 2
        s = bell_state(N, BellLabel(1, -1, 1), hadamard.build(2 * N))
        out = apply(identity_perm(2 * N), 0, s)
        assert np.array_equal(out.amp, s.amp)

    def test_swap_moves_first_particle(self):
        N = 2
        s = basis_state((4, 4), (label_to_index(1, N), label_to_index(-1, N)))
        out = apply(_full_swap(N), 0, s)
        expected = basis_state((4, 4), (label_to_index(-1, N), label_to_index(-1, N)))
        assert np.array_equal(out.amp, expected.amp)

    def test_sparse_matches_dense_on_random_states(self):
        # the permutation path must agree with explicit matrix action
        N = 4
        rng = np.random.default_rng(7)
        dim = 2 * N
        perm = rng.permutation(dim)
        phase = rng.choice([1.0, -1.0], size=dim).astype(np.complex128)
        op = SignedPermutationOp(dim, perm, phase)
        dense = np.asarray(op)
        for _ in range(100):
            amp = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
            amp /= np.linalg.norm(amp)
            s = StateVector((dim, dim), amp)
            for sub in (0, 1):
                fast = apply(op, sub, s).amp
                grid = s.grid()
                slow = (dense @ grid if sub == 0 else grid @ dense.T).reshape(-1)
                assert np.max(np.abs(fast - slow)) < 1e-12

    def test_composition_matches_dense_product(self):
        N = 4
        rng = np.random.default_rng(11)
        dim = 2 * N
        a = SignedPermutationOp(dim, rng.permutation(dim),
                                rng.choice([1.0, -1.0], size=dim).astype(np.complex128))
        b = SignedPermutationOp(dim, rng.permutation(dim),
                                rng.choice([1.0, -1.0], size=dim).astype(np.complex128))
        amp = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        amp /= np.linalg.norm(amp)
        s = StateVector((dim, dim), amp)
        chained = apply(a, 0, apply(b, 0, s)).amp
        product = apply_dense(np.asarray(a) @ np.asarray(b), 0, s).amp
        assert np.max(np.abs(chained - product)) < 1e-12

    def test_norm_preserved_by_unitaries(self):
        N = 3
        rng = np.random.default_rng(3)
        dim = 2 * N
        op = SignedPermutationOp(dim, rng.permutation(dim),
                                 np.exp(2j * np.pi * rng.random(dim)))
        for _ in range(20):
            amp = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
            amp /= np.linalg.norm(amp)
            s = StateVector((dim, dim), amp)
            assert abs(apply(op, 1, s).norm() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        s = basis_state((4, 4), (0, 0))
        with pytest.raises(DimensionMismatch):
            apply(identity_perm(6), 0, s)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_permutation_and_matrix_routes_agree_exactly(self, data):
        # every output entry has one nonzero term, a product with +-1 or +-i,
        # so the relocation route and the matrix contraction agree bit for
        # bit; this pins __array__'s convention |i> -> phase[i] |target[i]>
        dim = data.draw(st.integers(1, 8))
        other = data.draw(st.integers(1, 8))

        def draw_op():
            target = data.draw(st.permutations(range(dim)))
            phase = data.draw(st.lists(st.sampled_from([1, -1, 1j, -1j]),
                                       min_size=dim, max_size=dim))
            return SignedPermutationOp(dim, target, phase)

        a, b = draw_op(), draw_op()
        assert np.array_equal(np.asarray(compose_perms(a, b)), np.asarray(a) @ np.asarray(b))
        for dims, sub in (((dim, other), 0), ((other, dim), 1)):
            amp = data.draw(st.lists(st.complex_numbers(max_magnitude=4, allow_subnormal=False),
                                     min_size=dim * other, max_size=dim * other))
            s = StateVector(dims, amp)
            assert np.array_equal(apply(a, sub, s).amp, apply_dense(a, sub, s).amp)

    def test_apply_full_permutation(self):
        N = 1
        s = bell_state(N, BellLabel(1, -1, 1), hadamard.build(2))
        out = apply(identity_perm(4), None, s)
        assert np.array_equal(out.amp, s.amp)


class TestOneApply:
    """One `apply` for both operator kinds, on either factor or the whole space."""

    SITES = [(0, 5), (1, 3), (None, 15)]  # (subsystem, the dim it acts on) for dims (5, 3)

    @staticmethod
    def random_state(rng):
        return StateVector((5, 3), rng.standard_normal(15) + 1j * rng.standard_normal(15))

    @pytest.mark.parametrize("subsystem,dim", SITES)
    def test_block_op_matches_the_column_loop_and_the_dense_matrix(self, subsystem, dim):
        rng = np.random.default_rng(dim)
        # blocks of order 2 on shuffled rows, one row uncovered, complex and real blocks
        rows = rng.permutation(dim)[: (dim - 1) // 2 * 2].reshape(-1, 2)
        for block in (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                      rng.standard_normal((2, 2))):
            op = PermutedBlockOp(rows, block, dim)
            for _ in range(5):
                s = self.random_state(rng)
                out = apply(op, subsystem, s)
                assert out.amp.tobytes() == apply_block_loop(op, subsystem, s).amp.tobytes()
                dense = apply_dense(op, subsystem, s).amp
                assert np.allclose(out.amp, dense, rtol=0, atol=1e-15 * np.abs(dense).max())

    @pytest.mark.parametrize("subsystem,dim", SITES)
    def test_signed_permutation_equals_the_dense_matrix_exactly(self, subsystem, dim):
        rng = np.random.default_rng(10 + dim)
        phase = rng.choice([1, -1, 1j, -1j], size=dim)
        op = SignedPermutationOp(dim, rng.permutation(dim), phase)
        for _ in range(5):
            s = self.random_state(rng)
            assert np.array_equal(apply(op, subsystem, s).amp, apply_dense(op, subsystem, s).amp)

    @pytest.mark.parametrize("subsystem,dim", SITES)
    def test_a_dense_matrix_is_refused(self, subsystem, dim):
        s = self.random_state(np.random.default_rng(0))
        with pytest.raises(UnsupportedOperator, match="cannot apply a ndarray, not an sdc.hilbert operator"):
            apply(np.eye(dim), subsystem, s)

    def test_shape_mismatch_texts(self):
        s = basis_state((4, 4), (0, 0))
        for subsystem, text in ((0, "operator shape (6, 6) != subsystem dim 4"),
                                (None, "operator shape (6, 6) != state dim 16"),
                                (2, "no subsystem 2 in dims (4, 4)")):
            with pytest.raises(DimensionMismatch) as err:
                apply(identity_perm(6), subsystem, s)
            assert str(err.value) == text


class TestPartialTrace:
    def test_product_state_is_rank_one(self):
        N = 2
        s = basis_state((4, 4), (label_to_index(1, N), label_to_index(-1, N)))
        rho = partial_trace(s, keep=0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_base_entangled_state_is_maximally_mixed(self):
        s = bell_state(1, BellLabel(1, -1, 1), hadamard.build(2))
        rho = partial_trace(s, keep=1)
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12

    def test_specific_label_at_two_pairs(self):
        # independent oracle: reduced density by explicit reshaping sums
        s = bell_state(2, BellLabel(2, +1, 3), hadamard.build(4))
        grid = s.amp.reshape(4, 4)
        oracle = np.einsum("ab,cb->ac", grid, grid.conj())
        rho = partial_trace(s, keep=0)
        assert np.max(np.abs(rho - oracle)) < 1e-15
        assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-12

    def test_trace_and_positivity_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            amp = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            amp /= np.linalg.norm(amp)
            s = StateVector((4, 4), amp)
            for keep in (0, 1):
                rho = partial_trace(s, keep)
                assert abs(np.trace(rho).real - 1.0) < 1e-12
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
                eig = np.linalg.eigvalsh(rho)
                assert eig.min() > -1e-10 and eig.max() < 1 + 1e-10

    def test_needs_two_subsystems(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(basis_state((4,), (1,)), keep=0)


class TestInner:
    def test_normalized_self_overlap(self):
        s = bell_state(2, BellLabel(1, +1, 2), hadamard.build(4))
        assert abs(inner(s, s) - 1.0) < 1e-12

    def test_base_states_orthogonal(self):
        H = hadamard.build(2)
        a = bell_state(1, BellLabel(1, -1, 1), H)
        b = bell_state(1, BellLabel(1, -1, 2), H)
        assert abs(inner(a, b)) < 1e-12

    def test_distinct_families_orthogonal(self):
        H = hadamard.build(4)
        a = bell_state(2, BellLabel(1, -1, 1), H)
        b = bell_state(2, BellLabel(2, -1, 1), H)
        assert abs(inner(a, b)) < 1e-12

    def test_dims_must_match(self):
        with pytest.raises(DimensionMismatch):
            inner(basis_state((2, 2), (0, 0)), basis_state((4, 4), (0, 0)))


def test_json_round_trip():
    s = bell_state(2, BellLabel(2, -1, 3), hadamard.build(4))
    again = state_from_dict(state_to_dict(s))
    assert again.dims == s.dims
    assert np.max(np.abs(again.amp - s.amp)) == 0.0


def closed_form_gates(N):
    """Every sign, swap and ladder gate at N, and the identity."""
    yield identity_perm(2 * N)
    for n in range(1, N + 1):
        yield channel_sign_gate(N, n)
        yield channel_swap_gate(N, n)
    for power in range(-2 * N, 2 * N + 1):
        yield ladder_shift_gate(N, power)


def assert_equals_its_checked_rewrap(op):
    checked = SignedPermutationOp(op.dim, op.target.copy(), op.phase.copy())
    assert type(op.dim) is int and op.dim == checked.dim
    assert op.target.dtype == checked.target.dtype == np.intp
    assert op.phase.dtype == checked.phase.dtype == np.complex128
    assert np.array_equal(op.target, checked.target)
    assert np.array_equal(op.phase, checked.phase)
    assert not op.target.flags.writeable and not op.phase.flags.writeable


class TestTrustedConstruction:
    """Closed-form builds skip the constructor's checks and lose nothing."""

    @pytest.mark.parametrize("N", range(1, 17))
    def test_gates_equal_their_checked_rewrap(self, N):
        ops = list(closed_form_gates(N))
        for op in ops:
            assert_equals_its_checked_rewrap(op)
        assert_equals_its_checked_rewrap(compose_perms(ops[1], ops[-1]))

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_mixers_and_shifts_equal_their_checked_rewrap(self, N):
        H = hadamard.build(2 * N)
        for reading in MEMBER_MIXER_READINGS:
            for j in range(1, 2 * N + 1):
                assert_equals_its_checked_rewrap(member_mixer(N, H, j, reading))
        for k in range(1, N + 1):
            for r in (+1, -1):
                assert_equals_its_checked_rewrap(family_shift(N, k, r))

    @pytest.mark.parametrize(
        "dim,target,phase,message",
        [
            (3, [0, 0, 2], [1, 1, 1], "target is not a permutation"),
            (3, [0, 1], [1, 1], "target/phase length must equal dim"),
            (3, [0, 1, 2], [1, 1j, 0.5], "phases must have unit modulus"),
            (2, [0, 1], [np.nan, 1], "phases must have unit modulus"),
        ],
        ids=["repeated-target", "wrong-length", "non-unit-phase", "nan-phase"],
    )
    def test_public_constructor_still_checks(self, dim, target, phase, message):
        with pytest.raises(DimensionMismatch, match=message):
            SignedPermutationOp(dim, np.array(target), np.array(phase))

    @pytest.mark.parametrize(
        "row,message",
        [
            (([0, 0, 2], [1, 1, 1]), "target is not a permutation"),
            (([2, 0, 1], [1, -1, 1.5]), "phases must have unit modulus"),
            (([2, 0, 1], [1, np.nan, 1]), "phases must have unit modulus"),
        ],
        ids=["repeated-target", "non-unit-phase", "nan-phase"],
    )
    def test_stacked_check_rejects_any_bad_row(self, row, message):
        good = np.arange(3), np.ones(3)
        SignedPermutationOp(3, *(np.array([g, g]) for g in good))
        with pytest.raises(DimensionMismatch, match=message):
            SignedPermutationOp(3, *(np.array([g, b]) for g, b in zip(good, row)))

    def test_gate_builds_and_compositions_run_no_check(self, monkeypatch):
        # the checks cost most of verify when every internal build ran them
        calls = []
        check = SignedPermutationOp.__post_init__

        def counted(self):
            calls.append(self.dim)
            check(self)

        monkeypatch.setattr(SignedPermutationOp, "__post_init__", counted)
        N, H = 4, hadamard.build(8)
        product = identity_perm(2 * N)
        for op in closed_form_gates(N):
            product = compose_perms(op, product)
        for j in range(1, 2 * N + 1):
            product = compose_perms(member_mixer(N, H, j, "same-column"), product)
        for k in range(1, N + 1):
            product = compose_perms(family_shift(N, k, -1), product)
        stack = bell_table(N, H)
        for outer, inner_op in ((product, stack), (stack, product), (stack, stack)):
            compose_perms(outer, inner_op)
        assert calls == []
        SignedPermutationOp(product.dim, product.target, product.phase)
        assert calls == [2 * N]  # the counter sees the public constructor


def random_stack(rng, rows, dim):
    """A checked stack of `rows` random signed permutations with +-1, +-i phases."""
    target = np.array([rng.permutation(dim) for _ in range(rows)])
    phase = rng.choice([1, -1, 1j, -1j], size=(rows, dim))
    return SignedPermutationOp(dim, target, phase)


class TestStackedOperators:
    """A stack of signed permutations against its rows and their dense matrices."""

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_rows_and_dense_view(self, N):
        rng, dim = np.random.default_rng(N), 2 * N
        stack = random_stack(rng, 5, dim)
        dense = np.asarray(stack)
        assert stack.shape == dense.shape == (5, dim, dim)
        for i in range(5):
            row = stack[i]
            assert row == SignedPermutationOp(dim, stack.target[i], stack.phase[i])
            assert np.array_equal(np.asarray(row), dense[i])
        assert stack[[4, 0, 0]] == SignedPermutationOp(
            dim, stack.target[[4, 0, 0]], stack.phase[[4, 0, 0]]
        )

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_compose_broadcasts_like_the_row_by_row_products(self, N):
        rng, dim = np.random.default_rng(10 + N), 2 * N
        a, b = random_stack(rng, 4, dim), random_stack(rng, 4, dim)
        single = a[1]
        for outer, inner_op in ((single, b), (a, single), (a, b)):
            got = np.asarray(compose_perms(outer, inner_op))
            assert got.shape == (4, dim, dim)
            assert np.array_equal(got, np.asarray(outer) @ np.asarray(inner_op))
        # leading axes broadcast too: (2, 1) rows against (1, 3) rows
        left = SignedPermutationOp(dim, a.target[:2, None], a.phase[:2, None])
        right = SignedPermutationOp(dim, b.target[None, :3], b.phase[None, :3])
        got = np.asarray(compose_perms(left, right))
        assert np.array_equal(got, np.asarray(left) @ np.asarray(right))
        with pytest.raises(DimensionMismatch):
            compose_perms(a, left)

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_overlap_is_the_dense_inner_product(self, N):
        rng, dim = np.random.default_rng(20 + N), 2 * N
        a = random_stack(rng, 6, dim)
        # rows 0-2 of b are a's rows with every sign flipped: overlap -1
        target = np.where(np.arange(6)[:, None] < 3, a.target, random_stack(rng, 6, dim).target)
        b = SignedPermutationOp(dim, target, -a.phase)
        phi_plus = StateVector((dim, dim), np.eye(dim).reshape(-1) / np.sqrt(dim))
        dense_a, dense_b = ([apply(op[i], 0, phi_plus).amp for i in range(6)] for op in (a, b))
        got = phi_plus_overlap(a, b)
        assert np.allclose(got, [np.vdot(x, y) for x, y in zip(dense_a, dense_b)], rtol=0, atol=1e-12)
        assert np.all(got[:3] == -1)
        one_to_many = [np.vdot(dense_a[0], y) for y in dense_b]
        assert np.allclose(phi_plus_overlap(a[0], b), one_to_many, rtol=0, atol=1e-12)

    def test_apply_refuses_a_stack(self):
        stack = random_stack(np.random.default_rng(0), 2, 4)
        s = basis_state((4, 4), (0, 0))
        with pytest.raises(DimensionMismatch):
            apply(stack, 0, s)
        with pytest.raises(DimensionMismatch):
            phi_plus_overlap(stack, identity_perm(6))


class TestPartialCover:
    """A permuted block on some indices only is the identity on the rest."""

    BLOCK = np.array([[1, 2j], [3, -4]]) / 5

    def test_dense_matrix_is_the_identity_off_its_blocks(self):
        op = PermutedBlockOp([[4, 1]], self.BLOCK, 6)
        expected = np.eye(6, dtype=complex)
        expected[np.ix_([4, 1], [4, 1])] = self.BLOCK
        assert op.shape == (6, 6) and np.array_equal(np.asarray(op), expected)
        gate = np.asarray(channel_hadamard_gate(3, 2))
        off = np.ones((6, 6), bool)
        off[np.ix_([1, 4], [1, 4])] = False
        assert np.array_equal(gate[off], np.eye(6)[off])

    @pytest.mark.parametrize("subsystem", [0, 1])
    def test_apply_leaves_uncovered_amplitudes_bit_unchanged(self, subsystem):
        rng = np.random.default_rng(subsystem)
        s = StateVector((5, 5), rng.standard_normal(25) + 1j * rng.standard_normal(25))
        op = PermutedBlockOp([[3, 0]], self.BLOCK, 5)
        out = apply(op, subsystem, s)
        uncovered = [1, 2, 4]
        assert np.take(out.grid(), uncovered, subsystem).tobytes() == (
            np.take(s.grid(), uncovered, subsystem).tobytes()
        )
        expected = np.tensordot(np.asarray(op), np.moveaxis(s.grid(), subsystem, 0), axes=(1, 0))
        assert np.allclose(out.grid(), np.moveaxis(expected, 0, subsystem), rtol=0, atol=1e-15)

    def test_apply_full_leaves_uncovered_amplitudes_bit_unchanged(self):
        rng = np.random.default_rng(2)
        s = StateVector((5, 5), rng.standard_normal(25) + 1j * rng.standard_normal(25))
        op = PermutedBlockOp([[7, 2], [11, 20]], self.BLOCK, 25)
        out = apply(op, None, s)
        uncovered = np.setdiff1d(np.arange(25), op.rows)
        assert out.amp[uncovered].tobytes() == s.amp[uncovered].tobytes()
        assert np.allclose(out.amp, np.asarray(op) @ s.amp, rtol=0, atol=1e-15)

    # (subsystem, dims): each acts on an axis or space of dim 4
    @pytest.mark.parametrize("subsystem,dims", [(0, (4, 3)), (1, (3, 4)), (None, (2, 2))])
    @pytest.mark.parametrize(
        "rows",
        [[[-1, 0]], [[1, 1]], [[3, 4]]],
        ids=["negative-row-would-wrap", "repeated-row", "row-past-dim"],
    )
    def test_apply_refuses_blocks_off_distinct_rows_in_range(self, rows, subsystem, dims):
        # before the check these wrapped to index 3, kept one of two
        # entries, or died on IndexError; the constructor still takes them
        s = StateVector(dims, np.arange(np.prod(dims), dtype=complex))
        op = PermutedBlockOp(rows, self.BLOCK, 4)
        assert not op.placed
        with pytest.raises(DimensionMismatch, match=r"block rows must be distinct indices inside 0\.\.3"):
            apply(op, subsystem, s)

    def test_placed_reads_distinct_rows_inside_the_dim(self):
        assert PermutedBlockOp([[3, 0], [1, 2]], self.BLOCK, 4).placed
        assert PermutedBlockOp(np.empty((0, 2), int), self.BLOCK, 4).placed
        assert not PermutedBlockOp([[0, 1], [2, 0]], self.BLOCK, 4).placed

    def test_operators_that_differ_only_in_dim_are_unequal(self):
        a, b = PermutedBlockOp([[0, 1]], self.BLOCK, 4), PermutedBlockOp([[0, 1]], self.BLOCK, 6)
        assert a != b and a == PermutedBlockOp([[0, 1]], self.BLOCK, 4)
        assert PermutedBlockOp([[0, 1]], self.BLOCK) == PermutedBlockOp([[0, 1]], self.BLOCK, 2)

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_full_covers_densify_to_their_independent_builds(self, N):
        H, HN = hadamard.build(2 * N), hadamard.build(N)
        assert np.array_equal(np.asarray(grand_blocks(N, H)), grand_operator_loop(N, H).toarray())
        assert np.array_equal(np.asarray(nonlocal_mixer(N, HN)), mixer_csc(N, HN).toarray())
        eye = np.eye(N)
        layer = (np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)).astype(np.complex128)
        dense = np.asarray(hadamard_layer(N))
        assert dense.dtype == layer.dtype and np.array_equal(dense, layer)


class TestValueSemantics:
    def test_equal_builds_compare_and_hash_equal(self):
        a, b = identity_perm(4), identity_perm(4)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        flipped = SignedPermutationOp(4, np.arange(4), [1, 1, -1, 1])
        assert a != flipped
        assert a != identity_perm(6)
        assert a != np.eye(4) and a != "identity" and (a == None) is False  # noqa: E711
        # the same entries as a one-row stack have another shape
        assert a != SignedPermutationOp(4, [np.arange(4)], [np.ones(4)])
        # -0.0 and 0.0 compare equal, so they must hash alike
        signed_zero = SignedPermutationOp(4, np.arange(4), np.full(4, complex(1, -0.0)))
        assert a == signed_zero and hash(a) == hash(signed_zero)

    def test_block_operators_compare_and_hash_by_value(self):
        H = hadamard.build(4)
        a, b = (make_decoder(2, H).stages[-1][0] for _ in range(2))
        assert a == b and hash(a) == hash(b)
        block = a.block.copy()
        block[0, 0] = -block[0, 0]
        assert a != PermutedBlockOp(a.rows, block)
        assert a != PermutedBlockOp(a.rows[::-1], a.block)
        assert a != a.block

    def test_states_copy_the_callers_array(self):
        a = np.zeros(4, complex)
        s = StateVector((2, 2), a)
        before = hash(s)
        a[0] = 1
        assert s.amp[0] == 0 and hash(s) == before and s == StateVector((2, 2), np.zeros(4))

    def test_states_compare_and_hash_by_value(self):
        a, b = basis_state((2, 2), (0, 0)), basis_state((2, 2), (0, 0))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != basis_state((2, 2), (0, 1))
        assert a != StateVector((4,), a.amp)  # the same amplitudes under other dims
        assert a != a.amp and a != "state" and (a == None) is False  # noqa: E711
        # -0.0 and 0.0 compare equal, so they must hash alike
        signed_zero = StateVector((2, 2), [1, complex(-0.0, -0.0), 0, 0])
        assert a == signed_zero and hash(a) == hash(signed_zero)

    def test_held_arrays_are_read_only(self):
        H, HN = hadamard.build(4), hadamard.build(2)
        grand = make_decoder(2, H).stages[-1][0]
        mixer = nonlocal_mixer(2, HN)
        stack = bell_table(2, H)
        arrays = (
            H.ints, H.normalized, grand.rows, grand.block, mixer.rows, mixer.block,
            stack.target, stack.phase, stack[1:3].target, stack[[0, 2]].phase,
        )
        for array in arrays:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        assert np.array_equal(H.normalized, H.ints / 2)
