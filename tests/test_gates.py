"""Basic gate toolbox: actions, involutions, unitarity, the nonlocal mixer."""

import numpy as np
import pytest

from dense_oracle import basis_state, mixer_csc
from sdc import hadamard
from sdc.errors import ArgOutOfRange, OrderMismatch
from sdc.gates import (
    channel_hadamard_gate,
    channel_sign_gate,
    channel_swap_gate,
    hadamard_layer,
    ladder_shift_gate,
    nonlocal_mixer,
    position_controlled_swap,
)
from sdc.hilbert import (
    StateVector,
    apply,
    compose_perms,
    identity_perm,
    label_to_index,
)


def ket(N, n):
    return basis_state((2 * N,), (label_to_index(n, N),))


class TestChannelSign:
    def test_action(self):
        g = channel_sign_gate(2, 1)
        assert np.array_equal(np.asarray(g) @ ket(2, 1).amp, ket(2, 1).amp)
        assert np.array_equal(np.asarray(g) @ ket(2, -1).amp, -ket(2, -1).amp)
        assert np.array_equal(np.asarray(g) @ ket(2, 2).amp, ket(2, 2).amp)

    def test_dense_form(self):
        assert np.array_equal(np.asarray(channel_sign_gate(2, 1)), np.diag([1, 1, -1, 1]))

    def test_square_is_identity(self):
        g = np.asarray(channel_sign_gate(3, 2))
        assert np.array_equal(g @ g, np.eye(6))

    def test_site_range(self):
        with pytest.raises(ArgOutOfRange):
            channel_sign_gate(2, 3)


class TestChannelSwap:
    def test_action(self):
        g = np.asarray(channel_swap_gate(2, 2))
        assert np.array_equal(g @ ket(2, 2).amp, ket(2, -2).amp)
        assert np.array_equal(g @ ket(2, -2).amp, ket(2, 2).amp)
        assert np.array_equal(g @ ket(2, 1).amp, ket(2, 1).amp)

    def test_square_is_identity(self):
        g = np.asarray(channel_swap_gate(4, 3))
        assert np.array_equal(g @ g, np.eye(8))

    def test_conjugation_flips_the_sign_gate(self):
        # swap . sign . swap acts as the negated sign pattern on the pair
        N, n = 2, 1
        swap, sign = channel_swap_gate(N, n), channel_sign_gate(N, n)
        conj = compose_perms(swap, compose_perms(sign, swap))
        assert np.array_equal(np.asarray(conj) @ ket(N, n).amp, -ket(N, n).amp)
        assert np.array_equal(np.asarray(conj) @ ket(N, -n).amp, ket(N, -n).amp)


class TestLadderShift:
    def test_examples_with_wraparound(self):
        g = np.asarray(ladder_shift_gate(3, 1))
        assert np.array_equal(g @ ket(3, 2).amp, ket(3, 3).amp)
        assert np.array_equal(g @ ket(3, -3).amp, ket(3, -1).amp)

    def test_zero_power_is_identity(self):
        assert np.array_equal(np.asarray(ladder_shift_gate(4, 0)), np.eye(8))

    def test_inverse_power(self):
        up, down = ladder_shift_gate(5, 1), ladder_shift_gate(5, -1)
        assert np.array_equal(np.asarray(compose_perms(down, up)), np.eye(10))

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 16])
    def test_matches_the_label_by_label_map(self, N):
        # channel +-n goes to +-m with m - 1 = (n - 1 + power) mod N
        for power in range(-2 * N, 2 * N + 1):
            expected = np.empty(2 * N, dtype=np.intp)
            for n in range(1, N + 1):
                m = (n - 1 + power) % N + 1
                expected[label_to_index(n, N)] = label_to_index(m, N)
                expected[label_to_index(-n, N)] = label_to_index(-m, N)
            assert np.array_equal(ladder_shift_gate(N, power).target, expected)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_cycle_order(self, N):
        op = identity_perm(2 * N)
        step = ladder_shift_gate(N, 1)
        for _ in range(N):
            op = compose_perms(step, op)
        assert np.array_equal(np.asarray(op), np.eye(2 * N))


class TestChannelHadamard:
    def test_action(self):
        g = np.asarray(channel_hadamard_gate(2, 1))
        out = g @ ket(2, 1).amp
        expected = (ket(2, 1).amp + ket(2, -1).amp) / np.sqrt(2)
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_involution(self):
        g = np.asarray(channel_hadamard_gate(3, 2))
        assert np.max(np.abs(g @ g - np.eye(6))) < 1e-12

    def test_distinct_sites_commute(self):
        a = np.asarray(channel_hadamard_gate(2, 1))
        b = np.asarray(channel_hadamard_gate(2, 2))
        assert np.max(np.abs(a @ b - b @ a)) == 0.0

    def test_layer_equals_product(self):
        N = 4
        product = np.eye(2 * N, dtype=complex)
        for n in range(1, N + 1):
            product = np.asarray(channel_hadamard_gate(N, n)) @ product
        assert np.max(np.abs(np.asarray(hadamard_layer(N)) - product)) < 1e-12


class TestControlledSwap:
    def test_negative_control_flips_partner(self):
        N = 2
        g = position_controlled_swap(N)
        src = basis_state((4, 4), (label_to_index(-1, N), label_to_index(2, N)))
        dst = basis_state((4, 4), (label_to_index(-1, N), label_to_index(-2, N)))
        out = np.zeros_like(src.amp)
        out[g.target] = g.phase * src.amp
        assert np.array_equal(out, dst.amp)

    def test_positive_control_is_identity(self):
        N = 2
        g = position_controlled_swap(N)
        src = basis_state((4, 4), (label_to_index(1, N), label_to_index(2, N)))
        out = np.zeros_like(src.amp)
        out[g.target] = g.phase * src.amp
        assert np.array_equal(out, src.amp)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_involution(self, N):
        g = np.asarray(position_controlled_swap(N))
        assert np.array_equal(g @ g, np.eye(4 * N * N))


class TestNonlocalMixer:
    def test_trivial_at_one_channel(self):
        mixer = nonlocal_mixer(1, hadamard.build(1))
        assert np.array_equal(np.asarray(mixer), np.eye(4))

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_unitary_involution(self, N):
        m = np.asarray(nonlocal_mixer(N, hadamard.build(N)))
        eye = np.eye(4 * N * N)
        assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-10
        assert np.max(np.abs(m @ m - eye)) < 1e-10

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_matches_per_ket_oracle(self, N):
        # independent route: evaluate the defining action ket by ket
        HN = hadamard.build(N)
        dim = 2 * N
        oracle = np.zeros((dim * dim, dim * dim), dtype=complex)
        for l in range(1, N + 1):
            for m in range(1, N + 1):
                for rt in (+1, -1):
                    for rp in (+1, -1):
                        col = label_to_index(rt * l, N) * dim + label_to_index(rp * m, N)
                        for n in range(1, N + 1):
                            sl = ((l + n - 2) % N) + 1
                            sm = ((m + n - 2) % N) + 1
                            row = label_to_index(rt * sl, N) * dim + label_to_index(rp * sm, N)
                            oracle[row, col] += HN.ints[m - 1, sm - 1] / np.sqrt(N)
        got = np.asarray(nonlocal_mixer(N, HN))
        assert np.max(np.abs(got - oracle)) < 1e-14

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 32])
    def test_block_form_equals_the_csc_build(self, N):
        HN = hadamard.build(N)
        assert np.array_equal(np.asarray(nonlocal_mixer(N, HN)), mixer_csc(N, HN).toarray())

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 32])
    def test_block_matvec_rounds_like_the_csc_matvec(self, N):
        # mixer rows do not ascend, so only adding each block's terms by
        # ascending flat column gives the sparse product's bits
        HN = hadamard.build(N)
        op, csc = nonlocal_mixer(N, HN), mixer_csc(N, HN)
        rng = np.random.default_rng(N)
        for trial in range(20):
            amp = rng.standard_normal(4 * N * N) + 1j * rng.standard_normal(4 * N * N)
            if trial % 2:
                keep = rng.random(amp.size) >= 0.7
                keep[rng.integers(amp.size)] = True
                amp *= keep
            s = StateVector((2 * N, 2 * N), amp / np.linalg.norm(amp))
            nz = np.flatnonzero(s.amp)
            assert apply(op, None, s).amp.tobytes() == (csc[:, nz] @ s.amp[nz]).tobytes()

    def test_order_must_match(self):
        with pytest.raises(OrderMismatch, match="mixer needs order 2, got 4"):
            nonlocal_mixer(2, hadamard.build(4))


@pytest.mark.parametrize("N", [1, 2, 4])
def test_every_gate_is_unitary(N):
    ops = [channel_sign_gate(N, 1), channel_swap_gate(N, 1), ladder_shift_gate(N, 1),
           channel_hadamard_gate(N, 1), position_controlled_swap(N),
           np.asarray(nonlocal_mixer(N, hadamard.build(N)))]
    for op in ops:
        m = np.asarray(op)
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-10
