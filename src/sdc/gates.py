"""Basic operator toolbox on the 2N-channel position space.

Single-channel gates (sign flip, half-axis swap, channel Hadamard), the
cyclic ladder shift, and the two nonlocal two-particle gates used by the
measurement pipeline: the position-controlled swap and the Hadamard-weighted
channel mixer.  Every gate is a `SignedPermutationOp` or a `PermutedBlockOp`:
the channel Hadamard and the layer are the block [[1, 1], [1, -1]]/sqrt(2)
on one channel pair or all N, the mixer 4N copies of the scaled order-N
Hadamard block.  The sign, swap and ladder gates are the identity with one
sign flipped, one pair swapped, or a cyclic shift, so they are built as
trusted signed permutations; their arguments are still checked.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgOutOfRange, NonUnitaryResolution, OrderMismatch
from .hadamard import HadamardMatrix
from .hilbert import PermutedBlockOp, SignedPermutationOp, TOL_CHAINED, label_to_index

__all__ = [
    "channel_sign_gate",
    "channel_swap_gate",
    "ladder_shift_gate",
    "channel_hadamard_gate",
    "hadamard_layer",
    "position_controlled_swap",
    "nonlocal_mixer",
    "resolve_mixer_normalization",
    "MIXER_READINGS",
]


_PAIR_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def _check_site(N: int, n: int):
    if not 1 <= n <= N:
        raise ArgOutOfRange(f"channel {n} outside 1..{N}")


def channel_sign_gate(N: int, n: int) -> SignedPermutationOp:
    """Diagonal gate: +1 on channel +n, -1 on channel -n, identity elsewhere."""
    _check_site(N, n)
    phase = np.ones(2 * N, dtype=np.complex128)
    phase[label_to_index(-n, N)] = -1.0
    return SignedPermutationOp._trusted(2 * N, np.arange(2 * N), phase)


def channel_swap_gate(N: int, n: int) -> SignedPermutationOp:
    """Swap channels +n and -n, identity elsewhere."""
    _check_site(N, n)
    target = np.arange(2 * N)
    a, b = label_to_index(n, N), label_to_index(-n, N)
    target[a], target[b] = b, a
    return SignedPermutationOp._trusted(2 * N, target, np.ones(2 * N, dtype=np.complex128))


def ladder_shift_gate(N: int, power: int) -> SignedPermutationOp:
    """Cyclic channel shift by `power` within each half-axis, modulo N.

    Negative powers shift backwards; power 0 is the identity.  Channel +n
    sits at index n-1 and -n at N+n-1, so each half-axis block is rotated.
    """
    shifted = (np.arange(N) + power % N) % N
    target = np.concatenate([shifted, shifted + N])
    return SignedPermutationOp._trusted(2 * N, target, np.ones(2 * N, dtype=np.complex128))


def channel_hadamard_gate(N: int, n: int) -> PermutedBlockOp:
    """Hadamard rotation of the (+n, -n) channel pair: (swap + sign)/sqrt(2).

    Acts as [[1, 1], [1, -1]]/sqrt(2) on the pair and as identity elsewhere;
    involutory because the two generators anticommute on the pair.
    """
    _check_site(N, n)
    return PermutedBlockOp([[label_to_index(n, N), label_to_index(-n, N)]], _PAIR_HADAMARD, 2 * N)


def hadamard_layer(N: int) -> PermutedBlockOp:
    """Product of the channel Hadamards over all N sites.

    The sites are disjoint, so the product is order-independent: the pair
    block on every pair (n - 1, N + n - 1) of the index embedding.
    """
    return PermutedBlockOp(np.arange(N)[:, None] + [0, N], _PAIR_HADAMARD)


def position_controlled_swap(N: int) -> SignedPermutationOp:
    """Two-particle gate: flip the second particle's half-axis when the first
    particle sits on the negative half; do nothing otherwise."""
    dim = 2 * N
    i1, i2 = np.divmod(np.arange(dim * dim), dim)
    target = i1 * dim + np.where(i1 >= N, (i2 + N) % dim, i2)
    return SignedPermutationOp(dim * dim, target, np.ones(dim * dim, dtype=np.complex128))


# Candidate normalizations for the mixer rows: exact integer signs scaled by
# 1/sqrt(N) (equivalently, normalized Hadamard entries with no extra factor),
# and the doubly normalized variant.  Only a scaling that yields a unitary
# involution is accepted.
MIXER_READINGS = (
    ("pm1-entries-over-sqrt-dim", lambda N: 1.0 / np.sqrt(N)),
    ("double-normalized", lambda N: 1.0 / N),
)


def _resolved_scale(N: int, HN: HadamardMatrix) -> tuple[float, dict]:
    """(scale, report) of the first reading whose scaled HN is a unitary involution.

    `HadamardMatrix` proves HN symmetric with HN·HN = N·I in integers, so
    HN·s is a unitary involution exactly when N·s² = 1; the reading that
    means 1/sqrt(N) passes with residuals 0.0, any other fails by |N·s² - 1|.
    """
    if HN.order != N:
        raise OrderMismatch(f"mixer needs order {N}, got {HN.order}")
    tried = []
    for name, scale in MIXER_READINGS:
        s = scale(N)
        tried.append((name, abs(N * s * s - 1.0)))
        if tried[-1][1] <= TOL_CHAINED:
            return s, {"reading": name, "unitarity_residual": 0.0, "involution_residual": 0.0}
    raise NonUnitaryResolution(f"no mixer normalization candidate passed: {tried}")


def resolve_mixer_normalization(N: int, HN: HadamardMatrix) -> dict:
    """Pick the mixer row normalization that makes it a unitary involution.

    Returns the chosen reading name with its residuals so reports can carry
    the decision.  Raises NonUnitaryResolution if no candidate passes, which
    would mean the sign-pattern convention itself is wrong.
    """
    return _resolved_scale(N, HN)[1]


def nonlocal_mixer(N: int, HN: HadamardMatrix) -> PermutedBlockOp:
    """Two-particle channel mixer completing the measurement pipeline.

    Sends the pair ket with magnitudes (l, m) and signs (r, r') to the
    Hadamard-row-weighted superposition over n of the pair with magnitudes
    (shift_l(n), shift_m(n)) and the same signs; the weight is the row-m entry
    at the shifted column.  The shift keeps the sign sector (a, b) and the
    class d = l - m mod N, and sends magnitude q = m - 1 to q' with weight
    HN[q, q'] = HN[q', q], so each of the 4N (a, b, d) classes is one copy of
    the block HN·s on the kets ((q + d) mod N + N·a, q + N·b), q = 0..N-1.
    The normalization reading s is resolved, not assumed.
    """
    scale = _resolved_scale(N, HN)[0]
    q = np.arange(N)
    first = (q + np.arange(N)[:, None]) % N  # row d: (q + d) mod N
    rows = [(first + N * a) * 2 * N + q + N * b for a in (0, 1) for b in (0, 1)]
    return PermutedBlockOp(np.concatenate(rows), HN.ints * scale)
