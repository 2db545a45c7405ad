"""Maximally entangled two-particle bases over 2N spatial channels.

Two equivalent families are provided.  The standard family pairs channel +-n
of the first particle with a signed partner channel of the second, chosen by
a family index (k, r); member index j selects a sign row of the Hadamard
matrix.  Its one construction is the direct encoder `encode_direct`: the
state with label (k, r, j) is that encoder's signed permutation read as a
(2N)x(2N) amplitude grid over sqrt(2N), i.e. (U_label x I)|Phi+>.  The
compact family is the image of the standard one under a fixed relabeling of
the first particle and carries one Hadamard sign per basis ket, which is the
form the measurement-side grand operator is built from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ArgOutOfRange, NoLocalMapFound, OrderMismatch
from .hadamard import HadamardMatrix
from .hilbert import (
    SignedPermutationOp,
    StateVector,
    apply,
    label_to_index,
)

__all__ = [
    "BellLabel",
    "all_labels",
    "label_to_message",
    "message_to_label",
    "compose_family",
    "encode_direct",
    "bell_state",
    "compact_bell_state",
    "compact_partner",
    "bell_basis_matrix",
    "first_particle_interleave",
    "CompactRelabel",
    "derive_compact_relabel",
]


@dataclass(frozen=True)
class BellLabel:
    """Family/sign/member triple (k, r, j) naming one of the 4N^2 basis states."""

    k: int
    r: int
    j: int

    def validate(self, N: int) -> "BellLabel":
        if not 1 <= self.k <= N:
            raise ArgOutOfRange(f"k={self.k} outside 1..{N}")
        if self.r not in (+1, -1):
            raise ArgOutOfRange(f"r={self.r} must be +1 or -1")
        if not 1 <= self.j <= 2 * N:
            raise ArgOutOfRange(f"j={self.j} outside 1..{2 * N}")
        return self


def all_labels(N: int) -> list[BellLabel]:
    """All 4N^2 labels in the fixed enumeration order (k asc, r=+1 first, j asc)."""
    return [
        BellLabel(k, r, j)
        for k in range(1, N + 1)
        for r in (+1, -1)
        for j in range(1, 2 * N + 1)
    ]


def label_to_message(label: BellLabel, N: int) -> int:
    """Fixed label<->integer bijection: m = ((k-1)*2 + (1-r)/2)*2N + (j-1)."""
    label.validate(N)
    family = (label.k - 1) * 2 + (0 if label.r == +1 else 1)
    return family * 2 * N + (label.j - 1)


def message_to_label(message: int, N: int) -> BellLabel:
    if not 0 <= message < 4 * N * N:
        raise ArgOutOfRange(f"message {message} outside 0..{4 * N * N - 1}")
    family, j_off = divmod(message, 2 * N)
    k, r_off = divmod(family, 2)
    return BellLabel(k + 1, +1 if r_off == 0 else -1, j_off + 1)


def compose_family(k: int, r: int, kp: int, rp: int, N: int) -> tuple[int, int]:
    """Family composition rule: (k, r) acting on (k', r') gives
    ((k + k' - 1) mod N, r * r') with the zero-free reduction into 1..N."""
    return ((k + kp - 2) % N) + 1, r * rp


def encode_direct(N: int, H: HadamardMatrix, label: BellLabel) -> SignedPermutationOp:
    """Encoding unitary for one message label, placed sign by sign.

    Sends partner channel f(n) to +n with sign h[j, 2n-1] and -f(n) to -n
    with sign h[j, 2n]; every column holds exactly one +-1, so the result is
    a signed permutation.
    """
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    label.validate(N)
    n = np.arange(N)
    # f(n) = n + (k-1), reduced zero-free into 1..N (0-based: mod N)
    f = (n + label.k - 1) % N
    # partner of +n is r*f(n), of -n is -r*f(n); -v sits at index N+v-1
    plus, minus = (f, f + N) if label.r == +1 else (f + N, f)
    row = H.row(label.j)
    target = np.empty(2 * N, dtype=np.intp)
    phase = np.empty(2 * N, dtype=np.complex128)
    target[plus], target[minus] = n, n + N
    phase[plus], phase[minus] = row[0::2], row[1::2]
    return SignedPermutationOp(2 * N, target, phase)


def bell_state(N: int, label: BellLabel, H: HadamardMatrix) -> StateVector:
    """Standard-family basis state: the dense view of `encode_direct` / sqrt(2N).

    Channel +n of the first particle carries Hadamard sign h[j, 2n-1] and is
    paired with partner channel f(n); channel -n carries h[j, 2n] and pairs
    with -f(n).  All 2N nonzero amplitudes equal +-1/sqrt(2N).
    """
    dim = 2 * N
    amp = np.asarray(encode_direct(N, H, label)).reshape(-1) / np.sqrt(dim)
    return StateVector((dim, dim), amp)


def compact_partner(N: int, k: int, r: int, m: int) -> int:
    """Partner label (1..2N) of compact first-particle label m.

    Compact labels interleave the half-axes of the first particle (odd m is
    channel +(m+1)/2, even m is channel -m/2).  The signed partner channel is
    reduced into 1..2N through the same block embedding the basis indexing
    uses (+v -> v, -v -> N+v).  This is the unique convention under which the
    compact family stays orthonormal and locally related to the standard one.
    """
    if not 1 <= m <= 2 * N:
        raise ArgOutOfRange(f"m={m} outside 1..{2 * N}")
    n = (m + 1) // 2
    sign = r if m % 2 == 1 else -r
    v = ((n + k - 2) % N) + 1  # zero-free reduction of n + (k-1) into 1..N
    return v if sign > 0 else N + v


def compact_bell_state(N: int, label: BellLabel, H: HadamardMatrix) -> StateVector:
    """Compact-family basis state: sum_m h[j, m] |m, partner(m)> / sqrt(2N)."""
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    label.validate(N)
    dim = 2 * N
    grid = np.zeros((dim, dim), dtype=np.complex128)
    row = H.row(label.j)
    for m in range(1, dim + 1):
        grid[m - 1, compact_partner(N, label.k, label.r, m) - 1] = row[m - 1]
    return StateVector((dim, dim), grid.reshape(-1) / np.sqrt(dim))


def bell_basis_matrix(N: int, H: HadamardMatrix, compact: bool = False) -> np.ndarray:
    """Stack of all 4N^2 basis states as rows, in all_labels order."""
    make = compact_bell_state if compact else bell_state
    return np.array([make(N, lab, H).amp for lab in all_labels(N)])


def first_particle_interleave(N: int) -> SignedPermutationOp:
    """Index permutation sending channel +n to slot 2n-2 and -n to slot 2n-1."""
    target = np.empty(2 * N, dtype=np.intp)
    for n in range(1, N + 1):
        target[label_to_index(n, N)] = 2 * n - 2
        target[label_to_index(-n, N)] = 2 * n - 1
    return SignedPermutationOp(2 * N, target, np.ones(2 * N, dtype=np.complex128))


@dataclass(frozen=True)
class CompactRelabel:
    """Local permutation pair carrying the standard basis onto the compact one.

    (perm_a x perm_b) bell_state(lab) == compact_bell_state(label_map[lab])
    holds amplitude-exactly for every label.  `method` records whether the
    pair came from the exhaustive search or the constructive candidate.
    """

    perm_a: SignedPermutationOp
    perm_b: SignedPermutationOp
    label_map: dict[BellLabel, BellLabel]
    method: str


def _amplitude_key(amp: np.ndarray) -> bytes:
    """Exact identity of an amplitude vector: its support and the values on it."""
    nz = np.flatnonzero(amp)
    # + 0.0 folds a -0.0 imaginary part into +0.0
    return nz.tobytes() + (amp[nz] + 0.0).tobytes()


def _relocated_matches(
    perm_a: SignedPermutationOp,
    perm_b: SignedPermutationOp,
    standard: dict[BellLabel, StateVector],
    compact: dict[bytes, BellLabel],
) -> dict[BellLabel, BellLabel] | None:
    """Label bijection matching relocated standard states to compact ones, or None.

    `compact` maps each compact state's `_amplitude_key` to its label, so every
    relocated state is matched by one exact lookup.
    """
    mapping: dict[BellLabel, BellLabel] = {}
    for lab, state in standard.items():
        hit = compact.get(_amplitude_key(apply(perm_b, 1, apply(perm_a, 0, state)).amp))
        if hit is None:
            return None
        mapping[lab] = hit
    # a bijection: no two standard states may land on one compact state
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def derive_compact_relabel(N: int, H: HadamardMatrix) -> CompactRelabel:
    """Find local permutations relating the standard and compact families.

    For 2N <= 4 the search is exhaustive over all ((2N)!)^2 permutation pairs
    in lexicographic order and returns the first full match, which makes the
    result reproducible and usable as an oracle.  For larger N the known
    constructive pair (interleave the first particle, identity on the second)
    is verified against every label instead.  If no pair passes, the decoder
    must fall back to an explicit basis-change unitary; that situation is
    reported through NoLocalMapFound rather than papered over.
    """
    dim = 2 * N
    standard = {lab: bell_state(N, lab, H) for lab in all_labels(N)}
    compact = {_amplitude_key(compact_bell_state(N, lab, H).amp): lab for lab in all_labels(N)}
    ones = np.ones(dim, dtype=np.complex128)

    if dim <= 4:
        for pa in itertools.permutations(range(dim)):
            perm_a = SignedPermutationOp(dim, np.array(pa, dtype=np.intp), ones)
            for pb in itertools.permutations(range(dim)):
                perm_b = SignedPermutationOp(dim, np.array(pb, dtype=np.intp), ones)
                mapping = _relocated_matches(perm_a, perm_b, standard, compact)
                if mapping is not None:
                    return CompactRelabel(perm_a, perm_b, mapping, "exhaustive")
        raise NoLocalMapFound(f"no local permutation pair found at N={N}")

    perm_a = first_particle_interleave(N)
    perm_b = SignedPermutationOp(dim, np.arange(dim), ones)
    mapping = _relocated_matches(perm_a, perm_b, standard, compact)
    if mapping is None:
        raise NoLocalMapFound(f"constructive relabel failed verification at N={N}")
    return CompactRelabel(perm_a, perm_b, mapping, "constructive")
