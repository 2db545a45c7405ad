"""Maximally entangled two-particle bases over 2N spatial channels.

Two equivalent families are provided.  The standard family pairs channel +-n
of the first particle with a signed partner channel of the second, chosen by
a family index (k, r); member index j selects a sign row of the Hadamard
matrix.  The compact family is the image of the standard one under one fixed
relabeling, `first_particle_interleave`, and carries one Hadamard sign per
basis ket; its pairing (`compact_partner_table`) fixes the index blocks on
which `decoder.grand_blocks` repeats one Hadamard block.  Each state is
(U x I)|Phi+> for a signed permutation U = Psi_j T_f (Werner's factoring: a
+-1 diagonal per member after a permutation per family), and a family is
held as those factors, two (2N)^2 arrays (`FamilyFactors`), both families'
in closed form: the standard family's from `family_pairing`, its one index
formula, which `encoder_table` and `decoder.certify_grand` read too.  The
basis residuals, the relabeling, the encoder laws and the reading
resolutions read the factors; the whole-family table and the per-block
factoring are oracles in `tests/dense_oracle.py`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ArgOutOfRange, OrderMismatch
from .hadamard import HadamardMatrix
from .hilbert import SignedPermutationOp, StateVector

__all__ = [
    "BellLabel",
    "all_labels",
    "label_to_message",
    "message_to_label",
    "compose_family",
    "encode_direct",
    "family_pairing",
    "encoder_table",
    "bell_state",
    "compact_partner_table",
    "FamilyFactors",
    "family_factors",
    "table_residuals",
    "first_particle_interleave",
    "compact_relabel_holds",
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
    a signed permutation.  It is the one row of `encoder_table` for the
    label's message id.
    """
    table = encoder_table(N, H, [label_to_message(label, N)])
    return SignedPermutationOp(2 * N, table.target[0], table.phase[0])


def family_pairing(N: int, families) -> tuple[np.ndarray, np.ndarray]:
    """The standard encoders' index formula, one row of 2N per family id.

    Column i is partner channel +-c (c = i mod N + 1, minus for i >= N).  In
    family (k, r) it pairs with first-particle channel n = c - (k-1),
    zero-free mod N, on i's half-axis when r = +1 and on the other one when
    r = -1; the sign is h[j, 2n-1] on +n and h[j, 2n] on -n.  So every
    member's encoder is Werner's Psi_j T_f: family f's `target` row T_f and
    the columns of H its members' signs come from (`column`) depend on the
    family alone, and member j carries h[j, column[i]] on target[i].
    """
    k_off, r_minus = np.divmod(np.asarray(families, dtype=np.intp)[..., None], 2)
    i = np.arange(2 * N)
    n = (i % N - k_off) % N  # 0-based channel; -n sits at index N + n
    minus = (i >= N) != (r_minus == 1)
    return n + N * minus, 2 * n + minus


def encoder_table(N: int, H: HadamardMatrix, messages) -> SignedPermutationOp:
    """`encode_direct` of each message id, as one stack of len(messages) rows,
    read off `family_pairing`.  Each row is a signed permutation by
    construction, so the stack is not checked.
    """
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    family, member = np.divmod(np.asarray(messages, dtype=np.intp), 2 * N)
    target, column = family_pairing(N, family)
    phase = H.ints[member[:, None], column].astype(np.complex128)
    return SignedPermutationOp._trusted(2 * N, target, phase)


def bell_state(N: int, label: BellLabel, H: HadamardMatrix) -> StateVector:
    """Standard-family basis state: the dense view of `encode_direct` / sqrt(2N).

    Channel +n of the first particle carries Hadamard sign h[j, 2n-1] and is
    paired with partner channel f(n); channel -n carries h[j, 2n] and pairs
    with -f(n).  All 2N nonzero amplitudes equal +-1/sqrt(2N).
    """
    op = encode_direct(N, H, label)
    return StateVector((op.dim, op.dim), np.asarray(op).reshape(-1) / np.sqrt(op.dim))


def compact_partner_table(N: int) -> np.ndarray:
    """Partner index (0..2N-1) of compact first label m, at [family slot, m-1].

    Families are in `all_labels` order.  Compact labels interleave the
    half-axes of the first particle (odd m is channel +(m+1)/2, even m is
    -m/2), and label m pairs with channel +-((m+1)/2 + k-1, zero-free mod N):
    sign r for odd m, -r for even m.  This is the unique convention under
    which the compact family stays orthonormal and locally related to the
    standard one.
    """
    m = np.arange(1, 2 * N + 1)
    k = np.repeat(np.arange(1, N + 1), 2)[:, None]
    r = np.tile([1, -1], N)[:, None]
    v = ((m + 1) // 2 + k - 2) % N  # index of +v; -v sits at N + v
    return np.where((r > 0) == (m % 2 == 1), v, N + v)


@dataclass(frozen=True, eq=False)
class FamilyFactors:
    """One Bell family as Werner's factors: the encoder of member j of family
    f is D_{f,j} = Psi_j T_f, carrying psi[j, target[f, i]] on first-particle
    index target[f, i] in column i.  psi and target are both (2N, 2N)."""

    psi: np.ndarray
    target: np.ndarray


def family_factors(N: int, H: HadamardMatrix, compact: bool = False) -> FamilyFactors:
    """One family's factors, in closed form.  Standard: T_f is row f of
    `family_pairing`'s targets, and psi is read off family 0's sign
    columns; member j's encoder in every family f carries psi[j, T_f],
    because each family's sign columns are its targets after
    `first_particle_interleave`.  Compact: psi = h, and T_f inverts row f
    of `compact_partner_table`.  The oracle is `factor_blocks` over the
    encoders, in `tests/dense_oracle.py`."""
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    if compact:
        target = np.argsort(compact_partner_table(N), axis=1)
        return FamilyFactors(H.ints.astype(np.complex128), target)
    target, column = family_pairing(N, np.arange(2 * N))
    psi = np.empty((2 * N, 2 * N), dtype=np.complex128)
    psi[:, target[0]] = H.ints[:, column[0]]
    return FamilyFactors(psi, target)


def table_residuals(factors: FamilyFactors) -> dict:
    """Worst Bell-basis residuals of one family, exact for +-1 phases.

    gram: max|<a|b> - delta_ab|, where <a|b> = sum_i [t_a[i] == t_b[i]]
    p_a[i] conj(p_b[i]) / 2N.  Block f's rows are psi's columns permuted by
    T_f, so every Gram block is psi psi^H / 2N, and blocks f and g overlap
    on the indices where T_f and T_g agree; one sort per column shows
    whether any do, and only then are those pairs multiplied.
    partial_trace: max|rho - I/2N| for the reduced states diag(|phase|^2) /
    2N.  amplitude: max||amp| - 1/sqrt(2N)|.
    The oracles are `tests/dense_oracle.py::whole_table_residuals` and
    `tests/dense_oracle.py::table_residuals_grouped`.
    """
    psi, target = factors.psi, factors.target
    dim, mags = len(target), np.abs(psi)
    gram = float(np.max(np.abs(psi @ psi.conj().T - dim * np.eye(dim))))
    # two families agree somewhere only if a sorted column holds a target twice
    shared = np.any(np.diff(np.sort(target, axis=0), axis=0) == 0)
    for f, g in itertools.combinations(range(dim), 2) if shared else ():
        p = psi[:, target[f][target[f] == target[g]]]
        if p.size:
            gram = max(gram, float(np.max(np.abs(p @ p.conj().T))))
    return {
        "gram": gram / dim,
        "partial_trace": float(np.max(np.abs(mags**2 - 1.0))) / dim,
        "amplitude": float(np.max(np.abs(mags - 1.0)) / np.sqrt(dim)),
    }


def first_particle_interleave(N: int) -> SignedPermutationOp:
    """Index permutation sending channel +n to slot 2n-2 and -n to slot 2n-1."""
    i = np.arange(2 * N)
    target = np.where(i < N, 2 * i, 2 * (i - N) + 1)
    return SignedPermutationOp(2 * N, target, np.ones(2 * N, dtype=np.complex128))


def compact_relabel_holds(standard: FamilyFactors, compact: FamilyFactors) -> bool:
    """Whether `first_particle_interleave` carries every standard row onto the
    compact row of the same label, exactly in every index and sign.

    The interleave P sends (U x I)|Phi+> to (P U x I)|Phi+>, and P Psi_j T_f
    = Psi'_j (P T_f) with Psi'_j[P[t]] = Psi_j[t]; so it holds exactly when P[T_std] == T_cmp and psi_std ==
    psi_cmp[:, P].  The oracles are `tests/dense_oracle.py::whole_table_relabel_holds`
    and the exhaustive search `tests/dense_oracle.py::dense_relabel`.
    """
    P = first_particle_interleave(len(standard.target) // 2).target
    return (
        standard.target.shape == compact.target.shape
        and np.array_equal(P[standard.target], compact.target)
        and np.array_equal(standard.psi, compact.psi[:, P])
    )
