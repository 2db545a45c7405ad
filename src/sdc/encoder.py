"""Sender-side encoding unitaries, built two independent ways.

The direct construction, `encode_direct`, is defined in `bell`, where it also
builds the standard Bell family; it places one Hadamard sign per channel
according to the label's family pairing and is a signed permutation by
inspection.  The composed construction multiplies a member mixer with a
family shift, each built as the signed permutation its gates multiply to:
the mixer's sign gates on disjoint channels give a +-1 diagonal, the shift's
half-axis swaps and ladder power a permutation (the gate products are the
oracles in `tests/dense_oracle.py`).  The text leaves two choices open, the
exponent columns of the member mixer and the order of the two factors; each
admits one value, proven beside `MEMBER_MIXER_READING` and
`COMPOSITION_ORDER`, and the laws that value must satisfy are checked and
reported.  Every law is read on the standard family's factors
(`bell.family_factors`), Werner's D_{f,j} = Psi_j T_f, a +-1 diagonal per
member after a permutation per family, as exact index and sign comparisons
on psi and T, one family at a time, so no check builds a stack of
operators.  The per-label loops and the whole-stack routes are the oracles
in `tests/dense_oracle.py`.  Every check reads a label as its message id
m = family·2N + member, by divmod; a `BellLabel` is built only to name one
in an error text and for the 2N families' (k, r).  Nothing is memoized.
"""

from __future__ import annotations

import numpy as np

from .bell import FamilyFactors, compose_family, encode_direct, family_factors, message_to_label
from .errors import ArgOutOfRange, DimensionMismatch, OrderMismatch, PropertyViolated
from .gates import ladder_shift_gate
from .hadamard import HadamardMatrix
from .hilbert import TOL_CHAINED, TOL_EXACT, SignedPermutationOp

__all__ = [
    "encode_direct",
    "member_mixer",
    "family_shift",
    "resolve_member_mixer_reading",
    "resolve_composition_order",
    "encode_law_residuals",
    "MEMBER_MIXER_READING",
    "COMPOSITION_ORDER",
]

# The member mixer's exponent columns.  Mixer j, the diagonal h[1, 2i-1] h[j, c]
# on +i and h[1, 2i] h[j, 2i] on -i, must send member j' to the member j''
# whose row is row j * row j'.  Read on +i, c = 2i ("cross-column") needs
# h[j, 2i] = h[1, 2i-1] h[j, 2i-1] for every j: column 2i = +-column 2i-1,
# but distinct columns of a Hadamard matrix are orthogonal.  c = 2i-1 makes
# the diagonal row 1 * row j, and the law row 1 * row j * row j' = row j''
# holds exactly when row 1 is all-plus and the rows close under products.
MEMBER_MIXER_READING = "same-column"

# The order of the composed encoder's factors.  Where the mixer law holds, row
# 1 is all-plus, so mixer j is Werner's Psi_j and member 1's direct encoder is
# the bare permutation T_f, which the family shift builds; the shift first
# gives Psi_j T_f = D_{f,j} entry for entry.  The mixer first gives
# T_f Psi_j, whose signs are another member's from N = 4.
COMPOSITION_ORDER = "family-shift-first"


def _member_mixer(N: int, H: HadamardMatrix, j: int) -> SignedPermutationOp:
    phase = H.row(1) * H.row(j)  # ordered by column; the diagonal takes channels +i, then -i
    return SignedPermutationOp._trusted(2 * N, np.arange(2 * N), np.concatenate([phase[0::2], phase[1::2]]))


def resolve_member_mixer_reading(N: int, H: HadamardMatrix) -> dict:
    """Check the member mixer's row-product law under `MEMBER_MIXER_READING`.

    The law: the mixer for member j sends the basis state with member j' to
    the one whose sign row is the entrywise product of rows j and j', with
    the family untouched.  Basis states are their direct encoders' signed
    permutations Psi_j' T_f (`bell.family_factors`), and the mixers are +-1
    diagonals m_j, so mixer j sends Psi_j' T_f to Psi_j'' T_f in every
    family exactly when m_j psi_j' == psi_j'', checked exactly on the
    factors.  The all-families check is
    `tests/dense_oracle.py::resolve_member_mixer_reading_all_families`.  A
    failure names the first in (j, label) order: a row product missing from
    H, or a member whose mixed state deviates from the target.
    """
    dim = 2 * N
    psi = family_factors(N, H).psi  # row m: member m + 1's sign on each first-particle index
    # product[j-1, j'-1]: the row of H (0-based) equal to row j * row j', -1 if
    # none, filled one row at a time; a +-1 row is keyed by its packed minus
    # signs, and a product of rows by the xor of theirs
    signs = np.packbits(H.ints < 0, axis=1)
    row_of = {key.tobytes(): i for i, key in enumerate(signs)}
    product = np.empty((dim, dim), dtype=np.intp)
    for i, key in enumerate(signs):
        product[i] = [row_of.get(k.tobytes(), -1) for k in key ^ signs]
    for j in range(1, dim + 1):
        # the mixer acts on the first particle, i.e. on the encoder's rows
        moved = _member_mixer(N, H, j).phase * psi
        jpp = product[j - 1]
        want = psi[jpp]  # read only where the product row exists
        bad = np.flatnonzero((jpp < 0) | ~(moved == want).all(axis=1))
        if bad.size:
            m = int(bad[0])  # the message id of member m + 1 of family (1, +1)
            if jpp[m] < 0:
                failure = f"row {j} * row {m + 1} is not a row of H"
            else:
                dev = np.max(np.abs(moved[m] - want[m])) / np.sqrt(dim)
                failure = f"mixer {j} on {message_to_label(m, N)} deviates by {dev:.3e}"
            raise PropertyViolated(f"the {MEMBER_MIXER_READING} member mixer breaks the row-product law: {failure}")
    # permutations compare exactly, so a passing check deviates by 0
    return {"reading": MEMBER_MIXER_READING, "max_deviation": 0.0, "anchor_row": 1}


def member_mixer(N: int, H: HadamardMatrix, j: int) -> SignedPermutationOp:
    """Diagonal gate product that multiplies the member index into a state.

    Channel i takes swap_i sign_i swap_i (a -1 on +i) to the power e1 and
    sign_i (a -1 on -i) to the power e2, where e1 = (h[1, 2i-1] - h[j, 2i-1]) / 2
    and e2 = (h[1, 2i] - h[j, 2i]) / 2, each read off its own column
    (`MEMBER_MIXER_READING`).  The gates act on disjoint channels and
    (-1)^((a - b) / 2) = ab for a, b = +-1, so the product is Werner's Psi_j,
    the diagonal h[1, 2i-1] h[j, 2i-1] on +i and h[1, 2i] h[j, 2i] on -i,
    built as such; `tests/dense_oracle.py::member_mixer_gates` multiplies the
    gates.  Mixer 1 is the identity, row 1 times itself, for every H.
    """
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    if not 1 <= j <= 2 * N:
        raise ArgOutOfRange(f"j={j} must lie in 1..{2 * N}")
    return _member_mixer(N, H, j)


def family_shift(N: int, k: int, r: int) -> SignedPermutationOp:
    """Gate product moving family (1, +1) to family (k, r).

    For r = -1 every half-axis pair is swapped; the ladder is then raised to
    1-k, i.e. shifted backwards k-1 steps.  The N disjoint swaps multiply to
    i -> i + N mod 2N, so the ladder's targets are rolled by N, built as such;
    `tests/dense_oracle.py::family_shift_gates` multiplies the gates.
    """
    if not 1 <= k <= N:
        raise ArgOutOfRange(f"k={k} outside 1..{N}")
    if r not in (+1, -1):
        raise ArgOutOfRange(f"r={r} must be +1 or -1")
    ladder = ladder_shift_gate(N, 1 - k)
    return ladder if r == +1 else SignedPermutationOp._trusted(2 * N, np.roll(ladder.target, N), ladder.phase)


def resolve_composition_order(N: int, H: HadamardMatrix) -> dict:
    """Check that the composed encoder, factors in `COMPOSITION_ORDER`, acts as the direct one.

    The check reads Werner's factors (`bell.family_factors`) one family at a
    time: family f's direct encoders have targets T_f and phases
    psi[j, T_f].  Its 2N member mixers, one per label, must be +-1 diagonals
    m_j (targets the identity, phases of unit modulus; the gates are built
    unchecked, so this is checked here), and its family shift, checked by
    the public constructor, has targets s and phases sigma.  The composition
    has targets s and phases m_j[s] sigma.  A composed encoder C overlaps its
    direct one D by tr(D^H C) / 2N on every start state, so a family's 2N
    overlaps sum conj(psi[:, T_f]) * phases where T_f == s, over 2N, exact
    as every sum is an integer of at most 2N; they agree as matrices (a
    stronger fact than required) when s == T_f and the phases equal
    psi[:, T_f].  The order passes if every label matches with unit overlap
    up to a global phase; the observed worst phase deviation is recorded
    alongside.  The stacked route, all labels' gates composed at once, is
    `tests/dense_oracle.py::resolve_composition_order_stacked`.
    """
    dim = 2 * N
    factors = family_factors(N, H)
    overlaps = np.empty((dim, dim), dtype=np.complex128)
    matrix_equal = True
    for f, target in enumerate(factors.target):
        direct = factors.psi[:, target]  # row j: member j + 1's direct phases, on targets T_f
        mixers = [member_mixer(N, H, j) for j in range(1, dim + 1)]
        mixer = np.array([op.phase for op in mixers])  # row j: mixer j + 1's diagonal, once checked
        stray = (np.array([op.target for op in mixers]) != np.arange(dim)).any(axis=1)
        off_unit = ~(np.max(np.abs(np.abs(mixer) - 1.0), axis=1) <= TOL_EXACT)  # NaN too
        for bad, text in ((stray, "target is not a permutation fixing every index"),
                          (off_unit, "phases must have unit modulus")):
            if bad.any():
                raise DimensionMismatch(f"member mixer {np.argmax(bad) + 1}: {text}")
        family = message_to_label(f * dim, N)
        shift = family_shift(N, family.k, family.r)
        shift = SignedPermutationOp(dim, shift.target, shift.phase)
        agree = target == shift.target
        phases = mixer[:, shift.target] * shift.phase
        # <(D S x I)Phi+|(C S x I)Phi+> = tr(S^H D^H C S) / 2N = tr(D^H C) / 2N for every start S
        overlaps[f] = np.sum(np.conj(direct) * phases, axis=1, where=agree) / dim
        matrix_equal = matrix_equal and bool(agree.all()) and np.array_equal(phases, direct)
    worst_overlap = float(np.max(np.abs(np.abs(overlaps) - 1.0)))
    if worst_overlap > TOL_CHAINED:
        raise PropertyViolated(f"the {COMPOSITION_ORDER} composition does not reproduce the direct encoder's action")
    return {
        "order": COMPOSITION_ORDER,
        "max_overlap_deviation": worst_overlap,
        "max_phase_deviation": float(np.max(np.abs(overlaps / np.abs(overlaps) - 1.0))),
        "matrix_equal_to_direct": matrix_equal,
    }


def encode_law_residuals(factors: FamilyFactors) -> dict:
    """Worst residuals of the direct encoder's laws over every label.

    structure: max ||phase| - 1| over all encoders, so every row and column
    holds one unit entry.  family_rule: 1 - |overlap| of encode(k, r, j)
    acting on each member-1 start state (k', r', 1) with the basis state
    (compose_family(k, r, k', r'), j), the landing family read from one
    table of compose_family over all family pairs.  no_signaling:
    max|rho_B - I/2N| over the encoded states.

    The laws are read on the standard family's factors (`bell.family_factors`),
    D_{f,j} = Psi_j T_f: a +-1 diagonal for member j after a permutation for
    family f (Werner's shift-and-multiply unitary error basis).  A family
    whose signs are not +-1 fails family_rule with residual 1.  Every phase is some psi[j, t], so structure is read
    off psi.  Where the landing and moved targets agree the member signs
    cancel (psi^2 = 1), so the overlap of family f on start S = D_{f',1} is
    sum_i [T_g(i) = T_f(S(i))] phase_S(i) / 2N for the landing family g,
    whatever j; and |psi_j phase_S|^2 = |phase_S|^2 on every column.  The
    per-label loop these residuals equal exactly is
    `tests/dense_oracle.py::encode_law_residuals_loop`, and the whole-table
    route `tests/dense_oracle.py::whole_table_encode_law_residuals`.
    """
    psi, family_target = factors.psi, factors.target
    dim = len(family_target)
    unit = bool(np.all((psi == 1) | (psi == -1)))
    heads = (message_to_label(f * dim, dim // 2) for f in range(dim))  # member 1 of each family
    families = [(lab.k, lab.r) for lab in heads]
    index = {fam: f for f, fam in enumerate(families)}
    # landing[f, f']: the family that family f's encoders send start family f' to
    landing = np.array([[index[compose_family(*a, *b, dim // 2)] for b in families] for a in families])
    structure = float(np.max(np.abs(np.abs(psi) - 1.0)))
    # the state of a signed permutation has rho_B = diag(|phase|^2) / 2N; start s
    # moves member j's signs to psi[j, T_s] * psi[0, T_s], a column permutation
    # of psi * psi[0], so every start gives the same residual
    signaling = float(np.max(np.abs(np.abs(psi * psi[0]) ** 2 - 1.0))) / dim
    rule = 0.0
    for s in range(dim):  # member 1 of family s is a start
        start_target, start_phase = family_target[s], psi[0, family_target[s]]
        # row f: family f's targets after the start against its landing family's
        agree = family_target[:, start_target] == family_target[landing[:, s]]
        overlap = agree @ start_phase.real / dim  # every member's; exact for +-1 phases
        rule = max(rule, float(np.max(np.abs(np.abs(overlap) - 1.0))))
    return {"structure": structure, "family_rule": rule if unit else 1.0, "no_signaling": signaling}
