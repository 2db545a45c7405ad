"""Sender-side encoding unitaries, built two independent ways.

The direct construction, `encode_direct`, is defined in `bell`, where it also
builds the standard Bell family; it places one Hadamard sign per channel
according to the label's family pairing and is a signed permutation by
inspection.  The composed construction multiplies a member mixer (a diagonal
of single-channel sign gates) with a family shift (ladder powers and
half-axis swaps).  Two textual ambiguities in the composed route, the
exponent columns of the member mixer and the order of the two factors, are
resolved mechanically against the laws the operators must satisfy, and the
resolved readings are reported.  Every law is checked on signed permutations
(a Bell state is its encoder's permutation over sqrt(2N)) held as stacked
(targets, phases) arrays, one row per label, so the checks are exact index
and sign comparisons.  Nothing is memoized: each call resolves afresh.
"""

from __future__ import annotations

import numpy as np

from .bell import BellLabel, all_labels, bell_table, compose_family, encode_direct, encoder_table
from .errors import ArgOutOfRange, OrderMismatch, PropertyViolated
from .gates import channel_sign_gate, channel_swap_gate, ladder_shift_gate
from .hadamard import HadamardMatrix
from .hilbert import SignedPermutationOp, TOL_CHAINED, compose_perms, identity_perm

__all__ = [
    "encode_direct",
    "member_mixer",
    "family_shift",
    "encode_composed",
    "resolve_member_mixer_reading",
    "resolve_composition_order",
    "encode_law_residuals",
    "MEMBER_MIXER_READINGS",
    "COMPOSITION_ORDERS",
]

MEMBER_MIXER_READINGS = ("cross-column", "same-column")
COMPOSITION_ORDERS = ("family-shift-first", "member-mix-first")


def _check_setup(N: int, H: HadamardMatrix):
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")


def _member_mixer_with_reading(
    N: int, H: HadamardMatrix, j: int, reading: str
) -> SignedPermutationOp:
    row_1, row_j = H.row(1), H.row(j)
    op = identity_perm(2 * N)
    for i in range(1, N + 1):
        if reading == "cross-column":
            e1 = (row_1[2 * i - 2] - row_j[2 * i - 1]) // 2
        else:
            e1 = (row_1[2 * i - 2] - row_j[2 * i - 2]) // 2
        e2 = (row_1[2 * i - 1] - row_j[2 * i - 1]) // 2
        if e1 % 2 != 0:
            swap = channel_swap_gate(N, i)
            flipped_sign = compose_perms(swap, compose_perms(channel_sign_gate(N, i), swap))
            op = compose_perms(flipped_sign, op)
        if e2 % 2 != 0:
            op = compose_perms(channel_sign_gate(N, i), op)
    return op


def resolve_member_mixer_reading(N: int, H: HadamardMatrix) -> dict:
    """Pick the exponent reading under which the member mixer obeys its law.

    The law: the mixer for member j sends the basis state with member j' to
    the one whose sign row is the entrywise product of rows j and j', with
    the family untouched.  Basis states are their direct encoders' signed
    permutations, so each candidate reading is checked exactly: mixer j after
    the stacked encoders of (k, r, j') must give those of (k, r, j'').  The
    first reading that holds for every (family, member) pair wins; all
    families up to N=8, one beyond (the law is family-uniform for diagonal
    mixers, which both candidates are).  Otherwise the error names each
    reading's first failure in (j, label) order: a row product missing from
    H, or a member whose mixed state deviates from the target.
    """
    dim = 2 * N
    targets, phases = encoder_table(N, H, np.arange(dim * dim if N <= 8 else dim))
    family, member = np.divmod(np.arange(len(targets)), dim)
    # product[j-1, j'-1]: the row of H (0-based) equal to row j * row j', -1 if none
    row_of = {row.tobytes(): i for i, row in enumerate(H.ints)}
    product = np.array([[row_of.get((a * b).tobytes(), -1) for b in H.ints] for a in H.ints])
    failures = {}
    for reading in MEMBER_MIXER_READINGS:
        for j in range(1, dim + 1):
            op = _member_mixer_with_reading(N, H, j, reading)
            # the mixer acts on the first particle, i.e. on the encoder's rows
            moved_t, moved_p = _after(op.target, op.phase, targets, phases)
            jpp = product[j - 1, member]
            want = family * dim + jpp  # read only where the product row exists
            same = (moved_t == targets[want]).all(axis=1) & (moved_p == phases[want]).all(axis=1)
            bad = np.flatnonzero((jpp < 0) | ~same)
            if bad.size:
                m, lab = bad[0], all_labels(N)[bad[0]]
                if jpp[m] < 0:
                    failures[reading] = f"row {j} * row {lab.j} is not a row of H"
                else:
                    moved = SignedPermutationOp(dim, moved_t[m], moved_p[m])
                    target = SignedPermutationOp(dim, targets[want[m]], phases[want[m]])
                    dev = np.max(np.abs(np.asarray(moved) - np.asarray(target))) / np.sqrt(dim)
                    failures[reading] = f"mixer {j} on {lab} deviates by {dev:.3e}"
                break
        else:
            # permutations compare exactly, so a passing reading deviates by 0
            return {"reading": reading, "max_deviation": 0.0, "anchor_row": 1}
    raise PropertyViolated(f"no member-mixer exponent reading satisfies the row-product law: {failures}")


def member_mixer(
    N: int, H: HadamardMatrix, j: int, reading: str | None = None
) -> SignedPermutationOp:
    """Diagonal gate product that multiplies the member index into a state.

    Exponents are taken against row 1, which the built-in construction makes
    all-plus, so member 1's mixer is the identity.  `reading` defaults to the
    resolved one, resolved afresh on every such call.
    """
    _check_setup(N, H)
    if not 1 <= j <= 2 * N:
        raise ArgOutOfRange(f"j={j} must lie in 1..{2 * N}")
    if reading is None:
        reading = resolve_member_mixer_reading(N, H)["reading"]
    return _member_mixer_with_reading(N, H, j, reading)


def family_shift(N: int, k: int, r: int) -> SignedPermutationOp:
    """Gate product moving family (1, +1) to family (k, r).

    For r = -1 every half-axis pair is swapped; the ladder is then raised to
    1-k, i.e. shifted backwards k-1 steps.
    """
    if not 1 <= k <= N:
        raise ArgOutOfRange(f"k={k} outside 1..{N}")
    if r not in (+1, -1):
        raise ArgOutOfRange(f"r={r} must be +1 or -1")
    op = identity_perm(2 * N)
    if r == -1:
        for i in range(1, N + 1):
            op = compose_perms(channel_swap_gate(N, i), op)
    return compose_perms(ladder_shift_gate(N, 1 - k), op)


def _after(target: np.ndarray, phase: np.ndarray, targets: np.ndarray, phases: np.ndarray):
    """The permutation (target, phase) composed after each stacked one:
    compose_perms row by row."""
    return target[targets], phases * phase[targets]


def _overlaps(a, b) -> np.ndarray:
    """<a|b> of the Bell states of stacked signed permutations a and b, row by row.

    The Bell state of U is its dense matrix over sqrt(2N) read as a grid, so
    the overlap is the sum over columns whose targets agree of
    conj(phase_a) * phase_b, over 2N: an exact small-integer sum for +-1
    phases.
    """
    (ta, pa), (tb, pb) = a, b
    return np.sum(np.conj(pa) * pb * (ta == tb), axis=-1) / ta.shape[-1]


def resolve_composition_order(N: int, H: HadamardMatrix, reading: str) -> dict:
    """Decide which factor of the composed encoder acts first.

    `reading` is the caller's resolved member-mixer reading
    (`resolve_member_mixer_reading`).  One member mixer per label, built
    under that reading, and one family shift per family are stacked,
    composed in both orders, and applied label by label to every member-1
    basis state of every family against the direct encoder's action.  States
    are held as their encoders' signed permutations, so each overlap is
    exact.  An order passes if the output always matches the direct output's
    label with unit overlap up to a global phase; the observed worst phase
    deviation and whether the operators agree as matrices (a stronger fact
    than required) are recorded alongside.
    """
    dim, labels = 2 * N, all_labels(N)
    table = bell_table(N, H)  # row m: encode_direct of message m
    starts = tuple(a[::dim] for a in table)  # the member-1 row of each family
    shifts = [family_shift(N, lab.k, lab.r) for lab in labels[::dim]]
    mixer, shift = (  # (targets, phases) stacks, one row per label
        (np.array([op.target for op in ops]), np.array([op.phase for op in ops]))
        for ops in (
            [member_mixer(N, H, lab.j, reading) for lab in labels],
            [op for op in shifts for _ in range(dim)],
        )
    )
    for order in COMPOSITION_ORDERS:
        (outer_t, outer_p), (inner_t, inner_p) = (
            (mixer, shift) if order == "family-shift-first" else (shift, mixer)
        )
        # compose_perms(outer, inner) on every label's row
        composed_t = np.take_along_axis(outer_t, inner_t, axis=1)
        composed = composed_t, inner_p * np.take_along_axis(outer_p, inner_t, axis=1)
        worst_overlap = worst_phase = 0.0
        for t, p, ct, cp in zip(*table, *composed):
            overlap = _overlaps(_after(t, p, *starts), _after(ct, cp, *starts))
            dev = float(np.max(np.abs(np.abs(overlap) - 1.0)))
            worst_overlap = max(worst_overlap, dev)
            if dev > TOL_CHAINED:
                break
            worst_phase = max(worst_phase, float(np.max(np.abs(overlap / np.abs(overlap) - 1.0))))
        else:
            return {
                "order": order,
                "max_overlap_deviation": worst_overlap,
                "max_phase_deviation": worst_phase,
                "matrix_equal_to_direct": all(map(np.array_equal, composed, table)),
            }
    raise PropertyViolated("neither composition order reproduces the direct encoder's action")


def encode_law_residuals(N: int, H: HadamardMatrix) -> dict:
    """Worst residuals of the direct encoder's laws over every label.

    structure: max ||phase| - 1| over all encoders, so every row and column
    holds one unit entry.  family_rule: 1 - |overlap| of encode(k, r, j)
    acting on each member-1 start state (k', r', 1) with the basis state
    (compose_family(k, r, k', r'), j), the landing family read from one
    table of compose_family over all family pairs.  no_signaling:
    max|rho_B - I/2N| over the encoded states.  Every state is held as its
    encoder's signed permutation, so all three are exact.
    """
    dim = 2 * N
    targets, phases = bell_table(N, H)
    structure = float(np.max(np.abs(np.abs(phases) - 1.0)))
    starts = targets[::dim], phases[::dim]  # the member-1 row of each family
    families = [(lab.k, lab.r) for lab in all_labels(N)[::dim]]
    index = {fam: f for f, fam in enumerate(families)}
    # landing[f, f']: the family that family f's encoders send start family f' to
    landing = np.array([[index[compose_family(*a, *b, N)] for b in families] for a in families])
    rule = signaling = 0.0
    for m, (t, p) in enumerate(zip(targets, phases)):
        moved_t, moved_p = _after(t, p, *starts)
        landed = landing[m // dim] * dim + m % dim
        overlap = _overlaps((targets[landed], phases[landed]), (moved_t, moved_p))
        rule = max(rule, float(np.max(np.abs(np.abs(overlap) - 1.0))))
        # the state of a signed permutation has rho_B = diag(|phase|^2) / 2N
        signaling = max(signaling, float(np.max(np.abs(np.abs(moved_p) ** 2 - 1.0)) / dim))
    return {"structure": structure, "family_rule": rule, "no_signaling": signaling}


def encode_composed(N: int, H: HadamardMatrix, label: BellLabel) -> SignedPermutationOp:
    """Encoding unitary assembled from basic gates.  Each call resolves the
    member-mixer reading once and, under it, the composition order."""
    _check_setup(N, H)
    label.validate(N)
    reading = resolve_member_mixer_reading(N, H)["reading"]
    order = resolve_composition_order(N, H, reading)["order"]
    mixer = member_mixer(N, H, label.j, reading)
    shift = family_shift(N, label.k, label.r)
    if order == "family-shift-first":
        return compose_perms(mixer, shift)
    return compose_perms(shift, mixer)
