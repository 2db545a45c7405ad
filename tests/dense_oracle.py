"""Dense reference routes for the table-based Bell-family code in `sdc.bell`.

Each function works state by state or label by label on amplitudes, or on a
family table without reading its layout, so differential tests at small N
can hold the two routes against each other: the compact pairing as a scalar
formula, both bases as dense 4N^2 x 4N^2 stacks of per-label states, the
basis residuals computed from those stacks and from the table's rows grouped
by search, the grand operator assembled one label at a time, the pipeline's
mixer assembled ket by ket as a csc matrix, the compact relabeling searched
on dense states, the spin-extended round trip run on the dense
(2N(2S+1))^2 state, the member mixer and the family shift multiplied gate
by gate, the encoder laws checked label by label on the unfactored table, the
member-mixer reading checked on every family, the composition order
checked on whole (2N)^3 stacks, and the basis residuals, the compact
relabel and the encoder laws read off whole tables, as they ran before
`sdc` read the families' factors, one run's sent state decoded in full on
the amplitude route, as `run` decoded it before it certified the state by
one operator row, that certification state by state, as it ran before it
read each Bell family once, and an operator applied through its dense
matrix or one block column at a time.  The helpers that only tests use live here
too: the inverse channel index map, product basis kets, inner products and
partial traces, whole Bell tables and compact states, the factoring of a
table's family blocks (the oracle of the closed-form factors) and the gate
form of one label's encoder.  Four sign matrices beyond Sylvester's (ALT4,
Paley order 12, a negated Sylvester and [[1, -1], [-1, -1]]) are kept here
for the tests that share them.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp

import sdc.encoder as enc
from sdc import hadamard
from sdc.analysis import spin_base_state, spin_extended_state
from sdc.bell import (
    FamilyFactors,
    all_labels,
    bell_state,
    encoder_table,
    family_factors,
    first_particle_interleave,
    label_to_message,
)
from sdc.decoder import build_decode_table, grand_messages
from sdc.encoder import encode_direct
from sdc.errors import (
    ArgOutOfRange,
    DimensionMismatch,
    LabelOutOfRange,
    NonDeterministicOutcome,
    OrderMismatch,
    PropertyViolated,
)
from sdc.gates import channel_sign_gate, channel_swap_gate, ladder_shift_gate
from sdc.hilbert import (
    SignedPermutationOp,
    StateVector,
    apply,
    compose_perms,
    identity_perm,
    TOL_CHAINED,
    label_to_index,
    phi_plus_overlap,
)


def index_to_label(i, N):
    """Inverse of `sdc.hilbert.label_to_index` on 0..2N-1."""
    if not 0 <= i < 2 * N:
        raise LabelOutOfRange(f"index {i} outside 0..{2 * N - 1}")
    return i + 1 if i < N else -(i - N + 1)


def basis_state(dims, indices):
    """The product basis ket with a 1 at `indices` of a tensor product of `dims`."""
    amp = np.zeros(math.prod(dims), dtype=np.complex128)
    grid = amp.reshape(dims)
    grid[tuple(indices)] = 1.0
    return StateVector(dims, amp)


def inner(a, b):
    """Hermitian inner product <a|b>."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"dims {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amp, b.amp))


def partial_trace(s, keep):
    """Reduced density matrix of one factor of a two-factor pure state."""
    if len(s.dims) != 2:
        raise DimensionMismatch(f"partial trace needs two subsystems, got dims {s.dims}")
    if keep not in (0, 1):
        raise DimensionMismatch(f"keep must be 0 or 1, got {keep}")
    m = s.grid()
    if keep == 0:
        return m @ m.conj().T
    return m.T @ m.conj()


def bell_table(N, H, compact=False):
    """One family as one stack of 4N^2 signed permutations: row
    `label_to_message(label)` is the U of that state (U x I)|Phi+>.
    Standard rows are `encoder_table`'s; compact label m sits in column
    partner(m) with sign h[j, m], the rows of the closed-form compact factors."""
    if not compact:
        return encoder_table(N, H, np.arange(4 * N * N))
    return factor_table(family_factors(N, H, compact=True))


def compact_bell_state(N, label, H):
    """Compact-family basis state sum_m h[j, m] |m, partner(m)> / sqrt(2N): the
    dense view of its row Psi_j T_f of the compact factors."""
    family, member = divmod(label_to_message(label, N), 2 * N)
    factors = family_factors(N, H, compact=True)
    target = factors.target[family]
    op = SignedPermutationOp._trusted(2 * N, target, factors.psi[member, target])
    return StateVector((op.dim, op.dim), np.asarray(op).reshape(-1) / np.sqrt(op.dim))


def factor_blocks(blocks):
    """A family's factors read and checked in one pass over its 2N blocks of
    2N member rows (in `bell_table` order), holding one block at a time:
    (FamilyFactors, whether they factor), where the family factors when
    every row of block f has the target row T_f of its member 1, every
    phase equals psi[j, T_f] with psi read off block 0, and every T_f is a
    permutation."""
    for f, block in enumerate(blocks):
        if f == 0:
            dim, factors = block.dim, True
            target = np.full((dim, dim), -1, dtype=np.intp)  # a missing block reads -1
            psi = np.zeros((dim, dim), dtype=block.phase.dtype)
            psi[:, block.target[0]] = block.phase
        target[f] = block.target[0]
        factors = factors and bool(np.all(block.target == target[f]))
        factors = factors and bool(np.all(block.phase == psi[:, target[f]]))
    factors = factors and bool(np.all(np.sort(target, axis=1) == np.arange(dim)))
    return FamilyFactors(psi, target), factors


def encode_composed(N, H, label, reading, order):
    """Encoding unitary of one label assembled from basic gates: the member
    mixer built under `reading` and the family shift, composed in `order`.
    The gates are read through `sdc.encoder`."""
    if H.order != 2 * N:
        raise OrderMismatch(f"need order {2 * N}, got {H.order}")
    label.validate(N)
    if reading not in enc.MEMBER_MIXER_READINGS or order not in enc.COMPOSITION_ORDERS:
        raise ArgOutOfRange(f"unknown member-mixer reading {reading!r} or composition order {order!r}")
    mixer = enc.member_mixer(N, H, label.j, reading)
    shift = enc.family_shift(N, label.k, label.r)
    if order == "family-shift-first":
        return compose_perms(mixer, shift)
    return compose_perms(shift, mixer)


# a symmetric sign matrix of order 4 whose rows do not close under products
ALT4 = np.array([[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]])


def paley_order_12():
    """Paley II with q = 5: C (x) [[1, 1], [1, -1]] + I_6 (x) [[1, -1], [-1, -1]]
    for the conference matrix C = [[0, 1^T], [1, Q]] of GF(5)'s Jacobsthal
    matrix Q, conjugated by diag(row 1) so that row 1 is all-plus."""
    chi = {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}  # the quadratic character of GF(5)
    C = np.zeros((6, 6), dtype=int)
    C[0, 1:] = C[1:, 0] = 1
    C[1:, 1:] = [[chi[(a - b) % 5] for b in range(5)] for a in range(5)]
    H = np.kron(C, [[1, 1], [1, -1]]) + np.kron(np.eye(6, dtype=int), [[1, -1], [-1, -1]])
    return H * H[0] * H[0][:, None]


def flipped_sylvester(order):
    """Sylvester of the given order with row and column 4 negated: still
    symmetric and Hadamard, with one minus sign in row 1."""
    H = hadamard.build(order).ints.copy()
    H[3] *= -1
    H[:, 3] *= -1
    return H


def sign_matrix(name, N):
    """The order-2N `HadamardMatrix` built from a named sign matrix: "alt4"
    (N = 2), "paley" (N = 6), "flipped" (negated Sylvester), "minus"
    ([[1, -1], [-1, -1]], N = 1), or Sylvester's for any other name."""
    custom = {
        "alt4": lambda: ALT4,
        "paley": paley_order_12,
        "flipped": lambda: flipped_sylvester(2 * N),
        "minus": lambda: np.array([[1, -1], [-1, -1]]),
    }
    return hadamard.build(2 * N, custom={2 * N: custom[name]()} if name in custom else None)


def compact_partner(N, k, r, m):
    """Partner label (1..2N) of compact first-particle label m in family (k, r)."""
    n = (m + 1) // 2
    sign = r if m % 2 == 1 else -r
    v = ((n + k - 2) % N) + 1
    return v if sign > 0 else N + v


def encode_direct_loop(N, H, label):
    """Standard encoder of one label, placed channel by channel: partner f(n)
    goes to +n with sign h[j, 2n-1], -f(n) to -n with sign h[j, 2n]."""
    n = np.arange(N)
    f = (n + label.k - 1) % N
    plus, minus = (f, f + N) if label.r == +1 else (f + N, f)
    row = H.row(label.j)
    target = np.empty(2 * N, dtype=np.intp)
    phase = np.empty(2 * N, dtype=np.complex128)
    target[plus], target[minus] = n, n + N
    phase[plus], phase[minus] = row[0::2], row[1::2]
    return target, phase


def member_mixer_gates(N, H, j, reading):
    """Member mixer j as the gate product: per channel i,
    (swap_i sign_i swap_i)^e1 then sign_i^e2, exponents against row 1."""
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


def family_shift_gates(N, k, r):
    """Family shift (k, r) as the gate product: for r = -1 the N half-axis
    swaps, one channel at a time, then the ladder raised to 1 - k."""
    op = identity_perm(2 * N)
    if r == -1:
        for i in range(1, N + 1):
            op = compose_perms(channel_swap_gate(N, i), op)
    return compose_perms(ladder_shift_gate(N, 1 - k), op)


def resolve_member_mixer_reading_all_families(N, H):
    """`resolve_member_mixer_reading` checked on every family's block, not
    on the factors: each candidate mixer after all 4N^2 direct encoders,
    built by `encoder_table`, with the same result or the same error text.
    The mixers and readings are read through `sdc.encoder`, so a patch
    there reaches both."""
    dim = 2 * N
    table = encoder_table(N, H, np.arange(dim * dim))
    family, member = np.divmod(np.arange(dim * dim), dim)
    row_of = {row.tobytes(): i for i, row in enumerate(H.ints)}
    product = np.array([[row_of.get((a * b).tobytes(), -1) for b in H.ints] for a in H.ints])
    failures = {}
    for reading in enc.MEMBER_MIXER_READINGS:
        for j in range(1, dim + 1):
            moved = compose_perms(enc._member_mixer_with_reading(N, H, j, reading), table)
            jpp = product[j - 1, member]
            want = table[family * dim + jpp]
            same = (moved.target == want.target) & (moved.phase == want.phase)
            bad = np.flatnonzero((jpp < 0) | ~same.all(axis=1))
            if bad.size:
                m, lab = bad[0], all_labels(N)[bad[0]]
                if jpp[m] < 0:
                    failures[reading] = f"row {j} * row {lab.j} is not a row of H"
                else:
                    dev = np.max(np.abs(np.asarray(moved[m]) - np.asarray(want[m]))) / np.sqrt(dim)
                    failures[reading] = f"mixer {j} on {lab} deviates by {dev:.3e}"
                break
        else:
            return {"reading": reading, "max_deviation": 0.0, "anchor_row": 1}
    raise PropertyViolated(f"no member-mixer exponent reading satisfies the row-product law: {failures}")


def resolve_composition_order_stacked(N, H, reading):
    """`resolve_composition_order` on whole stacks: all 4N^2 member mixers
    as one checked (family, member) grid, the 2N family shifts as a checked
    (family, 1) grid, and the (2N)^3 direct table, composed and overlapped
    at once, each order in turn, the direct table built by `encoder_table`,
    not read off the factors.  The gates are read through `sdc.encoder`, so
    a patch there reaches both routes."""
    dim, labels = 2 * N, all_labels(N)

    def checked(ops, rows):
        target, phase = (np.reshape(a, (*rows, dim)) for a in zip(*((o.target, o.phase) for o in ops)))
        return SignedPermutationOp(dim, target, phase)

    table = encoder_table(N, H, np.arange(dim * dim))
    grid = (dim, dim, dim)  # (family, member, column)
    direct = SignedPermutationOp._trusted(dim, table.target.reshape(grid), table.phase.reshape(grid))
    mixer = checked((enc.member_mixer(N, H, lab.j, reading) for lab in labels), (dim, dim))
    shift = checked((enc.family_shift(N, lab.k, lab.r) for lab in labels[::dim]), (dim, 1))
    for order in enc.COMPOSITION_ORDERS:
        outer, inner = (mixer, shift) if order == "family-shift-first" else (shift, mixer)
        composed = compose_perms(outer, inner)
        overlap = phi_plus_overlap(direct, composed)
        worst_overlap = float(np.max(np.abs(np.abs(overlap) - 1.0)))
        if worst_overlap <= enc.TOL_CHAINED:
            return {
                "order": order,
                "max_overlap_deviation": worst_overlap,
                "max_phase_deviation": float(np.max(np.abs(overlap / np.abs(overlap) - 1.0))),
                "matrix_equal_to_direct": composed == direct,
            }
    raise PropertyViolated("neither composition order reproduces the direct encoder's action")


def table_blocks(table):
    """The family blocks of a whole `bell_table`: its 2N row slices of 2N
    rows, as views, for `factor_blocks`."""
    dim = table.dim
    return [table[rows:rows + dim] for rows in range(0, len(table.target), dim)]


def stack_blocks(blocks):
    """The whole table of a family's block sequence, its blocks stacked in order."""
    blocks = list(blocks)
    target = np.concatenate([block.target for block in blocks])
    phase = np.concatenate([block.phase for block in blocks])
    return SignedPermutationOp._trusted(blocks[0].dim, target, phase)


def whole_table_encode_law_residuals(table):
    """`encode_law_residuals` on one whole `bell_table`: its (family, member,
    column) grid checked to factor and read start family by start family,
    as the check ran before it read the factors.  The landing family is
    read through `sdc.encoder`."""
    dim = table.dim
    N = dim // 2
    grid = (dim, dim, dim)  # (family, member, column)
    target, phase = table.target.reshape(grid), table.phase.reshape(grid)
    family_target = target[:, 0]  # T_f, read off member 1
    psi = np.zeros((dim, dim), dtype=phase.dtype)  # psi[j, t]: member j's sign on index t
    psi[:, family_target[0]] = phase[0]
    factors = bool(np.all((psi == 1) | (psi == -1)))
    families = [(lab.k, lab.r) for lab in all_labels(N)[::dim]]
    index = {fam: f for f, fam in enumerate(families)}
    landing = np.array([[index[enc.compose_family(*a, *b, N)] for b in families] for a in families])
    structure = rule = signaling = 0.0
    for s in range(dim):
        factors = factors and bool(np.all(target[s] == family_target[s]))
        factors = factors and bool(np.all(phase[s] == psi[:, family_target[s]]))
        structure = max(structure, float(np.max(np.abs(np.abs(phase[s]) - 1.0))))
        start_target, start_phase = family_target[s], phase[s, 0]
        agree = family_target[:, start_target] == family_target[landing[:, s]]
        overlap = np.sum(agree * start_phase, axis=-1) / dim
        rule = max(rule, float(np.max(np.abs(np.abs(overlap) - 1.0))))
        moved_phase = psi[:, start_target] * start_phase
        signaling = max(signaling, float(np.max(np.abs(np.abs(moved_phase) ** 2 - 1.0))) / dim)
    return {"structure": structure, "family_rule": rule if factors else 1.0, "no_signaling": signaling}


def encode_law_residuals_loop(table):
    """`encode_law_residuals` without the factorization: every label's encoder
    of a whole `bell_table` composed with the 2N member-1 start encoders and
    overlapped with its predicted basis state, 16N^4 entries, one label at a
    time.  The landing family is read through `sdc.encoder`, so a patch
    there reaches both routes."""
    dim = table.dim
    N = dim // 2
    structure = float(np.max(np.abs(np.abs(table.phase) - 1.0)))
    starts = table[::dim]  # the member-1 row of each family
    families = [(lab.k, lab.r) for lab in all_labels(N)[::dim]]
    index = {fam: f for f, fam in enumerate(families)}
    landing = np.array([[index[enc.compose_family(*a, *b, N)] for b in families] for a in families])
    rule = signaling = 0.0
    for m in range(len(table.target)):
        moved = compose_perms(table[m], starts)
        overlap = phi_plus_overlap(table[landing[m // dim] * dim + m % dim], moved)
        rule = max(rule, float(np.max(np.abs(np.abs(overlap) - 1.0))))
        signaling = max(signaling, float(np.max(np.abs(np.abs(moved.phase) ** 2 - 1.0)) / dim))
    return {"structure": structure, "family_rule": rule, "no_signaling": signaling}


def interleave_loop(N):
    """Targets of the first-particle interleave, channel by channel: +n to
    slot 2n-2 and -n to slot 2n-1."""
    target = np.empty(2 * N, dtype=np.intp)
    for n in range(1, N + 1):
        target[label_to_index(n, N)] = 2 * n - 2
        target[label_to_index(-n, N)] = 2 * n - 1
    return target


def decode_table_loop(N, H, decoder):
    """Decode table entries from decoding every dense Bell state on the
    amplitude route, in label order: (first, second) -> (label, top probability)."""
    entries = {}
    for lab in all_labels(N):
        top, _ = decoder.decode(bell_state(N, lab, H))
        entries[(top.first, top.second)] = (lab, top.probability)
    return entries


def decode_message(N, H, decoder, sent):
    """Measure a sent state on the amplitude route: (top outcome, message id it
    decodes to).

    The grand route maps its outcome through the held rows (`grand_messages`)
    and checks only this state's own top probability, raising
    NonDeterministicOutcome below 1 - TOL_CHAINED.  The pipeline route looks
    the outcome up in its decode table.
    """
    top, _ = decoder.decode(sent)
    if decoder.path != "grand":
        return top, int(build_decode_table(N, H, decoder)[top.first * 2 * N + top.second])
    if top.probability < 1.0 - TOL_CHAINED:
        raise NonDeterministicOutcome(
            f"grand decoder spread the sent state over multiple outcomes "
            f"(top probability {top.probability:.6f})"
        )
    return top, int(grand_messages(decoder, top.first * 2 * N + top.second))


def certify_per_state(decoder, states, bell):
    """The grand route's certification one state at a time, as `sdc` ran it
    before it read each Bell family once: row s of the stacked signed
    permutations `states` (the U of (U x I)|Phi+>), claimed to be Bell
    state bell[s], is read at its own 2N nonzeros, through the inverse of
    the held rows, against the one operator row its claim names, and the
    complex terms are added left to right.  Returns (outcomes, probabilities)."""
    (interleave, _), (gop, _) = decoder.stages
    dim = interleave.dim
    moved = compose_perms(interleave, states)
    inverse = np.argsort(gop.rows, axis=None)
    col_family, col_pos = np.divmod(inverse[moved.target * dim + np.arange(dim)], dim)
    family, member = np.divmod(np.asarray(bell), dim)
    weights = gop.block[member[:, None], col_pos]
    weights[col_family != family[:, None]] = 0
    amps = np.cumsum(moved.phase / np.sqrt(dim) * weights, axis=1)
    return gop.rows[family, member], np.abs(amps[:, -1]) ** 2


def compact_state_loop(N, label, H):
    """Compact-family state filled channel by channel: h[j, m] on |m, partner(m)>."""
    dim = 2 * N
    grid = np.zeros((dim, dim), dtype=np.complex128)
    row = H.row(label.j)
    for m in range(1, dim + 1):
        grid[m - 1, compact_partner(N, label.k, label.r, m) - 1] = row[m - 1]
    return StateVector((dim, dim), grid.reshape(-1) / np.sqrt(dim))


def table_basis(table):
    """Dense rows of a `bell_table`: phase / sqrt(2N) at flat index target * 2N + i."""
    targets, phases = table.target, table.phase
    count, dim = phases.shape
    basis = np.zeros((count, dim * dim), dtype=np.complex128)
    basis[np.arange(count)[:, None], targets * dim + np.arange(dim)] = phases / np.sqrt(dim)
    return basis


def bell_basis_matrix(N, H, compact=False):
    """Stack of all 4N^2 basis states as rows, in all_labels order."""
    make = compact_bell_state if compact else bell_state
    return np.array([make(N, lab, H).amp for lab in all_labels(N)])


def dense_residuals(basis):
    """Gram, partial-trace and amplitude-structure residuals of a dense basis."""
    count, size = basis.shape
    dim = int(round(np.sqrt(size)))
    gram = float(np.max(np.abs(basis.conj() @ basis.T - np.eye(count))))
    ptr = amp = 0.0
    allowed = np.array([0.0, 1.0 / np.sqrt(dim)])
    for row in basis:
        state = StateVector((dim, dim), row)
        for keep in (0, 1):
            ptr = max(ptr, float(np.max(np.abs(partial_trace(state, keep) - np.eye(dim) / dim))))
        amp = max(amp, float(np.max(np.min(np.abs(np.abs(row)[:, None] - allowed), axis=1))))
    return {"gram": gram, "partial_trace": ptr, "amplitude": amp}


def factor_table(factors):
    """The whole table a family's `FamilyFactors` stand for: row f * 2N + j
    has targets T_f and phases psi[j, T_f]."""
    dim = len(factors.target)
    target = np.repeat(factors.target, dim, axis=0)
    members = np.tile(np.arange(dim), dim)[:, None]
    return SignedPermutationOp._trusted(dim, target, factors.psi[members, target])


def whole_table_residuals(table):
    """`bell.table_residuals` on one whole `bell_table`, as it ran before it
    read the factors: the table read as a (family, member, column)
    grid, and the families that overlap found from the (2N)^3 bool grid of
    agreeing family target rows."""
    dim = table.dim
    grid = (dim, dim, dim)  # (family, member, column)
    target, phase = table.target.reshape(grid), table.phase.reshape(grid)
    family_target = target[:, 0]
    agree = family_target[:, None, :] == family_target[None, :, :]
    grouped, gram, trace, amplitude = True, 0.0, 0.0, 0.0
    for f in range(dim):
        p, mags = phase[f], np.abs(phase[f])
        grouped = grouped and bool(np.all(target[f] == family_target[f]))
        gram = max(gram, float(np.max(np.abs(p @ p.conj().T - dim * np.eye(dim)))))
        for g in np.flatnonzero(agree[f, f + 1:].any(axis=1)) + f + 1:
            gram = max(gram, float(np.max(np.abs((p * agree[f, g]) @ phase[g].conj().T))))
        trace = max(trace, float(np.max(np.abs(mags**2 - 1.0))))
        amplitude = max(amplitude, float(np.max(np.abs(mags - 1.0))))
    return {
        "gram": gram / dim if grouped else 1.0,
        "partial_trace": trace / dim,
        "amplitude": float(amplitude / np.sqrt(dim)),
    }


def whole_table_relabel_holds(standard, compact):
    """`bell.compact_relabel_holds` on the whole standard and compact
    `bell_table`s, one family block of their rows at a time."""
    dim = standard.dim
    interleave = first_particle_interleave(dim // 2)
    return standard.shape == compact.shape and all(
        compose_perms(interleave, standard[rows:rows + dim]) == compact[rows:rows + dim]
        for rows in range(0, len(standard.target), dim)
    )


def table_residuals_grouped(table):
    """`bell.table_residuals` with the families found by search, not read
    off the layout: rows with one target row form a group (a row lexsort),
    each group's Gram block is P P^H / 2N, and two groups are multiplied
    only on the columns where their targets agree, found from the
    (target, column) slots that more than one group holds."""
    targets, phases, dim = table.target, table.phase, table.dim
    uniq, group, sizes = np.unique(targets, axis=0, return_inverse=True, return_counts=True)
    members = np.split(np.argsort(group.reshape(-1), kind="stable"), np.cumsum(sizes)[:-1])
    worst = 0.0
    for rows in members:
        p = phases[rows]
        worst = max(worst, np.max(np.abs(p @ p.conj().T - dim * np.eye(len(rows)))))
    _, slot, held = np.unique(uniq * dim + np.arange(dim), return_inverse=True, return_counts=True)
    sharing = np.flatnonzero((held[slot.reshape(uniq.shape)] > 1).any(axis=1))
    for i, g in enumerate(sharing):
        for h in sharing[i + 1:]:
            cols = np.flatnonzero(uniq[g] == uniq[h])
            if cols.size:
                cross = phases[members[g]][:, cols] @ phases[members[h]][:, cols].conj().T
                worst = max(worst, np.max(np.abs(cross)))
    mags = np.abs(phases)
    return {
        "gram": float(worst) / dim,
        "partial_trace": float(np.max(np.abs(mags**2 - 1.0))) / dim,
        "amplitude": float(np.max(np.abs(mags - 1.0)) / np.sqrt(dim)),
    }


def grand_operator_loop(N, H):
    """The grand operator built label by label from the scalar partner formula."""
    dim = 2 * N
    scale = 1.0 / np.sqrt(dim)
    rows, cols, vals = [], [], []
    m_idx = np.arange(1, dim + 1)
    for lab in all_labels(N):
        out = (lab.j - 1) * dim + (compact_partner(N, lab.k, lab.r, lab.j) - 1)
        partner = np.array([compact_partner(N, lab.k, lab.r, m) for m in m_idx])
        cols.extend((m_idx - 1) * dim + (partner - 1))
        rows.extend([out] * dim)
        vals.extend(H.row(lab.j) * scale)
    return sp.csc_matrix(
        (np.array(vals, dtype=np.complex128), (rows, cols)),
        shape=(dim * dim, dim * dim),
    )


def mixer_csc(N, HN):
    """The pipeline's nonlocal mixer as a csc matrix, built ket by ket: one
    magnitude-sector block (N^2 x N^2) with entries HN[m, shift_m(n)] / sqrt(N),
    copied into each of the four sign sectors."""
    scale = 1.0 / np.sqrt(N)
    rows, cols, vals = [], [], []
    n_arr = np.arange(1, N + 1)
    for l in range(1, N + 1):
        sl = ((l + n_arr - 2) % N) + 1
        for m in range(1, N + 1):
            sm = ((m + n_arr - 2) % N) + 1
            rows.extend((sl - 1) * N + (sm - 1))
            cols.extend([(l - 1) * N + (m - 1)] * N)
            vals.extend(HN.ints[m - 1, sm - 1] * scale)
    rows, cols, dim = np.array(rows), np.array(cols), 2 * N
    flat = []
    for a in (0, 1):
        for b in (0, 1):
            out = (rows // N + N * a) * dim + rows % N + N * b
            flat.append((out, (cols // N + N * a) * dim + cols % N + N * b))
    return sp.csc_matrix(
        (np.tile(np.array(vals, dtype=np.complex128), 4),
         (np.concatenate([r for r, _ in flat]), np.concatenate([c for _, c in flat]))),
        shape=(dim * dim, dim * dim),
    )


def _amplitude_key(amp):
    nz = np.flatnonzero(amp)
    # + 0.0 folds a -0.0 imaginary part into +0.0
    return nz.tobytes() + (amp[nz] + 0.0).tobytes()


def dense_relabel(N, H):
    """(method, perm_a, perm_b, label_map) of the compact relabeling, found on
    dense states: the first pair in lexicographic order by exhaustive search
    at 2N <= 4, and the decoder's pair (`first_particle_interleave`, identity)
    checked beyond."""
    dim = 2 * N
    standard = {lab: bell_state(N, lab, H) for lab in all_labels(N)}
    compact = {_amplitude_key(compact_bell_state(N, lab, H).amp): lab for lab in all_labels(N)}
    ones = np.ones(dim, dtype=np.complex128)

    def matches(perm_a, perm_b):
        mapping = {}
        for lab, state in standard.items():
            hit = compact.get(_amplitude_key(apply(perm_b, 1, apply(perm_a, 0, state)).amp))
            if hit is None:
                return None
            mapping[lab] = hit
        return mapping if len(set(mapping.values())) == len(mapping) else None

    if dim <= 4:
        for pa in itertools.permutations(range(dim)):
            perm_a = SignedPermutationOp(dim, np.array(pa), ones)
            for pb in itertools.permutations(range(dim)):
                perm_b = SignedPermutationOp(dim, np.array(pb), ones)
                mapping = matches(perm_a, perm_b)
                if mapping is not None:
                    return "exhaustive", perm_a, perm_b, mapping
        return None
    perm_a, perm_b = first_particle_interleave(N), SignedPermutationOp(dim, np.arange(dim), ones)
    mapping = matches(perm_a, perm_b)
    return None if mapping is None else ("constructive", perm_a, perm_b, mapping)


def apply_dense(op, subsystem, s):
    """`sdc.hilbert.apply` by a contraction with the dense matrix of `op`,
    any square array: on the flat amplitudes when `subsystem` is None,
    otherwise by np.tensordot on that factor, as `apply` ran permuted blocks
    before it accumulated on their rows."""
    matrix = np.asarray(op)
    if subsystem is None:
        return StateVector(s.dims, matrix @ s.amp)
    out = np.tensordot(matrix, np.moveaxis(s.grid(), subsystem, 0), axes=(1, 0))
    return StateVector(s.dims, np.moveaxis(out, 0, subsystem))


def apply_block_loop(op, subsystem, s):
    """`sdc.hilbert.apply` of a `PermutedBlockOp`, one block and one column
    at a time: each block's output rows start at zero and add the column
    terms left to right by ascending row index."""
    moved = np.moveaxis(s.grid(), subsystem, 0) if subsystem is not None else s.amp
    out = moved.copy()
    for rows in op.rows:
        acc = np.zeros_like(moved[rows])
        for pos in np.argsort(rows):
            column = op.block[:, pos].reshape((-1,) + (1,) * (moved.ndim - 1))
            acc = acc + column * moved[rows[pos]]
        out[rows] = acc
    return StateVector(s.dims, out if subsystem is None else np.moveaxis(out, 0, subsystem))


def weyl_ops(d):
    """The d^2 dense operators shift^a clock^b, stacked in (a, b) order."""
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)  # |i> -> |i + 1 mod d>
    clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    return np.array([
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(d)
        for b in range(d)
    ])


def spin_bell_basis(S, sign):
    """Rows: the d^2 spin Bell states, shift^a clock^b applied to the first
    particle of the spin pair state, in (a, b) order."""
    base = spin_base_state(S, sign)
    return np.array([apply_dense(op, 0, base).amp for op in weyl_ops(base.dims[0])])


def spin_round_trips_dense(N, S, H, decoder, sign=1):
    """What the combined position x spin round trip decodes for every
    message, on the dense extended state: the Kronecker products of the
    position and spin encoders applied to it, the grand rotation of each
    spin-pair column, a projection on the spin Bell basis and the joint
    argmax.  `decoder` is the grand route of (N, H)."""
    state = spin_extended_state(N, S, H, sign)
    dim = 2 * N
    d = state.dims[0] // dim
    weyl = weyl_ops(d)
    positions = np.array([np.asarray(encode_direct(N, H, lab)) for lab in all_labels(N)])
    # kron(P, W) of every message (P, W), in message order
    encoders = np.einsum("pab,wce->pwacbe", positions, weyl).reshape(-1, dim * d, dim * d)
    encoded = encoders @ state.grid()  # the operator acts on the first particle
    # (position pair) x (spin pair) axes: each spin-pair column is a position state
    columns = encoded.reshape(-1, dim, d, dim, d).transpose(0, 1, 3, 2, 4)
    columns = columns.reshape(-1, dim * dim, d * d)
    # the grand rotation as a dense matrix, one rotated basis state per column
    rotation = np.column_stack(
        [decoder.rotate(StateVector((dim, dim), e)).amp for e in np.eye(dim * dim)]
    )
    # (message, position outcome, spin label)
    joint = rotation @ columns @ spin_bell_basis(S, sign).conj().T
    flat = np.argmax(np.abs(joint.reshape(len(joint), -1)) ** 2, axis=1)
    pos_flat, spin_label = np.divmod(flat, d * d)
    return (grand_messages(decoder, pos_flat) * d * d + spin_label).tolist()
