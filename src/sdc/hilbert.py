"""Position-basis indexing, state vectors, and operator application.

The single-particle space of 2N channels is indexed by a fixed embedding of
the signed labels: +n -> n-1 and -n -> N+n-1, so each half-axis occupies a
contiguous block and the ladder shift becomes block-cyclic.  Two-particle
states are flat complex vectors with a dims header.  An operator is a
`SignedPermutationOp` (one unit-modulus entry per column, moved by index
relocation) or a `PermutedBlockOp` (one block on each of some disjoint index
blocks, the identity elsewhere); `np.asarray(op)` densifies either, and
`apply`, the one way to apply either, densifies neither.  A
`SignedPermutationOp` is one signed permutation or a stack of them; they
compose (`compose_perms`) and overlap as states (U x I)|Phi+>
(`phi_plus_overlap`) here only, row by row.  Each is checked where it
enters, by the public constructor; results that are signed permutations by
construction (the identity, compositions, rows, the closed-form gates, the
encoder tables) are wrapped by the unchecked `SignedPermutationOp._trusted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, LabelOutOfRange, UnsupportedOperator

__all__ = [
    "TOL_EXACT",
    "TOL_CHAINED",
    "label_to_index",
    "StateVector",
    "SignedPermutationOp",
    "PermutedBlockOp",
    "identity_perm",
    "compose_perms",
    "phi_plus_overlap",
    "apply",
    "state_to_dict",
    "state_from_dict",
]

# Tolerances: quantities derived from exact +-1 arithmetic vs. chained
# floating-point operator products.
TOL_EXACT = 1e-12
TOL_CHAINED = 1e-10


def label_to_index(n: int, N: int) -> int:
    """Map signed channel label to basis index: +n -> n-1, -n -> N+n-1."""
    if n == 0 or abs(n) > N:
        raise LabelOutOfRange(f"label {n} outside +-1..+-{N}")
    return n - 1 if n > 0 else N + (-n) - 1


def _freeze(obj, **arrays):
    """Set each field of a frozen dataclass to its array, made read-only."""
    vars(obj).update(arrays)
    for array in arrays.values():
        array.setflags(write=False)


def _equal(a, b) -> bool:
    """Exact equality of two frozen values: one type, each field of one shape and value."""
    return type(a) is type(b) and all(
        np.shape(x) == np.shape(y) and np.array_equal(x, y)
        for x, y in zip(vars(a).values(), vars(b).values())
    )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a tensor product of position factors; equality is exact."""

    dims: tuple[int, ...]
    amp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        amp = np.array(self.amp, dtype=np.complex128).reshape(-1)  # a copy: the caller keeps theirs
        if amp.size != math.prod(self.dims):  # exact: np.prod wraps in int64
            raise DimensionMismatch(f"{amp.size} amplitudes for dims {self.dims}")
        _freeze(self, amp=amp)

    __eq__ = _equal

    def __hash__(self) -> int:
        return hash((self.dims, (self.amp + 0).tobytes()))  # + 0 turns -0.0 into 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amp.reshape(self.dims)


@dataclass(frozen=True, eq=False)
class SignedPermutationOp:
    """Unitary with exactly one unit-modulus entry per row and column, or a
    stack of them: one per index of the leading axes of `target` and `phase`,
    both of shape (..., dim).

    Acts as |i> -> phase[i] |target[i]>.  Every row of `target` must be a
    bijection of 0..dim-1 and every phase must have modulus 1; the public
    constructor checks both.  `_trusted` wraps arrays that hold both by
    construction.  Equality is exact, in dim, shape and every entry.
    """

    dim: int
    target: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        target = np.asarray(self.target, dtype=np.intp)
        phase = np.asarray(self.phase, dtype=np.complex128)
        if target.shape[-1:] != (self.dim,) or phase.shape != target.shape:
            raise DimensionMismatch("target/phase length must equal dim")
        if not (np.sort(target, axis=-1) == np.arange(self.dim)).all():
            raise DimensionMismatch("target is not a permutation")
        if not np.max(np.abs(np.abs(phase) - 1.0)) <= TOL_EXACT:  # also rejects NaN
            raise DimensionMismatch("phases must have unit modulus")
        _freeze(self, target=target, phase=phase)

    @classmethod
    def _trusted(cls, dim: int, target: np.ndarray, phase: np.ndarray) -> SignedPermutationOp:
        """The operator of arrays that are a signed permutation by
        construction, without the constructor's checks."""
        op = object.__new__(cls)
        target, phase = np.asarray(target, np.intp), np.asarray(phase, np.complex128)
        vars(op).update(dim=dim, target=target, phase=phase)  # _freeze, inlined: a hot path
        target.setflags(write=False)
        phase.setflags(write=False)
        return op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.target.shape + (self.dim,)

    def __getitem__(self, rows) -> SignedPermutationOp:
        """The operators at `rows` of a stack's leading axes."""
        return SignedPermutationOp._trusted(self.dim, self.target[rows], self.phase[rows])

    __eq__ = _equal

    def __hash__(self) -> int:
        # + 0 turns -0.0, equal to 0.0, into 0.0
        return hash((self.dim, self.target.shape, self.target.tobytes(), (self.phase + 0).tobytes()))

    def __array__(self, dtype=None, copy=None):
        """Dense complex matrices, shape (..., dim, dim): column i of each
        holds phase[i] in row target[i].  numpy casts them to a dtype it asks for."""
        if copy is False:
            raise ValueError("a signed permutation has no dense buffer to share")
        m = np.zeros(self.shape, dtype=np.complex128)
        np.put_along_axis(m, self.target[..., None, :], self.phase[..., None, :], axis=-2)
        return m


@dataclass(frozen=True, eq=False)
class PermutedBlockOp:
    """Copies of one b x b block on disjoint index blocks of 0..dim-1, the
    identity on every index no block covers.

    `rows` is a (blocks x b) index array: the amplitudes at rows[k] are
    multiplied by `block` and land back on rows[k], so entry (rows[k, j],
    rows[k, t]) is block[j, t]; off the blocks the operator is the identity.
    `dim` defaults to rows.size, blocks that cover every index.  Both arrays
    are read-only, and equality is exact.
    """

    rows: np.ndarray
    block: np.ndarray
    dim: int | None = None

    def __post_init__(self):
        _freeze(self, rows=np.asarray(self.rows, dtype=np.intp), block=np.asarray(self.block))
        vars(self)["dim"] = self.rows.size if self.dim is None else self.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def placed(self) -> bool:
        """Whether the rows are distinct indices inside 0..dim-1, so the blocks are disjoint."""
        rows = self.rows.reshape(-1)
        return rows.size == 0 or bool(rows.min() >= 0 and rows.max() < self.dim and np.bincount(rows).max() <= 1)

    __eq__ = _equal

    def __hash__(self) -> int:
        # the block's dtype may differ between equal operators; its values are left out
        return hash((self.dim, self.rows.shape, self.rows.tobytes(), self.block.shape))

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a permuted block has no dense buffer to share")
        m = np.eye(self.dim, dtype=self.block.dtype)
        m[self.rows[:, :, None], self.rows[:, None, :]] = self.block
        return m


def identity_perm(dim: int) -> SignedPermutationOp:
    return SignedPermutationOp._trusted(dim, np.arange(dim), np.ones(dim, dtype=np.complex128))


def compose_perms(outer: SignedPermutationOp, inner: SignedPermutationOp) -> SignedPermutationOp:
    """Signed permutation equal to applying `inner` first, then `outer`: a
    bijection after a bijection, unit phases times unit phases.  A single
    operator composes with every row of a stack; two stacks of one rank
    compose row by row, their leading axes broadcasting.
    """
    if outer.dim != inner.dim:
        raise DimensionMismatch("composed permutations must share dim")
    if outer.target.ndim == 1:  # the hot path: plain fancy indexing
        target, phase = outer.target[inner.target], outer.phase[inner.target]
    elif inner.target.ndim == 1:
        target, phase = outer.target[..., inner.target], outer.phase[..., inner.target]
    elif outer.target.ndim == inner.target.ndim:
        target, phase = (np.take_along_axis(a, inner.target, -1) for a in (outer.target, outer.phase))
    else:
        raise DimensionMismatch("composed stacks must have the same rank")
    np.multiply(inner.phase, phase, out=phase)  # in place: spares a stack-sized temporary
    return SignedPermutationOp._trusted(outer.dim, target, phase)


def phi_plus_overlap(a: SignedPermutationOp, b: SignedPermutationOp) -> np.ndarray:
    """<(a x I)Phi+|(b x I)Phi+> row by row, |Phi+> = sum_i |i, i> / sqrt(dim): the sum
    over columns whose targets agree of conj(phase_a) * phase_b, over dim, an exact
    small-integer sum for +-1 phases.  A single operator broadcasts against a stack.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("overlapping permutations must share dim")
    return np.sum(np.conj(a.phase) * b.phase * (a.target == b.target), axis=-1) / a.dim


def apply(op, subsystem: int | None, s: StateVector) -> StateVector:
    """Apply an operator to one tensor factor of a state, or to the whole
    product space when `subsystem` is None, with its axis moved to the front.

    A signed permutation relocates each slice along that axis; a permuted
    block gathers its rows, adds each block's terms left to right by
    ascending column (a csc matvec's order) and scatters them back, leaving
    uncovered rows bit-unchanged; a block whose rows repeat or leave
    0..dim-1 raises DimensionMismatch.  No operator is densified; any operand
    of another kind, a dense matrix included, raises UnsupportedOperator.
    """
    if not isinstance(op, (SignedPermutationOp, PermutedBlockOp)):
        raise UnsupportedOperator(f"cannot apply a {type(op).__name__}, not an sdc.hilbert operator")
    if subsystem is None:
        moved, space = s.amp, "state"
    elif 0 <= subsystem < len(s.dims):
        moved, space = np.moveaxis(s.grid(), subsystem, 0), "subsystem"
    else:
        raise DimensionMismatch(f"no subsystem {subsystem} in dims {s.dims}")
    if op.shape != (len(moved),) * 2:
        raise DimensionMismatch(f"operator shape {op.shape} != {space} dim {len(moved)}")
    x = moved.reshape(len(moved), -1)  # the acted-on axis, every other axis one column each
    out = x.copy()  # a signed permutation overwrites every row; a block keeps the uncovered ones
    if isinstance(op, SignedPermutationOp):
        out[op.target] = op.phase[:, None] * x
    else:
        if not op.placed:
            raise DimensionMismatch(f"block rows must be distinct indices inside 0..{op.dim - 1}")
        x = x[op.rows]
        y = np.zeros_like(x)
        columns = np.ascontiguousarray(op.block.T)
        blocks = np.arange(len(x))
        for t in np.argsort(op.rows, axis=1).T:
            y += columns[t][:, :, None] * x[blocks, t, None]
        out[op.rows] = y
    return StateVector(s.dims, np.moveaxis(out.reshape(moved.shape), 0, subsystem or 0))


def state_to_dict(s: StateVector) -> dict:
    """JSON-ready form: dims header plus [re, im] amplitude pairs."""
    return {
        "dims": list(s.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in s.amp],
    }


def state_from_dict(d) -> StateVector:
    """Inverse of state_to_dict; a malformed dump raises ConfigError."""
    if not isinstance(d, dict) or not {"dims", "amplitudes"} <= d.keys():
        raise ConfigError("state dump must be an object with 'dims' and 'amplitudes'")
    dims, pairs = d["dims"], d["amplitudes"]
    if not isinstance(dims, list) or not all(type(x) is int and x > 0 for x in dims):
        raise ConfigError(f"dims must be a list of positive integers, got {dims!r}")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) in (int, float) for x in p)
        for p in pairs
    ):
        raise ConfigError("amplitudes must be a list of [re, im] number pairs")
    try:
        parts = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    except OverflowError as exc:
        raise ConfigError(f"amplitude out of range: {exc}") from None
    if not np.isfinite(parts).all():
        raise ConfigError("amplitudes must be finite")
    # each [re, im] row has the memory layout of one complex128
    return StateVector(tuple(dims), parts.view(np.complex128))
