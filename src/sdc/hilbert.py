"""Position-basis indexing, state vectors, and operator application.

The single-particle space of 2N channels is indexed by a fixed embedding of
the signed labels: +n -> n-1 and -n -> N+n-1, so each half-axis occupies a
contiguous block and the ladder shift becomes block-cyclic.  Two-particle
states are flat complex vectors with a dims header.  An operator is a
`SignedPermutationOp` (one unit-modulus entry per column, moved by index
relocation), a `PermutedBlockOp` (one block on each block of an index
partition) or, on one factor only, a plain ndarray.  `np.asarray(op)`
densifies any of them.

A signed permutation is checked where it enters: the public constructor
`SignedPermutationOp(dim, target, phase)` and `check_signed_permutations`,
the same test on a stack of them.  Results that are signed permutations by
construction (the identity, a composition of two, the closed-form gates)
are wrapped by the unchecked `SignedPermutationOp._trusted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, LabelOutOfRange

__all__ = [
    "TOL_EXACT",
    "TOL_CHAINED",
    "label_to_index",
    "index_to_label",
    "StateVector",
    "SignedPermutationOp",
    "PermutedBlockOp",
    "check_signed_permutations",
    "identity_perm",
    "compose_perms",
    "apply",
    "apply_full",
    "inner",
    "partial_trace",
    "basis_state",
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


def index_to_label(i: int, N: int) -> int:
    """Inverse of label_to_index on 0..2N-1."""
    if not 0 <= i < 2 * N:
        raise LabelOutOfRange(f"index {i} outside 0..{2 * N - 1}")
    return i + 1 if i < N else -(i - N + 1)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a tensor product of position factors."""

    dims: tuple[int, ...]
    amp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        amp = np.asarray(self.amp, dtype=np.complex128).reshape(-1)
        if amp.size != math.prod(self.dims):  # exact: np.prod wraps in int64
            raise DimensionMismatch(
                f"{amp.size} amplitudes for dims {self.dims}"
            )
        object.__setattr__(self, "amp", amp)
        amp.setflags(write=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amp.reshape(self.dims)


def basis_state(dims: tuple[int, ...], indices: tuple[int, ...]) -> StateVector:
    amp = np.zeros(math.prod(dims), dtype=np.complex128)
    grid = amp.reshape(dims)
    grid[tuple(indices)] = 1.0
    return StateVector(dims, amp)


def check_signed_permutations(targets: np.ndarray, phases: np.ndarray) -> None:
    """Raise DimensionMismatch unless every row of `targets` is a bijection of
    0..dim-1 and every phase has unit modulus (dim = the last axis)."""
    if not (np.sort(targets, axis=-1) == np.arange(targets.shape[-1])).all():
        raise DimensionMismatch("target is not a permutation")
    if np.max(np.abs(np.abs(phases) - 1.0)) > TOL_EXACT:
        raise DimensionMismatch("phases must have unit modulus")


@dataclass(frozen=True)
class SignedPermutationOp:
    """Unitary with exactly one unit-modulus entry per row and column.

    Acts as |i> -> phase[i] |target[i]>.  `target` must be a bijection of
    0..dim-1 and every phase must have modulus 1; the public constructor
    checks both.  `_trusted` wraps arrays that hold both by construction.
    """

    dim: int
    target: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        target = np.asarray(self.target, dtype=np.intp)
        phase = np.asarray(self.phase, dtype=np.complex128)
        if target.shape != (self.dim,) or phase.shape != (self.dim,):
            raise DimensionMismatch("target/phase length must equal dim")
        check_signed_permutations(target, phase)
        self._freeze(target, phase)

    def _freeze(self, target: np.ndarray, phase: np.ndarray):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "phase", phase)
        target.setflags(write=False)
        phase.setflags(write=False)

    @classmethod
    def _trusted(cls, dim: int, target: np.ndarray, phase: np.ndarray) -> SignedPermutationOp:
        """The operator of arrays that are a signed permutation by
        construction, without the constructor's checks."""
        op = object.__new__(cls)
        object.__setattr__(op, "dim", dim)
        op._freeze(np.asarray(target, dtype=np.intp), np.asarray(phase, dtype=np.complex128))
        return op

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def __array__(self, dtype=None, copy=None):
        """Dense complex matrix: column i holds phase[i] in row target[i].

        numpy casts the result when `np.asarray(op, dtype)` asks for a dtype.
        """
        if copy is False:
            raise ValueError("a signed permutation has no dense buffer to share")
        m = np.zeros(self.shape, dtype=np.complex128)
        m[self.target, np.arange(self.dim)] = self.phase
        return m


@dataclass(frozen=True)
class PermutedBlockOp:
    """Direct sum of copies of one b x b block, conjugated by a permutation.

    `rows` is a (blocks x b) index array partitioning 0..dim-1: the amplitudes
    at rows[k] are multiplied by `block` and land back on rows[k], so entry
    (rows[k, j], rows[k, t]) is block[j, t] and every other entry is zero.
    """

    rows: np.ndarray
    block: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.size, self.rows.size)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a permuted block has no dense buffer to share")
        m = np.zeros(self.shape, dtype=self.block.dtype)
        m[self.rows[:, :, None], self.rows[:, None, :]] = self.block
        return m


def identity_perm(dim: int) -> SignedPermutationOp:
    return SignedPermutationOp._trusted(dim, np.arange(dim), np.ones(dim, dtype=np.complex128))


def compose_perms(outer: SignedPermutationOp, inner: SignedPermutationOp) -> SignedPermutationOp:
    """Signed permutation equal to applying `inner` first, then `outer`: a
    bijection after a bijection, unit phases times unit phases."""
    if outer.dim != inner.dim:
        raise DimensionMismatch("composed permutations must share dim")
    return SignedPermutationOp._trusted(
        outer.dim,
        outer.target[inner.target],
        inner.phase * outer.phase[inner.target],
    )


def apply(op, subsystem: int, s: StateVector) -> StateVector:
    """Apply a single-factor operator to one tensor factor of a state.

    The operator acts on `dims[subsystem]` and as the identity elsewhere.
    Signed permutations are applied by index relocation, arrays by a tensor
    contraction; neither path ever materializes an operator on the full
    product space.
    """
    if not 0 <= subsystem < len(s.dims):
        raise DimensionMismatch(f"no subsystem {subsystem} in dims {s.dims}")
    d = s.dims[subsystem]
    if op.shape != (d, d):
        raise DimensionMismatch(f"operator shape {op.shape} != subsystem dim {d}")
    moved = np.moveaxis(s.grid(), subsystem, 0)
    if isinstance(op, SignedPermutationOp):
        out = np.zeros_like(moved)
        out[op.target] = op.phase.reshape((-1,) + (1,) * (moved.ndim - 1)) * moved
    else:
        out = np.tensordot(np.asarray(op), moved, axes=(1, 0))
    return StateVector(s.dims, np.moveaxis(out, 0, subsystem).reshape(-1))


def apply_full(op, s: StateVector) -> StateVector:
    """Apply a signed permutation or a permuted block defined on the whole
    product space: the block by gather, accumulate and scatter."""
    dim = s.amp.size
    if op.shape != (dim, dim):
        raise DimensionMismatch(f"operator shape {op.shape} != state dim {dim}")
    out = np.zeros_like(s.amp)
    if isinstance(op, SignedPermutationOp):
        out[op.target] = op.phase * s.amp
    else:
        x = s.amp[op.rows]
        y = np.zeros_like(x)
        # add each block's terms left to right by ascending flat column, the
        # order of a csc matvec, so both round to the same bits
        columns = np.ascontiguousarray(op.block.T)
        blocks = np.arange(len(x))
        for t in np.argsort(op.rows, axis=1).T:
            y += columns[t] * x[blocks, t, None]
        out[op.rows] = y
    return StateVector(s.dims, out)


def inner(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b>."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"dims {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amp, b.amp))


def partial_trace(s: StateVector, keep: int) -> np.ndarray:
    """Reduced density matrix of one factor of a two-factor pure state."""
    if len(s.dims) != 2:
        raise DimensionMismatch(f"partial trace needs two subsystems, got dims {s.dims}")
    if keep not in (0, 1):
        raise DimensionMismatch(f"keep must be 0 or 1, got {keep}")
    m = s.grid()
    if keep == 0:
        return m @ m.conj().T
    return m.T @ m.conj()


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
