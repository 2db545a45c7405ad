"""Normalized symmetric Hadamard matrices.

Every basis state and every operator in this package draws its sign pattern
from the rows of one of these matrices, so the entries are kept as exact
integers (+1/-1) and the 1/sqrt(order) normalization is applied only where a
state or operator is actually materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConstructionUnavailable, IndexOutOfRange, UnsupportedOrder

__all__ = [
    "HadamardMatrix",
    "build",
    "is_admissible_order",
    "load_custom_matrices",
]


def is_admissible_order(order: int) -> bool:
    """True if a real Hadamard matrix of this order can exist at all."""
    return order in (1, 2) or (order > 0 and order % 4 == 0)


def _sylvester(order: int) -> np.ndarray:
    """Integer Sylvester matrix of power-of-two order (symmetric by induction)."""
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.vstack((np.hstack((h, h)), np.hstack((h, -h))))
    return h


@dataclass(frozen=True)
class HadamardMatrix:
    """A normalized symmetric Hadamard matrix with exact integer backing.

    `ints` holds the unnormalized +-1 entries; `normalized` divides by
    sqrt(order).  Construction validates symmetry, entry values, and the
    self-inverse property H @ H = I (exact in integer arithmetic:
    ints @ ints == order * I).
    """

    order: int
    ints: np.ndarray
    construction: str = "sylvester"
    _norm: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        m = self.ints
        if m.shape != (self.order, self.order):
            raise ConstructionUnavailable(
                f"matrix shape {m.shape} does not match order {self.order}"
            )
        if not np.all(np.abs(m) == 1):
            raise ConstructionUnavailable("entries must all be +1 or -1")
        if not np.array_equal(m, m.T):
            raise ConstructionUnavailable("matrix is not symmetric")
        if not np.array_equal(m @ m, self.order * np.eye(self.order, dtype=np.int64)):
            raise ConstructionUnavailable("matrix is not self-inverse after normalization")
        object.__setattr__(self, "_norm", m / np.sqrt(self.order))
        self.ints.setflags(write=False)

    @property
    def normalized(self) -> np.ndarray:
        """Float matrix with entries +-1/sqrt(order); squares to the identity."""
        return self._norm

    def row(self, j: int) -> np.ndarray:
        """Unnormalized row j (1-based)."""
        if not 1 <= j <= self.order:
            raise IndexOutOfRange(f"row {j} outside 1..{self.order}")
        return self.ints[j - 1]


def load_custom_matrices(path: str | Path) -> dict[int, np.ndarray]:
    """Parse a registry file of +-1 matrices, one per blank-line-separated block.

    Rows are whitespace-separated entries written as 1/-1 or +1/-1.  Each
    matrix is validated through the HadamardMatrix constructor; invalid blocks
    raise rather than being skipped.  A non-integer entry or a block that is
    not a rectangle of int64 entries raises ConfigError naming its line; a
    file that cannot be read or is not UTF-8 raises ConfigError naming the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read registry file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: registry file is not UTF-8 text ({exc.reason})") from None
    registry: dict[int, np.ndarray] = {}
    block: list[list[int]] = []
    start = 0  # line number of the block's first row

    def flush():
        if not block:
            return
        try:
            m = np.array(block, dtype=np.int64)
        except (ValueError, OverflowError):
            raise ConfigError(
                f"{path}: the block at line {start} is not a rectangle of int64 entries"
            ) from None
        checked = HadamardMatrix(order=m.shape[0], ints=m, construction="custom")
        registry[checked.order] = checked.ints
        block.clear()

    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            flush()
            continue
        if not block:
            start = number
        try:
            block.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ConfigError(f"{path}: line {number}: entries must be integers, got {line!r}") from None
    flush()
    return registry


def build(order: int, custom: dict[int, np.ndarray] | None = None) -> HadamardMatrix:
    """Construct the normalized symmetric Hadamard matrix of the given order.

    Orders 1, 2, 4, 8, ... (powers of two) use the Sylvester doubling
    construction, which is symmetric and self-inverse by induction.  Other
    multiples of 4 are only available through a registry of externally
    supplied matrices (see `load_custom_matrices`); without one they raise
    ConstructionUnavailable.  Orders that no real Hadamard matrix can have
    raise UnsupportedOrder.

    Deterministic: the same order always yields the identical matrix.
    """
    if not is_admissible_order(order):
        raise UnsupportedOrder(
            f"no real Hadamard matrix of order {order} exists (allowed: 1, 2, 4k)"
        )
    if custom and order in custom:
        return HadamardMatrix(order=order, ints=np.array(custom[order]), construction="custom")
    if order & (order - 1) == 0:  # power of two
        return HadamardMatrix(order=order, ints=_sylvester(order), construction="sylvester")
    raise ConstructionUnavailable(
        f"order {order} is admissible but no symmetric construction is registered for it"
    )
