"""Validated distributions of any rank and invertible index relabellings.

A flat probability vector can be relabelled as a 2-D (or 3-D) table of
"subsystem" indices; the relabelling is invertible and manufactures the
joint/marginal structure that entropic inequalities need.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, DomainError
from .halfint import HalfInt, HalfIntLike

#: Components in [-NEGATIVE_CLAMP, 0) are clamped to zero at construction;
#: anything more negative is rejected.  Absorbs special-function noise.
NEGATIVE_CLAMP = 1e-12

#: Allowed deviation of a total probability mass from 1.
SUM_TOLERANCE = 1e-9

#: Every grid (exact row sums, squared d-columns, boost plans, columns and
#: ladders) runs in `parts` of about this many entries, a few MB of work arrays.
PART_TERMS = 2**16

DistributionLike = Union["Distribution", Sequence[float], np.ndarray]


def parts(count: int, width: int) -> list[slice]:
    """Slices of `count` rows of `width` entries, max(1, PART_TERMS // max(1, width)) rows or fewer each; one for no rows."""
    size = max(1, PART_TERMS // max(1, width))
    return [slice(start, start + size) for start in range(0, count or 1, size)]


def row_fsums(rows: np.ndarray) -> list[float]:
    """`math.fsum` of each row of a 2-D array, a part of rows at a time; a sum past the float range raises DomainError."""
    if rows.shape[1] <= 2:  # one addition rounds as fsum does, and fsum([-0.0]) is 0.0
        with np.errstate(all="ignore"):
            sums = rows.sum(axis=1) + 0.0
        if np.isfinite(sums).all():  # else fsum, which raises past the float range
            return sums.tolist()
    try:
        return [math.fsum(row) for part in parts(len(rows), rows.shape[1]) for row in rows[part].tolist()]
    except OverflowError:
        raise DomainError("probability mass overflows the float range") from None


def _clean(array: np.ndarray) -> np.ndarray:
    """Clean a float array in place: tiny negatives become 0, others raise."""
    finite = np.isfinite(array)
    if not finite.all():
        raise DomainError(f"non-finite probability {float(array[~finite][0])!r}")
    if (array < -NEGATIVE_CLAMP).any():
        raise DomainError(f"negative probability {float(array.min())!r}")
    array[array <= 0.0] = 0.0  # also folds -0.0
    return array


class Distribution:
    """Finite nonnegative array of any rank >= 1 with total mass 1.

    Rank 1 is a probability vector; rank 2 or 3 is a joint table over two
    or three subsystem indices, stored row-major.  With `batch_ndim`
    leading batch axes the array stacks one such distribution per batch
    index (one per angle of a sweep, say), and every one of them is
    checked.  Construction copies and validates the values once; the
    stored array is read-only and the instance is frozen.
    """

    __slots__ = ("_array", "batch_ndim")

    def __new__(cls, values: DistributionLike, batch_ndim: int = 0) -> "Distribution":
        array = np.array(values, dtype=float)
        if not 0 <= batch_ndim < array.ndim or array.size == 0:
            raise DimensionError("a distribution needs an axis and an entry beyond its batch axes")
        rows = _clean(array).reshape(math.prod(array.shape[:batch_ndim]), -1)
        with np.errstate(over="ignore"):  # an overflowing row is summed exactly below, and raises
            sums = rows.sum(axis=1)  # nonnegative entries: within n u of the exact total, relative; 2nu below
        unsure = rows[~(np.abs(sums - 1.0) <= SUM_TOLERANCE - rows.shape[1] * 2.0**-52 * sums)]
        for total in row_fsums(unsure) if len(unsure) else ():
            if abs(total - 1.0) > SUM_TOLERANCE:
                raise DomainError(f"entries sum to {total!r}, not 1")
        return cls._trusted(array, batch_ndim)

    @classmethod
    def _trusted(cls, array: np.ndarray, batch_ndim: int = 0) -> "Distribution":
        """Wrap an array derived from a validated distribution, unchecked; every instance is frozen here."""
        self = object.__new__(cls)
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "batch_ndim", batch_ndim)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def as_array(self) -> np.ndarray:
        return self._array

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self._array.shape[: self.batch_ndim]

    @property
    def size(self) -> int:
        """Entries of one distribution, without the batch axes."""
        return math.prod(self._array.shape[self.batch_ndim :])


def _checked(p: DistributionLike) -> Distribution:
    return p if isinstance(p, Distribution) else Distribution(p)


@dataclass(frozen=True, eq=False)
class BistochasticMatrix:
    """Square nonnegative matrix whose rows and columns all sum to 1.

    `entries` (n * n values, row-major) are cleaned once into a read-only
    n x n float array.  Instances compare and hash by identity, as numpy
    arrays have no truth value.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 1:
            raise DimensionError(f"invalid size {n}")
        entries = _clean(np.array(self.entries, dtype=float))
        if entries.size != n * n:
            raise DimensionError(f"{entries.size} entries do not fill {n}x{n}")
        entries = entries.reshape(n, n)
        for axis, name in ((0, "column"), (1, "row")):
            worst = float(np.max(np.abs(entries.sum(axis=axis) - 1.0)))
            if worst > SUM_TOLERANCE:
                raise DomainError(f"a {name} sum deviates from 1 by {worst!r}")
        entries.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_array(array: np.ndarray) -> "BistochasticMatrix":
        a = np.asarray(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        return BistochasticMatrix(a.shape[0], a)

    def as_array(self) -> np.ndarray:
        return self.entries


class SeriesKind(str, enum.Enum):
    """Weight-lattice orderings for infinite (and mirrored finite) series."""

    DISCRETE_POSITIVE = "discrete_positive"
    DISCRETE_NEGATIVE = "discrete_negative"
    CONTINUOUS_INTEGER = "continuous_integer"
    CONTINUOUS_HALF_INTEGER = "continuous_half_integer"


def relabel(p: DistributionLike, dims: Sequence[int]) -> Distribution:
    """Row-major fill of a table of shape `dims`; unused cells are zero.

    The relabelling is invertible: the flattened table without its zero
    padding is `p` again.  Batch axes of `p` stay in front, so the result
    has shape `p.batch_shape + dims`.  A `Distribution` is placed as it
    is; anything else is validated first.
    """
    p = _checked(p)
    dims = tuple(int(n) for n in dims)
    if not dims or min(dims) < 1:
        raise DimensionError(f"invalid table shape {dims}")
    batch, n = p.batch_shape, p.size
    if math.prod(dims) < n:
        raise DimensionError(f"cannot place {n} components into a {dims} table")
    table = np.zeros(batch + (math.prod(dims),))
    table[..., :n] = p.as_array().reshape(batch + (n,))
    return Distribution._trusted(table.reshape(batch + dims), p.batch_ndim)


def bipartite_split(p: DistributionLike) -> Distribution:
    """Relabel a flat vector as a 2 x ceil(N/2) table.

    Row 1 holds the first ceil(N/2) components, row 2 the remainder; a
    single zero is appended when N is odd.
    """
    p = _checked(p)
    if p.size < 2:
        raise DimensionError("need at least two components to split")
    return relabel(p, (2, (p.size + 1) // 2))


def interleave_split(p: DistributionLike) -> Distribution:
    """Relabel a flat vector as a ceil(N/2) x 2 table of consecutive pairs.

    Row k is (p_{2k-1}, p_{2k}); the column marginal is the pair of
    odd-index and even-index sums, the row marginal the pair sums.
    """
    p = _checked(p)
    return relabel(p, ((p.size + 1) // 2, 2))


def enumerate_weights(
    kind: SeriesKind,
    j_or_s: HalfIntLike | None = None,
    count: int = 1,
) -> tuple[HalfInt, ...]:
    """First `count` weight labels in a series' canonical order.

    Discrete series enumerate from the edge weight (-j upward, or j
    downward); continuous series alternate around 0 or +-1/2.
    """
    return tuple(HalfInt(d) for d in doubled_weights(kind, j_or_s, count).tolist())


def doubled_weights(kind: SeriesKind, j_or_s: HalfIntLike | None = None, count: int = 1) -> np.ndarray:
    """The doubled labels of `enumerate_weights`, as an int array."""
    kind = SeriesKind(kind)
    if count < 1:
        raise DimensionError("count must be at least 1")
    i = np.arange(count)
    if kind is SeriesKind.DISCRETE_POSITIVE:
        return -HalfInt.coerce(j_or_s).doubled + 2 * i
    if kind is SeriesKind.DISCRETE_NEGATIVE:
        return HalfInt.coerce(j_or_s).doubled - 2 * i
    sign = np.where(i % 2, 1, -1)
    if kind is SeriesKind.CONTINUOUS_INTEGER:
        return sign * ((i + 1) // 2) * 2  # 0, 1, -1, 2, -2, ...
    return sign * (2 * ((i + 2) // 2) - 1)  # -1/2, 1/2, -3/2, 3/2, ...


def marginals(t: Distribution) -> tuple[Distribution, Distribution]:
    """Both marginals of a 2-D table, per batch index when `t` has batch axes.

    The first sums out the row index (length N2), the second the column
    index (length N1).
    """
    grid, batch = t.as_array(), t.batch_ndim
    if grid.ndim - batch != 2:
        raise DimensionError("marginals() needs a 2-D table")
    return (
        Distribution._trusted(grid.sum(axis=batch), batch),
        Distribution._trusted(grid.sum(axis=batch + 1), batch),
    )
