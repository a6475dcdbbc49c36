"""Exact half-integer arithmetic for spin and weight labels.

Values n/2 are stored as the integer n, so weights like 3/2 never touch
floating point until they are explicitly converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import DomainError

HalfIntLike = Union["HalfInt", int, float, str, Fraction]


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer value ``doubled / 2`` stored exactly."""

    doubled: int

    @staticmethod
    def coerce(value: HalfIntLike) -> "HalfInt":
        """Convert ints, floats, fractions, and strings like "3/2" or "1.5"."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not half-integers")
        if isinstance(value, int):
            return HalfInt(2 * value)
        if isinstance(value, Fraction):
            doubled = 2 * value
            if doubled.denominator != 1:
                raise DomainError(f"{value} is not a half-integer")
            return HalfInt(int(doubled))
        if isinstance(value, float):
            doubled = 2.0 * value
            if not math.isfinite(doubled):
                raise DomainError(f"{value} is not a half-integer in the float range")
            nearest = round(doubled)
            if abs(doubled - nearest) > 1e-9:
                raise DomainError(f"{value} is not a half-integer")
            return HalfInt(int(nearest))
        if isinstance(value, str):
            return HalfInt._parse(value)
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @staticmethod
    def _parse(text: str) -> "HalfInt":
        s = text.strip()
        try:
            if "/" in s:
                num, _, den = s.partition("/")
                return HalfInt.coerce(Fraction(int(num), int(den)))
            if "." in s or "e" in s.lower():
                return HalfInt.coerce(float(s))
            return HalfInt(2 * int(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse {text!r} as a half-integer") from exc

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def same_parity(self, other: "HalfInt") -> bool:
        """True when self and other sit on the same (integer/half-odd) lattice."""
        return (self.doubled - other.doubled) % 2 == 0

    def __add__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(self.doubled + HalfInt.coerce(other).doubled)

    __radd__ = __add__

    def __sub__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(self.doubled - HalfInt.coerce(other).doubled)

    def __rsub__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(HalfInt.coerce(other).doubled - self.doubled)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.doubled))

    def __float__(self) -> float:
        return self.doubled / 2.0

    def __str__(self) -> str:
        return label(self.doubled)


def label(doubled: int) -> str:
    """The text of the half-integer doubled/2, as `str(HalfInt(doubled))`
    writes it: "2", "-1", "3/2", "-1/2"."""
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def doubled(weights: Sequence[HalfIntLike]) -> np.ndarray:
    """The doubled values of a weight sequence, as an int array.  A numeric
    numpy array goes in one step under the float rule of `HalfInt.coerce`,
    whose error its first bad entry raises; anything else entry by entry."""
    if not (isinstance(weights, np.ndarray) and weights.dtype.kind in "iuf"):
        return np.array([HalfInt.coerce(w).doubled for w in weights], dtype=int)
    with np.errstate(all="ignore"):  # NaN and +-inf are bad entries
        twice = 2.0 * weights
        nearest = np.round(twice)
        bad = ~(np.abs(twice - nearest) <= 1e-9)
    if bad.any():
        HalfInt.coerce(float(weights[np.argmax(bad)]))  # raises
    return nearest.astype(int)
