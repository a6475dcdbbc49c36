"""Rotation-group pipelines: squared d-columns, splits, inequality reports."""

from __future__ import annotations

import math

import numpy as np

from .entropy import (
    SubadditivityReport,
    subadditivity_report,
    tsallis_subadditivity_report,
)
from .errors import DomainError
from .halfint import HalfInt, HalfIntLike
from .probability import Distribution, bipartite_split
from .specfun import _squared_column


def column_distribution(j: HalfIntLike, m: HalfIntLike, theta) -> Distribution:
    """Probabilities |d^j_{m'm}(theta)|^2 over m' = -j..j ascending.

    `theta` is one angle or an array of angles.  An array gives one
    distribution per angle, its axes leading as batch axes; every angle is
    checked as a single one is.
    """
    return Distribution(_squared_column(j, m, theta), np.ndim(theta))


def su2_subadditivity(j: HalfIntLike, m: HalfIntLike, theta) -> SubadditivityReport:
    """Shannon subadditivity report for the split column distribution.

    For an array of angles the report holds one value per angle.
    """
    return subadditivity_report(bipartite_split(column_distribution(j, m, theta)))


def su2_tsallis_subadditivity(
    j: HalfIntLike, m: HalfIntLike, theta, q: float
) -> SubadditivityReport:
    """Tsallis analog of `su2_subadditivity` (asserted only for q > 1)."""
    return tsallis_subadditivity_report(
        bipartite_split(column_distribution(j, m, theta)), q
    )


def _closed_forms_three_half(theta: float) -> tuple[float, ...]:
    # ascending m' = -3/2..3/2 for the m = 3/2 column
    cos_t = math.cos(theta)
    sin_half_sq = math.sin(theta / 2.0) ** 2
    p1 = (cos_t + 1.0) ** 3 / 8.0
    p2 = 3.0 * sin_half_sq * (sin_half_sq - 1.0) ** 2
    # (cos t - 1) enters squared; the odd power in circulation is a typo
    p3 = 3.0 * (cos_t - 1.0) ** 2 * (cos_t + 1.0) / 8.0
    p4 = -((cos_t - 1.0) ** 3) / 8.0
    return (p4, p3, p2, p1)


def _closed_forms_two(theta: float) -> tuple[float, ...]:
    # ascending m' = -2..2 for the m = 2 column
    cos_t = math.cos(theta)
    cos_half_sq = math.cos(theta / 2.0) ** 2
    sin_half_sq = math.sin(theta / 2.0) ** 2
    t1 = (cos_t + 1.0) ** 4 / 16.0
    t2 = 4.0 * cos_half_sq**3 * (1.0 - cos_half_sq)
    t3 = 3.0 * math.sin(theta) ** 4 / 8.0
    t4 = 4.0 * sin_half_sq**3 * (1.0 - sin_half_sq)
    t5 = (cos_t - 1.0) ** 4 / 16.0
    return (t5, t4, t3, t2, t1)


def closed_form_check(j: HalfIntLike, theta: float) -> float:
    """Max deviation of the edge-column distribution from its closed forms.

    Available for j = 3/2 (m = 3/2) and j = 2 (m = 2).
    """
    doubled = HalfInt.coerce(j).doubled
    if doubled == 3:
        expected = _closed_forms_three_half(float(theta))
    elif doubled == 4:
        expected = _closed_forms_two(float(theta))
    else:
        raise DomainError("closed forms are available for j = 3/2 and j = 2 only")
    computed = column_distribution(j, j, theta).as_array().tolist()
    return max(abs(a - b) for a, b in zip(computed, expected))

