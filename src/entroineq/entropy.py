"""Shannon, Tsallis, and Renyi entropies with subadditivity reports.

All entropies are in nats and use the 0*ln(0) = 0 convention, which makes
them exactly invariant under zero padding.  A distribution with batch axes
gets one entropy per batch index, as an array over those axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError
from .probability import Distribution, DistributionLike, _checked, marginals, row_fsums

#: An entropy of one distribution, or an array of them over batch axes.
Entropy = Union[float, np.ndarray]


def _sums(p: DistributionLike, term: Callable[..., np.ndarray]) -> Entropy:
    """Exact sum of `term` over the positive entries of each distribution.

    `term(v, **mask)` is a ufunc of the entries; given `out` and `where`
    it writes only where they are positive.  The result is a float, or an
    array over the batch axes of `p`; a plain sequence is validated as one
    distribution.
    """
    p = _checked(p)
    rows = p.as_array().reshape(math.prod(p.batch_shape), -1)  # one row without batch axes
    sums = row_fsums(term(rows, out=np.zeros(rows.shape), where=rows > 0.0))
    return np.array(sums).reshape(p.batch_shape) if p.batch_shape else sums[0]


def check_q(q: float) -> float:
    """Validate a deformation parameter: q > 0 and q != 1."""
    q = float(q)
    if not q > 0.0 or q == 1.0:
        raise DomainError(f"q must be positive and different from 1, got {q!r}")
    return q


def shannon(p: DistributionLike) -> Entropy:
    """H = -sum p_k ln p_k over every entry of `p`, whatever its rank."""
    return -_sums(p, lambda v, **mask: np.multiply(v, np.log(v, **mask), **mask))


def tsallis(p: DistributionLike, q: float) -> Entropy:
    """S_q = (sum p_k^q - 1) / (1 - q)."""
    q = check_q(q)
    return (_sums(p, lambda v, **mask: np.power(v, q, **mask)) - 1.0) / (1.0 - q)


def renyi(p: DistributionLike, q: float) -> Entropy:
    """S_q = ln(sum p_k^q) / (1 - q).  Computed for reporting only."""
    q = check_q(q)
    return np.log(_sums(p, lambda v, **mask: np.power(v, q, **mask))) / (1.0 - q)


@dataclass(frozen=True)
class SubadditivityReport:
    """Joint and marginal entropies of a 2-D table plus their slack.

    The four values are floats, or arrays over the table's batch axes.
    slack = h_first + h_second - h_joint.  It is nonnegative for Shannon
    entropy and for Tsallis entropy with q > 1; Renyi and Tsallis with
    q < 1 reports carry no sign contract (`report_only`).
    """

    h_joint: Entropy
    h_first: Entropy
    h_second: Entropy
    slack: Entropy
    kind: str
    q: Optional[float] = None
    report_only: bool = False
    raw_mass: Optional[float] = None


def _report(
    t: Distribution, entropy: Callable[[Distribution], Entropy], kind: str, q: Optional[float] = None
) -> SubadditivityReport:
    first, second = marginals(t)
    h_joint = entropy(t)
    h_first = entropy(first)
    h_second = entropy(second)
    return SubadditivityReport(
        h_joint=h_joint,
        h_first=h_first,
        h_second=h_second,
        slack=h_first + h_second - h_joint,
        kind=kind,
        q=q,
        report_only=q is not None and q < 1.0,
    )


def subadditivity_report(t: Distribution) -> SubadditivityReport:
    """Shannon entropies of a 2-D table and its marginals."""
    return _report(t, shannon, "shannon")


def tsallis_subadditivity_report(t: Distribution, q: float) -> SubadditivityReport:
    """Tsallis entropies of a 2-D table and its marginals.

    The slack is only guaranteed nonnegative for q > 1; for 0 < q < 1 the
    report is flagged `report_only`.
    """
    q = check_q(q)
    return _report(t, lambda p: tsallis(p, q), "tsallis", q)
