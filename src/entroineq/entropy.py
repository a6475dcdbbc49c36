"""Shannon, Tsallis, and Renyi entropies with subadditivity reports.

All entropies are in nats and use the 0*ln(0) = 0 convention, which makes
them exactly invariant under zero padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import DomainError
from .probability import Distribution, DistributionLike, marginals


def _values(p: DistributionLike) -> list[float]:
    if isinstance(p, Distribution):
        return p.as_array().ravel().tolist()
    return [float(v) for v in p]


def _plogp_sum(values: Iterable[float]) -> float:
    return math.fsum(v * math.log(v) for v in values if v > 0.0)


def _power_sum(values: Iterable[float], q: float) -> float:
    return math.fsum(v**q for v in values if v > 0.0)


def check_q(q: float) -> float:
    """Validate a deformation parameter: q > 0 and q != 1."""
    q = float(q)
    if not q > 0.0 or q == 1.0:
        raise DomainError(f"q must be positive and different from 1, got {q!r}")
    return q


def shannon(p: DistributionLike) -> float:
    """H = -sum p_k ln p_k over every entry of `p`, whatever its rank."""
    return -_plogp_sum(_values(p))


def tsallis(p: DistributionLike, q: float) -> float:
    """S_q = (sum p_k^q - 1) / (1 - q)."""
    q = check_q(q)
    return (_power_sum(_values(p), q) - 1.0) / (1.0 - q)


def renyi(p: DistributionLike, q: float) -> float:
    """S_q = ln(sum p_k^q) / (1 - q).  Computed for reporting only."""
    q = check_q(q)
    return math.log(_power_sum(_values(p), q)) / (1.0 - q)


@dataclass(frozen=True)
class SubadditivityReport:
    """Joint and marginal entropies of a 2-D table plus their slack.

    slack = h_first + h_second - h_joint.  It is nonnegative for Shannon
    entropy and for Tsallis entropy with q > 1; Renyi and Tsallis with
    q < 1 reports carry no sign contract (`report_only`).
    """

    h_joint: float
    h_first: float
    h_second: float
    slack: float
    kind: str
    q: Optional[float] = None
    report_only: bool = False
    raw_mass: Optional[float] = None


def _report(
    t: Distribution, entropy: Callable[[Distribution], float], kind: str, q: Optional[float] = None
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
