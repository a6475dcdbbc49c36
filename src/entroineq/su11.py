"""Hyperbolic-group pipelines: truncated weight distributions and reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .entropy import SubadditivityReport, subadditivity_report
from .errors import ConvergenceError, DomainError, NormalizationError
from .halfint import HalfInt, HalfIntLike
from .probability import SeriesKind, enumerate_weights, interleave_split
from .specfun import Su11Args, bargmann_b, c_function, l_function

#: Adaptive truncation: stop once terms fall below this ...
TERM_FLOOR = 1e-14
#: ... and this many consecutive terms were non-increasing.
TAIL_RUN = 10
#: Hard cap on the number of evaluated terms.
MAX_TERMS = 10**5


@dataclass(frozen=True)
class TruncatedDistribution:
    """Finite prefix of an infinite probability sequence.

    `values` follow the series' canonical weight order; `captured_mass`
    is their sum, computed once, `truncation` their number, and
    `tail_bound` = max(0, 1 - captured_mass) bounds the discarded mass.
    """

    values: tuple[float, ...]
    captured_mass: float = field(init=False)

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not values:
            raise DomainError("a truncated distribution needs at least one value")
        if not all(0.0 <= v < math.inf for v in values):
            raise DomainError("probabilities must be finite and nonnegative")
        try:
            mass = math.fsum(values)
        except OverflowError:
            raise DomainError("probability mass overflows the float range") from None
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "captured_mass", mass)

    @property
    def truncation(self) -> int:
        return len(self.values)

    @property
    def tail_bound(self) -> float:
        return max(0.0, 1.0 - self.captured_mass)


def discrete_series_distribution(
    k: int,
    m: HalfIntLike,
    t: float,
    eps: float = 1e-8,
    truncation: Optional[int] = None,
) -> TruncatedDistribution:
    """Squared boost elements |b^j_{m'm}(t)|^2 over the positive weight ladder.

    Terms follow m' = k/2, k/2+1, ... and are extended adaptively until
    the current term drops below 1e-14, ten consecutive terms were
    non-increasing, and at least 1 - eps of the mass is captured.
    `TAIL_RUN` exact zeros after some mass with less than 1 - eps of it
    captured raise NormalizationError, since no later term can add to it.
    Pass `truncation` to force a fixed number of terms instead.  A fixed
    truncation is one `bargmann_b` call; the adaptive ladder is read in
    blocks, one call each, each block twice the size of the one before.
    The first block holds `_first_block` weights, which usually reach the
    stop.
    """
    k = int(k)
    if k < 1:
        raise DomainError("k must be a positive integer")
    if not 0.0 < eps <= 1e-6:
        raise DomainError("eps must lie in (0, 1e-6]")
    if truncation is not None and truncation < 1:
        raise DomainError("truncation must be at least 1")
    args = Su11Args(
        series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(k), m=HalfInt.coerce(m), t=t, k=k
    )

    def block(start: int, count: int) -> list[float]:
        weights = [HalfInt(k + 2 * i) for i in range(start, start + count)]
        return [abs(value) ** 2 for value in bargmann_b(args, weights)]

    if truncation is not None:
        return TruncatedDistribution(tuple(block(0, truncation)))
    values: list[float] = []
    streak, previous, some_mass = 0, math.inf, False

    def terms():
        start, count = 0, _first_block(k, args.m.doubled, args.t)
        while start < MAX_TERMS:
            yield from block(start, min(count, MAX_TERMS - start))
            start, count = start + count, 2 * count

    for value in terms():
        values.append(value)
        streak = streak + 1 if value <= previous else 1
        previous = value
        some_mass = some_mass or value > 0.0  # with no mass yet neither stop can fire
        if value < TERM_FLOOR and streak >= TAIL_RUN and some_mass:
            mass = math.fsum(values)
            if mass >= 1.0 - eps:
                break
            # past the bulk, exact zeros can no longer change the mass
            if mass > 0.0 and not any(values[-TAIL_RUN:]):
                raise NormalizationError(
                    f"captured mass {mass!r} stays below 1 - eps: "
                    f"the last {TAIL_RUN} terms are exactly 0"
                )
    else:
        raise ConvergenceError(
            f"the k={k}, m={args.m}, t={args.t!r} ladder did not stabilize within {MAX_TERMS} terms"
        )
    return TruncatedDistribution(tuple(values))


def _first_block(k: int, two_m: int, t: float) -> int:
    """Length of the first block of an adaptive ladder.

    Past the bulk near m' = m the squared elements fall like
    tanh(t/2)^(2m') (times a polynomial in m'), so they pass `TERM_FLOOR`
    about log(TERM_FLOOR) / log(tanh^2(t/2)) weights later; the block holds
    twice that reach, at least `TAIL_RUN` + 1 and at most 1024 weights.
    """
    ratio = math.tanh(t / 2.0) ** 2
    tail = math.log(TERM_FLOOR) / math.log(ratio) if 0.0 < ratio < 1.0 else 0.0
    return min(max(TAIL_RUN + 1, math.ceil(2.0 * ((two_m - k) // 2 + tail))), 1024)


def su11_subadditivity(d: TruncatedDistribution) -> SubadditivityReport:
    """Shannon subadditivity of the pair/parity split of a weight ladder.

    The stored prefix is renormalized, split into consecutive pairs, and
    reported; requires captured mass within 1e-6 of 1 on either side.
    """
    if abs(d.captured_mass - 1.0) > 1e-6:
        raise NormalizationError(
            f"captured mass {d.captured_mass!r} is not within 1e-6 of 1"
        )
    return _renormalized_report(d.values, d.captured_mass)


def _renormalized_report(
    values: Sequence[float], mass: float, report_only: bool = False
) -> SubadditivityReport:
    """Report the pair/parity split of `values` scaled to unit total.

    `mass` is the sum of `values`; it is attached as `raw_mass`.
    """
    if mass <= 0.0:
        raise NormalizationError("no probability mass captured")
    scale = 1.0 / mass
    report = subadditivity_report(interleave_split([v * scale for v in values]))
    return replace(report, report_only=report_only, raw_mass=mass)


def _ladder_report(
    element: Callable[[Su11Args, Sequence[HalfInt]], Sequence[complex]],
    args: Su11Args,
    kind: SeriesKind,
    edge: Optional[HalfInt],
    truncation: int,
) -> SubadditivityReport:
    """Report-only `_renormalized_report` of |element|^2 on a weight ladder.

    `element` evaluates the whole ladder in one call.
    """
    if truncation < 1:
        raise DomainError("truncation must be at least 1")
    weights = enumerate_weights(kind, edge, truncation)
    values = [abs(value) ** 2 for value in element(args, weights)]
    return _renormalized_report(values, math.fsum(values), report_only=True)


def mixed_series_report(args: Su11Args, truncation: int) -> SubadditivityReport:
    """Report over |c|^2 on the discrete ladder, renormalized; report-only.

    The raw (pre-renormalization) mass is attached as `raw_mass`; no
    normalization is asserted for the mixed basis.
    """
    if not args.is_discrete:
        raise DomainError("mixed_series_report needs a discrete series")
    return _ladder_report(
        c_function, args, SeriesKind.DISCRETE_POSITIVE, HalfInt(-args.k), truncation
    )


def continuous_series_report(args: Su11Args, truncation: int) -> SubadditivityReport:
    """Report over |l|^2 on an alternating integer or half-odd ladder.

    As `mixed_series_report`: renormalized, report-only, raw mass attached.
    """
    if args.is_discrete:
        raise DomainError("continuous_series_report needs a continuous series")
    return _ladder_report(l_function, args, args.series, None, truncation)
