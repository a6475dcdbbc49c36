"""Hyperbolic-group pipelines: truncated weight distributions and reports."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .entropy import SubadditivityReport, subadditivity_report
from .errors import ConvergenceError, DomainError, NormalizationError
from .halfint import HalfInt, HalfIntLike
from .probability import Distribution, SeriesKind, doubled_weights, interleave_split, parts, row_fsums
from .specfun import Su11Args, bargmann_b, boost_column_length, c_function, l_function

#: Adaptive truncation: stop once terms fall below this ...
TERM_FLOOR = 1e-14
#: ... and this many consecutive terms were non-increasing.
TAIL_RUN = 10
#: Hard cap on the number of evaluated terms.
MAX_TERMS = 10**5


@dataclass(frozen=True, eq=False)
class TruncatedDistribution:
    """Finite prefix of an infinite probability sequence, or one per grid point.

    `values` follow the series' canonical weight order (a read-only array);
    `captured_mass` is their exact sum, computed once, and `tail_bound` =
    max(0, 1 - captured_mass) bounds the discarded mass.  1-D `values` are
    one prefix, its first `truncation` terms (all of them by default) then
    zeros.  2-D `values` hold one prefix per row (per rapidity of a grid),
    its first `truncation[i]` terms then zeros, and the three attributes
    are arrays over the rows.  Instances compare and hash by identity, as
    numpy arrays have no truth value.
    """

    values: np.ndarray
    truncation: Union[int, np.ndarray, None] = None
    captured_mass: Union[float, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim not in (1, 2):
            raise DomainError(f"a prefix is 1-D and a grid of them 2-D, got {values.ndim}-D values")
        width = values.shape[-1]
        truncation = np.array(width if self.truncation is None else self.truncation, dtype=int)
        past = np.arange(width) >= truncation[..., None]
        if truncation.shape != values.shape[:-1] or np.any(values[past]) or np.any(truncation > width):
            raise DomainError("a prefix, or each row of a grid of them, needs its truncation, then zeros")
        if not values.size:
            raise DomainError("a truncated distribution needs at least one value")
        if not (np.isfinite(values) & (values >= 0.0)).all():
            raise DomainError("probabilities must be finite and nonnegative")
        mass = np.array(row_fsums(values.reshape(-1, values.shape[-1])))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "truncation", truncation if values.ndim > 1 else int(truncation))
        object.__setattr__(self, "captured_mass", mass if values.ndim > 1 else float(mass[0]))

    @property
    def tail_bound(self) -> Union[float, np.ndarray]:
        mass = self.captured_mass
        return np.maximum(0.0, 1.0 - mass) if self.values.ndim > 1 else max(0.0, 1.0 - mass)


def _check_truncation(truncation: int) -> None:
    """A fixed ladder length is at least 1 and at most `MAX_TERMS`: checked
    before any weight is built."""
    if truncation < 1:
        raise DomainError("truncation must be at least 1")
    if truncation > MAX_TERMS:
        raise DomainError(f"truncation {truncation} is past the budget of {MAX_TERMS} terms")


def discrete_series_distribution(
    k: int,
    m: HalfIntLike,
    t,
    eps: float = 1e-8,
    truncation: Optional[int] = None,
) -> TruncatedDistribution:
    """Squared boost elements |b^j_{m'm}(t)|^2 over the positive weight ladder.

    Terms follow m' = k/2, k/2+1, ... and are extended adaptively until
    the current term drops below 1e-14, ten consecutive terms were
    non-increasing, and at least 1 - eps of the mass is captured.
    `TAIL_RUN` exact zeros after some mass with less than 1 - eps of it
    captured raise NormalizationError, since no later term can add to it.
    Pass `truncation` to force a fixed number of terms instead, at most
    `MAX_TERMS`; a longer one raises DomainError before any array is built.
    Either way a ladder is one `bargmann_b` call: the adaptive one reads
    the whole column (`boost_column_length` weights, then zeros) and
    applies the stop rule to that array.  `t` is one rapidity, or a 1-D array of them
    for a 2-D `TruncatedDistribution` from one call, each row bit for bit
    its one-rapidity ladder; the first failing point raises.  A grid runs
    in `parts` of one ladder per row, one `bargmann_b` call per part.
    """
    if not 0.0 < eps <= 1e-6:
        raise DomainError("eps must lie in (0, 1e-6]")
    if truncation is not None:
        _check_truncation(truncation)
    args = Su11Args(  # a scalar t is the one-point grid
        series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(k), m=HalfInt.coerce(m), t=np.atleast_1d(t), k=k
    )
    count = truncation or min(MAX_TERMS, int(np.max(boost_column_length(args))) + TAIL_RUN)
    weights, rows = args.k / 2 + np.arange(count), parts(args.t.size, count)
    squares, stops = [], []
    for at in rows:
        part = args if len(rows) == 1 else replace(args, t=args.t[at])
        squares.append(np.abs(np.asarray(bargmann_b(part, weights))) ** 2)
        stops += [truncation] * len(squares[-1]) if truncation else _stops(squares[-1], eps, part)
    squares = np.concatenate(squares)[:, : max(stops)]
    if not np.ndim(t):
        return TruncatedDistribution(squares[0])
    squares[np.arange(squares.shape[1]) >= np.array(stops)[:, None]] = 0.0
    return TruncatedDistribution(squares, stops)


def _stops(squares: np.ndarray, eps: float, args: Su11Args) -> list[int]:
    """The adaptive truncation of each row of `squares`, the first failing
    row raising: the stop rule's candidates come from array operations, and
    the exact mass is summed only at them."""
    index = np.arange(squares.shape[1])
    rises = np.ones(squares.shape, dtype=bool)
    rises[:, 1:] = squares[:, 1:] > squares[:, :-1]
    streak = index - np.maximum.accumulate(np.where(rises, index, 0), axis=1) + 1
    some_mass = np.logical_or.accumulate(squares > 0.0, axis=1)  # with no mass yet neither stop can fire
    rows, at = np.nonzero((squares < TERM_FLOOR) & (streak >= TAIL_RUN) & some_mass)
    stops = []
    for values, t, candidates in zip(squares, args.t.tolist(), np.split(at, np.searchsorted(rows, range(1, len(squares))))):
        for i in candidates.tolist():
            mass = row_fsums(values[None, : i + 1])[0]
            if mass >= 1.0 - eps:
                stops.append(i + 1)
                break
            # past the bulk, exact zeros can no longer change the mass
            if mass > 0.0 and not values[i + 1 - TAIL_RUN : i + 1].any():
                raise NormalizationError(
                    f"captured mass {mass!r} stays below 1 - eps: "
                    f"the last {TAIL_RUN} terms are exactly 0"
                )
        else:
            raise ConvergenceError(
                f"the k={args.k}, m={args.m}, t={t!r} ladder did not stabilize within {values.size} terms"
            )
    return stops


def su11_subadditivity(d: TruncatedDistribution) -> SubadditivityReport:
    """Shannon subadditivity of the pair/parity split of a weight ladder.

    The stored prefix is renormalized, split into consecutive pairs, and
    reported; requires captured mass within 1e-6 of 1 on either side.  A
    grid is one report of arrays, unchanged by its zero padding.
    """
    mass = np.ravel(d.captured_mass)
    far = np.abs(mass - 1.0) > 1e-6
    if far.any():
        raise NormalizationError(
            f"captured mass {float(mass[far][0])!r} is not within 1e-6 of 1"
        )
    return _renormalized_report(d)


def _renormalized_report(d: TruncatedDistribution, report_only: bool = False) -> SubadditivityReport:
    """Pair/parity report of each prefix of `d` scaled to unit total, with its
    mass as `raw_mass`; the scaled table is trusted: rows sum to 1 within 4 ulps."""
    if np.any(d.captured_mass < np.finfo(float).tiny):  # a subnormal total has lost its precision
        raise NormalizationError("no probability mass captured")
    scale = (1.0 / np.asarray(d.captured_mass))[..., None]  # each table is freed once the next is built
    report = subadditivity_report(interleave_split(Distribution._trusted(d.values * scale, d.values.ndim - 1)))
    return replace(report, report_only=report_only, raw_mass=d.captured_mass)


def _ladder_report(
    element: Callable[[Su11Args, np.ndarray], Sequence[complex]],
    args: Su11Args,
    kind: SeriesKind,
    edge: Optional[HalfInt],
    truncation: int,
) -> SubadditivityReport:
    """Report-only `_renormalized_report` of |element|^2 on a weight ladder.

    `element` evaluates the whole ladder in one call; a truncation past
    `MAX_TERMS` raises DomainError before any weight is built.
    """
    _check_truncation(truncation)
    weights = doubled_weights(kind, edge, truncation) / 2.0
    values = np.abs(np.array(element(args, weights))) ** 2
    return _renormalized_report(TruncatedDistribution(values), report_only=True)


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
