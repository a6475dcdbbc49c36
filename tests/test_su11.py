"""Truncated weight-ladder distributions and their inequality reports."""

import math
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from entroineq import entropy, probability, specfun, su11
from entroineq import (
    DomainError,
    EntroineqError,
    HalfInt,
    NormalizationError,
    SeriesKind,
    Su11Args,
    TruncatedDistribution,
    bargmann_b,
    continuous_series_report,
    discrete_series_distribution,
    enumerate_weights,
    mixed_series_report,
    shannon,
    su11_subadditivity,
)


def count_calls(monkeypatch, *targets):
    """Wrap each (module, name) so that calls are counted by name."""
    calls = {}
    for module, name in targets:
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_validation(monkeypatch):
    """Count `probability._clean` calls and exact row sums, in every module that imports them."""
    return count_calls(monkeypatch, (probability, "_clean"), *((module, "row_fsums") for module in (probability, su11, entropy)))


def count_coerce(monkeypatch):
    """Count `HalfInt.coerce` calls, as the benchmark's traced run does."""
    calls = {"coerce": 0}
    coerce = HalfInt.__dict__["coerce"].__func__

    def counted(value):
        calls["coerce"] += 1
        return coerce(value)

    monkeypatch.setattr(HalfInt, "coerce", staticmethod(counted))
    return calls


class TestDiscreteSeriesDistribution:
    def test_identity_element_is_exact_delta(self):
        d = discrete_series_distribution(2, HalfInt(2), 0.0)
        assert d.values[0] == 1.0
        assert all(v == 0.0 for v in d.values[1:])
        assert d.captured_mass == 1.0
        assert d.tail_bound == 0.0

    def test_delta_lands_on_the_column_weight(self):
        d = discrete_series_distribution(2, HalfInt(6), 0.0)
        assert d.values[2] == 1.0
        assert math.fsum(d.values) == 1.0

    def test_k2_normalization_and_size(self):
        d = discrete_series_distribution(2, HalfInt(2), 0.5)
        assert abs(d.captured_mass - 1.0) <= 1e-8
        assert d.truncation < 100

    def test_k4_normalization(self):
        d = discrete_series_distribution(4, HalfInt(4), 1.0)
        assert abs(d.captured_mass - 1.0) <= 1e-8

    def test_values_follow_enumeration_order(self):
        k, t = 2, 0.6
        d = discrete_series_distribution(k, HalfInt(2), t)
        weights = enumerate_weights(SeriesKind.DISCRETE_POSITIVE, HalfInt(-k), 5)
        for i, w in enumerate(weights):
            args = Su11Args(
                series=SeriesKind.DISCRETE_POSITIVE,
                m_prime=w,
                m=HalfInt(2),
                t=t,
                k=k,
            )
            assert d.values[i] == pytest.approx(abs(bargmann_b(args)) ** 2, abs=1e-15)

    def test_leading_zeros_do_not_stop_the_ladder(self):
        # at t = 0 the 30 terms below m' = m are exact zeros with no mass yet
        d = discrete_series_distribution(1, HalfInt(61), 0.0)
        assert d.values[30] == 1.0
        assert d.captured_mass == 1.0

    def test_zero_tail_below_the_mass_budget_raises(self, plant_ladder):
        # every planted term past the first is exactly 0, so the mass stays
        # at 0.99999892 < 1 - eps; the ladder stops well before 1e5 terms
        plant_ladder([0.99999892])
        start = time.perf_counter()
        with pytest.raises(NormalizationError, match=r"captured mass 0\.9999989.* exactly 0"):
            discrete_series_distribution(3, HalfInt(61), 1.0)
        assert time.perf_counter() - start < 5.0

    def test_large_column_weight_converges(self):
        # k = 3, m = 61/2, t = 1: within eps of unit mass in about 120 terms
        start = time.perf_counter()
        d = discrete_series_distribution(3, HalfInt(61), 1.0)
        assert time.perf_counter() - start < 5.0
        assert abs(d.captured_mass - 1.0) <= 1e-8
        assert su11_subadditivity(d).slack >= -1e-10

    def test_forced_truncation(self):
        d = discrete_series_distribution(2, HalfInt(2), 0.5, truncation=7)
        assert d.truncation == 7
        assert len(d.values) == 7

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            discrete_series_distribution(0, HalfInt(2), 0.5)
        with pytest.raises(DomainError):
            discrete_series_distribution(2, HalfInt(2), 0.5, eps=1e-3)
        with pytest.raises(DomainError):
            discrete_series_distribution(2, HalfInt(2), 1.9)
        with pytest.raises(DomainError, match="float range"):
            discrete_series_distribution(2, math.inf, 0.5)

    def test_truncation_must_be_positive(self):
        with pytest.raises(DomainError, match="truncation must be at least 1"):
            discrete_series_distribution(2, HalfInt(2), 0.5, truncation=0)

    @pytest.mark.parametrize("k", [2.5, 2.9, math.nan, math.inf])
    def test_k_must_be_an_integer(self, k):
        # k = 2.5 used to run as the k = 2 ladder, bit for bit
        with pytest.raises(DomainError, match="integer k >= 1"):
            discrete_series_distribution(k, HalfInt(2), 0.5)
        with pytest.raises(DomainError, match="integer k >= 1"):
            Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=HalfInt(2), t=0.5, k=k)

    def test_one_column_per_ladder_and_per_grid(self, monkeypatch):
        # one Su11Args, one bargmann_b call and one column evaluation per
        # ladder, fixed or adaptive (the (2, 32, 1.675) ladder used to take
        # two blocks), and per grid of ladders
        built = []
        monkeypatch.setattr(su11, "Su11Args", lambda **fields: built.append(1) or Su11Args(**fields))
        calls = count_calls(monkeypatch, (su11, "bargmann_b"), (specfun, "_boost_column"))
        cases = [
            (2, 2, 0.5, 57), (3, 7, 0.8, None), (2, 32, 1.675, None),
            (2, 32, np.linspace(0.1, 1.675, 64), None), (3, 7, np.linspace(0.1, 1.6, 64), 400),
        ]
        for k, two_m, t, truncation in cases:
            built.clear()
            calls.update(bargmann_b=0, _boost_column=0)
            discrete_series_distribution(k, HalfInt(two_m), t, truncation=truncation)
            assert (len(built), calls["bargmann_b"], calls["_boost_column"]) == (1, 1, 1)

    def test_no_halfint_per_weight(self, monkeypatch):
        # the ladder's weights go to bargmann_b as one float array
        calls = count_coerce(monkeypatch)
        seen = []
        for truncation in (40, 400, None):
            calls["coerce"] = 0
            discrete_series_distribution(2, HalfInt(30), np.linspace(0.5, 1.7, 3), truncation=truncation)
            seen.append(calls["coerce"])
        assert seen[0] == seen[1] and max(seen) <= 4

    def test_a_grid_in_parts_is_the_grid_in_one(self, monkeypatch):
        # with parts of 400 weights the 64 ladders and their columns run a
        # few rows at a time; each row stays bit for bit the same
        grid = np.linspace(0.12, 1.66, 64)
        whole = discrete_series_distribution(3, HalfInt(7), grid)
        for module in (specfun, su11):
            monkeypatch.setattr(module, "BOOST_PART_TERMS", 400)
        calls = count_calls(monkeypatch, (su11, "bargmann_b"), (specfun, "_boost_rows"))
        parts = discrete_series_distribution(3, HalfInt(7), grid)
        assert parts.values.tolist() == whole.values.tolist()
        assert parts.truncation.tolist() == whole.truncation.tolist()
        assert parts.captured_mass.tolist() == whole.captured_mass.tolist()
        assert calls["bargmann_b"] > 10 and calls["_boost_rows"] >= calls["bargmann_b"]

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_rapidity(self, t):
        with pytest.raises(DomainError, match="finite"):
            discrete_series_distribution(2, HalfInt(2), t, truncation=5)
        with pytest.raises(DomainError, match="finite"):
            discrete_series_distribution(2, HalfInt(2), t)
        with pytest.raises(DomainError, match="finite"):
            bargmann_b(
                Su11Args(
                    series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=HalfInt(2), t=t, k=2
                )
            )
        with pytest.raises(DomainError, match="finite"):
            Su11Args(series=SeriesKind.CONTINUOUS_INTEGER, m_prime=HalfInt(0), m=0.5, t=t, s=0.5)


REPORT_FIELDS = ("h_joint", "h_first", "h_second", "slack", "raw_mass")


class TestRapidityGrid:
    """A rapidity array is one ladder per grid point in one pipeline call."""

    @pytest.mark.parametrize(
        "k, two_m, grid",
        [(k, k, (0.1, 0.5, 1.0, 1.5)) for k in (1, 2, 3, 4)]  # criterion 8
        + [(3, 7, tuple(np.linspace(0.12, 1.66, 64))), (2, 4, (0.0, 0.3, 1.7, 0.0))],
    )
    def test_rows_are_the_one_rapidity_calls(self, k, two_m, grid):
        d = discrete_series_distribution(k, HalfInt(two_m), np.array(grid))
        report = su11_subadditivity(d)
        assert d.values.shape == (len(grid), max(d.truncation))
        for i, t in enumerate(grid):
            one = discrete_series_distribution(k, HalfInt(two_m), t)
            assert d.truncation[i] == one.truncation
            assert d.values[i, : one.truncation].tolist() == one.values.tolist()
            assert not d.values[i, one.truncation :].any()
            assert d.captured_mass[i] == one.captured_mass
            single = su11_subadditivity(one)
            assert [getattr(report, f)[i] for f in REPORT_FIELDS] == [getattr(single, f) for f in REPORT_FIELDS]

    def test_one_point_grid_is_the_scalar_call(self):
        for truncation in (None, 400):
            one = discrete_series_distribution(3, HalfInt(61), 1.5, truncation=truncation)
            grid = discrete_series_distribution(3, HalfInt(61), np.array([1.5]), truncation=truncation)
            assert grid.values.tolist() == [one.values.tolist()]
            assert (grid.truncation.tolist(), grid.captured_mass.tolist()) == ([one.truncation], [one.captured_mass])
            single, report = su11_subadditivity(one), su11_subadditivity(grid)
            assert [getattr(report, f).tolist() for f in REPORT_FIELDS] == [[getattr(single, f)] for f in REPORT_FIELDS]

    def test_zero_padding_is_exactly_invariant(self):
        one = discrete_series_distribution(2, HalfInt(4), 0.9)
        for pad in (1, 2, 37):
            padded = TruncatedDistribution(np.pad(one.values, (0, pad))[None, :], [one.truncation])
            assert padded.captured_mass.tolist() == [one.captured_mass]
            single, report = su11_subadditivity(one), su11_subadditivity(padded)
            assert [getattr(report, f).tolist() for f in REPORT_FIELDS] == [[getattr(single, f)] for f in REPORT_FIELDS]

    def test_bad_rapidity_anywhere_raises_before_any_element(self, monkeypatch):
        calls = count_calls(monkeypatch, (su11, "bargmann_b"), (specfun, "_boost_column"))
        for grid, message in (
            ([0.1, math.nan, 0.3], "finite"), ([0.1, 0.3, math.inf], "finite"),
            ([0.1, -0.2, 0.3], "nonnegative"), ([0.1, 0.3, 1.8], "outside the series domain"),
        ):
            for truncation in (None, 5):
                with pytest.raises(DomainError, match=message):
                    discrete_series_distribution(2, HalfInt(2), np.array(grid), truncation=truncation)
        assert calls["_boost_column"] == 0  # bargmann_b checks a fixed ladder's grid first

    def test_first_failing_point_raises(self, plant_ladder):
        # every grid point sees the same planted column; the error names the
        # mass of the first
        plant_ladder([0.99999892])
        with pytest.raises(NormalizationError, match=r"captured mass 0\.9999989"):
            discrete_series_distribution(3, HalfInt(61), np.array([1.0, 1.2]))
        plant_ladder([0.5, 0.5 + 2e-6])
        d = discrete_series_distribution(3, HalfInt(61), np.array([1.0, 1.2]))
        with pytest.raises(NormalizationError, match=re.escape(repr(float(d.captured_mass[0])))):
            su11_subadditivity(d)


class TestTruncatedDistribution:
    def test_consistency_checks(self):
        # the mass, the count and the tail bound all derive from the values
        with pytest.raises(DomainError):
            TruncatedDistribution(values=())
        d = TruncatedDistribution(values=(0.5, 0.25, 0.125))
        assert d.captured_mass == 0.875
        assert d.truncation == 3
        assert d.tail_bound == 0.125
        assert TruncatedDistribution(values=(0.5, 0.5 + 1e-9)).tail_bound == 0.0
        assert type(d.captured_mass) is float and type(d.tail_bound) is float

    def test_compares_and_hashes_by_identity(self):
        # array values have no truth value, so equal contents are not equal
        one = TruncatedDistribution(values=(0.5, 0.5))
        grid = TruncatedDistribution(np.array([[0.5, 0.5], [1.0, 0.0]]), [2, 1])
        for d in (one, grid):
            assert d == d and d != TruncatedDistribution(d.values, d.truncation if d.values.ndim > 1 else None)
            assert {d: 1}[d] == 1

    def test_renormalization(self):
        d = TruncatedDistribution(values=(0.5, 0.4999999))
        report = su11_subadditivity(d)
        scaled = [v / d.captured_mass for v in d.values]
        assert abs(math.fsum(scaled) - 1.0) < 1e-12
        assert report.h_joint == pytest.approx(shannon(scaled), abs=1e-12)
        assert report.h_first == pytest.approx(shannon(scaled), abs=1e-12)
        assert report.h_second == 0.0
        assert report.raw_mass == d.captured_mass

    def test_grid_of_prefixes(self):
        d = TruncatedDistribution(np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]]), [2, 3])
        assert d.truncation.tolist() == [2, 3]
        assert d.captured_mass.tolist() == [1.0, 1.0]
        assert d.tail_bound.tolist() == [0.0, 0.0]
        with pytest.raises(DomainError, match="needs its truncation"):
            TruncatedDistribution(np.array([[0.5, 0.5]]))
        with pytest.raises(DomainError, match="then zeros"):
            TruncatedDistribution(np.array([[0.5, 0.5]]), [1])

    @pytest.mark.parametrize(
        "values, truncation",
        [((0.5, 0.25, 0.25, 0.0), 2), ((0.5, 0.25), 7), (np.array([[0.5, 0.5]]), [3])],
    )
    def test_a_prefix_follows_the_row_rule(self, values, truncation):
        # a 1-D prefix used to ignore its truncation and store its length
        with pytest.raises(DomainError, match="needs its truncation"):
            TruncatedDistribution(values, truncation)

    def test_a_prefix_keeps_its_truncation(self):
        d = TruncatedDistribution((0.5, 0.25, 0.25, 0.0), 3)
        assert d.truncation == 3 and type(d.truncation) is int
        assert d.values.tolist() == [0.5, 0.25, 0.25, 0.0] and d.captured_mass == 1.0

    @pytest.mark.parametrize("values", [0.5, np.zeros((1, 1, 2))])
    def test_rejects_values_of_other_ranks(self, values):
        # 0-D values used to escape as a bare IndexError
        with pytest.raises(DomainError, match="got [03]-D values"):
            TruncatedDistribution(values)

    def test_rejects_non_finite_values(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                TruncatedDistribution(values=(bad, 0.5))

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError, match="nonnegative"):
            TruncatedDistribution(values=(0.5, -1e-300))

    def test_overflowing_mass_is_domain_error(self):
        # math.fsum raises OverflowError on this total
        with pytest.raises(DomainError, match="overflows"):
            TruncatedDistribution(values=(1e308, 1e308))


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 10**4),
        elements=st.floats(0.0, 1e300),
        fill=st.sampled_from([0.0, 5e-324, 1e-310, 1e-200, 1.0]),
    ),
    st.integers(0, 50),
)
def test_a_scaled_prefix_sums_to_one(prefix, padding):
    # the bound on which the report's trust in a TruncatedDistribution rests
    d = TruncatedDistribution(np.concatenate([prefix, np.zeros(padding)]), prefix.size)
    assume(d.captured_mass >= np.finfo(float).tiny)
    for scaled in (d.values / d.captured_mass, d.values * (1.0 / d.captured_mass)):
        assert abs(probability.row_fsums(scaled[None])[0] - 1.0) <= 4.5e-16


class TestSu11Subadditivity:
    @pytest.mark.parametrize("t", [1.0, np.linspace(0.12, 1.66, 64)])
    def test_the_report_trusts_the_ladder(self, monkeypatch, t):
        # the scaled table used to be copied, cleaned and summed once more
        d = discrete_series_distribution(2, 2, t)
        calls = count_validation(monkeypatch)
        su11_subadditivity(d)
        assert calls == {"_clean": 0, "row_fsums": 3}

    def test_delta_distribution(self):
        d = discrete_series_distribution(2, HalfInt(2), 0.0)
        report = su11_subadditivity(d)
        assert report.h_joint == 0.0
        assert report.slack == 0.0

    def test_slack_nonnegative(self):
        for k, two_m, t in ((2, 2, 0.5), (1, 1, 1.0), (3, 5, 1.2)):
            d = discrete_series_distribution(k, HalfInt(two_m), t)
            assert su11_subadditivity(d).slack >= -1e-10

    def test_slack_stable_under_truncation_growth(self):
        d1 = discrete_series_distribution(2, HalfInt(2), 0.5)
        d2 = discrete_series_distribution(2, HalfInt(2), 0.5, truncation=2 * d1.truncation)
        s1 = su11_subadditivity(d1).slack
        s2 = su11_subadditivity(d2).slack
        assert abs(s1 - s2) < 1e-8

    def test_rejects_insufficient_mass(self):
        d = TruncatedDistribution(values=(0.5, 0.4))
        with pytest.raises(NormalizationError):
            su11_subadditivity(d)

    def test_rejects_excess_mass(self):
        d = TruncatedDistribution(values=(0.5, 0.5 + 2e-6))
        with pytest.raises(NormalizationError, match=re.escape(repr(d.captured_mass))):
            su11_subadditivity(d)
        d = TruncatedDistribution(values=(0.5, 0.5 + 5e-7))
        assert su11_subadditivity(d).raw_mass == d.captured_mass

    @pytest.mark.parametrize(
        "k, two_m, t, mass",
        [(3, 61, 1.5, 4460.8), (2, 60, 1.7, 3.2e8)],
    )
    def test_rejects_blown_up_scan_mass(self, k, two_m, t, mass, monkeypatch):
        # a planted ladder with the captured mass of a cancelling route at
        # these points overshoots 1 and must not be renormalized away
        true = su11.bargmann_b
        scale = math.sqrt(mass)
        monkeypatch.setattr(su11, "bargmann_b", lambda *a: tuple(scale * b for b in true(*a)))
        d = discrete_series_distribution(k, HalfInt(two_m), t, truncation=400)
        assert d.captured_mass == pytest.approx(mass, rel=1e-2)
        with pytest.raises(NormalizationError, match="captured mass"):
            su11_subadditivity(d)

    def test_scan_ladders_are_normalized(self):
        # 400-weight ladders up to m = 61/2 and t = 1.7, the large-m points
        # above among them
        columns = {1: (1, 21, 31, 41, 51, 61), 2: (2, 20, 30, 40, 50, 60), 3: (3, 21, 31, 41, 51, 61)}
        for k, two_ms in columns.items():
            for two_m in two_ms:
                for t in (0.5, 1.0, 1.5, 1.7):
                    d = discrete_series_distribution(k, HalfInt(two_m), t, truncation=400)
                    assert abs(d.captured_mass - 1.0) <= 1e-12, (k, two_m, t)
                    assert su11_subadditivity(d).slack >= -1e-10

    def test_a_long_grid_is_summed_in_chunks(self, monkeypatch):
        # a 64 x 12,000 zero-padded grid: the exact sums used to turn the
        # whole table into Python floats (7.5x its bytes at the peak, 3.3x now)
        rows, columns = 64, 12000
        ratio = np.linspace(0.9990, 0.9995, rows)[:, None]
        truncation = np.linspace(columns // 2, columns, rows).astype(int)
        values = (1.0 - ratio) * ratio ** np.arange(columns)
        values[np.arange(columns) >= truncation[:, None]] = 0.0
        d = TruncatedDistribution(values / values.sum(axis=1, keepdims=True), truncation)
        tracemalloc.start()
        try:
            report = su11_subadditivity(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * d.values.nbytes
        # chunks of any size give the same exact sums
        monkeypatch.setattr(probability, "FSUM_CHUNK", 3 * columns - 1)
        small = su11_subadditivity(d)
        for name in ("h_joint", "h_first", "h_second", "slack"):
            assert np.array_equal(getattr(small, name), getattr(report, name))
        for row in (0, 17, 63):
            one = su11_subadditivity(TruncatedDistribution(d.values[row, : truncation[row]]))
            assert (one.h_joint, one.slack) == (report.h_joint[row], report.slack[row])

    def test_reports_raw_mass(self):
        d = discrete_series_distribution(2, HalfInt(2), 0.8)
        report = su11_subadditivity(d)
        assert report.raw_mass == d.captured_mass


class TestMixedSeriesReport:
    def args(self, t=0.3):
        return Su11Args(
            series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=t, k=2
        )

    def test_degenerate_truncation(self):
        report = mixed_series_report(self.args(), 1)
        assert report.h_joint == 0.0
        assert report.h_first == 0.0
        assert report.h_second == 0.0
        assert report.report_only

    def test_pinned_report(self):
        # the same report from a 40-digit mpmath ladder agrees within 3e-15
        report = mixed_series_report(self.args(), 64)
        assert report.h_joint == pytest.approx(3.057344952470515, rel=1e-10)
        assert report.h_first == pytest.approx(0.6930133542997152, rel=1e-10)
        assert report.h_second == pytest.approx(2.5282873300930486, rel=1e-10)
        assert report.slack == pytest.approx(0.1639557319222491, rel=1e-6)
        assert report.raw_mass == pytest.approx(1.6345297516853607, rel=1e-9)

    def test_one_element_call_per_ladder(self, monkeypatch):
        calls = count_calls(monkeypatch, (su11, "c_function"), (specfun, "hyp2f1"))
        seen = []
        for truncation in (8, 120):
            calls.update(dict.fromkeys(calls, 0))
            mixed_series_report(self.args(), truncation)
            seen.append(dict(calls))
        assert seen == [{"c_function": 1, "hyp2f1": 2}] * 2

    def test_no_special_function_call_per_weight(self, monkeypatch):
        calls = count_calls(monkeypatch, (specfun, "log_gamma"), (specfun, "_branch"))
        seen = []
        for truncation in (8, 120):
            calls.update(dict.fromkeys(calls, 0))
            mixed_series_report(self.args(), truncation)
            seen.append(dict(calls))
        assert seen == [{"log_gamma": 5, "_branch": 1}] * 2

    def test_slack_still_nonnegative_after_renormalization(self):
        assert mixed_series_report(self.args(), 32).slack >= -1e-10

    def test_raw_mass_positive_and_reported(self):
        report = mixed_series_report(self.args(), 16)
        assert report.raw_mass > 0.0

    def test_gamma_overflow_is_an_entroineq_error(self):
        # the normalization of c leaves the float range on the long ladder
        # (m' beyond about 190); it used to escape as a bare OverflowError
        with pytest.raises(EntroineqError, match="overflows the float range at z = "):
            mixed_series_report(self.args(), 256)

    def test_rejects_continuous_args(self):
        # used to escape as a bare TypeError from HalfInt(-args.k)
        args = Su11Args(
            series=SeriesKind.CONTINUOUS_INTEGER, m_prime=HalfInt(0), m=0.5, t=0.2, s=0.5
        )
        with pytest.raises(DomainError, match="discrete"):
            mixed_series_report(args, 4)


class TestContinuousSeriesReport:
    def args(self, sigma=0, series=SeriesKind.CONTINUOUS_INTEGER):
        return Su11Args(
            series=series,
            m_prime=HalfInt(0 if series is SeriesKind.CONTINUOUS_INTEGER else -1),
            m=0.5,
            t=0.2,
            s=0.5,
            sigma=sigma,
        )

    def test_truncation_must_be_positive(self):
        with pytest.raises(DomainError, match="truncation must be at least 1"):
            continuous_series_report(self.args(), 0)

    def test_a_ladder_without_mass_raises(self, monkeypatch):
        monkeypatch.setattr(su11, "l_function", lambda args, weights: (0j,) * len(weights))
        with pytest.raises(NormalizationError, match="no probability mass captured"):
            continuous_series_report(self.args(), 4)

    @pytest.mark.parametrize("element", [2e-160j, 1e-154j])  # totals of 4e-320 and 1e-308
    def test_a_ladder_with_a_subnormal_total_raises(self, monkeypatch, element):
        # the scale used to overflow with a RuntimeWarning below about 5.6e-309
        # (pytest makes any warning an error), and above it the report came
        # from a total short of 53 significant bits
        monkeypatch.setattr(su11, "l_function", lambda args, weights: (element,) + (0j,) * (len(weights) - 1))
        with pytest.raises(NormalizationError, match="no probability mass captured"):
            continuous_series_report(self.args(), 4)

    def test_one_validation_per_ladder(self, monkeypatch):
        calls = count_validation(monkeypatch)
        continuous_series_report(self.args(), 16)
        assert calls == {"_clean": 0, "row_fsums": 4}

    def test_degenerate_truncation(self):
        report = continuous_series_report(self.args(), 1)
        assert report.h_joint == 0.0
        assert report.slack == 0.0

    def test_pinned_report(self):
        # the same report from a 40-digit mpmath ladder agrees within 1.5e-14
        report = continuous_series_report(self.args(), 64)
        assert report.h_joint == pytest.approx(3.2177730073889284, rel=1e-10)
        assert report.h_first == pytest.approx(0.6931469465430988, rel=1e-10)
        assert report.h_second == pytest.approx(2.724620636241849, rel=1e-10)
        assert report.slack == pytest.approx(0.1999945753960195, rel=1e-8)
        assert report.raw_mass == pytest.approx(1.3658196812947323, rel=1e-10)
        assert report.report_only

    def test_one_element_call_per_ladder(self, monkeypatch):
        # the hyp2f1 calls are the family seeds: two per branch, whatever the length
        calls = count_calls(monkeypatch, (su11, "l_function"), (specfun, "hyp2f1"))
        seen = []
        for truncation in (1, 16, 256):
            calls.update(dict.fromkeys(calls, 0))
            continuous_series_report(self.args(), truncation)
            seen.append(dict(calls))
        assert seen == [{"l_function": 1, "hyp2f1": 4}] * 3

    @pytest.mark.parametrize("series", [SeriesKind.CONTINUOUS_INTEGER, SeriesKind.CONTINUOUS_HALF_INTEGER])
    def test_no_special_function_call_per_weight(self, monkeypatch, series):
        # log_gamma: the parity constant, a seed per family and two ladder arrays
        calls = count_calls(monkeypatch, (specfun, "log_gamma"), (specfun, "_branch"))
        coerce = count_coerce(monkeypatch)
        seen = []
        for truncation in (16, 256):
            calls.update(dict.fromkeys(calls, 0))
            coerce["coerce"] = 0
            continuous_series_report(self.args(series=series), truncation)
            seen.append(dict(calls, coerce=coerce["coerce"]))
        assert seen[0] == seen[1] and seen[0]["coerce"] <= 1
        assert seen[0] == {"log_gamma": 7, "_branch": 2, "coerce": seen[0]["coerce"]}

    def test_long_ladder_at_the_top_of_the_rapidity_domain(self):
        # used to report raw_mass 1.49e257; the pinned mass is that of a
        # 40-digit mpmath ladder of the same 300 weights
        args = replace(self.args(), t=1.2)
        report = continuous_series_report(args, 300)
        assert report.raw_mass == pytest.approx(1.6757776951335162, rel=1e-10)

    def test_ladder_beyond_the_float_range_names_the_weight(self):
        # used to escape as a bare OverflowError from the parity factor
        with pytest.raises(EntroineqError, match=r"float range at .*m' = (\+-)?200"):
            continuous_series_report(replace(self.args(), t=1.2), 400)

    def test_parity_labels_give_distinct_reports(self):
        r0 = continuous_series_report(self.args(sigma=0), 32)
        r1 = continuous_series_report(self.args(sigma=1), 32)
        assert abs(r0.h_joint - r1.h_joint) > 1e-6

    def test_half_integer_lattice_runs(self):
        report = continuous_series_report(
            self.args(series=SeriesKind.CONTINUOUS_HALF_INTEGER), 32
        )
        assert report.slack >= -1e-10

    def test_rejects_discrete_args(self):
        args = Su11Args(
            series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=0.2, k=2
        )
        with pytest.raises(DomainError):
            continuous_series_report(args, 8)
