"""Rotation-group distributions, closed forms, and inequality sweeps."""

import math
import re

import numpy as np
import pytest

from entroineq import (
    DomainError,
    HalfInt,
    bipartite_split,
    closed_form_check,
    column_distribution,
    shannon,
    specfun,
    su2_subadditivity,
    su2_tsallis_subadditivity,
    subadditivity_report,
    tsallis,
    tsallis_subadditivity_report,
    wigner_d,
)
from entroineq.probability import SUM_TOLERANCE

TWO_PI = 2.0 * math.pi
GRID = np.linspace(0.0, TWO_PI, 256)


class TestColumnDistribution:
    def test_zero_rotation_is_delta(self):
        p = column_distribution("3/2", "-1/2", 0.0)
        assert p.as_array().tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_spin_three_half_closed_forms(self):
        theta = 1.1
        c = math.cos(theta)
        p = column_distribution("3/2", "3/2", theta)
        expected = (
            -((c - 1.0) ** 3) / 8.0,
            3.0 * (c - 1.0) ** 2 * (c + 1.0) / 8.0,
            3.0 * math.sin(theta / 2.0) ** 2 * (math.sin(theta / 2.0) ** 2 - 1.0) ** 2,
            (c + 1.0) ** 3 / 8.0,
        )
        assert p.as_array().tolist() == pytest.approx(expected, abs=1e-14)

    def test_spin_two_closed_forms(self):
        theta = 0.8
        c = math.cos(theta)
        ch = math.cos(theta / 2.0) ** 2
        sh = math.sin(theta / 2.0) ** 2
        p = column_distribution(2, 2, theta)
        expected = (
            (c - 1.0) ** 4 / 16.0,
            4.0 * sh**3 * (1.0 - sh),
            3.0 * math.sin(theta) ** 4 / 8.0,
            4.0 * ch**3 * (1.0 - ch),
            (c + 1.0) ** 4 / 16.0,
        )
        assert p.as_array().tolist() == pytest.approx(expected, abs=1e-14)

    def test_normalized_across_spins(self):
        for two_j in range(1, 11):
            j = HalfInt(two_j)
            for two_m in range(-two_j, two_j + 1, 2):
                p = column_distribution(j, HalfInt(two_m), 1.7)
                assert abs(math.fsum(p.as_array().tolist()) - 1.0) < 1e-10

    def test_invalid_column(self):
        with pytest.raises(DomainError):
            column_distribution(1, 2, 0.5)

    @pytest.mark.parametrize("theta", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="finite"):
            column_distribution(1, 1, theta)

    @pytest.mark.parametrize(
        "j, m, message", [("1", "1/2", "m must share the parity class of j"), (1, 2, "|m| <= j required")]
    )
    def test_a_bad_column_is_reported_as_m(self, j, m, message):
        # the column label used to be checked twice and reported as m'
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            column_distribution(j, m, 0.3)


class TestClosedFormCheck:
    def test_tight_on_both_examples(self):
        for j in ("3/2", 2):
            worst = max(
                closed_form_check(j, theta) for theta in np.linspace(0.0, TWO_PI, 64)
            )
            assert worst <= 1e-12

    def test_delta_at_zero(self):
        assert closed_form_check("3/2", 0.0) <= 1e-15

    def test_unsupported_spin(self):
        with pytest.raises(DomainError):
            closed_form_check(1, 0.5)


class TestSu2Subadditivity:
    def test_zero_rotation_slack_vanishes(self):
        assert abs(su2_subadditivity("3/2", "3/2", 0.0).slack) <= 1e-9

    def test_half_turn_equality_point(self):
        assert abs(su2_subadditivity("3/2", "3/2", math.pi).slack) <= 1e-9

    def test_quarter_turn_hand_value(self):
        report = su2_subadditivity("3/2", "3/2", math.pi / 2.0)
        assert report.slack == pytest.approx(
            0.75 * math.log(3.0) - math.log(2.0), abs=1e-12
        )
        assert report.slack > 0.01


class TestSu2Tsallis:
    def test_zero_rotation(self):
        assert abs(su2_tsallis_subadditivity(2, 2, 0.0, 2.0).slack) <= 1e-12

    def test_quarter_turn_hand_value(self):
        # distribution (1, 4, 6, 4, 1)/16; split gives exact dyadic sums
        report = su2_tsallis_subadditivity(2, 2, math.pi / 2.0, 2.0)
        assert report.h_joint == pytest.approx(0.7265625, abs=1e-13)
        assert report.h_first == pytest.approx(0.6640625, abs=1e-13)
        assert report.h_second == pytest.approx(0.4296875, abs=1e-13)
        assert report.slack == pytest.approx(0.3671875, abs=1e-13)
        assert report.slack > 0.0

    def test_limit_matches_shannon_report(self):
        theta = 1.3
        shannon_report = su2_subadditivity("3/2", "3/2", theta)
        tsallis_report = su2_tsallis_subadditivity("3/2", "3/2", theta, 1.0 + 1e-6)
        assert tsallis_report.h_joint == pytest.approx(shannon_report.h_joint, abs=1e-5)
        assert tsallis_report.h_first == pytest.approx(shannon_report.h_first, abs=1e-5)
        assert tsallis_report.h_second == pytest.approx(shannon_report.h_second, abs=1e-5)
        assert tsallis_report.slack == pytest.approx(shannon_report.slack, abs=1e-5)


class TestSweep:
    def test_slack_nonnegative_and_zero_only_near_roots(self):
        grid = np.linspace(0.0, TWO_PI, 256)
        for j in ("3/2", 2):
            slacks = np.array([su2_subadditivity(j, j, theta).slack for theta in grid])
            assert slacks.min() >= -1e-12
            # the bulk of the sweep sits well above zero slack
            assert (slacks > 1e-3).sum() > 150

    @pytest.mark.parametrize("j, order", [("3/2", 6), (2, 8)])
    def test_tangency_order_at_half_turn(self, j, order):
        # the m = j column is binomial, so near theta = pi the table is close
        # to a point mass and the slack vanishes as delta**order; no fixed
        # positive floor holds a finite distance from the root
        jj = HalfInt.coerce(j)
        delta = 0.1
        far = su2_subadditivity(jj, jj, math.pi + delta).slack
        near = su2_subadditivity(jj, jj, math.pi + delta / 2.0).slack
        assert math.log2(far / near) == pytest.approx(order, abs=0.1)

    def test_tsallis_mode(self):
        reports = [su2_tsallis_subadditivity(4, 4, theta, 2.0) for theta in (0.5, 1.0)]
        assert all(report.kind == "tsallis" for report in reports)
        assert all(report.slack >= -1e-12 for report in reports)


def split_reference(p, entropy):
    """(h_joint, h1, h2, slack) of the 2 x ceil(N/2) split of a plain list."""
    half = (len(p) + 1) // 2
    top, bottom = p[:half], p[half:] + [0.0] * (2 * half - len(p))
    h_joint = entropy(p)
    h1 = entropy([a + b for a, b in zip(top, bottom)])
    h2 = entropy([sum(top), sum(bottom)])
    return h_joint, h1, h2, h1 + h2 - h_joint


class TestAngleArrays:
    """A theta array runs the pipeline once over all its angles."""

    ENTROPIES = (
        (None, shannon),
        (2.0, lambda p: tsallis(p, 2.0)),
        (0.5, lambda p: tsallis(p, 0.5)),
    )

    @pytest.mark.parametrize("two_j", [*range(1, 9), 20, 60])
    def test_matches_per_angle_reference(self, two_j):
        # every column over 256 angles against scalar wigner_d and scalar
        # entropies; at 2j = 60 the scalar reference (61 x 61 elements per
        # angle) is taken at every 8th angle to keep the test short
        j = HalfInt(two_j)
        weights = [HalfInt(w) for w in range(-two_j, two_j + 1, 2)]
        step = 8 if two_j > 20 else 1
        squared = {
            index: [[wigner_d(j, mp, m, float(GRID[index])) ** 2 for mp in weights] for m in weights]
            for index in range(0, GRID.size, step)
        }
        for column, m in enumerate(weights):
            table = bipartite_split(column_distribution(j, m, GRID))
            for q, entropy in self.ENTROPIES:
                if q is None:
                    report = subadditivity_report(table)
                else:
                    report = tsallis_subadditivity_report(table, q)
                got = np.stack([report.h_joint, report.h_first, report.h_second, report.slack], 1)
                assert got.shape == (GRID.size, 4)
                for index, columns in squared.items():
                    want = split_reference(columns[column], entropy)
                    assert np.max(np.abs(got[index] - want)) <= 1e-14, (m, q, GRID[index])

    def test_scalar_angle_is_the_one_angle_case(self):
        for theta in (0.0, 0.7, math.pi, 5.9):
            for report_of in (
                lambda t: su2_subadditivity("5/2", "1/2", t),
                lambda t: su2_tsallis_subadditivity("5/2", "1/2", t, 0.5),
            ):
                scalar, batched = report_of(theta), report_of(np.array([theta]))
                for field in ("h_joint", "h_first", "h_second", "slack"):
                    value = getattr(scalar, field)
                    assert isinstance(value, float)
                    assert getattr(batched, field).tolist() == [value]

    @pytest.mark.parametrize("j, m", [("1/2", "1/2"), ("3/2", "1/2"), ("2", "0"), ("4", "3"), ("15/2", "-5/2")])
    def test_one_angle_reports_are_rows_of_the_grid_report(self, j, m):
        # a one-angle report sums one distribution, a grid report one per
        # row; both take the same exact sums, so every entropy agrees in bits
        for report_of in (
            lambda t: su2_subadditivity(j, m, t),
            lambda t: su2_tsallis_subadditivity(j, m, t, 2.0),
            lambda t: su2_tsallis_subadditivity(j, m, t, 0.5),
        ):
            grid = report_of(GRID)
            for index in range(0, GRID.size, 5):
                one = report_of(float(GRID[index]))
                for field in ("h_joint", "h_first", "h_second", "slack"):
                    row = getattr(grid, field)[index : index + 1]
                    assert np.array([getattr(one, field)]).tobytes() == row.tobytes(), (field, GRID[index])

    def test_column_distribution_has_one_checked_row_per_angle(self):
        p = column_distribution(2, 1, GRID)
        assert p.batch_ndim == 1
        assert p.as_array().shape == (256, 5)
        for index in (0, 100, 255):
            single = column_distribution(2, 1, float(GRID[index]))
            assert single.batch_ndim == 0
            assert p.as_array()[index].tolist() == single.as_array().tolist()

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_angle_inside_an_array(self, bad):
        with pytest.raises(DomainError, match=f"theta={bad}"):
            column_distribution(1, 1, np.array([0.1, 0.2, bad, math.nan]))

    @pytest.mark.parametrize("angles", [0.7, GRID])
    def test_one_recurrence_per_column(self, monkeypatch, angles):
        # a column runs its canonical columns |mu| <= |m| down to row |m| in
        # one `_three_term` call of j - |m| steps per grid part, whether it
        # is taken at one angle or at many
        calls = []
        three_term = specfun._three_term
        monkeypatch.setattr(specfun, "_three_term", lambda p, q: calls.append(p.shape) or three_term(p, q))
        count = np.size(angles)
        for j, m, columns, top in ((30, 0, 1, 30), ("61/2", "5/2", 6, 28), (4, 4, 9, 0)):
            calls.clear()
            column_distribution(j, m, angles)
            assert calls == [(count * columns, top)]
        # at j = 1000 a column holds 1001 entries per angle, so a grid runs in parts
        calls.clear()
        column_distribution(1000, 0, angles)
        size = specfun.BOOST_PART_TERMS // 1001
        assert calls == [(min(size, count - a), 1000) for a in range(0, count, size)]

    def test_large_spin_columns_have_unit_mass(self):
        # the Jacobi-by-degree route raised "d-element overflows the float
        # range" for the m = 0 column at j = 1000, theta = 3.1 and 0.05
        for m in (0, 500):
            p = column_distribution(1000, m, np.array([0.05, 1.5, 3.1])).as_array()
            assert np.isfinite(p).all()
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= SUM_TOLERANCE
