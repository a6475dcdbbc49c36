"""Discrete, mixed, and continuous series matrix elements."""

import functools
import math
import random
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from entroineq import (
    DomainError,
    EntroineqError,
    HalfInt,
    SeriesKind,
    Su11Args,
    UnsupportedBranchError,
    bargmann_b,
    bargmann_b_continued,
    c_function,
    enumerate_weights,
    l_function,
    mixed_series_report,
)
from entroineq import probability, specfun

mpmath.mp.dps = 30


def discrete_args(k, two_mp, two_m, t, series=SeriesKind.DISCRETE_POSITIVE):
    return Su11Args(
        series=series, m_prime=HalfInt(two_mp), m=HalfInt(two_m), t=t, k=k
    )


@functools.lru_cache(maxsize=None)
def mp_boost(k, two_mp, two_m, t):
    """Positive-series b_{m'm}(t) from the hypergeometric form at 50 digits.

    For m' >= m, b = N z^((m'-m)/2) (1-z)^((m'+m)/2)
    2F1(m'-j, m'+j+1; m'-m+1; z) / (m'-m)! with j = -k/2,
    z = (1 - cosh t)/2 and N^2 = Gamma(m'-j) Gamma(m'+j+1) / (Gamma(m-j)
    Gamma(m+j+1)); below the diagonal b_{m'm} = b_{mm'}, which makes the
    matrix of columns unitary.
    """
    if two_mp < two_m:
        two_mp, two_m = two_m, two_mp
    with mpmath.workdps(50):
        mp_, m, j = mpmath.mpf(two_mp) / 2, mpmath.mpf(two_m) / 2, -mpmath.mpf(k) / 2
        degree = (two_mp - two_m) // 2
        z = (1 - mpmath.cosh(mpmath.mpf(t))) / 2
        norm = mpmath.sqrt(
            mpmath.gamma(mp_ - j) * mpmath.gamma(mp_ + j + 1)
            / (mpmath.gamma(m - j) * mpmath.gamma(m + j + 1))
        )
        value = (
            norm * mpmath.power(mpmath.mpc(z), mpmath.mpf(degree) / 2) * mpmath.power(1 - z, (mp_ + m) / 2)
            * mpmath.hyp2f1(mp_ - j, mp_ + j + 1, degree + 1, z) / mpmath.factorial(degree)
        )
        return complex(value)


def check_against_mpmath(k, two_m, t, length, samples):
    """Sampled signed elements of a `length`-weight ladder of both series,
    and its diagonal element, within 1e-14 of `mp_boost`; the negative
    series mirrors (m', m) -> (-m', -m) with the sign (-1)^(m'-m)."""
    weights = range(k, k + 2 * length, 2)
    positive = bargmann_b(discrete_args(k, k, two_m, t), [HalfInt(w) for w in weights])
    negative = bargmann_b(
        discrete_args(k, -k, -two_m, t, series=SeriesKind.DISCRETE_NEGATIVE),
        [HalfInt(-w) for w in weights],
    )
    rng = random.Random(f"{k} {two_m} {t}")
    for i in sorted({(two_m - k) // 2, *rng.sample(range(length), samples)}):
        want = mp_boost(k, weights[i], two_m, t)
        mirror = -want if ((weights[i] - two_m) // 2) % 2 else want
        assert abs(positive[i] - want) <= 1e-14, (k, two_m, t, weights[i])
        assert abs(negative[i] - mirror) <= 1e-14, (k, two_m, t, weights[i])


class TestBargmannB:
    def test_identity_element_is_delta(self):
        assert abs(bargmann_b(discrete_args(2, 2, 2, 0.0)) - 1.0) < 1e-15
        assert abs(bargmann_b(discrete_args(2, 6, 2, 0.0))) == 0.0
        assert abs(bargmann_b(discrete_args(3, 5, 3, 0.0))) == 0.0

    def test_lowest_weight_closed_form_k2(self):
        # |b_{m',1}|^2 = m' tanh^(2(m'-1))(t/2) / cosh^4(t/2)
        for t in (0.2, 0.7, 1.4):
            for mp in range(1, 9):
                got = abs(bargmann_b(discrete_args(2, 2 * mp, 2, t))) ** 2
                want = mp * math.tanh(t / 2.0) ** (2 * (mp - 1)) / math.cosh(t / 2.0) ** 4
                assert got == pytest.approx(want, abs=1e-13, rel=1e-12)

    def test_lowest_weight_closed_form_k1(self):
        # |b_{m',1/2}|^2 = tanh^(2 n)(t/2) / cosh^2(t/2), m' = 1/2 + n
        for t in (0.3, 1.0):
            for n in range(8):
                got = abs(bargmann_b(discrete_args(1, 1 + 2 * n, 1, t))) ** 2
                want = math.tanh(t / 2.0) ** (2 * n) / math.cosh(t / 2.0) ** 2
                assert got == pytest.approx(want, abs=1e-13, rel=1e-12)

    def test_negative_series_mirrors_positive(self):
        pos = bargmann_b(discrete_args(2, 4, 2, 0.6))
        neg = bargmann_b(
            discrete_args(2, -4, -2, 0.6, series=SeriesKind.DISCRETE_NEGATIVE)
        )
        assert abs(abs(pos) - abs(neg)) < 1e-15

    def test_rapidity_domain(self):
        with pytest.raises(DomainError):
            bargmann_b(discrete_args(2, 2, 2, 1.8))  # cosh(1.8) > 2.9

    def test_lattice_validation(self):
        with pytest.raises(DomainError):
            bargmann_b(discrete_args(2, 1, 2, 0.5))  # off-lattice m'
        with pytest.raises(DomainError):
            bargmann_b(discrete_args(2, 0, 2, 0.5))  # below the edge weight
        with pytest.raises(DomainError, match="m' must sit on the k = 2 weight lattice"):
            bargmann_b(discrete_args(2, 2, 2, 0.5), [HalfInt(2), HalfInt(5), HalfInt(6)])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_ladder_is_the_per_weight_calls(self, sign):
        series = SeriesKind.DISCRETE_POSITIVE if sign > 0 else SeriesKind.DISCRETE_NEGATIVE
        for k, two_m in ((1, 7), (2, 2), (3, 11)):
            args = discrete_args(k, sign * k, sign * two_m, 0.9, series=series)
            weights = [HalfInt(sign * (k + 2 * i)) for i in range(40)]
            singles = tuple(bargmann_b(replace(args, m_prime=w)) for w in weights)
            assert bargmann_b(args, weights) == singles
            assert bargmann_b(args, weights[7:8]) == singles[7:8]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ladder_matches_mpmath(self, k):
        # 400-weight ladders at m = k/2 + n (1/2, 7/2, 31/2, 61/2 for k = 1)
        for n in (0, 3, 15, 30):
            for t in (0.0, 0.5, 1.5, 1.7):
                check_against_mpmath(k, k + 2 * n, t, 400, samples=6)

    def test_empty_ladder(self):
        assert bargmann_b(discrete_args(2, 2, 2, 0.5), []) == ()

    def test_no_hyp2f1_or_lapack_call(self, monkeypatch):
        calls = []
        for module, name in ((specfun, "hyp2f1"), (np.linalg, "eigh"), (np.linalg, "svd")):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        for length in (1, 57, 400):
            weights = [HalfInt(3 + 2 * i) for i in range(length)]
            assert len(bargmann_b(discrete_args(3, 3, 31, 1.5), weights)) == length
        assert calls == []

    def test_overflow_is_an_entroineq_error(self):
        # |b|^2 at m' = 90 is far below the smallest float: exactly 0
        assert bargmann_b(discrete_args(2, 180, 200000, 0.1)) == 0
        # a column past the term budget raises before its recurrence runs
        with pytest.raises(EntroineqError, match=r"k=2, m=1000000000, t=0\.1 .* budget of 1000000"):
            bargmann_b(discrete_args(2, 180, 2 * 10**9, 0.1))

    def test_family_and_negative_series_edge(self):
        continuous = Su11Args(series=SeriesKind.CONTINUOUS_INTEGER, m_prime=HalfInt(0), m=0.5, t=0.5, s=0.5)
        with pytest.raises(DomainError, match="bargmann_b is defined for the discrete series"):
            bargmann_b(continuous)
        above_the_edge = discrete_args(2, -2, 0, 0.5, series=SeriesKind.DISCRETE_NEGATIVE)
        with pytest.raises(DomainError, match="m <= -k/2 required on the negative series"):
            bargmann_b(above_the_edge)

    def test_k_past_the_int64_range(self):
        # used to escape as a bare OverflowError from the lattice check
        with pytest.raises(DomainError, match=f"k = {2**63} is too large"):
            specfun.boost_column_length(discrete_args(2**63, 2**63, 2**63, 0.5))


def boost_matrix(k, t, rows, columns, series):
    """B[m', m] over the first `rows` weights m' and `columns` weights m of
    the series, one axis per rapidity of the grid `t` first."""
    sign = 1 if series is SeriesKind.DISCRETE_POSITIVE else -1
    weights = [HalfInt(sign * (k + 2 * i)) for i in range(rows)]
    args = discrete_args(k, sign * k, sign * k, np.array(t), series=series)
    return np.stack([bargmann_b(replace(args, m=weights[c]), weights) for c in range(columns)], axis=-1)


@pytest.mark.parametrize("series", [SeriesKind.DISCRETE_POSITIVE, SeriesKind.DISCRETE_NEGATIVE])
class TestBoostRepresentation:
    """The signed elements form a unitary representation, with the phase
    i^|m'-m| that gives b_(m'm) = b_(mm').  Each truncation holds the
    columns' mass."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_columns_are_orthonormal(self, k, series):
        for b in boost_matrix(k, [0.3, 0.9, 1.5], 900, 30, series):
            assert np.max(np.abs(b.conj().T @ b - np.eye(30))) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_group_law(self, k, series):
        first = boost_matrix(k, [0.4], 600, 600, series)[0]
        second, product = boost_matrix(k, [0.5, 0.9], 600, 20, series)
        assert np.max(np.abs((first @ second)[:100] - product[:100])) <= 1e-12


class TestLargeColumnWeights:
    """Columns where the summed hypergeometric form cancels catastrophically
    (m = 61/2 at t = 1.5 loses every digit), where the Jacobi route
    `bargmann_b_continued` is off by up to 5e-7 (m = 601/2 and 1001/2), and
    a large k, whose column peaks near m' - m = kc/(1-c), c = tanh^2(t/2)."""

    @pytest.mark.parametrize(
        "k, two_m, t",
        [
            (3, 61, 1.5), (2, 60, 1.7), (1, 121, 1.7), (3, 61, 1.0), (1, 601, 1.0), (1, 1001, 0.5),
            (100, 100, 1.7),
        ],
    )
    def test_matches_mpmath(self, k, two_m, t):
        n = (two_m - k) // 2
        check_against_mpmath(k, two_m, t, 3 * n + 400, samples=10)

    def test_ladder_is_a_unit_column(self):
        for k, two_m, t in ((3, 61, 1.5), (1, 601, 1.0), (1, 1001, 0.5), (100, 100, 1.7)):
            ladder = bargmann_b(discrete_args(k, k, two_m, t), [HalfInt(k + 2 * i) for i in range(3000)])
            assert abs(math.fsum(abs(b) ** 2 for b in ladder) - 1.0) <= 1e-12


class TestRapidityGrid:
    """A grid `args.t` is one call with one row per rapidity."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rows_are_the_one_rapidity_calls(self, sign):
        series = SeriesKind.DISCRETE_POSITIVE if sign > 0 else SeriesKind.DISCRETE_NEGATIVE
        grid = np.concatenate([[0.0, 1e-6], np.linspace(0.05, 1.7, 30)])
        for k, two_m in ((1, 1), (2, 6), (3, 61), (100, 100)):
            args = discrete_args(k, sign * k, sign * two_m, grid, series=series)
            weights = [HalfInt(sign * (k + 2 * i)) for i in range(300)]
            rows = bargmann_b(args, weights)
            assert rows.shape == (grid.size, 300)
            for row, t in zip(rows, grid.tolist()):
                assert row.tolist() == list(bargmann_b(replace(args, t=t), weights))
            assert bargmann_b(args).tolist() == [bargmann_b(replace(args, t=t)) for t in grid.tolist()]

    def test_column_lengths(self):
        grid = np.array([0.0, 0.3, 1.7])
        args = discrete_args(2, 2, 6, grid)
        lengths = specfun.boost_column_length(args)
        assert lengths.tolist() == [specfun.boost_column_length(replace(args, t=t)) for t in grid.tolist()]
        assert lengths[0] == 3  # the identity's column ends at m' = m
        rows = bargmann_b(args, [HalfInt(2 + 2 * i) for i in range(lengths.max() + 5)])
        for row, length in zip(rows, lengths.tolist()):
            assert row[length - 1] != 0.0 and not row[length:].any()

    def test_the_grid_is_checked_before_any_column(self, monkeypatch):
        calls = []
        for name in ("_boost_column", "_three_term"):
            original = getattr(specfun, name)
            monkeypatch.setattr(specfun, name, lambda *a, f=original, name=name: calls.append(name) or f(*a))
        for grid, message in (
            ([0.1, math.nan, 0.3], "finite"), ([0.1, -0.2], "nonnegative"),
            ([0.1, 0.3, 1.8], "outside the series domain"), ([[0.1, 0.2]], "1-D"), ([], "nonempty"),
        ):
            with pytest.raises(DomainError, match=message):
                bargmann_b(discrete_args(2, 2, 2, np.array(grid)), [HalfInt(2)])
        assert not calls
        # the column past the budget is the second one; no recurrence runs
        args = discrete_args(2, 2, 6 * 10**5 + 2, np.array([0.1, 1.7]))
        with pytest.raises(EntroineqError, match="t=1.7 is longer than the budget"):
            bargmann_b(args, [HalfInt(2)])
        assert "_three_term" not in calls

    def test_columns_in_parts(self, monkeypatch):
        # parts of 400 weights hold a few columns each
        grid = np.linspace(0.05, 1.7, 30)
        args, weights = discrete_args(3, 3, 61, grid), [HalfInt(3 + 2 * i) for i in range(300)]
        whole = bargmann_b(args, weights)
        monkeypatch.setattr(probability, "PART_TERMS", 400)
        calls = []
        original = specfun._boost_rows
        monkeypatch.setattr(specfun, "_boost_rows", lambda *a: calls.append(a[2].size) or original(*a))
        assert bargmann_b(args, weights).tolist() == whole.tolist()
        assert sum(calls) == 30 and max(calls) < 30

    def test_array_recurrence_is_the_float_recurrence(self):
        # the rows grow like 2.62^i and 2.13^i, so each rescales at its own steps
        p, q = np.array([np.full(3000, 3.0), np.full(3000, 2.6)]), np.ones((2, 3000))
        mantissas, shifts = specfun._three_term(p, q)
        assert shifts[:, -1].min() > 2000
        for row in range(2):
            one = specfun._three_term(p[row : row + 1], q[row : row + 1])
            assert (mantissas[row].tolist(), shifts[row].tolist()) == (one[0][0].tolist(), one[1][0].tolist())

    def test_a_complex_row_is_the_complex_float_loop(self):
        # y grows like |3+2i|^i, about 3.6^i, so the row rescales every ~160 steps
        p, q = np.full((1, 2000), 3.0 + 2.0j), np.full((1, 2000), 0.5 - 1.5j)
        previous, current, shift, want = 0.0, 1.0, 0, [(1.0, 0)]
        for p_i, q_i in zip(p[0].tolist(), q[0].tolist()):
            previous, current = current, p_i * current - q_i * previous
            if abs(current) > 2.0**300:
                e = math.frexp(abs(current))[1]
                previous, current, shift = previous * 2.0**-e, current * 2.0**-e, shift + e
            want.append((current, shift))
        mantissas, shifts = specfun._three_term(p, q)
        assert list(zip(mantissas[0].tolist(), shifts[0].tolist())) == want
        # and y_n = (r1^(n+1) - r2^(n+1)) / (r1 - r2), r1 and r2 the roots of r^2 - p r + q
        with mpmath.workdps(40):
            root = mpmath.sqrt(mpmath.mpc(3, 2) ** 2 - 4 * mpmath.mpc(0.5, -1.5))
            r1, r2 = (mpmath.mpc(3, 2) + root) / 2, (mpmath.mpc(3, 2) - root) / 2
            exact = (r1**2001 - r2**2001) / (r1 - r2)
            got = mpmath.mpc(want[-1][0]) * mpmath.mpf(2) ** want[-1][1]
            assert shift > 3000 and abs(got - exact) <= 1e-12 * abs(exact)

    def test_only_the_discrete_series_takes_a_grid(self):
        with pytest.raises(DomainError, match="discrete series"):
            Su11Args(series=SeriesKind.CONTINUOUS_INTEGER, m_prime=0, m=0.5, t=[0.1, 0.2], s=0.5)


class TestColumnNormalization:
    """log phi(0) takes its binomial as a sum of min(n, k-1) logarithms, so
    the column's relative error no longer grows like m ln m (it was 3.3e-10
    at m = 1e5 and 6e-12 at m = 5000)."""

    @pytest.mark.parametrize("m, t, tolerance", [(10**5, 0.1, 1e-10), (10**5, 1.0, 1e-10), (5000, 1.0, 1e-12)])
    def test_large_m_column_is_a_unit_vector(self, m, t, tolerance):
        top = specfun._boost_plan(2, m - 1, np.array([t]))[2]
        column = specfun._boost_column(2, m - 1, np.array([t]), np.arange(top[0] + 1))[0]
        assert abs(math.fsum((column * column).tolist()) - 1.0) <= tolerance

    def test_huge_k_is_prompt(self):
        # the exact integer C(n+k-1, n) takes 16 s at this k and n; its log is a
        # sum of min(n, k-1) terms
        k, n, t = 10**12, 3 * 10**5, np.array([1e-7])
        start = time.perf_counter()
        top = specfun._boost_plan(k, n, t)[2]
        column = specfun._boost_column(k, n, t, np.arange(top[0] + 1))[0]
        assert time.perf_counter() - start < 5.0
        assert abs(math.fsum((column * column).tolist()) - 1.0) <= 1e-8

    def test_backward_start_falls_far_enough(self):
        # the start is an estimate and the fall check (2^-50) raises; the
        # columns fall by 2^-52 or more across k, m and t, small t included
        # (the mass carries the rounding of log phi(0), which grows with k and m)
        grid = np.concatenate([[1e-6, 1e-3], np.linspace(0.02, 1.71, 10)])
        for k in (1, 3, 100, 1000):
            for n in (0, 2, 30, 1000):
                top = specfun._boost_plan(k, n, grid)[2]
                columns = specfun._boost_column(k, n, grid, np.arange(top.max() + 1))
                for column, start in zip(np.abs(columns), top.tolist()):
                    assert column.max() >= 2.0**52 * column[start]
                    assert abs(math.fsum((column * column).tolist()) - 1.0) <= 1e-10

    def test_a_short_backward_start_raises(self, monkeypatch):
        # the fall check guards the plan: a start two weights past m is too short
        plan = specfun._boost_plan
        monkeypatch.setattr(specfun, "_boost_plan", lambda k, n, t: (*plan(k, n, t)[:2], np.full(t.size, n + 2)))
        with pytest.raises(EntroineqError, match=r"k=2, m=11, t=1\.0 has not fallen by 2\^-50 at its backward start m' - k/2 = 12"):
            bargmann_b(discrete_args(2, 2, 22, 1.0))


class TestRouteEquivalence:
    def test_squared_elements_agree(self):
        for k in (1, 2, 3, 4):
            for dm in (0, 1, 2):
                two_m = k + 2 * dm
                for i in range(10):
                    two_mp = k + 2 * i
                    for t in (0.1, 0.8, 1.5):
                        args = discrete_args(k, two_mp, two_m, t)
                        direct = abs(bargmann_b(args)) ** 2
                        continued = bargmann_b_continued(args)
                        assert abs(direct - continued) < 1e-12

    def test_takes_one_rapidity(self):
        # a grid used to escape as a bare TypeError from math.cosh
        with pytest.raises(DomainError, match="one rapidity"):
            bargmann_b_continued(discrete_args(2, 4, 2, np.array([0.5, 1.0])))

    def test_identity_element(self):
        assert bargmann_b_continued(discrete_args(2, 2, 2, 0.0)) == pytest.approx(
            1.0, abs=1e-15
        )
        assert bargmann_b_continued(discrete_args(2, 8, 2, 0.0)) == 0.0

    def test_specific_point(self):
        args = discrete_args(2, 4, 2, 1.0)
        assert bargmann_b_continued(args) == pytest.approx(
            abs(bargmann_b(args)) ** 2, abs=1e-12
        )

    def test_monotone_decay_beyond_peak(self):
        t = 1.0
        values = [
            bargmann_b_continued(discrete_args(2, 2 + 2 * i, 2, t))
            for i in range(30)
        ]
        peak = values.index(max(values))
        tail = values[peak:]
        assert all(x >= y for x, y in zip(tail, tail[1:]))


def mp_f_factor(j, a, b, z):
    return (
        mpmath.power(1 - z, (a + b) / 2)
        * mpmath.power(z, (a - b) / 2)
        * mpmath.hyp2f1(-j + a, j + a + 1, a - b + 1, z)
    )


def mp_c_function(k, mprime, m, t):
    j = mpmath.mpf(-k) / 2
    im = mpmath.mpc(0, 1) * m
    s_norm = mpmath.sqrt(mpmath.gamma(mprime - j) * mpmath.gamma(mprime + j + 1)) / mpmath.gamma(
        mprime + j + 1
    )
    r_norm = (
        mpmath.gamma(j + 1 + im)
        * mpmath.gamma((-j - im) / 2)
        * mpmath.gamma((-j + 1 + im) / 2)
        / (mpmath.gamma(mprime - j) * mpmath.gamma(-mprime + 1 + im))
    )
    norm = mpmath.sqrt(2) * mpmath.power(2, -j - 2) * s_norm * r_norm / mpmath.pi
    z = (1 + mpmath.mpc(0, 1) * mpmath.sinh(t)) / 2
    return norm * mp_f_factor(j, -mpmath.mpf(mprime), -im, z)


def mp_l_function(s, mprime, m, sigma, t):
    j = mpmath.mpc(-0.5, s)
    im = mpmath.mpc(0, 1) * m
    s_norm = mpmath.sqrt(mpmath.gamma(mprime - j) * mpmath.gamma(mprime + j + 1)) / mpmath.gamma(
        mprime + j + 1
    )

    def t_factor(a):
        return (
            mpmath.power(2, j - 1)
            / (mpmath.power(mpmath.mpc(0, 1), sigma) * mpmath.sin(mpmath.pi * (-j + sigma - im) / 2))
            * mpmath.gamma(-j + im)
            / (mpmath.gamma(-a - j) * mpmath.gamma(a + 1 + im))
        )

    z_plus = (1 - mpmath.mpc(0, 1) * mpmath.sinh(t)) / 2
    z_minus = (1 + mpmath.mpc(0, 1) * mpmath.sinh(t)) / 2
    return s_norm * (
        t_factor(mprime) * mp_f_factor(j, mpmath.mpf(mprime), -im, z_plus)
        - (-1) ** sigma * t_factor(-mprime) * mp_f_factor(j, -mpmath.mpf(mprime), -im, z_minus)
    )


class TestCFunction:
    def test_finite_at_zero_rapidity(self):
        args = Su11Args(
            series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=0.0, k=2
        )
        value = c_function(args)
        assert math.isfinite(abs(value))

    def test_regression_fixture(self):
        args = Su11Args(
            series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=0.3, k=2
        )
        value = c_function(args)
        assert value.real == pytest.approx(0.5173383956802156, abs=1e-12)
        assert value.imag == pytest.approx(0.1680922581739523, abs=1e-12)

    def test_matches_high_precision_composition(self):
        cases = [(2, 1, "0.5", "0.3"), (4, 3, "1.25", "0.8"), (3, "2.5", "0.4", "0.1")]
        for k, mprime, m, t in cases:
            args = Su11Args(
                series=SeriesKind.DISCRETE_POSITIVE,
                m_prime=HalfInt.coerce(mprime),
                m=float(mpmath.mpf(m)),
                t=float(mpmath.mpf(t)),
                k=k,
            )
            want = complex(mp_c_function(k, mpmath.mpf(mprime), mpmath.mpf(m), mpmath.mpf(t)))
            got = c_function(args)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_unsupported_branch(self):
        args = Su11Args(
            series=SeriesKind.DISCRETE_NEGATIVE, m_prime=HalfInt(-2), m=0.5, t=0.3, k=2
        )
        with pytest.raises(UnsupportedBranchError):
            c_function(args)

    def test_rapidity_domain(self):
        args = Su11Args(
            series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=1.4, k=2
        )
        with pytest.raises(DomainError):
            c_function(args)  # cosh(1.4) > 1.9

    def test_needs_the_discrete_series(self):
        args = Su11Args(series=SeriesKind.CONTINUOUS_INTEGER, m_prime=HalfInt(0), m=0.5, t=0.3, s=0.5)
        with pytest.raises(DomainError, match="c_function needs a discrete-series spin"):
            c_function(args)

    @pytest.mark.parametrize("t", [[0.3, 0.5], [0.3]])
    def test_rapidity_grid_is_a_domain_error(self, t):
        # a grid used to escape from math.sinh as a bare TypeError
        args = Su11Args(SeriesKind.DISCRETE_POSITIVE, HalfInt(2), HalfInt(2), np.array(t), k=2)
        for evaluate in (c_function, lambda a: mixed_series_report(a, 8)):
            with pytest.raises(DomainError, match="c_function takes one rapidity"):
                evaluate(args)

    @pytest.mark.parametrize("k", [20, 50, 100, 200])
    def test_moderate_k_matches_mpmath(self, k):
        # the two hyp2f1 seeds of the former route cancelled: 1e-2 off at
        # k = 20, 1.1e17 at k = 50 and up to 9e113 at k = 200, nothing raised
        weights = [HalfInt(k + 2 * x) for x in (0, 1, 5, 60)]
        with mpmath.workdps(40):
            for m in (0.001, 3.0):
                for t in (0.1, 1.25):
                    args = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(k), m=m, t=t, k=k)
                    for w, got in zip(weights, c_function(args, weights)):
                        want = complex(mp_c_function(k, mpmath.mpf(float(w)), mpmath.mpf(m), mpmath.mpf(t)))
                        assert abs(got - want) <= 1e-12 * abs(want), (m, t, str(w))

    @pytest.mark.parametrize("k, t", [(1000, 0.5), (2000, 0.5)])
    def test_large_k_matches_mpmath(self, k, t):
        # these used to raise: the element's factors at k = 1000, a seed's
        # 2F1 sum at k = 2000 left the float range; the exact start needs
        # no seed, and the log-space normalization carries the Gamma growth
        weights = [HalfInt(k + 2 * x) for x in (0, 1, 20)]
        args = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(k), m=0.5, t=t, k=k)
        with mpmath.workdps(40):
            for w, got in zip(weights, c_function(args, weights)):
                want = complex(mp_c_function(k, mpmath.mpf(float(w)), mpmath.mpf("0.5"), mpmath.mpf(t)))
                assert abs(got - want) <= 5e-12 * abs(want), str(w)

    def test_normalization_past_the_float_range(self):
        # 2^(k/2 - 2) alone is past the float range here; it used to raise
        args = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(3000), m=0.5, t=0.3, k=3000)
        with mpmath.workdps(40):
            want = complex(mp_c_function(3000, mpmath.mpf(1500), mpmath.mpf("0.5"), mpmath.mpf("0.3")))
        assert abs(c_function(args) - want) <= 5e-12 * abs(want)

    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_m_zero_with_even_k(self, k):
        # Gamma(j+1+im) has a pole at m = 0 for even k; the exact start cancels
        # it, where it used to raise PoleError.  The reference is mpmath at m = 1e-20.
        weights = [HalfInt(k + 2 * x) for x in (0, 1, 5)]
        with mpmath.workdps(40):
            for t in (0.5, 1.25):
                args = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(k), m=0.0, t=t, k=k)
                for w, got in zip(weights, c_function(args, weights)):
                    want = complex(mp_c_function(k, mpmath.mpf(float(w)), mpmath.mpf("1e-20"), mpmath.mpf(t)))
                    assert abs(got - want) <= 1e-13 * abs(want), (t, str(w))


class TestLFunction:
    def continuous_args(self, m_prime=0, sigma=0, t=0.2, s=0.5, m=0.5):
        return Su11Args(
            series=SeriesKind.CONTINUOUS_INTEGER,
            m_prime=HalfInt(2 * m_prime),
            m=m,
            t=t,
            s=s,
            sigma=sigma,
        )

    def test_parity_labels_differ(self):
        l0 = l_function(self.continuous_args(sigma=0))
        l1 = l_function(self.continuous_args(sigma=1))
        assert abs(l0 - l1) > 1e-3

    def test_regression_fixtures(self):
        l0 = l_function(self.continuous_args(sigma=0))
        assert l0.real == pytest.approx(0.05993813214188177, abs=1e-12)
        assert l0.imag == pytest.approx(0.023013502536134996, abs=1e-12)
        l1 = l_function(self.continuous_args(sigma=1))
        assert l1.real == pytest.approx(-0.20566986446517335, abs=1e-12)
        assert l1.imag == pytest.approx(-0.691131094861309, abs=1e-12)

    def test_matches_high_precision_composition(self):
        for mprime, sigma in ((0, 0), (-2, 0), (3, 1)):
            got = l_function(self.continuous_args(m_prime=mprime, sigma=sigma))
            want = complex(
                mp_l_function(mpmath.mpf("0.5"), mprime, mpmath.mpf("0.5"), sigma, mpmath.mpf("0.2"))
            )
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_half_integer_lattice(self):
        args = Su11Args(
            series=SeriesKind.CONTINUOUS_HALF_INTEGER,
            m_prime=HalfInt(3),
            m=0.75,
            t=0.3,
            s=1.5,
            sigma=1,
        )
        want = complex(
            mp_l_function(mpmath.mpf("1.5"), mpmath.mpf("1.5"), mpmath.mpf("0.75"), 1, mpmath.mpf("0.3"))
        )
        assert abs(l_function(args) - want) <= 1e-10 * max(1.0, abs(want))

    def test_series_tolerance_self_check(self, monkeypatch):
        args = self.continuous_args()
        tight = l_function(args)
        monkeypatch.setattr(specfun, "HYP2F1_TOL", 1e-12)
        loose = l_function(args)
        assert abs(loose - tight) < 1e-10

    def test_lattice_validation(self):
        with pytest.raises(DomainError):
            l_function(
                Su11Args(
                    series=SeriesKind.CONTINUOUS_INTEGER,
                    m_prime=HalfInt(1),
                    m=0.5,
                    t=0.2,
                    s=0.5,
                )
            )

    def test_rapidity_domain(self):
        with pytest.raises(DomainError):
            l_function(self.continuous_args(t=1.4))

    def test_needs_a_continuous_series(self):
        args = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=HalfInt(2), t=0.2, k=2)
        with pytest.raises(DomainError, match="l_function needs a continuous-series spin"):
            l_function(args)

    @pytest.mark.parametrize("s, m", [(500.0, 0.5), (0.5, -500.0)])
    def test_parity_factor_past_the_float_range(self, s, m):
        # |sin| of the parity factor grows like exp(pi |s + m| / 2); it used
        # to escape as a bare OverflowError
        with pytest.raises(EntroineqError, match=f"parity factor overflows the float range at s = {s}, m = {m}"):
            l_function(self.continuous_args(s=s, m=m))


@functools.lru_cache(maxsize=None)
def mp_family_value(s, m, t, a, side):
    """P(a) = 2F1(-j+a, j+a+1; a+im+1; z) / Gamma(a+im+1), z = (1 - side i sinh t)/2.

    mpmath's direct series at 40 digits.  At the poles c = -n of m = 0 the
    regularized value is (A)_(n+1) (B)_(n+1) z^(n+1)
    2F1(A+n+1, B+n+1; n+2; z) / (n+1)! (DLMF 15.2.3_5).
    """
    with mpmath.workdps(40):
        j = mpmath.mpc(-0.5, s)
        big_a, big_b = -j + a, j + a + 1
        z = (1 - side * mpmath.mpc(0, 1) * mpmath.sinh(t)) / 2
        if m == 0 and a == int(a) and a < 0:
            n = -int(a) - 1
            return (
                mpmath.rf(big_a, n + 1)
                * mpmath.rf(big_b, n + 1)
                / mpmath.factorial(n + 1)
                * z ** (n + 1)
                * mpmath.hyp2f1(big_a + n + 1, big_b + n + 1, n + 2, z)
            )
        c = a + mpmath.mpc(0, m) + 1
        return mpmath.hyp2f1(big_a, big_b, c, z) / mpmath.gamma(c)


def mp_l_regularized(s, m, sigma, t, mprime):
    """l^j_{m'm sigma}(t) composed from `mp_family_value`; finite at m = 0."""
    with mpmath.workdps(40):
        j = mpmath.mpc(-0.5, s)
        im = mpmath.mpc(0, m)
        mp_ = mpmath.mpf(mprime)
        norm = (
            mpmath.sqrt(mpmath.gamma(mp_ - j) * mpmath.gamma(mp_ + j + 1))
            / mpmath.gamma(mp_ + j + 1)
            * mpmath.power(2, j - 1)
            * mpmath.gamma(-j + im)
            / (mpmath.power(mpmath.mpc(0, 1), sigma) * mpmath.sin(mpmath.pi * (-j + sigma - im) / 2))
        )

        def branch(a, side):
            z = (1 - side * mpmath.mpc(0, 1) * mpmath.sinh(t)) / 2
            return (
                mpmath.power(1 - z, (a - im) / 2)
                * mpmath.power(z, (a + im) / 2)
                * mpmath.rgamma(-a - j)
                * mp_family_value(s, m, t, float(a), side)
            )

        return norm * (branch(mp_, 1) - (-1) ** sigma * branch(-mp_, -1))


#: sampled ladder weights up to |m'| = 128 on each lattice, both signs
LADDER_SAMPLES = {
    SeriesKind.CONTINUOUS_INTEGER: (0, 1, -1, 17, -64, 127, 128, -128),
    SeriesKind.CONTINUOUS_HALF_INTEGER: ("1/2", "-1/2", "33/2", "-127/2", "255/2", "-255/2"),
}


class TestContinuousLadder:
    """One regularized 2F1 family per branch evaluates a whole ladder."""

    def args(self, kind=SeriesKind.CONTINUOUS_INTEGER, t=0.3, sigma=0, m=0.5, s=0.5):
        return Su11Args(
            series=kind, m_prime=HalfInt(0 if kind is SeriesKind.CONTINUOUS_INTEGER else 1),
            m=m, t=t, s=s, sigma=sigma,
        )

    @pytest.mark.parametrize("t", [0.3, 1.2])
    @pytest.mark.parametrize("kind", list(LADDER_SAMPLES))
    def test_family_matches_mpmath(self, kind, t):
        # the recurrence alone, from the exact P(top+1) / P(top)
        top = 128.0 if kind is SeriesKind.CONTINUOUS_INTEGER else 127.5
        j = complex(-0.5, 0.5)
        for side in (1, -1):
            z = (1.0 - side * 1j * math.sinh(t)) / 2.0
            start = mp_family_value(0.5, 0.5, t, top, side)
            ratio = complex(mp_family_value(0.5, 0.5, t, top + 1.0, side) / start)
            mantissas, shifts = specfun._family(j, 0.5, z, top, int(2 * top) + 1, ratio)
            for w in LADDER_SAMPLES[kind]:
                a = side * float(HalfInt.coerce(w))
                i = int(top - a)
                want = mp_family_value(0.5, 0.5, t, a, side) / start
                got = mpmath.mpc(complex(mantissas[i])) * mpmath.mpf(2) ** int(shifts[i])
                assert abs(got - want) <= 1e-12 * abs(want), (side, a)

    @pytest.mark.parametrize("t", [0.3, 1.2])
    @pytest.mark.parametrize("kind", list(LADDER_SAMPLES))
    def test_ladder_matches_mpmath(self, kind, t):
        weights = [HalfInt.coerce(w) for w in LADDER_SAMPLES[kind]]
        for sigma in (0, 1):
            ladder = l_function(self.args(kind, t, sigma), weights)
            for w, got in zip(weights, ladder):
                want = complex(mp_l_regularized(0.5, 0.5, sigma, t, float(w)))
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (sigma, str(w))

    def test_integer_lattice_at_m_zero(self):
        # c = a + 1 crosses the poles of Gamma; used to raise PoleError
        weights = [HalfInt(2 * w) for w in (0, 1, -1, 3, -3, 16, -16)]
        for sigma in (0, 1):
            ladder = l_function(self.args(t=0.5, sigma=sigma, m=0.0), weights)
            for w, got in zip(weights, ladder):
                want = complex(mp_l_regularized(0.5, 0.0, sigma, 0.5, float(w)))
                assert abs(got - want) <= 1e-12 * abs(want), (sigma, str(w))

    @pytest.mark.parametrize("kind", list(LADDER_SAMPLES))
    def test_one_weight_call_is_the_top_of_a_ladder(self, kind):
        args = self.args(kind, t=0.75, sigma=1)
        assert l_function(args, []) == ()
        for truncation in (1, 2, 9, 40):
            weights = enumerate_weights(kind, None, truncation)
            ladder = l_function(args, weights)
            top = max(abs(w) for w in weights)
            for w, value in zip(weights, ladder):
                if abs(w) == top:
                    assert l_function(replace(args, m_prime=w)) == value

    def test_mixed_one_weight_call_is_the_top_of_a_ladder(self):
        args = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(3), m=0.5, t=0.3, k=3)
        weights = enumerate_weights(SeriesKind.DISCRETE_POSITIVE, HalfInt(-3), 12)
        assert c_function(replace(args, m_prime=weights[-1])) == c_function(args, weights)[-1]
        assert c_function(args, []) == ()

    def test_mixed_ladder_matches_mpmath(self):
        for k in (1, 2, 5):
            args = Su11Args(
                series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(k), m=0.5, t=0.3, k=k
            )
            weights = [HalfInt(k + 2 * i) for i in (0, 1, 14, 19, 32, 127)]
            for w, got in zip(weights, c_function(args, weights)):
                want = complex(mp_c_function(k, mpmath.mpf(float(w)), mpmath.mpf("0.5"), mpmath.mpf("0.3")))
                assert abs(got - want) <= 1e-12 * abs(want), (k, str(w))

    def test_mixed_element_at_a_large_weight(self):
        # the normalization's log Gamma terms at integers come from an exact
        # lgamma table; the complex Lanczos route was 2.5e-13 off here
        args = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(5), m=0.5, t=0.3, k=5)
        want = complex(mp_c_function(5, mpmath.mpf(305) / 2, mpmath.mpf("0.5"), mpmath.mpf("0.3")))
        for got in (c_function(args, [HalfInt(305)])[0], c_function(replace(args, m_prime=HalfInt(305)))):
            assert abs(got - want) <= 5e-14 * abs(want)

    def test_past_the_former_float_range(self):
        # both used to raise "overflows the float range": the mixed family
        # from its seeds, the continuous one at its top weight
        mixed = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=0.3, k=2)
        got = c_function(mixed, [HalfInt(512)])[0]
        want = complex(mp_c_function(2, mpmath.mpf(256), mpmath.mpf("0.5"), mpmath.mpf("0.3")))
        assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(got) ** 2 == pytest.approx(5.19e-4, rel=1e-3)
        for sigma, square in ((0, 1.29e-3), (1, 1.38e-3)):
            got = l_function(self.args(t=1.2, sigma=sigma), [HalfInt(400)])[0]
            want = complex(mp_l_regularized(0.5, 0.5, sigma, 1.2, 200.0))
            assert abs(got - want) <= 1e-12 * abs(want), sigma
            assert abs(got) ** 2 == pytest.approx(square, rel=1e-2)

    def test_beyond_the_float_range_names_the_weight(self):
        # above the range: one branch of l passes e^700 at large m
        with pytest.raises(EntroineqError, match="leaves the float range at .*m' = 1"):
            l_function(self.args(t=0.5, m=440.0), [HalfInt(2), HalfInt(0)])
        # below it: c falls under 1e-308 at k = 3000, t = 1.2
        mixed = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(3000), m=0.5, t=1.2, k=3000)
        with pytest.raises(EntroineqError, match="leaves the float range at .*m' = 1500"):
            c_function(mixed, [HalfInt(3000)])

    def test_a_family_past_the_budget_raises_before_it_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(specfun, "_three_term", lambda *a: calls.append(a))
        top = specfun.BOOST_MAX_TERMS // 2
        with pytest.raises(EntroineqError, match="longer than the budget of 1000000 weights"):
            l_function(self.args(), [HalfInt(2 * top)])
        mixed = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=0.3, k=2)
        with pytest.raises(EntroineqError, match="longer than the budget of 1000000 weights"):
            c_function(mixed, [HalfInt(2 + 2 * specfun.BOOST_MAX_TERMS)])
        assert not calls


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestArrayWeights:
    """A float array of weights is the HalfInt list, bit for bit."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_discrete_ladders_and_grids(self, sign):
        series = SeriesKind.DISCRETE_POSITIVE if sign > 0 else SeriesKind.DISCRETE_NEGATIVE
        for k, two_m in ((1, 7), (2, 2), (3, 61)):
            args = discrete_args(k, sign * k, sign * two_m, 0.9, series=series)
            halfints = [HalfInt(sign * (k + 2 * i)) for i in range(400)]
            floats = sign * (k / 2 + np.arange(400))
            assert same_bits(bargmann_b(args, floats), bargmann_b(args, halfints))
            grid = replace(args, t=np.linspace(0.0, 1.7, 9))
            assert same_bits(bargmann_b(grid, floats), bargmann_b(grid, halfints))
            assert same_bits(bargmann_b(grid, floats[::-7]), bargmann_b(grid, halfints[::-7]))

    @pytest.mark.parametrize("kind", list(LADDER_SAMPLES))
    def test_continuous_and_mixed_ladders(self, kind):
        args = Su11Args(series=kind, m_prime=HalfInt(0 if kind is SeriesKind.CONTINUOUS_INTEGER else 1),
                        m=0.5, t=0.75, s=0.5, sigma=1)
        halfints = enumerate_weights(kind, None, 256)
        floats = np.array([float(w) for w in halfints])
        assert same_bits(l_function(args, floats), l_function(args, halfints))
        mixed = Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(3), m=0.5, t=0.3, k=3)
        halfints = enumerate_weights(SeriesKind.DISCRETE_POSITIVE, HalfInt(-3), 128)
        floats = 1.5 + np.arange(128.0)
        assert same_bits(c_function(mixed, floats), c_function(mixed, halfints))

    def test_an_off_lattice_entry_raises_as_in_a_list(self):
        checks = (
            (bargmann_b, discrete_args(2, 2, 2, 0.5), [1.0, 2.0, 2.5, 3.0], "m' must sit on the k = 2"),
            (bargmann_b, discrete_args(2, 2, 2, 0.5), [1.0, 2.0, 0.0], "m' >= k/2"),
            (c_function, Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=0.5, t=0.3, k=2),
             [1.0, 1.5], "m' must sit on the k = 2"),
            (l_function, TestContinuousLadder().args(), [0.0, 1.0, -3.5], r"m' = -7/2 is off"),
        )
        for element, args, weights, message in checks:
            for form in (weights, np.array(weights), [HalfInt.coerce(w) for w in weights]):
                with pytest.raises(DomainError, match=message):
                    element(args, form)
        with pytest.raises(DomainError, match="not a half-integer"):
            bargmann_b(discrete_args(2, 2, 2, 0.5), np.array([1.0, 1.3]))


class TestSu11Args:
    def test_discrete_requires_k(self):
        with pytest.raises(DomainError):
            Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=1, t=0.1)

    def test_continuous_requires_s(self):
        with pytest.raises(DomainError):
            Su11Args(series=SeriesKind.CONTINUOUS_INTEGER, m_prime=HalfInt(0), m=0.5, t=0.1)

    def test_sigma_validated(self):
        with pytest.raises(DomainError):
            Su11Args(
                series=SeriesKind.CONTINUOUS_INTEGER,
                m_prime=HalfInt(0),
                m=0.5,
                t=0.1,
                s=0.5,
                sigma=2,
            )

    @pytest.mark.parametrize(
        "series, fields",
        [
            (SeriesKind.CONTINUOUS_INTEGER, {"m": math.nan, "s": 0.5}),
            (SeriesKind.CONTINUOUS_INTEGER, {"m": math.inf, "s": 0.5}),
            (SeriesKind.CONTINUOUS_INTEGER, {"m": 0.5, "s": math.inf}),
            (SeriesKind.DISCRETE_POSITIVE, {"m": -math.inf, "k": 2}),
        ],
    )
    def test_non_finite_labels_rejected(self, series, fields):
        with pytest.raises(DomainError, match="finite"):
            Su11Args(series=series, m_prime=HalfInt(2), t=0.1, **fields)

    def test_negative_rapidity_rejected(self):
        with pytest.raises(DomainError):
            Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=1, t=-0.1, k=2)
