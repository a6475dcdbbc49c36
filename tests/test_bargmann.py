"""Discrete, mixed, and continuous series matrix elements."""

import math

import mpmath
import pytest

from entroineq import (
    DomainError,
    HalfInt,
    SeriesKind,
    Su11Args,
    UnsupportedBranchError,
    bargmann_b,
    bargmann_b_continued,
    c_function,
    l_function,
)
from entroineq import specfun

mpmath.mp.dps = 30


def discrete_args(k, two_mp, two_m, t, series=SeriesKind.DISCRETE_POSITIVE):
    return Su11Args(
        series=series, m_prime=HalfInt(two_mp), m=HalfInt(two_m), t=t, k=k
    )


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

    def test_negative_rapidity_rejected(self):
        with pytest.raises(DomainError):
            Su11Args(series=SeriesKind.DISCRETE_POSITIVE, m_prime=HalfInt(2), m=1, t=-0.1, k=2)
