"""Jacobi polynomials, log-gamma, the hypergeometric series, and d-functions."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from entroineq import (
    ConvergenceError,
    DomainError,
    EntroineqError,
    HalfInt,
    PoleError,
    dmatrix,
    hyp2f1,
    jacobi,
    log_gamma,
    wigner_d,
    wigner_oracle,
)
from entroineq import specfun

mpmath.mp.dps = 30


# ----------------------------------------------------------------------
# independent oracles


def rodrigues_jacobi(n, a, b, x):
    """Leibniz expansion of the Rodrigues derivative formula."""

    def falling(p, i):
        out = 1.0
        for step in range(i):
            out *= p - step
        return out

    total = 0.0
    for k in range(n + 1):
        total += (
            math.comb(n, k)
            * (-1.0) ** k
            * falling(a + n, k)
            * falling(b + n, n - k)
            * (1.0 - x) ** (n - k)
            * (1.0 + x) ** k
        )
    return (-1.0) ** n / (2.0**n * math.factorial(n)) * total


def summation_jacobi(n, a, b, x):
    """Direct summation formula, independent of the recurrence."""

    def gbinom(alpha, k):
        out = 1.0
        for i in range(1, k + 1):
            out *= (alpha - k + i) / i
        return out

    return math.fsum(
        gbinom(n + a, n - s)
        * gbinom(n + b, s)
        * ((x - 1.0) / 2.0) ** s
        * ((x + 1.0) / 2.0) ** (n - s)
        for s in range(n + 1)
    )


def mp_wigner_d(two_j, pairs, theta):
    """d^j_{m'm}(theta) at the doubled weights (m', m) of `pairs` by the Wigner sum
    sum_k (-1)^k sqrt((j+m')!(j-m')!(j+m)!(j-m)!) / ((j+m-k)! k! (m'-m+k)! (j-m'-k)!)
    c^(2j-(m'-m)-2k) s^((m'-m)+2k), c = cos(theta/2), s = sin(theta/2), as floats.
    Its terms stay below 4^j, so 40 digits past 2j log10(2) make it a 40-digit
    value; it shares no recurrence, binomial or symmetry with `dmatrix`."""
    with mpmath.workdps(40 + math.ceil(0.31 * two_j)):
        half = mpmath.mpf(theta) / 2
        c, s = mpmath.cos(half), mpmath.sin(half)
        factorial = [mpmath.mpf(1)]
        for n in range(1, two_j + 1):
            factorial.append(factorial[-1] * n)
        cos_power, sin_power = ([x**n for n in range(two_j + 1)] for x in (c, s))
        out = []
        for two_mp, two_m in pairs:
            jp, jm, kp, km = (two_j + two_mp) // 2, (two_j - two_mp) // 2, (two_j + two_m) // 2, (two_j - two_m) // 2
            a = (two_mp - two_m) // 2
            root = mpmath.sqrt(factorial[jp] * factorial[jm] * factorial[kp] * factorial[km])
            terms = [
                (-1) ** k * root / (factorial[kp - k] * factorial[k] * factorial[a + k] * factorial[jm - k])
                * cos_power[two_j - a - 2 * k] * sin_power[a + 2 * k]
                for k in range(max(0, -a), min(kp, jm) + 1)
            ]
            out.append(float(mpmath.fsum(terms)))
        return np.array(out)


LARGE_TWO_J = (0, 1, 40, 41, 81, 120, 121, 200)
LARGE_THETAS = (0.0, 0.3, 1.3, math.pi, 3.0, 2.0 * math.pi)
NON_FINITE = (math.nan, math.inf, -math.inf)


class TestJacobi:
    def test_degree_zero(self):
        for args in ((0.0, 0.0, 0.3), (2.5, -0.5, -1.0), (7.0, 3.0, 11.0)):
            assert jacobi(0, *args) == 1.0

    def test_degree_one_legendre_point(self):
        assert jacobi(1, 0.0, 0.0, 0.5) == 0.5

    def test_degree_two_endpoint(self):
        assert jacobi(2, 1.0, 1.0, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_matches_rodrigues_to_degree_three(self):
        for n in range(4):
            for a, b in ((0.0, 0.0), (1.0, 2.0), (0.5, -0.25), (2.0, 0.0)):
                for x in (-1.0, -0.5, 0.0, 0.25, 1.0):
                    expected = rodrigues_jacobi(n, a, b, x)
                    assert jacobi(n, a, b, x) == pytest.approx(
                        expected, abs=1e-13, rel=1e-13
                    )

    def test_matches_direct_summation_to_degree_ten(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(0, 11))
            a = float(rng.uniform(-0.9, 4.0))
            b = float(rng.uniform(-0.9, 4.0))
            x = float(rng.uniform(-1.0, 1.0))
            expected = summation_jacobi(n, a, b, x)
            assert jacobi(n, a, b, x) == pytest.approx(
                expected, abs=1e-12, rel=1e-12
            )

    def test_degenerate_recurrence_falls_back(self):
        # a + b = -2 zeroes the k=2 recurrence prefactor
        for x in (-0.7, 0.0, 0.4, 0.9):
            assert jacobi(2, -1.0, -1.0, x) == pytest.approx(
                (x * x - 1.0) / 4.0, abs=1e-14
            )

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            jacobi(-1, 0.0, 0.0, 0.5)

    def test_array_argument_steps_every_entry(self):
        x = np.linspace(-1.0, 1.0, 33)
        for n, a, b in ((0, 1.0, 2.0), (1, 0.5, 0.0), (7, 3.0, 1.0), (12, 0.0, 9.0)):
            got = jacobi(n, a, b, x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert got.tolist() == [jacobi(n, a, b, v) for v in x.tolist()]

    def test_array_parameters_step_every_pair(self):
        a = np.array([[0.0], [2.0], [5.0]])
        b = np.array([[3.0], [0.0], [0.5]])
        x = np.linspace(-1.0, 1.0, 9)
        for n in (0, 1, 6):
            got = jacobi(n, a, b, x)
            assert got.shape == (3, 9)
            for row, (ai, bi) in enumerate(zip(a[:, 0], b[:, 0])):
                assert got[row].tolist() == [jacobi(n, ai, bi, v) for v in x.tolist()]
        with pytest.raises(DomainError):
            jacobi(3, np.array([0.0, -1.0]), 0.0, 0.5)

    def test_degenerate_recurrence_needs_scalar_x(self):
        with pytest.raises(DomainError):
            jacobi(2, -1.0, -1.0, np.array([-0.7, 0.0, 0.4, 0.9]))


class TestLogGamma:
    def test_unit_values(self):
        assert abs(log_gamma(1.0)) < 1e-14
        assert abs(log_gamma(2.0)) < 1e-14

    def test_half(self):
        assert log_gamma(0.5).real == pytest.approx(
            math.log(math.sqrt(math.pi)), abs=1e-14
        )
        assert abs(log_gamma(0.5).imag) < 1e-14

    def test_complex_fixture(self):
        # high-precision reference value, frozen
        got = log_gamma(3 + 4j)
        assert got.real == pytest.approx(-1.7566267846037841, abs=1e-12)
        assert got.imag == pytest.approx(4.7426644380346579, abs=1e-12)

    def test_right_half_plane_accuracy(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            z = complex(rng.uniform(0.5, 20.0), rng.uniform(-10.0, 10.0))
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            err = abs(log_gamma(z) - ref) / max(1.0, abs(ref))
            assert err <= 1e-13

    def test_reflection_region(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            z = complex(rng.uniform(-20.0, 0.4), rng.uniform(0.2, 5.0))
            ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
            assert cmath.exp(log_gamma(z)) == pytest.approx(ref, rel=1e-11)

    def test_poles(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_array_matches_mpmath(self):
        # both half-planes, the real axis left of 0.5 and the continuous
        # family's arguments m' -+ j; equal up to the branch, 2 pi i k
        rng = np.random.default_rng(11)
        z = np.concatenate([
            rng.uniform(-20.0, 20.0, 300) + 1j * rng.uniform(-10.0, 10.0, 300),
            rng.uniform(-20.0, 0.4, 100),
            -np.arange(1.0, 60.0) - 0.5 - 0.43j,
            np.arange(1.0, 200.0) + 0.5 + 0.43j,
        ])
        got = log_gamma(z)
        assert got.shape == z.shape and got.dtype == complex
        for value, point in zip(got.tolist(), z.tolist()):
            want = complex(mpmath.loggamma(mpmath.mpc(point.real, point.imag)))
            turns = round((value - want).imag / (2.0 * math.pi))
            assert abs(value - want - 2j * math.pi * turns) <= 1e-13 * max(1.0, abs(want)), point
            assert log_gamma(point) == value  # a scalar is the one-point array

    @pytest.mark.parametrize("pole", [0.0, -1.0, -7.0])
    def test_a_pole_inside_an_array(self, pole):
        with pytest.raises(PoleError, match=re.escape(f"log_gamma pole at {complex(pole)}")):
            log_gamma(np.array([2.5, -0.5 + 1j, pole, 3.0]))

    @pytest.mark.parametrize(
        "z, first", [(-0.5 - 250j, -0.5 - 250j), (np.array([2.5, -0.5 + 220j, -1.5 + 300j, -0.5 - 250j]), -1.5 + 300j)]
    )
    def test_reflection_past_the_float_range_raises(self, z, first):
        # sin(pi z) used to overflow into inf and NaN with numpy warnings
        assert cmath.isfinite(log_gamma(-0.5 + 220j))
        with pytest.raises(EntroineqError, match=re.escape(f"float range at z = {first}")):
            log_gamma(z)

    def test_scalar_gives_a_python_complex(self):
        assert type(log_gamma(3.5)) is complex
        assert type(log_gamma(-2.5 + 1j)) is complex
        assert log_gamma(np.array([])).shape == (0,)


class TestHyp2f1:
    def test_at_origin(self):
        assert hyp2f1(1.3, -0.7, 2.2, 0.0) == 1.0 + 0.0j

    def test_binomial_identity(self):
        assert hyp2f1(1.0, 2.0, 2.0, 0.5) == pytest.approx(2.0, abs=1e-14)
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = complex(rng.uniform(0.1, 2.5), rng.uniform(-1.0, 1.0))
            b = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
            z = rng.uniform(0.05, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            got = hyp2f1(a, b, b, z)
            want = (1.0 - z) ** (-a)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_terminating_polynomial(self):
        # 2F1(-2, 3; 1; z) = 1 - 6 z + 6 z^2
        for z in (0.25, 0.7, 3.0, -4.0):
            assert hyp2f1(-2.0, 3.0, 1.0, z).real == pytest.approx(
                1.0 - 6.0 * z + 6.0 * z * z, rel=1e-13, abs=1e-13
            )

    def test_matches_mpmath_inside_disk(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            a = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            b = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            c = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
            z = rng.uniform(0.05, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            ref = complex(
                mpmath.hyp2f1(
                    mpmath.mpc(a.real, a.imag),
                    mpmath.mpc(b.real, b.imag),
                    mpmath.mpc(c.real, c.imag),
                    mpmath.mpc(z.real, z.imag),
                )
            )
            assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.5, 0.96)

    def test_c_pole_rejected(self):
        with pytest.raises(PoleError):
            hyp2f1(0.5, 0.5, -2.0, 0.5)

    def test_c_pole_after_termination_is_fine(self):
        # series ends at degree 2 before c = -3 can divide by zero
        value = hyp2f1(-2.0, 1.0, -3.0, 0.5)
        assert math.isfinite(value.real)

    @pytest.mark.parametrize(
        "a, b, c, z", [(8.0, 8.0, 1.5, -0.95), (4.8, 4.8, 1.3, -0.8)]
    )
    def test_negative_argument_matches_mpmath(self, a, b, c, z):
        # the direct series cancels here: it gave -6841.54 (relative error
        # 1.25e7) and 7.4e-8 before the Pfaff transformation
        ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref)

    def test_negative_argument_keeps_termination(self):
        # the terminating parameter may sit in either slot; z/(z-1) = 0.99
        # is outside the series disk, so only a terminating series works
        ref = complex(mpmath.hyp2f1(2.5, -6.0, 1.5, -99.0))
        for a, b in ((2.5, -6.0), (-6.0, 2.5)):
            assert abs(hyp2f1(a, b, 1.5, -99.0) - ref) <= 1e-12 * abs(ref)

    def test_negative_argument_domain_is_the_transformed_one(self):
        # |z| = 5 gives |z/(z-1)| = 0.83; z = -20 gives 0.952 > 0.95
        ref = complex(mpmath.hyp2f1(0.5, 1.5, 2.5, -5.0))
        assert abs(hyp2f1(0.5, 1.5, 2.5, -5.0) - ref) <= 1e-12 * abs(ref)
        with pytest.raises(DomainError, match="0.9524"):
            hyp2f1(0.5, 1.5, 2.5, -20.0)

    def test_transformation_prefactor_overflow_is_an_entroineq_error(self):
        with pytest.raises(EntroineqError, match="overflows the float range"):
            hyp2f1(-400.0, 1.0, 1.0, -1e3)

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameter_rejected_at_entry(self, slot, bad):
        # a NaN used to run all 1e6 terms before a ConvergenceError
        params = [0.5, 0.5, 1.5, 0.3]
        params[slot] = bad
        with pytest.raises(DomainError, match="must be finite"):
            hyp2f1(*params)

    @pytest.mark.parametrize(
        "params, terms",
        [((1000.5, 1000.5, 1.0, 0.9), 111), ((-1000.0, -1000.0, 1.0, 0.9), 117), ((-1000.0, 1000.5, 1.5, -0.9), 142)],
    )
    def test_a_partial_sum_past_the_float_range_raises(self, params, terms):
        # the sum used to go on as NaN: to the budget, or to nan,nan and exit 0
        a, b, c, z = (complex(v) for v in params)
        with pytest.raises(EntroineqError, match=re.escape(f"after {terms} terms at a={a}, b={b}, c={c}, z={z}")):
            hyp2f1(*params)

    @pytest.mark.parametrize("params", [(-100.0, 50.5, 1.0, -1000.0), (-90.0, -50.5, 1.0, -2000.0)])
    def test_a_pfaff_scaled_value_past_the_float_range_raises(self, params):
        # (1-z)^(-a) times a finite sum used to return inf or -inf
        a, b, c, z = (complex(v) for v in params)
        with pytest.raises(EntroineqError, match=re.escape(f"float range at a={a}, b={b}, c={c}, z={z}")):
            hyp2f1(*params)

    def test_nonconvergence_budget(self, monkeypatch):
        monkeypatch.setattr(specfun, "HYP2F1_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError, match="after 5 terms"):
            hyp2f1(0.5, 0.5, 1.5, 0.95)


class TestHyp2f1Arrays:
    """`hyp2f1` takes scalar parameters; its errors at ladder-like ones."""

    def test_errors_are_the_scalar_errors(self):
        with pytest.raises(DomainError, match="outside the series domain"):
            hyp2f1(0.5, 0.5, 1.5, 0.96)
        with pytest.raises(PoleError):
            hyp2f1(0.5, 0.5, -2.0, 0.5)
        assert cmath.isfinite(hyp2f1(-2.0, 1.0, -3.0, 0.5))
        with pytest.raises(DomainError, match="must be finite"):
            hyp2f1(math.nan, 0.5, 1.5, 0.3)
        with pytest.raises(EntroineqError, match="overflows the float range"):
            hyp2f1(-400.0, 1.0, 1.0, -1e3)


class TestWignerD:
    def test_zero_rotation_is_identity(self):
        for two_j in range(0, 7):
            j = HalfInt(two_j)
            matrix = dmatrix(j, 0.0)
            assert np.max(np.abs(matrix - np.eye(two_j + 1))) < 1e-14

    def test_spin_half_diagonal(self):
        for theta in (0.0, 0.7, math.pi, 4.5, 6.2):
            assert wigner_d("1/2", "1/2", "1/2", theta) == pytest.approx(
                math.cos(theta / 2.0), abs=1e-14
            )

    def test_paper_spin_three_half_square(self):
        for theta in (0.2, 1.0, 2.5):
            d = wigner_d("3/2", "3/2", "3/2", theta)
            assert d * d == pytest.approx(
                (math.cos(theta) + 1.0) ** 3 / 8.0, abs=1e-13
            )

    def test_rejects_invalid_weights(self):
        with pytest.raises(DomainError):
            wigner_d(1, 2, 0, 0.3)
        with pytest.raises(DomainError):
            wigner_d("3/2", 1, "3/2", 0.3)  # parity mismatch

    def test_symmetry_relations(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            two_j = int(rng.integers(1, 9))
            two_mp = int(rng.integers(0, two_j + 1)) * 2 - two_j
            two_m = int(rng.integers(0, two_j + 1)) * 2 - two_j
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            j, mp, m = HalfInt(two_j), HalfInt(two_mp), HalfInt(two_m)
            sign = -1.0 if ((two_mp - two_m) // 2) % 2 else 1.0
            base = wigner_d(j, mp, m, theta)
            assert base == pytest.approx(wigner_d(j, -m, -mp, theta), abs=1e-12)
            assert base == pytest.approx(sign * wigner_d(j, m, mp, theta), abs=1e-12)
            assert base == pytest.approx(sign * wigner_d(j, -mp, -m, theta), abs=1e-12)

    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="finite"):
            wigner_d(1, 0, 0, theta)

    @pytest.mark.parametrize(
        "j, mp, m", ((1000, 200, -200), (800, 500, -500), (1100, 1100, 0))
    )
    def test_large_spin_matches_mpmath(self, j, mp, m):
        # the Jacobi route returned nan for the first two and raised
        # OverflowError, later "d-element overflows the float range", for all
        got = wigner_d(j, mp, m, 0.3)
        assert math.isfinite(got)
        assert abs(got - mp_wigner_d(2 * j, [(2 * mp, 2 * m)], 0.3)[0]) < 1e-15

    @pytest.mark.parametrize(
        "j, mp, m, theta",
        (
            (300000, 300000, 300000, 0.0),
            (300000, -300000, -300000, 2.0 * math.pi),
            (300000, -300000, 300000, math.pi),
            (HalfInt(600001), HalfInt(600001), HalfInt(600001), 0.0),
        ),
    )
    def test_unit_elements_past_2j_of_2_18(self, j, mp, m, theta):
        # c^(2j) or s^(2j) at c or s = 1; a power table that formed it as
        # 0.5^(2j mod 512) (0.5^512)^(2j // 512) underflowed to 0 here
        assert abs(wigner_d(j, mp, m, theta)) == 1.0


class TestDmatrix:
    def test_spin_one_half_turn_antidiagonal(self):
        got = dmatrix(1, math.pi)
        expected = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_orthogonality_across_spins(self):
        for two_j in sorted({*range(1, 11), *LARGE_TWO_J}):
            j = HalfInt(two_j)
            for theta in np.linspace(0.0, 2.0 * math.pi, 7):
                d = dmatrix(j, float(theta))
                assert (
                    np.max(np.abs(d @ d.T - np.eye(two_j + 1))) < 1e-10
                )

    def test_squared_rows_and_columns_sum_to_one(self):
        d = dmatrix("7/2", 1.234)
        sq = d * d
        assert np.max(np.abs(sq.sum(axis=0) - 1.0)) < 1e-10
        assert np.max(np.abs(sq.sum(axis=1) - 1.0)) < 1e-10

    def test_matches_eigh_at_large_spin(self):
        for two_j in LARGE_TWO_J:
            for theta in LARGE_THETAS:
                got = dmatrix(HalfInt(two_j), theta)
                assert np.max(np.abs(got - wigner_oracle(HalfInt(two_j), theta))) < 1e-9

    def test_matches_scalar_route_entrywise(self):
        # covers the four-way symmetry scatter and its signs; `wigner_d` runs
        # the same recurrence on one column, so the values agree bit for bit
        for two_j in (*range(0, 6), 40, 41, 121):
            weights = [HalfInt(w) for w in range(-two_j, two_j + 1, 2)]
            for theta in (*LARGE_THETAS, 4.5):
                got = dmatrix(HalfInt(two_j), theta)
                want = np.array(
                    [[wigner_d(HalfInt(two_j), mp, m, theta) for m in weights] for mp in weights]
                )
                assert np.array_equal(got, want)

    def test_matches_scalar_route_at_large_spin(self):
        rng = np.random.default_rng(26)
        two_j = 2000
        for theta in (1e-8, 0.3, 1.3, math.pi - 1e-7):
            got = dmatrix(HalfInt(two_j), theta)
            for two_mp, two_m in (2 * rng.integers(0, two_j + 1, (40, 2)) - two_j).tolist():
                want = wigner_d(HalfInt(two_j), HalfInt(two_mp), HalfInt(two_m), theta)
                assert got[(two_j + two_mp) // 2, (two_j + two_m) // 2] == want

    @pytest.mark.parametrize("two_j", (40, 121, 400, 2000))
    def test_group_law_on_the_middle_column(self, two_j):
        # d(a) d(b) = d(a + b), on the column m = 0 or -1/2
        middle = two_j // 2
        for a, b in ((0.3, 1.0), (1e-8, 2.0), (1.5, 1.6)):
            j = HalfInt(two_j)
            got = dmatrix(j, a) @ dmatrix(j, b)[:, middle]
            assert np.max(np.abs(got - dmatrix(j, a + b)[:, middle])) < 1e-12

    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="finite"):
            dmatrix("1/2", theta)

    def test_rejects_negative_spin(self):
        with pytest.raises(DomainError, match="j must be nonnegative"):
            dmatrix(-1, 0.5)

    ANGLES = (1e-8, 0.3, 1.3, 3.0, math.pi, math.pi - 1e-7, 2.0 * math.pi)
    EXTREME_ANGLES = (0.0, -0.0, 5e-324, 1e-308, -1e-308, 1e-300, -1e-300, math.pi - 1e-7, 2.0 * math.pi, 12.0)

    @staticmethod
    def full(two_j):
        weights = range(-two_j, two_j + 1, 2)
        return [(mp, m) for mp in weights for m in weights]

    @pytest.mark.parametrize("two_j", (1, 2, 5, 40, 41))
    def test_matches_mpmath(self, two_j):
        # the Jacobi-by-degree route was off by up to 1.5e-14 here, the scalar `wigner_d` too
        for theta in self.ANGLES:
            want = mp_wigner_d(two_j, self.full(two_j), theta).reshape(two_j + 1, two_j + 1)
            assert np.max(np.abs(dmatrix(HalfInt(two_j), theta) - want)) < 1e-14

    def test_matches_mpmath_at_sampled_entries(self):
        rng = np.random.default_rng(25)
        two_j = 121
        for theta in self.ANGLES:
            pairs = 2 * rng.integers(0, two_j + 1, (40, 2)) - two_j
            got = dmatrix(HalfInt(two_j), theta)[tuple(((two_j + pairs) // 2).T)]
            assert np.max(np.abs(got - mp_wigner_d(two_j, pairs.tolist(), theta))) < 1e-14

    @pytest.mark.parametrize("theta", EXTREME_ANGLES)
    def test_extreme_angles(self, theta):
        # from theta = 0 on the recurrence divides by no sin theta and meets no special case
        for two_j in (1, 4, 41):
            got = dmatrix(HalfInt(two_j), theta)
            assert np.isfinite(got).all()
            assert np.max(np.abs(got @ got.T - np.eye(two_j + 1))) < 1e-13
            want = mp_wigner_d(two_j, self.full(two_j), theta).reshape(two_j + 1, two_j + 1)
            assert np.max(np.abs(got - want)) < 1e-14
            if abs(theta) < 1e-323:
                assert np.max(np.abs(got - np.eye(two_j + 1))) < 1e-14

    @pytest.mark.parametrize("theta", (1e-300, 1e-8, 0.01, 0.3, math.pi - 1e-7))
    def test_large_spin(self, theta):
        # the Jacobi-by-degree route raised "d-element overflows the float range" at j = 1000, theta = 0.01
        two_j = 2000
        got = dmatrix(1000, theta)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got @ got.T - np.eye(two_j + 1))) < 1e-10
        pairs = [(2000, 2000), (2000, -2000), (-2000, 1998), (0, 0), (2, -2), (1000, -600), (-1400, 200), (600, 1600)]
        want = mp_wigner_d(two_j, pairs, theta)
        assert np.max(np.abs(got[tuple(((two_j + np.array(pairs)) // 2).T)] - want)) < 1e-12


class TestHalfAnglePowers:
    @pytest.mark.parametrize("x", (1.0, 0.5, 0.9999, 0.3, 0.0))
    def test_matches_mpmath_at_any_power(self, x):
        k = np.array([[0], [1], [511], [512], [2**18], [2**20 + 3], [10**7]])
        mantissas, exponents = specfun._half_angle_powers(np.array([x]), k)
        for n, mantissa, exponent in zip(k.ravel().tolist(), mantissas.ravel().tolist(), exponents.ravel().tolist()):
            want = mpmath.mpf(x) ** n
            assert mantissa == 0.0 if want == 0 else 0.5 <= mantissa < 1.0
            assert abs(mpmath.ldexp(mantissa, exponent) - want) <= 1e-10 * want

    def test_negative_powers_are_zero(self):
        mantissas, exponents = specfun._half_angle_powers(np.array([0.7, 1.0]), np.array([[-2], [-1], [0]]))
        assert mantissas.tolist() == [[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]]
        assert exponents.tolist() == [[0, 0], [0, 0], [1, 1]]


class TestSquaredColumn:
    def test_matches_mpmath(self):
        # the Jacobi-by-degree column was off by up to 2.1e-13 here; one grid
        # call gives the squared columns at every angle
        two_j = 121
        thetas = (1e-8, 0.3, 1.3, math.pi - 1e-7)
        for two_m in (-121, -115, -53, 1, 53, 115, 121):
            got = specfun._squared_column(HalfInt(two_j), HalfInt(two_m), np.array(thetas))
            for row, theta in zip(got, thetas):
                want = mp_wigner_d(two_j, [(mp, two_m) for mp in range(-two_j, two_j + 1, 2)], theta) ** 2
                assert np.max(np.abs(row - want)) < 1e-14

    def test_grid_ends_give_the_unit_vectors(self):
        # d(0) = 1 and d(2 pi) = (-1)^(2j) pick m' = m, d(pi) picks m' = -m
        thetas = np.array([0.0, math.pi, 2.0 * math.pi])
        for two_j in (1, 4, 121, 2000):
            for two_m in sorted({-two_j, -(two_j % 2), two_j % 2, two_j - 2, two_j}):
                got = specfun._squared_column(HalfInt(two_j), HalfInt(two_m), thetas)
                want = np.zeros((3, two_j + 1))
                want[[0, 1, 2], [(two_j + two_m) // 2, (two_j - two_m) // 2, (two_j + two_m) // 2]] = 1.0
                assert np.max(np.abs(got - want)) < 1e-14


# frozen output of the earlier Taylor-series exponential of J_y at j = 2, theta = 1
ORACLE_J2_THETA1 = np.array(
    [
        (0.59313279836567701, -0.64805984911036874, 0.43360464379963376, -0.1934111356975278, 0.052830492497537331),
        (0.64805984911036874, 0.062077734660498839, -0.55682868003716113, 0.478224571207641, -0.1934111356975278),
        (0.43360464379963376, 0.55682868003716113, -0.062110127410356798, -0.55682868003716124, 0.43360464379963393),
        (0.1934111356975278, 0.478224571207641, 0.55682868003716124, 0.062077734660498873, -0.64805984911036862),
        (0.052830492497537331, 0.1934111356975278, 0.43360464379963393, 0.64805984911036862, 0.59313279836567678),
    ]
)


class TestWignerOracle:
    def test_quarter_turn_fixture(self):
        got = wigner_oracle("1/2", math.pi / 2.0)
        s = math.sqrt(2.0) / 2.0
        expected = np.array([[s, -s], [s, s]])
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_zero_rotation(self):
        assert np.max(np.abs(wigner_oracle(2, 0.0) - np.eye(5))) < 1e-15

    def test_golden_matrix(self):
        got = wigner_oracle(2, 1.0)
        assert np.max(np.abs(got - ORACLE_J2_THETA1)) < 1e-12

    def test_agrees_with_formula_route(self):
        for two_j in range(1, 9):
            j = HalfInt(two_j)
            for theta in np.linspace(0.0, 2.0 * math.pi, 9):
                diff = np.max(np.abs(dmatrix(j, float(theta)) - wigner_oracle(j, float(theta))))
                assert diff < 1e-9

    def test_rejects_large_spin(self):
        # the oracle once rejected 2j > 12; it now returns an orthogonal
        # matrix there, checked on its own and against dmatrix at the old cut
        got = wigner_oracle(7, 0.5)
        assert got.shape == (15, 15)
        assert np.max(np.abs(got - dmatrix(7, 0.5))) < 1e-9
        for two_j in LARGE_TWO_J:
            for theta in LARGE_THETAS:
                d = wigner_oracle(HalfInt(two_j), theta)
                assert np.max(np.abs(d @ d.T - np.eye(two_j + 1))) < 1e-10

    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="finite"):
            wigner_oracle(1, theta)
