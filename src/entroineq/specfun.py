"""Special functions behind group matrix elements.

Jacobi polynomials, Wigner d-functions (one element, a squared column over
an angle grid, or the full matrix, all from one three-term recurrence in
m') with an exact-diagonalisation oracle, the Gauss hypergeometric series,
complex log-gamma, and the discrete / mixed / continuous series matrix
elements of the hyperbolic analog group.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EntroineqError,
    PoleError,
    UnsupportedBranchError,
)
from .halfint import HalfInt, HalfIntLike, doubled
from .probability import SeriesKind, parts

#: Series evaluation of the hypergeometric function needs |z| <= this.
HYP2F1_RADIUS = 0.95

#: The hypergeometric series stops once three consecutive terms fall
#: below this relative to the partial sum ...
HYP2F1_TOL = 1e-16
#: ... and raises ConvergenceError after this many terms.
HYP2F1_MAX_TERMS = 10**6

#: Discrete-series rapidity domain, cosh t < 2.9 (t < 1.71).  The m'
#: recurrence of `_boost_column` loses accuracy as tanh^2(t/2) -> 1; the
#: limit keeps it where it was measured within 1e-12 of mpmath.
DISCRETE_COSH_LIMIT = 2.9

#: A discrete boost column or a mixed or continuous 2F1 family is evaluated
#: over fewer than this many weights; a longer one raises EntroineqError
#: before its recurrence runs.
BOOST_MAX_TERMS = 10**6

#: Smallest |b|^2 a discrete boost column keeps to full relative accuracy
#: (about 3.6e-15, below the adaptive ladder's 1e-14 floor); the column is
#: exactly 0 where |b|^2 falls below BOOST_FLOOR * u, u = 2^-52.
BOOST_FLOOR = 2.0**-48

#: Mixed/continuous rapidity domain: |z(t)| = cosh(t)/2 < HYP2F1_RADIUS.
CONTINUOUS_COSH_LIMIT = 2.0 * HYP2F1_RADIUS

#: The log-space factor of a mixed or continuous element, its binary shift
#: included, is exponentiated only while its real part stays within this
#: bound, which keeps it a normal float with room for the mantissa it meets.
LOG_FLOAT_RANGE = 700.0


# ----------------------------------------------------------------------
# Jacobi polynomials


def _gbinom(alpha: float, k: int) -> float:
    """Generalized binomial coefficient C(alpha, k) for integer k >= 0."""
    out = 1.0
    for i in range(1, k + 1):
        out *= (alpha - k + i) / i
    return out


def _jacobi_direct(n: int, a: float, b: float, x: float) -> float:
    """Direct summation form; total in (a, b), used as recurrence fallback."""
    half_minus = (x - 1.0) / 2.0
    half_plus = (x + 1.0) / 2.0
    return math.fsum(
        _gbinom(n + a, n - s) * _gbinom(n + b, s) * half_minus**s * half_plus ** (n - s)
        for s in range(n + 1)
    )


def jacobi(n: int, a: float, b: float, x):
    """Jacobi polynomial P_n^(a,b)(x) by the three-term recurrence.

    `a` and `b` are scalars, any reals; an array a or b raises DomainError.
    `x` may be a float array, whose entries one recurrence steps at once.
    Degenerate recurrence denominators (possible for negative integer a+b)
    fall back to direct summation, which takes a scalar x only.
    """
    if n < 0:
        raise DomainError("polynomial degree must be nonnegative")
    if np.ndim(a) or np.ndim(b):
        raise DomainError("Jacobi parameters a and b must be scalars")
    if n == 0:
        return np.ones(np.shape(x)) if np.ndim(x) else 1.0
    p_prev = 1.0
    p_curr = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        denom = 2.0 * k * (k + a + b) * (s - 2.0)
        if abs(denom) < 1e-6:
            if np.ndim(x):
                raise DomainError("a degenerate Jacobi recurrence needs a scalar x")
            return _jacobi_direct(n, a, b, x)
        c1 = (s - 1.0) * (s * (s - 2.0) * x + a * a - b * b)
        c2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p_prev, p_curr = p_curr, (c1 * p_curr - c2 * p_prev) / denom
    return p_curr


# ----------------------------------------------------------------------
# Complex log-gamma (Lanczos, g = 7, 9 coefficients)

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _nonpos_int(z: complex) -> Optional[int]:
    """Return k >= 0 when z == -k exactly, else None."""
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        return int(-z.real)
    return None


def _product(a, b):
    """a * b over complex arrays with Python's complex rounding: numpy may
    fuse the multiply-add, which moves the large log-space terms by an ulp."""
    return a.real * b.real - a.imag * b.imag + 1j * (a.real * b.imag + a.imag * b.real)


def log_gamma(z: Union[complex, float, np.ndarray]) -> Union[complex, np.ndarray]:
    """Principal-branch log Gamma via the Lanczos approximation, elementwise.

    Reflection handles Re z < 0.5; a nonpositive integer anywhere raises
    PoleError, and a reflected z whose sin(pi z) leaves the float range
    (|Im z| past about 225) raises EntroineqError.  A scalar gives a
    complex, an array a complex array.
    """
    scalar, z = not np.ndim(z), np.atleast_1d(np.asarray(z, dtype=complex))
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))
    if pole.any():
        raise PoleError(f"log_gamma pole at {complex(z[pole][0])}")
    reflect = z.real < 0.5  # log Gamma(1 - z), then the reflection formula
    w = np.where(reflect, 1.0 - z, z) - 1.0
    x = sum((coeff / (w + i) for i, coeff in enumerate(_LANCZOS_C[1:], start=1)), complex(_LANCZOS_C[0]))
    t = w + _LANCZOS_G + 0.5
    value = _HALF_LOG_TWO_PI + _product(w + 0.5, np.log(t)) - t + np.log(x)
    if reflect.any():
        z = z[reflect]
        n = np.floor(z.real)  # sin(pi z) with range reduction on the real part
        with np.errstate(all="ignore"):  # raised below
            sin_pi = np.sin(np.pi * (z - n))
        if not np.isfinite(sin_pi).all():
            raise EntroineqError(f"sin(pi z) of the reflection overflows the float range at z = {complex(z[~np.isfinite(sin_pi)][0])}")
        sin_pi = np.where(n % 2, -sin_pi, sin_pi)
        value[reflect] = math.log(math.pi) - np.log(sin_pi) - value[reflect]
    return complex(value[0]) if scalar else value


# ----------------------------------------------------------------------
# Gauss hypergeometric series


def hyp2f1(
    a: Union[complex, float],
    b: Union[complex, float],
    c: Union[complex, float],
    z: Union[complex, float],
) -> complex:
    """2F1(a, b; c; z) by direct power series.

    For Re z < 0 the Pfaff transformation (DLMF 15.8.1)
    2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) replaces the
    cancelling series at z by one at z/(z-1), whose real part lies in
    (0, 1); a terminating parameter is kept in the first slot, so the new
    series terminates too.

    NaN or infinite parameters raise DomainError.  The summed series needs
    |z| <= 0.95 (the transformed argument when Re z < 0) unless a or b is
    a nonpositive integer, in which case it terminates and any z is
    accepted.  The sum stops once three consecutive terms fall below
    `HYP2F1_TOL` relative to the partial sum, and raises ConvergenceError
    after `HYP2F1_MAX_TERMS`; a partial sum or a Pfaff-scaled value that
    leaves the float range raises EntroineqError.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    given = f"a={a}, b={b}, c={c}, z={z}"
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(z)):
        raise DomainError(f"2F1 parameters must be finite, got {given}")
    scale = None
    if z.real < 0.0:
        degree_a, degree_b = _nonpos_int(a), _nonpos_int(b)
        if degree_b is not None and (degree_a is None or degree_b < degree_a):
            a, b = b, a
        try:
            scale = (1.0 - z) ** (-a)
        except OverflowError:
            raise EntroineqError(f"(1-z)^(-a) overflows the float range at a = {a}, z = {z}") from None
        b, z = c - b, z / (z - 1.0)
    degrees = [d for d in (_nonpos_int(a), _nonpos_int(b)) if d is not None]
    n_term = min(degrees) if degrees else None
    if n_term is None and abs(z) > HYP2F1_RADIUS:
        raise DomainError(
            f"|z| = {abs(z):.4f} outside the series domain and no terminating parameter"
        )
    c_pole = _nonpos_int(c)
    if c_pole is not None and (n_term is None or c_pole < n_term):
        raise PoleError(f"c = {c} hits a pole before the series terminates")

    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    small_streak = 0
    k = 0
    while True:
        numerator = (a + k) * (b + k)
        if numerator == 0:  # a terminating series ends at degree n_term
            break
        term = term * numerator * z / ((c + k) * (k + 1))
        total += term
        k += 1
        if not cmath.isfinite(total):
            raise EntroineqError(f"the 2F1 partial sum leaves the float range after {k} terms at {given}")
        if n_term is None:
            if abs(term) < HYP2F1_TOL * abs(total):
                small_streak += 1
                if small_streak >= 3:
                    break
            else:
                small_streak = 0
            if k >= HYP2F1_MAX_TERMS:
                raise ConvergenceError(f"no convergence after {HYP2F1_MAX_TERMS} terms")
    value = total if scale is None else scale * total
    if not cmath.isfinite(value):  # the partial sums are finite, so only the Pfaff product can leave the range
        raise EntroineqError(f"the Pfaff-scaled 2F1 value leaves the float range at {given}")
    return value


# ----------------------------------------------------------------------
# Wigner d-functions


def _doubled_spin(j: HalfIntLike) -> int:
    """2j of a spin label; a negative j raises DomainError."""
    two_j = HalfInt.coerce(j).doubled
    if two_j < 0:
        raise DomainError("j must be nonnegative")
    return two_j


def _weight_triple(
    j: HalfIntLike, m_prime: HalfIntLike, m: HalfIntLike
) -> tuple[int, int, int]:
    two_j = _doubled_spin(j)
    doubled = []
    for label, value in (("m'", m_prime), ("m", m)):
        w = HalfInt.coerce(value).doubled
        if (w - two_j) % 2:
            raise DomainError(f"{label} must share the parity class of j")
        if abs(w) > two_j:
            raise DomainError(f"|{label}| <= j required")
        doubled.append(w)
    return two_j, doubled[0], doubled[1]


def _finite_angles(theta) -> np.ndarray:
    """One angle or an array of angles as a float array; NaN, infinities and None raise DomainError naming the value."""
    angles = np.asarray(theta, dtype=float)
    finite = np.isfinite(angles)
    if not finite.all():
        raise DomainError(f"rotation angle must be finite, got theta={np.asarray(theta, dtype=object)[~finite][0]}")
    return angles


def _canonical_image(two_mp: int, two_m: int) -> tuple[int, int, bool]:
    """(m', m) moved into the canonical sector m'+m >= 0, m'-m >= 0.

    Uses d_{m'm} = (-1)^(m'-m) d_{mm'} = d_{-m,-m'}; the flag says whether
    the element changes sign on the way.
    """
    flip = False
    if two_mp < two_m:
        flip = bool(((two_mp - two_m) // 2) % 2)
        two_mp, two_m = two_m, two_mp
    if two_mp + two_m < 0:
        two_mp, two_m = -two_m, -two_mp
    return two_mp, two_m, flip


def _root_binomials(two_j: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns k = first..first+count-1 and sqrt(C(2j, k)) as (count, 1)
    mantissas and binary exponents, from exact integers."""
    last = first + count - 1
    low, high = min(first, two_j - last), min(last, two_j - first, two_j // 2)  # C(2j, k) = C(2j, 2j - k)
    mantissas, exponents = [], []
    binomial = math.comb(two_j, low)
    for n in range(low, high + 1):
        half = binomial.bit_length() // 2  # binomial / 4^half lies in [1/2, 2)
        mantissas.append(math.sqrt(binomial / (1 << 2 * half)))
        exponents.append(half)
        binomial = binomial * (two_j - n) // (n + 1)
    k = np.arange(first, last + 1)
    at = np.minimum(k, two_j - k) - low
    return k, np.array(mantissas)[at, None], np.array(exponents)[at, None]


def _half_angle_powers(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x^k as mantissas in [1/2, 1) and binary exponents, for the integer
    array `k` broadcast against the array `x`, with zeros at k < 0.

    With x = f 2^e (frexp), f^k is formed as f^(k mod 512) (f^512)^(k // 512),
    the second factor by the same rule on the mantissa of f^512, so no
    intermediate leaves the normal range at any k; 0.0^0 is 1.
    """
    fraction, exponent = np.frexp(x)
    n = np.maximum(k, 0)
    power, exponents = fraction ** (n % 512), exponent * n
    if n.max(initial=0) >= 512:  # f^512 by Python's power; numpy's misses it by an ulp for some f
        block, block_exponent = np.frexp(np.reshape([f**512 for f in fraction.ravel().tolist()], fraction.shape))
        block_power, block_shift = _half_angle_powers(block, n // 512)
        power, exponents = power * block_power, exponents + block_exponent * (n // 512) + block_shift
    mantissas, shift = np.frexp(power)
    if k.min(initial=0) >= 0:
        return mantissas, exponents + shift
    return np.where(k < 0, 0.0, mantissas), np.where(k < 0, 0, exponents + shift)


def _canonical_columns(two_j: int, steps: int, s: np.ndarray, c: np.ndarray, binomials: tuple) -> np.ndarray:
    """d^j_(m'm) at m = r - j for the columns r of the `_root_binomials` table
    `binomials` and m' = j - i for i = 0..`steps`, at the half-angle sines
    `s` and cosines `c` (1-D, one entry per angle), shape (steps+1, r, angles).

    The canonical sector m' >= |m| comes from the three-term recurrence in m'
    e(m'+1) d_(m'+1) - 2(m' cos theta - m)/sin theta d_m' + e(m') d_(m'-1) = 0,
    e(m') = sqrt((j+m')(j-m'+1)), the Krawtchouk analogue (Koekoek, Lesky and
    Swarttouw 2010, 9.11) of the Meixner recurrence of `_boost_column`, run
    by one `_three_term` call over every column and angle, downward from the
    exact row d_jm = sqrt(C(2j, j+m)) c^(j+m) s^(j-m), c = cos(theta/2) and
    s = sin(theta/2).  The sector never passes the lower turning point
    (|m| >= m cos theta), so downward is the dominant direction (Gil, Segura
    and Temme 2007, ch. 4).  The recurrence runs on
    y = d 2^(k(j-m')) / (sqrt(C(2j, j+m)) c^(m'+m) s^(m'-m)), whose
    coefficients are bounded at every angle and divide by no sin theta; the
    exact 2^k >= 2j+1 keeps y from falling out of the float range at large
    j.  The binomial, the half-angle powers and y are carried as mantissas
    and binary exponents joined by one ldexp, so theta = 0 gives the
    identity and no spin overflows.  Entries off the sector are 0.
    """
    k = (two_j + 1).bit_length()
    (r, binomial, binomial_exponent), i = binomials, np.arange(steps + 1)[:, None, None]
    t = np.arange(-1.0, steps)[:, None, None]
    root = np.sqrt((two_j - t) * (t + 1.0))  # e(j - t), from e(j+1) = 0
    mp = two_j / 2.0 - i[:-1]
    # m' cos theta - m = (m' - m) - 2 m' s^2 near theta = 0, = 2 m' c^2 - (m' + m) past pi/2
    s2, c2 = s * s, c * c
    shifted = np.where(s2 <= 0.5, (two_j - r[:, None] - i[:-1]) - 2.0 * s2 * mp, 2.0 * c2 * mp - (r[:, None] - i[:-1]))
    p = shifted / np.ldexp(root[1:], -k)
    scaled = np.ldexp(s * c, k)
    q = np.repeat(root[:-1] / root[1:] * (scaled * scaled), r.size, axis=1)
    rows = r.size * s.size  # the angles run fastest, here and in the arrays below
    y, shift = (x.T.reshape(i.size, r.size, s.size) for x in _three_term(p.reshape(steps, rows).T, q.reshape(steps, rows).T))
    # read-only windows [i, w] = x[w + steps - i] of the power tables: c^(m'+m) = c^(r-i) and s^(m'-m) = s^(2j-r-i),
    # zero off the sector, which drops the junk that the recurrence runs past a column's end
    lowest = np.array([[r[0] - steps], [two_j - r[-1] - steps]])  # the first power of the c and s tables
    power, exponent = (
        np.lib.stride_tricks.as_strided(
            x[steps:], (steps + 1, r.size, *x.shape[1:]), (-x.strides[0], *x.strides), writeable=False
        )
        for x in _half_angle_powers(np.array([c, s]), np.arange(r.size + steps)[:, None, None] + lowest)
    )
    c_power, c_exponent = power[:, :, 0], exponent[:, :, 0]
    s_power, s_exponent = power[:, ::-1, 1], exponent[:, ::-1, 1]
    return np.ldexp(binomial * c_power * s_power * y, (binomial_exponent - k * i) + c_exponent + s_exponent + shift)


def _squared_column(j: HalfIntLike, m: HalfIntLike, theta) -> np.ndarray:
    """|d^j_{m'm}(theta)|^2 over m' = -j..j ascending, the axes of `theta` first.

    j and m are checked once (m' = j lies on every lattice), and so is
    every angle.  Each entry squares its canonical image, whose column
    |mu| <= |m| and row m' >= |m| the `_canonical_columns` recurrence runs
    to, over grid `parts` that share one binomial table.  A square needs
    no sign, so the recurrence takes |sin theta/2| and |cos theta/2|.
    """
    two_j, _, two_m = _weight_triple(j, j, m)
    angles = _finite_angles(theta)
    low = abs(two_m)
    steps = (two_j - low) // 2
    images = [_canonical_image(w, two_m) for w in range(-two_j, two_j + 1, 2)]
    at = [(two_j - mp) // 2 for mp, _, _ in images], [(mu + low) // 2 for _, mu, _ in images]
    half = angles.ravel() / 2.0
    s, c = np.abs(np.sin(half)), np.abs(np.cos(half))
    binomials = _root_binomials(two_j, steps, low + 1)  # the columns mu = r - j, |mu| <= |m|
    blocks = [
        _canonical_columns(two_j, steps, s[part], c[part], binomials)[at]
        for part in parts(s.size, (low + 1) * (steps + 1))  # one part for an empty grid too
    ]
    column = np.concatenate(blocks, axis=1).T
    return (column * column).reshape(angles.shape + (two_j + 1,))


def wigner_d(j: HalfIntLike, m_prime: HalfIntLike, m: HalfIntLike, theta: float) -> float:
    """Rotation matrix element d^j_{m'm}(theta) about the y-axis.

    The element is moved into the canonical sector (m'+m >= 0, m'-m >= 0)
    through the index symmetries
    d_{m'm} = d_{-m,-m'} = (-1)^(m'-m) d_{mm'} = (-1)^(m'-m) d_{-m',-m},
    where `_canonical_columns` runs its one column from the row m' = j down
    to the element, as `dmatrix` does at the same angle.  Any spin is
    accepted; a non-finite theta raises DomainError.
    """
    two_j, two_mp, two_m = _weight_triple(j, m_prime, m)
    theta = float(_finite_angles(theta))
    two_mp, two_m, flip = _canonical_image(two_mp, two_m)
    r, steps = (two_j + two_m) // 2, (two_j - two_mp) // 2
    s, c = np.array([math.sin(theta / 2.0)]), np.array([math.cos(theta / 2.0)])
    value = float(_canonical_columns(two_j, steps, s, c, _root_binomials(two_j, r, 1))[-1, 0, 0])
    return -value if flip else value


def dmatrix(j: HalfIntLike, theta: float) -> np.ndarray:
    """Full (2j+1) x (2j+1) rotation matrix, rows/columns m', m ascending.

    The canonical sector m' >= |m| comes from one `_canonical_columns` run
    over all 2j+1 columns at the one angle; the index symmetries
    d_(m'm) = d_(-m,-m') = (-1)^(m'-m) d_(mm') fill the other entries.  A
    negative j or a non-finite theta raises DomainError.
    """
    two_j = _doubled_spin(j)
    theta = float(_finite_angles(theta))
    steps = two_j // 2  # m' = j - i for i = 0..steps, down to 0 or 1/2
    s, c = np.array([math.sin(theta / 2.0)]), np.array([math.cos(theta / 2.0)])
    value = _canonical_columns(two_j, steps, s, c, _root_binomials(two_j, 0, two_j + 1))[:, :, 0].T
    r, i = np.arange(two_j + 1), np.arange(steps + 1)  # m = r - j
    out = np.empty((two_j + 1, two_j + 1))
    out[two_j - steps :][::-1] = value.T  # rows m' = j..0 or 1/2, exact on the sector
    sign = 1 - 2 * (r % 2)  # (-1)^(m'-m) = sign(r) sign(i) (-1)^(2j) on the sector
    out[: steps + 1] = (value * np.multiply.outer(sign, sign[i] * sign[two_j])).T[:, ::-1]  # d_(-m',-m) = (-1)^(m'-m) d_(m'm)
    weights = np.abs(r * 2 - two_j)
    return np.where(weights > weights[:, None], out.T * np.multiply.outer(sign, sign), out)  # |m| > |m'|: (-1)^(m'-m) d_(mm')


def wigner_oracle(j: HalfIntLike, theta: float) -> np.ndarray:
    """Independent route to dmatrix: exact diagonalisation of J_y.

    exp(-i theta J_y) on the ascending weight basis, from the eigenpairs
    (numpy.linalg.eigh) of the tridiagonal Hermitian generator; it shares
    no recurrence or factorial with `dmatrix`.  Any spin is accepted; a
    non-finite theta raises DomainError.
    """
    two_j = _doubled_spin(j)
    theta = float(_finite_angles(theta))
    two_m = np.arange(-two_j, two_j, 2)
    coupling = 0.25j * np.sqrt((two_j - two_m) * (two_j + two_m + 2))
    generator = np.diag(coupling, -1) - np.diag(coupling, 1)
    eigenvalues, vectors = np.linalg.eigh(generator)
    return ((vectors * np.exp(-1j * theta * eigenvalues)) @ vectors.conj().T).real


# ----------------------------------------------------------------------
# SU(1,1)-type matrix elements


@dataclass(frozen=True)
class Su11Args:
    """Parameter bundle for discrete/mixed/continuous series elements.

    Discrete series use spin j = -k/2 (k >= 1); continuous series use
    j = -1/2 + i s with parity label sigma.  `m` is a weight on the
    discrete lattice or a real continuous label depending on the
    operation.  `t` is one rapidity, or for `bargmann_b` a 1-D array of
    them (a read-only float copy), every one of which is checked.
    """

    series: SeriesKind
    m_prime: HalfInt
    m: Union[HalfInt, float]
    t: Union[float, np.ndarray]
    k: Optional[int] = None
    s: Optional[float] = None
    sigma: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", SeriesKind(self.series))
        object.__setattr__(self, "m_prime", HalfInt.coerce(self.m_prime))
        t = np.array(self.t, dtype=float) if np.ndim(self.t) else float(self.t)
        if np.ndim(t) > 1 or not np.size(t) or np.ndim(t) and not self.is_discrete:
            raise DomainError("a rapidity grid is a nonempty 1-D array, for a discrete series")
        for value in np.ravel(t).tolist():
            if not math.isfinite(value):
                raise DomainError(f"rapidity must be finite, got t={value}")
            if value < 0.0:
                raise DomainError("rapidity t must be nonnegative")
        if np.ndim(t):
            t.flags.writeable = False
        object.__setattr__(self, "t", t)
        if isinstance(self.m, float) and not math.isfinite(self.m):
            raise DomainError(f"the continuous label m must be finite, got m={self.m}")
        if self.sigma not in (0, 1):
            raise DomainError("sigma must be 0 or 1")
        if self.is_discrete:
            if self.k is None or not (self.k >= 1 and self.k % 1 == 0):
                raise DomainError(f"discrete series need an integer k >= 1, got k={self.k!r}")
            object.__setattr__(self, "k", int(self.k))
        else:
            if self.s is None or not 0.0 < float(self.s) < math.inf:
                raise DomainError("continuous series need a finite s > 0")
            object.__setattr__(self, "s", float(self.s))

    @property
    def is_discrete(self) -> bool:
        return self.series in (
            SeriesKind.DISCRETE_POSITIVE,
            SeriesKind.DISCRETE_NEGATIVE,
        )


def _check_discrete_weight(k: int, value: HalfIntLike, positive: bool, label: str) -> int:
    doubled = HalfInt.coerce(value).doubled
    if (doubled - k) % 2:
        raise DomainError(f"{label} must sit on the k = {k} weight lattice")
    if positive and doubled < k:
        raise DomainError(f"{label} >= k/2 required on the positive series")
    if not positive and doubled > -k:
        raise DomainError(f"{label} <= -k/2 required on the negative series")
    return doubled


def _require_rapidity(t, cosh_limit: float) -> None:
    t = float(np.max(t))  # of a grid too; cosh grows with t >= 0
    if math.cosh(t) >= cosh_limit:
        raise DomainError(
            f"cosh(t) = {math.cosh(t):.4f} outside the series domain (< {cosh_limit})"
        )


def _positive_weights(
    args: Su11Args, name: str, weights: Sequence[HalfIntLike]
) -> tuple[int, np.ndarray]:
    """Doubled m and m' of discrete-series elements, on the positive series.

    Checks the family, the rapidity and the lattice of m once and of each
    m' in `weights`; weights of the negative series are mirrored,
    (m', m) -> (-m', -m).
    """
    if not args.is_discrete:
        raise DomainError(f"{name} is defined for the discrete series")
    _require_rapidity(args.t, DISCRETE_COSH_LIMIT)
    positive = args.series is SeriesKind.DISCRETE_POSITIVE
    sign = 1 if positive else -1
    two_m = _check_discrete_weight(args.k, args.m, positive, "m")
    return sign * two_m, sign * _lattice_weights(args.k, weights, positive)


def _lattice_weights(k: int, weights: Sequence[HalfIntLike], positive: bool) -> np.ndarray:
    """Doubled m' of `weights`, all checked on the k weight lattice of the series."""
    two_mps = doubled(weights)
    try:
        off = ((two_mps - k) % 2 != 0) | ((two_mps if positive else -two_mps) < k)
    except OverflowError:  # numpy cannot hold k
        raise DomainError(f"k = {k} is too large for the weight lattice") from None
    if off.any():
        _check_discrete_weight(k, HalfInt(int(two_mps[np.argmax(off)])), positive, "m'")  # raises
    return two_mps


def bargmann_b(args: Su11Args, weights: Optional[Sequence[HalfIntLike]] = None):
    """Discrete-series boost matrix element b^j_{m'm}(t), j = -k/2.

    Given `weights`, returns the elements at those m' as a tuple, with the
    family, the rapidity and m checked once; without, the element at
    `args.m_prime`, the one-weight case of the same route.  A grid `args.t`
    gives an array, one row per rapidity bit for bit its one-rapidity call.
    Each call evaluates the whole column of m by `_boost_column`, so a
    ladder holds exactly the values of its one-weight calls.  On the
    positive series b = i^|m'-m| psi(m'), so that b_(m'm) = b_(mm') on both
    sides of the diagonal: the columns then form a unitary matrix, and
    B(t1) B(t2) = B(t1 + t2).  The negative series mirrors
    (m', m) -> (-m', -m) and conjugates the phase.  Weights past
    `boost_column_length` are exactly 0.
    """
    if weights is None:
        values = bargmann_b(args, (args.m_prime,))
        return values[:, 0] if np.ndim(args.t) else values[0]
    two_m, two_mps = _positive_weights(args, "bargmann_b", weights)
    n, x = (two_m - args.k) // 2, (two_mps - args.k) // 2
    turns = np.abs(x - n) % 4 if args.series is SeriesKind.DISCRETE_POSITIVE else -np.abs(x - n) % 4
    values = np.array([1.0, 1j, -1.0, -1j])[turns] * _boost_column(args.k, n, np.atleast_1d(args.t), x)
    return values if np.ndim(args.t) else tuple(values[0].tolist())


def boost_column_length(args: Su11Args):
    """Weights m' = k/2, k/2+1, ... of the boost column of `args.m`, past
    which `bargmann_b` is exactly 0: an int, or an array for a grid `args.t`.
    Checks and errors are those of `bargmann_b`."""
    two_m, _ = _positive_weights(args, "boost_column_length", ())
    top = _boost_plan(args.k, (two_m - args.k) // 2, np.atleast_1d(args.t))[-1] + 1
    return top if np.ndim(args.t) else int(top[0])


def _boost_plan(k: int, n: int, t: np.ndarray):
    """(c, lower turning point, backward start) per rapidity, as `_boost_column` says.

    The Liouville-Green sum runs over a first guess, the far decay |ln c|/2
    per weight plus the Airy zone at x+, and four times as far for the rows
    it leaves short, over the `parts` of the rows of that span.  The last
    plan is kept: an adaptive ladder sizes and then evaluates its grid.
    """
    return _last_plan(k, n, tuple(t.tolist()))


@functools.lru_cache(maxsize=1)
def _last_plan(k: int, n: int, t: tuple[float, ...]):
    c, t = np.array([math.tanh(v / 2.0) ** 2 for v in t]), np.array(t)
    top = np.full(t.size, BOOST_MAX_TERMS)
    if n < BOOST_MAX_TERMS and k < 2**52:  # the floats below stay in range
        centre = (k * c + (1.0 + c) * n) / (1.0 - c)
        half_width = 2.0 * np.sqrt(c * n * (n + k)) / (1.0 - c)
        lower, upper = np.maximum(n, np.floor(centre - half_width)).astype(int), centre + half_width
        top[c == 0.0], live = n, np.flatnonzero((c > 0.0) & (upper < BOOST_MAX_TERMS))
        goal = -0.5 * math.log(BOOST_FLOOR * 2.0**-60)  # u 2^-8, in log |phi|
        first = np.maximum(np.floor(upper), 1.0)
        airy = np.cbrt(np.sqrt(c[live]) * first[live] / (1.0 - np.sqrt(c[live])) ** 2)
        span = int(np.max(2.0 * goal / -np.log(c[live]) + 2.0 * goal ** (2.0 / 3.0) * airy, initial=0.0)) + 16
        while live.size and span < BOOST_MAX_TERMS:
            short = []
            for part in (live[rows] for rows in parts(live.size, span)):
                d, e = _meixner(k, n, first[part, None] + np.arange(span + 1.0), c[part, None])
                d, e, e_next = d[:, :-1], e[:, :-1], e[:, 1:]
                root = np.maximum(d + np.sqrt(np.maximum(d * d - 4.0 * e * e_next, 0.0)), 2.0 * e)
                fall = np.cumsum(np.log(root / (2.0 * e)), axis=1) >= goal  # -log |phi(x+1)/phi(first)| >= goal
                top[part] = first[part].astype(int) + np.argmax(fall, axis=1) + 1
                short.append(part[~fall[:, -1]])
            live, span = np.concatenate(short), span * 4
        top[live] = BOOST_MAX_TERMS
    if top.max() >= BOOST_MAX_TERMS:
        raise _boost_error(k, n, t[np.argmax(top >= BOOST_MAX_TERMS)], f"is longer than the budget of {BOOST_MAX_TERMS} weights")
    return c, lower, top


def _boost_error(k: int, n: int, t: float, what: str) -> EntroineqError:
    return EntroineqError(f"the boost column at k={k}, m={HalfInt(2 * n + k)}, t={float(t)!r} {what}")


def _meixner(k: int, n: int, x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(x) - (1-c)n and e(x) of the `_boost_column` recurrence at the weights `x`, broadcast against `c`."""
    return x * (1.0 + c) + (k * c - (1.0 - c) * n), np.sqrt(c * x * (x + k - 1.0))


def _boost_column(k: int, n: int, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """psi(x) = (-1)^min(x, n) phi(x) at the integers `x`: the boost columns of m.

    One row per rapidity of the 1-D `t`, zero past each start, run over
    the `parts` of the rows of max(top) + 2 weights.
    x = m' - k/2 and n = m - k/2 on the positive series; phi
    is an eigenvector of the tridiagonal Meixner-Jacobi matrix (Koekoek,
    Lesky and Swarttouw, Hypergeometric Orthogonal Polynomials, 2010, 9.10).
    With c = tanh^2(t/2), d(x) = x + (x+k)c and e(x) = sqrt(c x (x+k-1)),
    e(x+1) phi(x+1) = (d(x) - (1-c)n) phi(x) - e(x) phi(x-1); phi oscillates
    between x-+ = (kc + (1+c)n -+ 2 sqrt(c n (n+k))) / (1-c).  Each column
    runs forward from the exact phi(0) = sqrt((1-c)^k C(n+k-1, n) c^n) to
    max(n, x-) and backward (Miller's algorithm; Gil, Segura and Temme,
    Numerical Methods for Special Functions, 2007, ch. 4), one `_three_term`
    call per direction for the grid; the passes join at the largest of the
    last nine forward values.  The backward start is the first x past x+
    where the Liouville-Green estimate of phi, the product of the small
    roots of e(x+1) L^2 - (d(x) - (1-c)n) L + e(x) = 0 from x+ on, has
    fallen by `BOOST_FLOOR` * u * 2^-8 in |phi|^2 (2^-8 is headroom for the
    estimate near x+), and at `BOOST_MAX_TERMS` or beyond raises
    EntroineqError.  The column must then fall by 2^-50, |phi|^2 by
    `BOOST_FLOOR` * u, from its largest value to its start, so that every
    |b|^2 >= `BOOST_FLOOR` keeps full relative accuracy, or EntroineqError
    is raised.  t = 0 gives the identity's column, which ends at x = n.
    """
    c, lower, top = _boost_plan(k, n, t)
    columns = (_boost_rows(k, n, t[s], c[s], lower[s], top[s]) for s in parts(t.size, int(top.max()) + 2))  # one at a time
    return np.concatenate([column[:, np.minimum(x, column.shape[1] - 1)] for column in columns])


def _boost_rows(k: int, n: int, t: np.ndarray, c: np.ndarray, lower: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The `_boost_column` rows of `t` at x = 0 .. max(top) + 1, from their plan."""
    out = np.zeros((t.size, top.max() + 2))
    out[c == 0.0, n] = 1.0
    rows = np.flatnonzero(c)
    if not rows.size:
        return out
    c, lower, top, column = c[rows, None], lower[rows], top[rows], np.arange(rows.size)[:, None]
    d, e = _meixner(k, n, np.arange(top.max() + 2.0), c)  # d(x) - (1-c)n, e(x)
    # a row run past its column's end is junk that nothing reads
    width = lower.max()
    forward, f_shift = _three_term(d[:, :width] / e[:, 1 : width + 1], e[:, :width] / e[:, 1 : width + 1])
    window = np.maximum(lower[:, None] - np.arange(8, -1, -1), 0)  # lower - 8 .. lower
    size = np.abs(np.ldexp(forward[column, window], f_shift[column, window] - f_shift[column, lower[:, None]]))
    join = window[column[:, 0], np.argmax(size, axis=1)][:, None]
    steps = top[:, None] - join  # the backward values run from x = top down to join
    at = np.maximum(top[:, None] - np.arange(steps.max()), 1) - 1  # x - 1
    backward, b_shift = _three_term((d[:, 1:-1] / e[:, 1:-1])[column, at], (e[:, 2:] / e[:, 1:-1])[column, at])
    ratios = max(n, k - 1) / np.arange(1.0, min(n, k - 1) + 1)  # C(n+k-1, n) is the product of 1 + ratio
    log_comb = 0.5 * math.fsum(np.log1p(ratios).tolist())
    starts = [  # phi(0) = exp(fraction) 2^whole, from its logarithm
        divmod(0.5 * (k * math.log1p(-v) + n * math.log(v)) + log_comb, math.log(2.0)) for v in c[:, 0].tolist()
    ]
    whole = np.array([int(w) for w, _ in starts])[:, None]
    scale = np.array([math.exp(f) for _, f in starts])[:, None]
    with np.errstate(over="ignore"):  # in the junk
        head = np.ldexp(forward * scale, f_shift + whole)
        ratio = forward[column, join] / backward[column, steps] * scale
        tail = np.ldexp(backward * ratio, b_shift + (f_shift[column, join] - b_shift[column, steps] + whole))
    x = np.arange(out.shape[1])
    phi = np.where(x <= join, head[column, np.minimum(x, lower[:, None])], tail[column, np.minimum(abs(top[:, None] - x), steps)])
    phi[x > top[:, None]] = 0.0
    size = np.abs(phi)
    fallen = size[column[:, 0], top] * 2.0**50 <= size.max(axis=1)
    if not fallen.all():
        bad = np.argmin(fallen)
        raise _boost_error(k, n, t[rows[bad]], f"has not fallen by 2^-50 at its backward start m' - k/2 = {top[bad]}")
    out[rows] = phi * np.where(np.minimum(x, n) % 2, -1.0, 1.0)
    return out


def _three_term(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y_0 = 1 and y_(i+1) = p_i y_i - q_i y_(i-1), with y_(-1) = 0, per row of `p` and `q`.

    Returns y as mantissas and binary exponents, y_i = mantissa_i 2^shift_i,
    one row per recurrence: once |y| passes 2^300 the running pair of that
    row is scaled by an exact power of 2.  Several rows run as one array
    loop, real only; one row runs as a float loop with the same arithmetic,
    real or complex, since the array loop's per-step overhead makes it
    about 15 times slower there (400 steps).
    """
    if p.shape[0] == 1:
        previous, current = 0.0, 1.0
        mantissas, bumps = [1.0], np.zeros(p.shape[1] + 1, dtype=int)
        for p_i, q_i in zip(p[0].tolist(), q[0].tolist()):
            previous, current = current, p_i * current - q_i * previous
            if abs(current) > 2.0**300:
                bumps[len(mantissas)] = e = math.frexp(abs(current))[1]
                previous, current = previous * math.ldexp(1.0, -e), current * math.ldexp(1.0, -e)
            mantissas.append(current)
        return np.array([mantissas]), np.cumsum(bumps)[None]
    p, q = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    mantissas, bumps = np.ones((p.shape[0] + 1, p.shape[1])), np.zeros((p.shape[0] + 1, p.shape[1]), dtype=int)
    previous, current = np.zeros(p.shape[1]), mantissas[0]
    bumped = False  # numpy's cumsum down a short first axis costs more than a short recurrence
    with np.errstate(over="ignore"):  # in the test below
        for i in range(p.shape[0]):
            previous, current = current, p[i] * current - q[i] * previous
            if not current @ current <= 2.0**600:  # some |y| may pass 2^300
                bumped, bumps[i + 1] = True, np.where(np.abs(current) > 2.0**300, np.frexp(current)[1], 0)
                previous, current = np.ldexp(previous, -bumps[i + 1]), np.ldexp(current, -bumps[i + 1])
            mantissas[i + 1] = current
    return mantissas.T, (np.cumsum(bumps, axis=0) if bumped else bumps).T


def bargmann_b_continued(args: Su11Args) -> float:
    """|b|^2 by the hyperbolic continuation of the rotation-element form.

    The squared element is rebuilt from a terminating Jacobi polynomial of
    degree m+j in cosh(t) with half-angle hyperbolic envelopes, an
    algebraically independent route from `bargmann_b`.
    """
    if np.ndim(args.t):
        raise DomainError("bargmann_b_continued takes one rapidity")
    k = args.k
    two_m, (two_mp,) = _positive_weights(args, "bargmann_b_continued", (args.m_prime,))
    two_mp = int(two_mp)
    if two_mp < two_m:
        two_mp, two_m = two_m, two_mp  # modulus is swap-invariant
    degree = (two_m - k) // 2
    alpha = (two_mp - two_m) // 2
    log_prefactor = (
        math.lgamma((two_mp + k) // 2)
        + math.lgamma((two_m - k) // 2 + 1)
        - math.lgamma((two_m + k) // 2)
        - math.lgamma((two_mp - k) // 2 + 1)
    )
    ch = math.cosh(args.t / 2.0)
    sh = math.sinh(args.t / 2.0)
    poly = jacobi(degree, float(alpha), float(-(two_mp + two_m) // 2), math.cosh(args.t))
    return math.exp(log_prefactor) * ch ** (-(two_mp + two_m)) * sh ** (2 * alpha) * poly * poly


def _family(j: complex, m: float, z: complex, top: float, count: int, ratio: complex) -> tuple[np.ndarray, np.ndarray]:
    """P(a) / P(top) for a = top, top-1, ..., `count` values, as the
    mantissas and shifts of one `_three_term` row; `ratio` is P(top+1)/P(top).

    P(a) = 2F1(-j+a, j+a+1; a+im+1; z) / Gamma(a+im+1) obeys the contiguous
    relation in (a, b, c) -> (a-1, b-1, c-1),
    P(a) = (a+1+im - 2(a+1)z) P(a+1) + z(1-z)(a+1-j)(a+2+j) P(a+2),
    run in the falling direction only, where it is numerically satisfactory
    (Gil, Segura and Temme, Math. Comp. 76, 2007).  It has no divisions,
    so it crosses the poles c = 0, -1, ... of the unregularized function.
    A family of `BOOST_MAX_TERMS` values or more raises EntroineqError
    before its recurrence runs.
    """
    if count >= BOOST_MAX_TERMS:
        raise EntroineqError(
            f"the 2F1 family down to a = -m' = {top - count + 1:g} is longer than the budget of {BOOST_MAX_TERMS} weights"
        )
    up = top - np.arange(count - 1.0)  # a + 1 at each step
    p = up + 1j * m - 2.0 * z * up
    q = -z * (1.0 - z) * (up - j) * (up + 1.0 + j)
    p[:1] -= q[:1] * ratio  # y_1 = p_0 - q_0 P(top+1)/P(top)
    mantissas, shifts = _three_term(p[None], q[None])
    return mantissas[0], shifts[0]


def _branch(log_norm: np.ndarray, a: np.ndarray, im: complex, z: complex, family: tuple[np.ndarray, np.ndarray], two_mps: np.ndarray) -> np.ndarray:
    """exp(log_norm) (1-z)^((a-im)/2) z^((a+im)/2) y 2^shift over a ladder,
    with (y, shift) = `family`, the factors and the shift in log space.

    A value is returned only while its log-space factor stays within
    `LOG_FLOAT_RANGE` and it is 0 or a normal float: one that leaves the
    float range, above or below, raises EntroineqError naming the first
    such m' (doubled in `two_mps`).
    """
    mantissas, shifts = family
    log_factor = log_norm + shifts * math.log(2.0) + (
        _product((a - im) / 2.0, cmath.log(1.0 - z)) + _product((a + im) / 2.0, cmath.log(z))
    )
    inside = np.abs(log_factor.real) <= LOG_FLOAT_RANGE
    with np.errstate(all="ignore"):  # raised below
        value = np.exp(np.where(inside, log_factor, 0.0)) * mantissas
    size = np.abs(value)
    bad = ~(inside & (size < np.inf) & ((size == 0.0) | (size >= np.finfo(float).tiny)))
    if bad.any():
        raise EntroineqError(
            f"the matrix element leaves the float range at z = {z}, m' = {HalfInt(int(two_mps[np.argmax(bad)]))}"
        )
    return value


def c_function(args: Su11Args, weights: Optional[Sequence[HalfIntLike]] = None):
    """Mixed-basis element c^j_{m'm}(t): discrete row label, continuous column.

    c = N(m') (1-z)^((a-im)/2) z^((a+im)/2) P(a) at a = -m' and
    z = (1 + i sinh t)/2, with P the regularized 2F1 of `_family` started
    where it is exact: at a = j = -k/2, P(j) = 1/Gamma(j+1+im) and the
    coefficient of P(j+1) vanishes.  That start cancels the Gamma(j+1+im)
    of N, whose other factors stay in log space, so no 2F1 series and no
    pole is met (m = 0 with even k included).  Given `weights`, returns the
    elements at those m' as a tuple from one family; without, the element
    at `args.m_prime`, the one-weight case of the same route.  Errors past
    the budget or the float range are those of `_family` and `_branch`.
    Only the m' >= -j branch is defined; the complementary branch has no
    closed form here and raises UnsupportedBranchError.  Evaluation only,
    no normalization contract.
    """
    if not args.is_discrete:
        raise DomainError("c_function needs a discrete-series spin j = -k/2")
    if args.series is SeriesKind.DISCRETE_NEGATIVE:
        raise UnsupportedBranchError("the m' <= j mixed-basis branch is not defined")
    if np.ndim(args.t):
        raise DomainError("c_function takes one rapidity")
    if weights is None:
        return c_function(args, (args.m_prime,))[0]
    _require_rapidity(args.t, CONTINUOUS_COSH_LIMIT)
    k = args.k
    two_mps = _lattice_weights(k, weights, True)
    if not two_mps.size:
        return ()
    j = -k / 2.0
    m = float(args.m)
    im = 1j * m
    z = (1.0 + 1j * math.sinh(args.t)) / 2.0
    x = (two_mps - k) // 2  # a = -m' = j - x
    mantissas, shifts = _family(j, m, z, j, int(x.max()) + 1, 0.0)
    # N(m') = sqrt(2) 2^(-j-2) Gamma((-j-im)/2) Gamma((-j+1+im)/2) / (pi sqrt(Gamma(m'+k/2) Gamma(m'-k/2+1)))
    # times the Gamma(j+1+im) that P(j) cancels; both lgamma arguments are positive integers
    log_constant = (-j - 1.5) * math.log(2.0) - math.log(math.pi) + log_gamma((-j - im) / 2.0) + log_gamma((-j + 1.0 + im) / 2.0)
    log_norm = log_constant - 0.5 * np.array([math.lgamma(k + v) + math.lgamma(v + 1) for v in x.tolist()])
    return tuple(_branch(log_norm, -two_mps / 2.0, im, z, (mantissas[x], shifts[x]), two_mps).tolist())


def l_function(args: Su11Args, weights: Optional[Sequence[HalfIntLike]] = None):
    """Continuous-series element l^j_{m'm sigma}(t) for j = -1/2 + i s.

    Combines the branches a = m' at z+ = (1 - i sinh t)/2 and a = -m' at
    z- = (1 + i sinh t)/2 with the parity label sigma; each branch is
    (1-z)^((a-im)/2) z^((a+im)/2) P(a) with P the regularized 2F1 of
    `_family`, whose 1/Gamma(a+1+im) is the factor of the parity
    normalization.  Each family falls over a = A..-A, A = max |m'|, from
    seeds at A+1 and A by Euler's transformation (DLMF 15.8.1),
    P(a) = (1-z)^(im-a) 2F1(j+1+im, -j+im; a+im+1; z) / Gamma(a+im+1),
    whose numerator parameters do not grow with a.  Given `weights`,
    returns the elements at those m' as a tuple from one family per branch;
    without, the element at `args.m_prime`, which is bit for bit that weight
    of any ladder with the same A.  Errors past the budget or the float
    range are those of `_family` and `_branch`.
    Evaluation only, no normalization contract.
    """
    if args.is_discrete:
        raise DomainError("l_function needs a continuous-series spin")
    if weights is None:
        return l_function(args, (args.m_prime,))[0]
    two_mps = doubled(weights)
    off = two_mps % 2 != (args.series is SeriesKind.CONTINUOUS_HALF_INTEGER)
    if off.any():
        raise DomainError(f"m' = {HalfInt(int(two_mps[np.argmax(off)]))} is off the {args.series.value} lattice")
    _require_rapidity(args.t, CONTINUOUS_COSH_LIMIT)
    if not two_mps.size:
        return ()
    j = complex(-0.5, args.s)
    m = float(args.m)
    im = 1j * m
    sigma = args.sigma
    try:  # |sin| >= 1/sqrt(2), but it passes the float range once pi |s + m| / 2 > about 710
        denominator = (1j**sigma) * cmath.sin(cmath.pi * (-j + sigma - im) / 2.0)
    except OverflowError:
        raise EntroineqError(f"the parity factor overflows the float range at s = {args.s!r}, m = {m!r}") from None
    constant = cmath.exp((j - 1.0) * math.log(2.0) + log_gamma(-j + im)) / denominator
    parity_sign = -1.0 if sigma % 2 else 1.0
    top = int(np.abs(two_mps).max()) / 2.0
    mp = two_mps / 2.0
    log_upper = log_gamma(mp - j)
    # m' + j + 1 is the conjugate of m' - j, since j = -1/2 + is
    log_norm = 0.5 * (log_upper - log_upper.conjugate())

    def branch(side: int, a: np.ndarray, log_lower: np.ndarray) -> np.ndarray:
        z = (1.0 - side * 1j * math.sinh(args.t)) / 2.0
        (log_above, above), (log_seed, seed) = (
            ((im - b) * cmath.log(1.0 - z) - log_gamma(b + im + 1.0), hyp2f1(j + 1.0 + im, -j + im, b + im + 1.0, z))
            for b in (top + 1.0, top)
        )
        mantissas, shifts = _family(j, m, z, top, int(2.0 * top) + 1, cmath.exp(log_above - log_seed) * above / seed)
        at = (top - a).astype(int)
        return _branch(log_norm - log_lower + log_seed, a, im, z, (mantissas[at] * seed, shifts[at]), two_mps)

    plus, minus = branch(1, mp, log_gamma(-mp - j)), branch(-1, -mp, log_upper)
    return tuple((constant * (plus - parity_sign * minus)).tolist())
