"""End-to-end verification gate: one test per release criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Each criterion is asserted at its stated tolerance.
"""

import math

import mpmath
import numpy as np

from entroineq import (
    BistochasticMatrix,
    Distribution,
    HalfInt,
    SeriesKind,
    Su11Args,
    bargmann_b_continued,
    closed_form_check,
    discrete_series_distribution,
    dmatrix,
    hyp2f1,
    shannon,
    su2_subadditivity,
    su2_tsallis_subadditivity,
    su11_subadditivity,
    subadditivity_report,
    tsallis_subadditivity_report,
    wigner_d,
    wigner_oracle,
)
from entroineq.cli import main

TWO_PI = 2.0 * math.pi
ROOTS = (0.0, math.pi, TWO_PI)


def _line(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d}: {status}{suffix}")


def test_criterion_01_bistochasticity():
    worst = 0.0
    for two_j in range(1, 11):
        j = HalfInt(two_j)
        for theta in np.linspace(0.0, TWO_PI, 64):
            squared = dmatrix(j, float(theta)) ** 2
            worst = max(
                worst,
                float(np.max(np.abs(squared.sum(axis=0) - 1.0))),
                float(np.max(np.abs(squared.sum(axis=1) - 1.0))),
            )
    # the squared matrix is itself a valid bistochastic object
    BistochasticMatrix.from_array(dmatrix(HalfInt(10), 1.234) ** 2)
    ok = worst <= 1e-10
    _line(1, ok, f"worst row/col deviation {worst:.3e}")
    assert ok, f"bistochasticity violated: {worst:.3e} > 1e-10"


def test_criterion_02_oracle_equivalence():
    worst = 0.0
    for two_j in range(1, 9):
        j = HalfInt(two_j)
        for theta in np.linspace(0.0, TWO_PI, 16):
            diff = float(
                np.max(np.abs(dmatrix(j, float(theta)) - wigner_oracle(j, float(theta))))
            )
            worst = max(worst, diff)
    ok = worst <= 1e-9
    _line(2, ok, f"worst entrywise difference {worst:.3e}")
    assert ok, f"formula and oracle disagree: {worst:.3e} > 1e-9"


def test_criterion_03_closed_form_reproduction():
    worst = 0.0
    for j in ("3/2", 2):
        for theta in np.linspace(0.0, TWO_PI, 64):
            worst = max(worst, closed_form_check(j, float(theta)))
    ok = worst <= 1e-12
    _line(3, ok, f"worst closed-form deviation {worst:.3e}")
    assert ok, f"closed forms deviate: {worst:.3e} > 1e-12"


def _reference_slack(two_j: int, theta: float) -> float:
    """Shannon slack of the split m = j column, evaluated at 40 digits.

    The m = j column is binomial, |d^j_{m',j}|^2 = C(2j, j+m')
    cos^{2(j+m')}(theta/2) sin^{2(j-m')}(theta/2); it is laid out as in
    `bipartite_split`: 2 x ceil(N/2), zero-padded.
    """
    with mpmath.workdps(40):
        half = mpmath.mpf(theta) / 2
        cos_sq, sin_sq = mpmath.cos(half) ** 2, mpmath.sin(half) ** 2
        column = [
            mpmath.binomial(two_j, k) * cos_sq**k * sin_sq ** (two_j - k)
            for k in range(two_j + 1)
        ]
        cols = (len(column) + 1) // 2
        column += [mpmath.mpf(0)] * (2 * cols - len(column))
        rows = (column[:cols], column[cols:])

        def entropy(values):
            return -mpmath.fsum(v * mpmath.log(v) for v in values if v > 0)

        slack = (
            entropy([mpmath.fsum(row) for row in rows])
            + entropy([mpmath.fsum(pair) for pair in zip(*rows)])
            - entropy(column)
        )
        return float(slack)


def test_criterion_04_figure_reproduction():
    grid = tuple(np.linspace(0.0, TWO_PI, 256))
    failures = []
    detail = []
    for j in ("3/2", 2):
        jj = HalfInt.coerce(j)
        slacks = np.array([su2_subadditivity(jj, jj, theta).slack for theta in grid])
        reference = np.array([_reference_slack(jj.doubled, theta) for theta in grid])

        floor = float(slacks.min())
        if floor < -1e-12:
            failures.append(f"j={j}: slack {floor:.3e} < -1e-12")

        for root in ROOTS:
            at_root = su2_subadditivity(jj, jj, root).slack
            if abs(at_root) > 1e-9:
                failures.append(f"j={j}: slack {at_root:.3e} at root {root:.4f}")

        deviation = np.abs(slacks - reference)
        worst = int(deviation.argmax())
        if deviation[worst] > 1e-12:
            failures.append(
                f"j={j}: slack {slacks[worst]:.6e} at theta={grid[worst]:.4f} "
                f"deviates from the reference {reference[worst]:.6e} by more than 1e-12"
            )

        qualifying = [
            i for i, theta in enumerate(grid)
            if min(abs(theta - root) for root in ROOTS) > 0.1
        ]
        for i in qualifying:
            if not (slacks[i] > 0.0 and deviation[i] <= 1e-5 * reference[i]):
                failures.append(
                    f"j={j}: slack {slacks[i]:.6e} at theta={grid[i]:.4f} "
                    f"(> 0.1 from any root) is not positive within 1e-5 relative "
                    f"of the reference {reference[i]:.6e}"
                )
        margin = min(qualifying, key=lambda i: slacks[i])
        detail.append(
            f"j={j}: min qualifying slack {slacks[margin]:.3e} "
            f"(reference {reference[margin]:.3e}) at theta={grid[margin]:.4f}, "
            f"worst abs deviation {deviation[worst]:.1e}"
        )
    ok = not failures
    _line(4, ok, "; ".join(detail))
    assert ok, "figure reproduction violated: " + "; ".join(failures)


def test_criterion_05_symmetry_suite():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        two_j = int(rng.integers(1, 11))
        two_mp = int(rng.integers(0, two_j + 1)) * 2 - two_j
        two_m = int(rng.integers(0, two_j + 1)) * 2 - two_j
        theta = float(rng.uniform(0.0, TWO_PI))
        j, mp, m = HalfInt(two_j), HalfInt(two_mp), HalfInt(two_m)
        sign = -1.0 if ((two_mp - two_m) // 2) % 2 else 1.0
        base = wigner_d(j, mp, m, theta)
        worst = max(
            worst,
            abs(base - wigner_d(j, mp, m, theta)),
            abs(base - wigner_d(j, -m, -mp, theta)),
            abs(base - sign * wigner_d(j, m, mp, theta)),
            abs(base - sign * wigner_d(j, -mp, -m, theta)),
        )
    ok = worst <= 1e-12
    _line(5, ok, f"worst relation residual {worst:.3e}")
    assert ok, f"symmetry relations violated: {worst:.3e} > 1e-12"


def _random_tables(rng, count):
    tables = []
    for _ in range(count):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 6))
        raw = rng.random(n1 * n2) + 1e-4
        tables.append(Distribution((raw / raw.sum()).reshape(n1, n2)))
    return tables


def test_criterion_06_tsallis():
    worst = 0.0
    for j in ("3/2", 2):
        jj = HalfInt.coerce(j)
        for q in (1.5, 2.0, 3.0):
            for theta in np.linspace(0.0, TWO_PI, 64):
                worst = min(worst, su2_tsallis_subadditivity(jj, jj, float(theta), q).slack)
    rng = np.random.default_rng(23)
    for table in _random_tables(rng, 1000):
        for q in (1.5, 2.0, 3.0):
            worst = min(worst, tsallis_subadditivity_report(table, q).slack)

    limit_gap = 0.0
    for j in ("3/2", 2):
        jj = HalfInt.coerce(j)
        for theta in (0.9, math.pi / 2, 2.4):
            shannon_report = su2_subadditivity(jj, jj, theta)
            tsallis_report = su2_tsallis_subadditivity(jj, jj, theta, 1.0 + 1e-6)
            limit_gap = max(
                limit_gap,
                abs(tsallis_report.h_joint - shannon_report.h_joint),
                abs(tsallis_report.h_first - shannon_report.h_first),
                abs(tsallis_report.h_second - shannon_report.h_second),
                abs(tsallis_report.slack - shannon_report.slack),
            )
    ok = worst >= -1e-12 and limit_gap < 1e-5
    _line(6, ok, f"min slack {worst:.3e}, q->1 gap {limit_gap:.3e}")
    assert worst >= -1e-12, f"Tsallis slack dropped to {worst:.3e}"
    assert limit_gap < 1e-5, f"q->1 limit off by {limit_gap:.3e}"


def test_criterion_07_hypergeometric():
    assert hyp2f1(0.7, -1.3, 2.1, 0.0) == 1.0 + 0.0j
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(20):
        a = complex(rng.uniform(0.1, 2.5), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
        z = rng.uniform(0.05, 0.8) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        z = complex(z)
        relative = abs(hyp2f1(a, b, b, z) - (1.0 - z) ** (-a)) / abs((1.0 - z) ** (-a))
        worst = max(worst, relative)
    ok = worst <= 1e-12
    _line(7, ok, f"worst relative error {worst:.3e}")
    assert ok, f"binomial identity violated: {worst:.3e} > 1e-12"


def test_criterion_08_discrete_series():
    worst_mass = 0.0
    worst_route = 0.0
    worst_slack = 0.0
    for k in (1, 2, 3, 4):
        m = HalfInt(k)  # the edge weight -j
        for t in (0.1, 0.5, 1.0, 1.5):
            dist = discrete_series_distribution(k, m, t)
            worst_mass = max(worst_mass, abs(dist.captured_mass - 1.0))
            for i, value in enumerate(dist.values):
                args = Su11Args(
                    series=SeriesKind.DISCRETE_POSITIVE,
                    m_prime=HalfInt(k + 2 * i),
                    m=m,
                    t=t,
                    k=k,
                )
                worst_route = max(worst_route, abs(value - bargmann_b_continued(args)))
            worst_slack = min(worst_slack, su11_subadditivity(dist).slack)
    ok = worst_mass <= 1e-8 and worst_route <= 1e-9 and worst_slack >= -1e-10
    _line(
        8,
        ok,
        f"mass dev {worst_mass:.3e}, route dev {worst_route:.3e}, min slack {worst_slack:.3e}",
    )
    assert worst_mass <= 1e-8, f"truncated mass off by {worst_mass:.3e}"
    assert worst_route <= 1e-9, f"series routes disagree by {worst_route:.3e}"
    assert worst_slack >= -1e-10, f"pair/parity slack fell to {worst_slack:.3e}"


def test_criterion_09_entropy_properties():
    rng = np.random.default_rng(31)
    min_slack = math.inf
    for table in _random_tables(rng, 5000):
        report = subadditivity_report(table)
        min_slack = min(min_slack, report.slack)
        if report.slack <= 1e-12:
            grid = table.as_array()
            product = np.outer(grid.sum(axis=1), grid.sum(axis=0))
            assert np.max(np.abs(grid - product)) < 1e-8

    product_worst = 0.0
    for _ in range(5000):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n1))
        q = rng.dirichlet(np.ones(n2))
        table = Distribution(np.outer(p, q))
        report = subadditivity_report(table)
        product_worst = max(product_worst, abs(report.slack))
        grid = table.as_array()
        recon = np.outer(grid.sum(axis=1), grid.sum(axis=0))
        assert np.max(np.abs(grid - recon)) < 1e-8

    values = (0.3, 0.45, 0.25)
    padding_exact = shannon(values) == shannon(values + (0.0, 0.0, 0.0))

    ok = min_slack >= -1e-12 and product_worst <= 1e-12 and padding_exact
    _line(
        9,
        ok,
        f"min slack {min_slack:.3e}, worst product slack {product_worst:.3e}, padding exact {padding_exact}",
    )
    assert min_slack >= -1e-12, f"slack fell to {min_slack:.3e}"
    assert product_worst <= 1e-12, f"product tables show slack {product_worst:.3e}"
    assert padding_exact, "zero padding changed an entropy"


DOCUMENTED_COMMANDS = (
    ["dmat", "--j", "1/2", "--theta", "0"],
    ["dmat", "--j", "2", "--theta", "1.0"],
    ["su2-check", "--j", "3/2", "--m", "3/2", "--grid", "0:6.2832:256"],
    ["su2-check", "--j", "2", "--m", "2", "--grid", "0:6.2832:256"],
    ["su2-tsallis", "--j", "3/2", "--m", "3/2", "--q", "2", "--grid", "0:6.2832:64"],
    ["su11-check", "--k", "2", "--m", "1", "--grid", "0.1:1.5:8"],
    [
        "su11-check", "--series", "continuous", "--s", "0.5", "--sigma", "0",
        "--m", "0.5", "--truncation", "32", "--grid", "0.1:0.5:3",
    ],
    ["hyp2f1", "--a", "1", "--b", "2", "--c", "2", "--z", "0.5"],
)


def test_criterion_10_cli_determinism(tmp_path):
    identical = True
    for index, argv in enumerate(DOCUMENTED_COMMANDS):
        first = tmp_path / f"run_{index}_a.csv"
        second = tmp_path / f"run_{index}_b.csv"
        code_a = main(list(argv) + ["--out", str(first)])
        code_b = main(list(argv) + ["--out", str(second)])
        assert code_a == 0 and code_b == 0, f"command {argv} exited {code_a}/{code_b}"
        if first.read_bytes() != second.read_bytes():
            identical = False

    # usage and domain failures exit 2
    assert main(["su2-tsallis", "--j", "2", "--m", "2", "--q", "1", "--grid", "0:1:2"]) == 2
    assert main(["dmat", "--j", "bad", "--theta", "0"]) == 2
    assert main(["hyp2f1", "--a", "0.5", "--b", "0.5", "--c", "1.5", "--z", "0.97"]) == 2

    _line(10, identical, "byte-identical CSV across repeated runs")
    assert identical, "CSV output differed between identical runs"
