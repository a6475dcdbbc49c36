"""References and correctness checks for benchmark ops.

References come from routes the benchmark owns or from the package's
independent oracles, never from the code path being timed:

- su2 entropies: numpy entropies of `wigner_oracle` columns, and of the
  binomial closed form of the edge column for j = 3/2 and j = 2;
- d-matrices: exact diagonalisation of the J_y generator with
  `numpy.linalg.eigh` (Feng et al., PRE 92, 043307, 2015);
- discrete boost ladders: `bargmann_b_continued`, the Jacobi route;
- continuous ladders: the `hyp2f1` values behind a seeded sample of ladder
  weights, against the installed `mpmath.hyp2f1`.

Tolerances are the package's own: the CLI slack floor, the probability sum
tolerance, and the acceptance criteria for oracle agreement (1e-9),
bistochasticity (1e-10), closed forms (1e-12), hypergeometric identities
(1e-12 relative) and series-route agreement (1e-9).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from entroineq import (
    HalfInt,
    SeriesKind,
    Su11Args,
    bargmann_b_continued,
    enumerate_weights,
    specfun,
    wigner_oracle,
)
from entroineq.cli import SLACK_FLOOR
from entroineq.errors import EntroineqError
from entroineq.probability import SUM_TOLERANCE

from workloads import SCAN_TRUNCATION, Op

TOL_ORACLE = 1e-9  # acceptance criterion 2
TOL_ORTHO = 1e-10  # acceptance criterion 1
TOL_CLOSED = 1e-12  # acceptance criterion 3
TOL_HYP2F1 = 1e-12  # acceptance criterion 7, relative
TOL_ROUTE = 1e-9  # acceptance criterion 8
TOL_MASS = SUM_TOLERANCE
TOL_GRID = 1e-12
#: continuous ops: ladder weights whose hyp2f1 values are checked
HYP2F1_SAMPLES = 4


@dataclass
class Verdict:
    """Outcome of checking one op's output."""

    rows: int = 0
    reasons: set = field(default_factory=set)
    #: accuracy readings, each the worst value seen in this op
    readings: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.reasons.add(reason)

    def read(self, name: str, value: float) -> None:
        self.readings[name] = max(self.readings.get(name, 0.0), float(value))


def grid_values(text: str) -> np.ndarray:
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if not text.endswith("\n") or len(lines) < 3:
        raise ValueError("CSV must hold a header, a data row and end with LF")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _plogp(x: np.ndarray) -> np.ndarray:
    positive = x > 0.0
    return np.where(positive, x * np.log(np.where(positive, x, 1.0)), 0.0)


def _entropy(x: np.ndarray, q) -> np.ndarray:
    """Shannon (q=None) or Tsallis entropy over the last axis."""
    if q is None:
        return -_plogp(x).sum(axis=-1)
    power = np.where(x > 0.0, np.where(x > 0.0, x, 1.0) ** q, 0.0)
    return (power.sum(axis=-1) - 1.0) / (1.0 - q)


def split_entropies(tables: np.ndarray, q) -> np.ndarray:
    """(h_joint, h1, h2, slack) per leading index of a stack of 2-D tables.

    h1 is the entropy of the column sums, h2 of the row sums, as in
    `entroineq.entropy.subadditivity_report`.
    """
    joint = _entropy(tables.reshape(tables.shape[0], -1), q)
    first = _entropy(tables.sum(axis=1), q)
    second = _entropy(tables.sum(axis=2), q)
    return np.stack([joint, first, second, first + second - joint], axis=1)


def bipartite(p: np.ndarray) -> np.ndarray:
    """Stack of vectors -> stack of 2 x ceil(N/2) tables, zero padded."""
    count, n = p.shape
    cols = (n + 1) // 2
    padded = np.zeros((count, 2 * cols))
    padded[:, :n] = p
    return padded.reshape(count, 2, cols)


def pairs(p: np.ndarray) -> np.ndarray:
    """Vector -> 1-stack of ceil(N/2) x 2 tables of consecutive pairs."""
    padded = np.zeros(len(p) + len(p) % 2)
    padded[: len(p)] = p
    return padded.reshape(1, -1, 2)


def edge_column_closed_form(two_j: int, theta: np.ndarray) -> np.ndarray:
    """|d^j_{m',j}|^2 = C(2j, j+m') cos^(2(j+m'))(t/2) sin^(2(j-m'))(t/2)."""
    c2 = np.cos(theta / 2.0)[:, None] ** 2
    s2 = np.sin(theta / 2.0)[:, None] ** 2
    i = np.arange(two_j + 1)
    binom = np.array([math.comb(two_j, int(k)) for k in i], dtype=float)
    return binom * c2**i * s2 ** (two_j - i)


def eigh_dmatrix(two_j: int, theta: float) -> np.ndarray:
    """d^j(theta) = exp(-i theta J_y) by exact diagonalisation of J_y."""
    n = two_j + 1
    two_m = np.arange(-two_j, two_j - 1, 2)
    coupling = np.sqrt((two_j - two_m) * (two_j + two_m + 2)) / 2.0
    jy = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    jy[idx + 1, idx] = 0.5j * coupling
    jy[idx, idx + 1] = -0.5j * coupling
    w, v = np.linalg.eigh(jy)
    return ((v * np.exp(-1j * theta * w)) @ v.conj().T).real


def _floats(row: list[str], start: int, stop: int) -> list[float]:
    return [float(v) for v in row[start:stop]]


class Checker:
    """Holds the references of one op list and checks op outputs."""

    def __init__(self) -> None:
        self._oracle: dict = {}
        self._ladders: dict = {}
        self._hyp2f1: dict = {}

    # -- references -------------------------------------------------------

    def prepare(self, op: Op) -> None:
        """Compute the references `check` will need for `op`."""
        if op.kind in ("su2-check", "su2-tsallis"):
            self._oracle_columns(op.params["two_j"], op.params["grid"])
        elif op.kind == "dmat":
            self._dmat(op.params["two_j"], op.params["theta"])
        elif op.kind == "su11-scan":
            p = op.params
            self._ladder(p["k"], p["two_m"], p["t"], SCAN_TRUNCATION)
        elif op.kind == "su11-continuous":
            self._hyp2f1_sample(op)

    def _oracle_columns(self, two_j: int, grid: str) -> np.ndarray:
        key = (two_j, grid)
        if key not in self._oracle:
            j = HalfInt(two_j)
            self._oracle[key] = np.array(
                [wigner_oracle(j, float(theta)) ** 2 for theta in grid_values(grid)]
            )
        return self._oracle[key]

    def _dmat(self, two_j: int, theta: float) -> np.ndarray:
        key = ("dmat", two_j, theta)
        if key not in self._oracle:
            self._oracle[key] = eigh_dmatrix(two_j, theta)
        return self._oracle[key]

    def _ladder(self, k: int, two_m: int, t: float, length: int) -> np.ndarray:
        key = (k, two_m, t)
        ladder = self._ladders.get(key, np.empty(0))
        if len(ladder) < length:
            extra = [
                bargmann_b_continued(
                    Su11Args(
                        series=SeriesKind.DISCRETE_POSITIVE,
                        m_prime=HalfInt(k + 2 * i),
                        m=HalfInt(two_m),
                        t=t,
                        k=k,
                    )
                )
                for i in range(len(ladder), length)
            ]
            ladder = np.concatenate([ladder, extra])
            self._ladders[key] = ladder
        return ladder[:length]

    def _hyp2f1_sample(self, op: Op) -> float:
        """Worst relative error of specfun.hyp2f1 on the op's sampled weights."""
        if op.key in self._hyp2f1:
            return self._hyp2f1[op.key]
        import mpmath

        p = op.params
        truncation = p["truncation"]
        rng = random.Random(p["sample_seed"])
        positions = [truncation - 1] + rng.sample(range(truncation - 1), HYP2F1_SAMPLES - 1)
        kind = SeriesKind("continuous_" + p["lattice"].replace("-", "_"))
        weights = enumerate_weights(kind, None, truncation)
        j = complex(-0.5, p["s"])
        im = 1j * p["m"]
        sinh_t = math.sinh(p["t"])
        worst = 0.0
        for position in positions:
            mp = float(weights[position])
            for a, z in ((mp, (1.0 - 1j * sinh_t) / 2.0), (-mp, (1.0 + 1j * sinh_t) / 2.0)):
                args = (-j + a, j + a + 1.0, a + im + 1.0, z)
                exact = complex(mpmath.hyp2f1(*args))
                try:
                    value = specfun.hyp2f1(*args)
                except EntroineqError:
                    value = complex("nan")
                error = abs(value - exact) / abs(exact)
                worst = max(worst, error if math.isfinite(error) else math.inf)
        self._hyp2f1[op.key] = worst
        return worst

    # -- checks -----------------------------------------------------------

    def check_cli(self, op: Op, code: int, text: str) -> Verdict:
        verdict = Verdict()
        if code != 0:
            verdict.fail(f"exit={code}")
            return verdict
        try:
            header, rows = parse_csv(text)
            check = getattr(self, "_check_" + op.kind.replace("-", "_"))
            check(op, header, rows, verdict)
        except (ValueError, IndexError, EntroineqError) as exc:
            verdict.fail(f"format:{exc}")
        if not verdict.reasons:
            verdict.rows = len(rows)
        return verdict

    def _check_su2_check(self, op: Op, header, rows, verdict: Verdict) -> None:
        p = op.params
        two_j, two_m, q = p["two_j"], p["two_m"], p["q"]
        asserted = q is None or q > 1.0
        expected_header = ["theta", "h_joint", "h1", "h2", "lhs", "slack"]
        if q is not None:
            expected_header.append("mode")
        if header != expected_header or len(rows) != len(grid_values(p["grid"])):
            raise ValueError("unexpected header or row count")
        thetas = grid_values(p["grid"])
        squared = self._oracle_columns(two_j, p["grid"])[:, :, (two_m + two_j) // 2]
        reference = split_entropies(bipartite(squared), q)
        closed = None
        if two_m == two_j and two_j in (3, 4):
            closed_p = edge_column_closed_form(two_j, thetas)
            if np.max(np.abs(closed_p - squared)) > TOL_CLOSED:
                verdict.fail("closed_form")
            closed = split_entropies(bipartite(closed_p), q)
        mode = "asserted" if asserted else "report_only"
        for index, row in enumerate(rows):
            theta, h_joint, h1, h2, lhs, slack = _floats(row, 0, 6)
            if q is not None and row[6] != mode:
                verdict.fail("mode")
            if abs(theta - thetas[index]) > TOL_GRID:
                verdict.fail("grid")
            got = np.array([h_joint, h1, h2, slack])
            error = float(np.max(np.abs(got - reference[index])))
            verdict.read("slack", abs(slack - reference[index][3]))
            if error > TOL_ORACLE or abs(lhs - (h1 + h2)) > TOL_ORACLE:
                verdict.fail("oracle")
            if closed is not None and float(np.max(np.abs(got - closed[index]))) > TOL_ORACLE:
                verdict.fail("closed_form")
            if asserted and slack < SLACK_FLOOR:
                verdict.fail("slack_floor")

    _check_su2_tsallis = _check_su2_check

    def _check_dmat(self, op: Op, header, rows, verdict: Verdict) -> None:
        two_j = op.params["two_j"]
        labels = [HalfInt(d) for d in range(-two_j, two_j + 1, 2)]
        if header != ["m_prime"] + [f"m={label}" for label in labels]:
            raise ValueError("unexpected header")
        if [row[0] for row in rows] != [str(label) for label in labels]:
            raise ValueError("unexpected row labels")
        matrix = np.array([_floats(row, 1, len(row)) for row in rows])
        reference = self._dmat(two_j, op.params["theta"])
        error = float(np.max(np.abs(matrix - reference)))
        verdict.read("dmatrix", error)
        if error > TOL_ORACLE:
            verdict.fail("eigh")
        if np.max(np.abs(matrix @ matrix.T - np.eye(two_j + 1))) > TOL_ORTHO:
            verdict.fail("orthogonality")

    def _check_su11_discrete(self, op: Op, header, rows, verdict: Verdict) -> None:
        p = op.params
        if header != ["t", "truncation", "captured_mass", "h_joint", "h1", "h2", "slack"]:
            raise ValueError("unexpected header")
        ts = grid_values(p["grid"])
        if len(rows) != len(ts):
            raise ValueError("unexpected row count")
        for index, row in enumerate(rows):
            t = float(row[0])
            truncation = int(row[1])
            mass, h_joint, h1, h2, slack = _floats(row, 2, 7)
            if abs(t - ts[index]) > TOL_GRID:
                verdict.fail("grid")
            ladder = self._ladder(p["k"], p["two_m"], t, truncation)
            ref_mass = math.fsum(ladder)
            reference = split_entropies(pairs(ladder / ref_mass), None)[0]
            residual = max(
                abs(mass - ref_mass),
                float(np.max(np.abs(np.array([h_joint, h1, h2, slack]) - reference))),
            )
            self._discrete_checks(verdict, mass, residual, slack)

    def check_scan(self, op: Op, dist, report) -> Verdict:
        p = op.params
        verdict = Verdict()
        ladder = self._ladder(p["k"], p["two_m"], p["t"], SCAN_TRUNCATION)
        values = np.asarray(dist.values)
        if len(values) != len(ladder):
            verdict.fail("format:truncation")
            return verdict
        residual = float(np.max(np.abs(values - ladder)))
        self._discrete_checks(verdict, dist.captured_mass, residual, report.slack)
        if not verdict.reasons:
            verdict.rows = 1
        return verdict

    @staticmethod
    def _discrete_checks(verdict: Verdict, mass: float, residual: float, slack: float) -> None:
        verdict.read("mass", abs(mass - 1.0))
        verdict.read("cross_route", residual)
        if not abs(mass - 1.0) <= TOL_MASS:
            verdict.fail("mass")
        if not residual <= TOL_ROUTE:
            verdict.fail("cross_route")
        if not slack >= SLACK_FLOOR:
            verdict.fail("slack_floor")

    def _check_su11_continuous(self, op: Op, header, rows, verdict: Verdict) -> None:
        if header != ["t", "truncation", "raw_mass", "h_joint", "h1", "h2", "slack"]:
            raise ValueError("unexpected header")
        if len(rows) != 1 or int(rows[0][1]) != op.params["truncation"]:
            raise ValueError("unexpected rows")
        if not all(math.isfinite(v) for v in _floats(rows[0], 0, 7)):
            verdict.fail("finite")
        worst = self._hyp2f1_sample(op)
        verdict.read("hyp2f1", worst)
        if not worst <= TOL_HYP2F1:
            verdict.fail("hyp2f1_vs_mpmath")
