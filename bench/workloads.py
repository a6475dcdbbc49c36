"""Seeded operation lists for the benchmark workloads.

A workload is a fixed list of operations ("ops") that the benchmark runs
in whole passes.  An op is one CLI command, run in-process through
`entroineq.cli.main(argv)`, or one library check where the CLI cannot
reach.  The seed moves angles, rapidities and the continuous parameter by
small jitters; the list of sizes is fixed, so op-time percentiles of two
seeds compare like with like.

Why these workloads:

su2_sweep
    The paper's figure path: `su2-check`, and `su2-tsallis` at q=2
    (asserted) or q=0.5 (report-only), on every column m >= 0 of
    j = 1/2..4 over 256-angle grids.  The time is spread over per-call
    tuple and dataclass work in probability, entropy, su2 and cli, while
    specfun only sees Jacobi degrees below 9.  Batched tables and entropies
    should show here; a Jacobi-degree optimisation should barely move it.

dmatrix_large_j
    `dmat` for integer and half-odd j from 20 to 60, at angles in
    [0.8, 2.4], away from the small angles where an op runs up to 20%
    slower.  Most of the time is in `specfun.jacobi`, which grows as
    O(j^3), and in formatting up to 14,641 floats.  It never touches
    probability or entropy, so it is the no-change control for table and
    entropy work, and the workload where a batched or eigh d-matrix route
    shows.

su11_ladder
    Three parts, the discrete and continuous parts of roughly equal time:
    adaptive discrete `su11-check` sweeps for k = 1, 2, 3 at column weights
    m <= 7/2, where the hypergeometric route is well conditioned; a
    fixed-truncation library scan (`discrete_series_distribution(...,
    truncation=400)` then `su11_subadditivity`) with m up to 61/2; and
    continuous `su11-check` at truncations 128-256 for t up to 1.2, where
    `hyp2f1` takes most of the time.  The scan holds the documented
    discrete-series defect (m=31/2 at t=1.7, m=41/2 and m=61/2 at t=1.5,
    and the other large-m points it hits), so a fix shows as a higher
    `pass_share`.  The scan grid does not depend on the seed, so the number
    of failing points is the same for every seed.  The defect parameters
    reach only the fixed-truncation scan: the adaptive path does not
    terminate there (`su11-check --k 3 --m 31/2 --grid 1.7:1.7:1` ran 427 s
    before raising ConvergenceError at 1e5 terms).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi

#: su2_sweep: spins 2j = 1..8, 256-angle grids.
SU2_TWO_J = range(1, 9)
SU2_GRID_POINTS = 256

#: dmatrix_large_j: j = 20, 25, ..., 60, each also as j + 1/2.
DMAT_TWO_J = tuple(two_j + half for two_j in range(40, 121, 10) for half in (0, 1))

#: su11_ladder, adaptive part: column weights two_m = k, k+2, k+4.
ADAPTIVE_GRID_POINTS = 64
#: su11_ladder, fixed-truncation scan.
SCAN_TRUNCATION = 400
SCAN_TWO_M = {1: (1, 21, 31, 41, 51, 61), 2: (2, 20, 30, 40, 50, 60), 3: (3, 21, 31, 41, 51, 61)}
SCAN_T = (0.5, 1.0, 1.5, 1.7)
#: su11_ladder, continuous part: ladder lengths and rapidity strata.
CONTINUOUS_TRUNCATIONS = (128, 192, 256)
CONTINUOUS_T = (0.3, 0.75, 1.2)

#: Checks that fail because of a known program defect, per op kind.  A
#: failure of any other check, or of any other op kind, is unexpected and
#: makes the run report `correct: false`.  Known failures still count in
#: `failed` and lower `pass_share`.
KNOWN_DEFECTS = {
    # bargmann_b cancels catastrophically as m grows; the upper side of the
    # captured mass is never checked by the library.
    "su11-scan": frozenset({"mass", "cross_route", "raised:NormalizationError"}),
    # the direct 2F1 series loses every digit once |m'| exceeds about 10.
    "su11-continuous": frozenset({"hyp2f1_vs_mpmath"}),
}


@dataclass
class Op:
    """One benchmark operation and the parameters its check needs."""

    kind: str
    key: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


def _half(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def _su2_sweep(rng: random.Random) -> list[Op]:
    ops = []
    tsallis_q = (2.0, 0.5)
    index = 0
    for two_j in SU2_TWO_J:
        start = rng.uniform(0.0, 0.02)
        stop = TWO_PI - rng.uniform(0.0, 0.02)
        grid = f"{start:.6f}:{stop:.6f}:{SU2_GRID_POINTS}"
        for two_m in range(two_j % 2, two_j + 1, 2):
            base = {"two_j": two_j, "two_m": two_m, "grid": grid}
            j, m = _half(two_j), _half(two_m)
            argv = ("su2-check", "--j", j, "--m", m, "--grid", grid)
            ops.append(Op("su2-check", " ".join(argv), argv, dict(base, q=None)))
            q = tsallis_q[index % 2]
            index += 1
            argv = ("su2-tsallis", "--j", j, "--m", m, "--q", repr(q), "--grid", grid)
            ops.append(Op("su2-tsallis", " ".join(argv), argv, dict(base, q=q)))
    return ops


def _dmatrix_large_j(rng: random.Random) -> list[Op]:
    ops = []
    for two_j in DMAT_TWO_J:
        theta = f"{rng.uniform(0.8, 2.4):.6f}"
        argv = ("dmat", "--j", _half(two_j), "--theta", theta)
        ops.append(Op("dmat", " ".join(argv), argv, {"two_j": two_j, "theta": float(theta)}))
    return ops


def _su11_ladder(rng: random.Random) -> list[Op]:
    ops = []
    for k in (1, 2, 3):
        for two_m in (k, k + 2, k + 4):
            start = 0.1 + rng.uniform(0.0, 0.05)
            stop = 1.7 - rng.uniform(0.0, 0.05)
            grid = f"{start:.6f}:{stop:.6f}:{ADAPTIVE_GRID_POINTS}"
            argv = ("su11-check", "--k", str(k), "--m", _half(two_m), "--grid", grid)
            params = {"k": k, "two_m": two_m, "grid": grid}
            ops.append(Op("su11-discrete", " ".join(argv), argv, params))
    for k, weights in SCAN_TWO_M.items():
        for two_m in weights:
            for t in SCAN_T:
                key = f"scan k={k} m={_half(two_m)} t={t} truncation={SCAN_TRUNCATION}"
                ops.append(Op("su11-scan", key, (), {"k": k, "two_m": two_m, "t": t}))
    for index, (truncation, t_mid) in enumerate(
        (tr, t) for tr in CONTINUOUS_TRUNCATIONS for t in CONTINUOUS_T
    ):
        t = f"{t_mid - rng.uniform(0.0, 0.02):.6f}"
        s = f"{rng.uniform(0.4, 0.6):.6f}"
        sigma = str(index % 2)
        lattice = ("integer", "half-integer")[(index // 2) % 2]
        argv = (
            "su11-check", "--series", "continuous", "--s", s, "--sigma", sigma,
            "--m", "0.5", "--truncation", str(truncation), "--lattice", lattice,
            "--grid", f"{t}:{t}:1",
        )
        params = {
            "s": float(s), "sigma": int(sigma), "m": 0.5, "t": float(t),
            "truncation": truncation, "lattice": lattice,
            "sample_seed": rng.getrandbits(32),
        }
        ops.append(Op("su11-continuous", " ".join(argv), argv, params))
    return ops


WORKLOADS = {
    "su2_sweep": _su2_sweep,
    "dmatrix_large_j": _dmatrix_large_j,
    "su11_ladder": _su11_ladder,
}

#: The calibration kernel (calibrate.KERNELS) that scales each workload's
#: timings: the one whose code is most like the workload's hot path.
CALIBRATION_KERNEL = {
    "su2_sweep": "objects",
    "dmatrix_large_j": "float",
    "su11_ladder": "objects",
}

#: A fixed small op per workload, run once in each fresh set-up process.
WARMUP_ARGV = {
    "su2_sweep": ("su2-check", "--j", "2", "--m", "2", "--grid", "0:6.2832:256"),
    "dmatrix_large_j": ("dmat", "--j", "20", "--theta", "1.0"),
    "su11_ladder": ("su11-check", "--k", "2", "--m", "1", "--grid", "0.1:1.5:8"),
}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of `workload`; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def is_known_defect(op: Op, reasons: set[str]) -> bool:
    """True when every failed check of `op` is a declared known defect."""
    return bool(reasons) and reasons <= KNOWN_DEFECTS.get(op.kind, frozenset())
