"""Layered, verified benchmark of the entroineq CLI pipelines.

Usage, from the root of a checkout:

    python3 bench/run.py --workload su2_sweep --seed 1 --seconds 20 --trace 0

The benchmark imports `entroineq` from the checkout's `src/` and drives the
documented CLI in-process through `entroineq.cli.main(argv)`, writing each
op's CSV to a temporary file.  The load is one process and one thread in a
closed loop with one caller; BLAS threads are pinned to 1.

A run (`--trace 0`):

1. set-up: `SETUP_PROBES` fresh processes each import `entroineq`, build the
   parser and run one warm-up op; `setup_s` is their median;
2. references for every op, then one untimed pass that checks every op's
   output against them and hashes it (see verify.py);
3. the timed phase: whole passes over the op list until `--seconds` have
   passed.  An op fails if it raises, exits non-zero, runs over
   `OP_BUDGET_S`, failed its check in step 2, or emits output that differs
   from step 2 or from an earlier run of the same seed and sources.

Timings are scaled to a nominal host speed by `calibrate.Calibrator`; the
unscaled values are printed before the result.

With `--trace 1` the timed phase instead alternates an untraced and a
traced pass of the op list, and the run reports the per-layer metrics
(spans.py).  Counts come from one traced pass; self times are the median
over traced passes, in seconds per pass.

The metric names and units are read from BENCHMARK.json; the last stdout
line is {"correct", "attempted", "failed", "metrics"}.  `correct` is false
when an op fails in a way not declared in `workloads.KNOWN_DEFECTS`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibrator  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

#: Wall-clock budget of one op, over 10x the slowest op at the time of writing.
OP_BUDGET_S = 5.0
#: Fresh processes timed for `setup_s`.
SETUP_PROBES = 9
#: The timed phase stops mid-pass once it has run this many times --seconds.
HARD_STOP_FACTOR = 3.0

#: Accuracy readings: metric name -> key in verify.Verdict.readings.
READINGS = {
    "specfun.dmatrix.max_abs_err": "dmatrix",
    "su2.slack.max_abs_err": "slack",
    "su11.mass.max_abs_dev": "mass",
    "su11.cross_route.max_abs_residual": "cross_route",
    "specfun.hyp2f1.max_rel_err": "hyp2f1",
}


class BudgetExceeded(Exception):
    """An op ran past OP_BUDGET_S."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _src_files() -> list[Path]:
    return sorted((SRC / "entroineq").glob("*.py"))


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in _src_files():
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(ns: argparse.Namespace) -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "src_digest": _src_digest(),
        "src_lines": {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in _src_files()},
    }


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _tail_fraction(count: int) -> float:
    """0.9, or the highest fraction that leaves 10 samples beyond it."""
    return max(0.5, min(0.9, 1.0 - 10.0 / count))


def _setup_times(warmup: tuple, work: Path, calibrator) -> list[float]:
    times = []
    for index in range(SETUP_PROBES):
        calibrator.sample()
        out = work / f"setup{index}.csv"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), str(out), *warmup],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["code"] != 0:
            raise RuntimeError(f"warm-up op {' '.join(warmup)} exited {result['code']}")
        times.append(result["setup_s"])
    return times


class Runner:
    """Runs, checks and times the ops of one workload."""

    def __init__(self, ops, checker, work: Path, calibrator) -> None:
        from entroineq import HalfInt, cli, su11
        from workloads import SCAN_TRUNCATION

        self.ops = ops
        self.checker = checker
        self.cli = cli
        self.su11 = su11
        self.half_int = HalfInt
        self.scan_truncation = SCAN_TRUNCATION
        self.paths = [work / f"op{index}.csv" for index in range(len(ops))]
        #: op index -> (digest, verdict) of the checked first pass
        self.first: dict = {}
        self.readings: dict = {}
        self.calibrator = calibrator

    def execute(self, index: int, cli_main, tracer=None):
        """Run one op under the budget: (seconds, digest, error, payload)."""
        op = self.ops[index]
        path = self.paths[index]
        if op.argv:
            path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = index
        payload, error = None, None
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        start = time.perf_counter()
        try:
            if op.argv:
                payload = cli_main([*op.argv, "--out", str(path)])
            else:
                p = op.params
                dist = self.su11.discrete_series_distribution(
                    p["k"], self.half_int(p["two_m"]), p["t"], truncation=self.scan_truncation
                )
                payload = (dist, self.su11.su11_subadditivity(dist))
        except BudgetExceeded:
            error = "budget"
        except Exception as exc:  # any failure of the program under test is an op failure
            error = f"raised:{type(exc).__name__}"
            payload = str(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        return seconds, (None if error else self._digest(op, path, payload)), error, payload

    @staticmethod
    def _digest(op, path: Path, payload) -> str:
        digest = hashlib.sha256()
        if op.argv:
            digest.update(f"exit={payload}\n".encode())
            if path.exists():
                digest.update(path.read_bytes())
        else:
            dist, report = payload
            digest.update(struct.pack(f"<{len(dist.values)}d", *dist.values))
            fields = (dist.captured_mass, report.h_joint, report.h_first, report.h_second, report.slack)
            digest.update(struct.pack("<5d", *fields))
        return digest.hexdigest()

    def first_pass(self) -> None:
        """Run every op once untimed, check it, and keep its digest."""
        from verify import Verdict

        for index, op in enumerate(self.ops):
            _, digest, error, payload = self.execute(index, self.cli.main)
            if error:
                verdict = Verdict()
                verdict.fail(error)
            elif op.argv:
                text = self.paths[index].read_text(encoding="utf-8") if self.paths[index].exists() else ""
                verdict = self.checker.check_cli(op, payload, text)
            else:
                verdict = self.checker.check_scan(op, *payload)
            for name, value in verdict.readings.items():
                self.readings[name] = max(self.readings.get(name, 0.0), value)
            self.first[index] = (digest, verdict)

    def compare_earlier_runs(self, store: Path) -> None:
        """Require the first-pass digests to match an earlier run's, if any."""
        digests = {self.ops[i].key: d for i, (d, _) in self.first.items()}
        if store.exists():
            earlier = json.loads(store.read_text(encoding="utf-8"))
            for index, (digest, verdict) in self.first.items():
                if earlier.get(self.ops[index].key, digest) != digest:
                    verdict.fail("differs_from_earlier_run")
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            partial = store.with_suffix(".tmp")
            partial.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
            partial.replace(store)

    def run_pass(self, cli_main, deadline: float, tracer=None):
        """One pass over the ops: list of (index, seconds, reasons, rows)."""
        outcomes = []
        for index in range(len(self.ops)):
            if time.perf_counter() > deadline:
                break
            seconds, digest, error, _ = self.execute(index, cli_main, tracer)
            first_digest, verdict = self.first[index]
            if error:
                reasons = {error}
            elif digest != first_digest:
                reasons = {"nondeterministic"}
            else:
                reasons = set(verdict.reasons)
            outcomes.append((index, seconds, reasons, 0 if reasons else verdict.rows))
            self.calibrator.maybe_sample()
        return outcomes


def _end_to_end(runner, ns) -> tuple[dict, list]:
    outcomes = []
    start = time.perf_counter()
    deadline = start + HARD_STOP_FACTOR * ns.seconds
    while True:
        outcomes.extend(runner.run_pass(runner.cli.main, deadline))
        elapsed = time.perf_counter() - start
        if elapsed >= ns.seconds or time.perf_counter() > deadline:
            break
    if not outcomes:
        raise RuntimeError("the first pass did not finish within the time limit")
    calibrator = runner.calibrator
    busy = elapsed - calibrator.spent
    durations = [o[1] for o in outcomes]
    passed = sum(1 for o in outcomes if not o[2])
    tail = _tail_fraction(len(durations))
    raw = {
        "rows_per_s": sum(o[3] for o in outcomes) / busy,
        "op_s_p50": statistics.median(durations),
        "op_s_p90": _percentile(durations, tail),
    }
    print(f"timed phase: {len(outcomes)} ops in {busy:.3f} s, tail percentile p{100 * tail:.0f}")
    print(f"calibration kernel {calibrator.kernel!r}: median {calibrator.kernel_s:.6f} s over "
          f"{len(calibrator.samples)} samples, "
          f"scale factor {calibrator.factor:.4f}")
    print("unscaled: " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    values = {
        "rows_per_s": raw["rows_per_s"] / calibrator.factor,
        "op_s_p50": raw["op_s_p50"] * calibrator.factor,
        "op_s_p90": raw["op_s_p90"] * calibrator.factor,
        "pass_share": passed / len(outcomes),
    }
    return values, outcomes


def _per_layer(runner, ns, op_keys: list[str]) -> tuple[dict, list]:
    from spans import SPANS, Tracer

    tracer = Tracer()
    traced_main = tracer.wrap("cli", runner.cli.main)
    outcomes, overheads = [], []
    self_per_pass = defaultdict(list)
    calls = counts = None
    start = time.perf_counter()
    deadline = start + HARD_STOP_FACTOR * ns.seconds
    while True:
        spent, pass_start = runner.calibrator.spent, time.perf_counter()
        plain = runner.run_pass(runner.cli.main, deadline)
        untraced = time.perf_counter() - pass_start - (runner.calibrator.spent - spent)
        tracer.reset()
        tracer.keep_spans = calls is None
        tracer.install()
        try:
            spent, pass_start = runner.calibrator.spent, time.perf_counter()
            traced = runner.run_pass(traced_main, deadline, tracer)
            traced_wall = time.perf_counter() - pass_start - (runner.calibrator.spent - spent)
        finally:
            tracer.remove()
        complete = len(plain) == len(traced) == len(runner.ops)
        if complete:
            outcomes.extend(plain + traced)
            overheads.append(traced_wall - untraced)
            for name, value in tracer.self_ns.items():
                self_per_pass[name].append(value / 1e9)
            if calls is None:
                calls, counts = dict(tracer.calls), dict(tracer.counts)
                OUT_DIR.mkdir(exist_ok=True)
                spans_path = OUT_DIR / f"spans-{ns.workload}-seed{ns.seed}.json.gz"
                tracer.write_spans(spans_path, op_keys)
                tracer.spans.clear()
                print(f"spans written to {spans_path.relative_to(ROOT)}")
            elif dict(tracer.calls) != calls or dict(tracer.counts) != counts:
                print("warning: traced passes made different call counts")
        if time.perf_counter() - start >= ns.seconds or time.perf_counter() > deadline:
            break
    if calls is None:
        raise RuntimeError("no complete traced pass within the time limit")
    factor = runner.calibrator.factor
    values = {
        "cli.ops": calls.get("cli", 0),
        "trace.overhead_s": statistics.median(overheads) * factor,
        "calibration.kernel_s": runner.calibrator.kernel_s,
    }
    values.update(dict.fromkeys(("specfun.jacobi.recurrence_steps", "su11.ladder_terms", "halfint.coerce.calls"), 0))
    for name in {"cli"} | {span[2] for span in SPANS}:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = statistics.median(self_per_pass[name]) * factor if name in self_per_pass else 0.0
    values.update(counts)
    for metric, reading in READINGS.items():
        values[metric] = min(runner.readings.get(reading, 0.0), sys.float_info.max)
    return values, outcomes


def main() -> int:
    ns = _parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "entroineq" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding BENCHMARK.json and src/entroineq", file=sys.stderr)
        return 2
    if ns.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # entroineq and the modules that use it are imported only after the
    # check above, so a directory without the sources fails cleanly.
    sys.path.insert(0, str(SRC))
    import entroineq

    if Path(entroineq.__file__).resolve().parent != (SRC / "entroineq").resolve():
        print(f"error: imported entroineq from {entroineq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import verify
    import workloads

    if ns.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]
    signal.signal(signal.SIGALRM, _on_alarm)

    env = _environment(ns)
    print("environment " + json.dumps(env, sort_keys=True))
    ops = workloads.build(ns.workload, ns.seed)
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            work = Path(tmp)
            if not ns.trace:
                # import and parser set-up is object churn, on every workload
                setup_calibrator = Calibrator("objects")
                setup = _setup_times(workloads.WARMUP_ARGV[ns.workload], work, setup_calibrator)
                print("set-up probes (s): " + " ".join(f"{s:.4f}" for s in setup))
            phase_start = time.perf_counter()
            checker = verify.Checker()
            for op in ops:
                checker.prepare(op)
            runner = Runner(ops, checker, work, Calibrator(workloads.CALIBRATION_KERNEL[ns.workload]))
            runner.first_pass()
            runner.compare_earlier_runs(
                OUT_DIR / "digests" / f"{ns.workload}-seed{ns.seed}-{env['src_digest']}.json"
            )
            print(f"references and checked first pass: {time.perf_counter() - phase_start:.3f} s")
            if ns.trace:
                values, outcomes = _per_layer(runner, ns, [op.key for op in ops])
            else:
                values, outcomes = _end_to_end(runner, ns)
                values["setup_s"] = statistics.median(setup) * setup_calibrator.factor
                values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    failures: dict = {}
    for index, _, reasons, _ in outcomes:
        if reasons:
            failures.setdefault(index, set()).update(reasons)
    for index, (_, verdict) in runner.first.items():
        if verdict.reasons:
            failures.setdefault(index, set()).update(verdict.reasons)
    unexpected = [i for i, r in failures.items() if not workloads.is_known_defect(ops[i], r)]
    failed = sum(1 for o in outcomes if o[2])
    print(f"ops: {len(ops)} per pass, {len(outcomes)} attempted, {failed} failed, "
          f"failed_share {failed / len(outcomes):.4f}")
    for index in sorted(failures):
        tag = "unexpected" if index in unexpected else "known defect"
        print(f"failed op ({tag}): {ops[index].key}: {', '.join(sorted(failures[index]))}")

    missing = [entry["name"] for entry in wanted if entry["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not measure: {missing}", file=sys.stderr)
        return 1
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in wanted}
    result = {"correct": not unexpected, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(
        result,
        environment=env,
        failures={ops[i].key: sorted(r) for i, r in failures.items()},
        samples=[[index, seconds] for index, seconds, _, _ in outcomes],
        calibration_samples=runner.calibrator.samples,
    )
    (OUT_DIR / f"run-{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
