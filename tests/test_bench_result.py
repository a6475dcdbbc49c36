"""A traced su11_ladder benchmark run ends with a strict JSON result line.

`bench/run.py` prints its result as the last stdout line.  A line that is
not JSON, or JSON with a bare NaN or Infinity (which `json.dumps` writes
for non-finite floats), is a malformed result; so is a per-layer metric
of BENCHMARK.json that is missing or not a finite number.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def test_traced_su11_ladder_result_line():
    argv = ["--workload", "su11_ladder", "--seed", "424242", "--seconds", "2", "--trace", "1"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    for metric in per_layer:
        value = result["metrics"][metric["name"]]["value"]
        assert type(value) in (int, float) and math.isfinite(value), (metric["name"], value)
