"""The benchmark's layer spans still name live attributes, each called on
the path that reaches it: the CLI sweeps, or the oracle for `jacobi`.

`bench/spans.py` times a traced run by replacing module attributes where
one layer looks the next one up.  A rename, or a caller that captures a
function at import time, would silently leave a span at zero calls; these
tests catch both.
"""

import importlib
from pathlib import Path

import pytest

from entroineq import HalfInt, SeriesKind, Su11Args, cli, specfun, su11

BENCH = Path(__file__).resolve().parent.parent / "bench"

SWEEPS = (
    ["su2-check", "--j", "3/2", "--m", "1/2", "--grid", "0.1:3:4"],
    ["su2-tsallis", "--j", "2", "--m", "1", "--q", "2", "--grid", "0.1:3:4"],
    ["su11-check", "--k", "2", "--m", "1", "--grid", "0.1:0.8:3"],
    [
        "su11-check", "--series", "continuous", "--s", "0.5", "--m", "0.5",
        "--truncation", "16", "--grid", "0.1:0.3:2",
    ],
)

#: spans that no sweep reaches: `dmatrix` runs under `dmat` only, and
#: `jacobi` under the `bargmann_b_continued` oracle only (checked below)
OFF_PATH = {"specfun.dmatrix", "specfun.jacobi"}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def run_sweeps(tmp_path):
    for index, argv in enumerate(SWEEPS):
        assert cli.main([*argv, "--out", str(tmp_path / f"{index}.csv")]) == 0


def test_every_span_resolves(spans):
    for module, attr, name in spans.SPANS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_every_span_on_the_sweep_paths_is_called(spans, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_sweeps(tmp_path)
    finally:
        tracer.remove()
    names = {name for _, _, name in spans.SPANS} - OFF_PATH
    assert {name for name in names if tracer.calls[name] == 0} == set()
    assert tracer.counts["su11.ladder_terms"] > 0


def test_the_jacobi_span_is_called_by_the_oracle(spans):
    # the benchmark's discrete-ladder check reaches `jacobi` through the
    # `bargmann_b_continued` oracle
    tracer = spans.Tracer()
    tracer.install()
    try:
        args = Su11Args(SeriesKind.DISCRETE_POSITIVE, HalfInt(8), HalfInt(6), 0.5, k=2)
        assert specfun.bargmann_b_continued(args) > 0.0
    finally:
        tracer.remove()
    assert tracer.calls["specfun.jacobi"] > 0
    assert tracer.counts["specfun.jacobi.recurrence_steps"] > 0


def test_every_wrapped_attribute_is_called(spans, tmp_path, monkeypatch):
    # several attributes share one span name; check each on its own.  The
    # benchmark's library scan reaches the su11 module attributes directly.
    tracer = spans.Tracer()
    keys = []
    for module, attr, name in spans.SPANS:
        if name not in OFF_PATH:
            key = f"{module.__name__}.{attr}"
            keys.append(key)
            monkeypatch.setattr(module, attr, tracer.wrap(key, getattr(module, attr)))
    run_sweeps(tmp_path)
    su11.su11_subadditivity(su11.discrete_series_distribution(2, HalfInt(2), 0.5, truncation=40))
    assert [key for key in keys if tracer.calls[key] == 0] == []
