"""Spans at layer boundaries, installed only for a traced run.

A timing wrapper replaces a public name at the module attribute where one
layer looks the other up (for example `entroineq.su2.column_distribution`,
read by `su2_subadditivity` at call time).  Spans nest strictly, since the
benchmark is one thread, so a span's self time is its duration minus the
summed durations of its direct children.  `remove` restores every
attribute.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

from entroineq import cli, entropy, specfun, su2, su11
from entroineq.halfint import HalfInt

#: (module, attribute, span name).  Several attributes may share a span name
#: when they are one layer's entry points.
SPANS = (
    (cli, "dmatrix", "specfun.dmatrix"),
    (cli, "su2_subadditivity", "su2.su2_subadditivity"),
    (cli, "su2_tsallis_subadditivity", "su2.su2_tsallis_subadditivity"),
    (cli, "discrete_series_distribution", "su11.discrete_series_distribution"),
    (cli, "su11_subadditivity", "su11.su11_subadditivity"),
    (cli, "continuous_series_report", "su11.continuous_series_report"),
    (su11, "discrete_series_distribution", "su11.discrete_series_distribution"),
    (su11, "su11_subadditivity", "su11.su11_subadditivity"),
    (su2, "column_distribution", "su2.column_distribution"),
    (su2, "bipartite_split", "probability.split"),
    (su11, "interleave_split", "probability.split"),
    (entropy, "marginals", "probability.marginals"),
    (su2, "subadditivity_report", "entropy.report"),
    (su2, "tsallis_subadditivity_report", "entropy.report"),
    (su11, "subadditivity_report", "entropy.report"),
    (su11, "bargmann_b", "specfun.bargmann_b"),
    (su11, "l_function", "specfun.l_function"),
    (specfun, "jacobi", "specfun.jacobi"),
    (specfun, "hyp2f1", "specfun.hyp2f1"),
    (specfun, "log_gamma", "specfun.log_gamma"),
)

#: Exact counts taken from a wrapped call's arguments and result.
COUNTS = {
    # the three-term recurrence runs once per degree
    "specfun.jacobi": ("specfun.jacobi.recurrence_steps", lambda args, kwargs, result: args[0]),
    "su11.discrete_series_distribution": (
        "su11.ladder_terms",
        lambda args, kwargs, result: len(result.values),
    ),
    "su11.continuous_series_report": (
        "su11.ladder_terms",
        lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["truncation"],
    ),
}


class Tracer:
    """Records spans and per-name calls, self time and counts."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        #: (span id, parent id or -1, op index, name, start ns, end ns)
        self.spans: list[tuple] = []
        self.keep_spans = False
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        counted = COUNTS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if self.keep_spans:
                    parent = stack[-1][0] if stack else -1
                    self.spans.append((span_id, parent, self.op, name, frame[1], end))
            if counted is not None:
                self.counts[counted[0]] += counted[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in SPANS:
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        coerce = HalfInt.__dict__["coerce"]
        self._undo.append((HalfInt, "coerce", coerce))
        counts = self.counts

        def counted_coerce(value):
            counts["halfint.coerce.calls"] += 1
            return coerce.__func__(value)

        HalfInt.coerce = staticmethod(counted_coerce)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path, op_keys: list[str]) -> None:
        """Write the kept spans as gzip JSON, times relative to the first."""
        origin = min((span[4] for span in self.spans), default=0)
        names = sorted({span[3] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "columns": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "names": names,
            "ops": op_keys,
            "spans": [
                [s[0], s[1], s[2], index[s[3]], s[4] - origin, s[5] - origin]
                for s in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
