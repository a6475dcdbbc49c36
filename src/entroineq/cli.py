"""Command-line front end: sweeps and CSV/JSON emission of reports.

Exit codes: 0 all checks pass, 1 an asserted inequality was violated,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .entropy import check_q
from .errors import EntroineqError
from .halfint import HalfInt
from .probability import SeriesKind
from .specfun import Su11Args, dmatrix, hyp2f1
from .su2 import su2_subadditivity, su2_tsallis_subadditivity
from .su11 import continuous_series_report, discrete_series_distribution, su11_subadditivity

#: An asserted sweep fails (exit 1) when any slack drops below this.
SLACK_FLOOR = -1e-10

_LATTICES = {
    "integer": SeriesKind.CONTINUOUS_INTEGER,
    "half-integer": SeriesKind.CONTINUOUS_HALF_INTEGER,
}


def _csv_line(row: tuple, formats: dict) -> str:
    """One CSV line: floats as %.17g with -0.0 folded to 0.0, the rest as str.

    `formats` caches one %-format string per row layout (the field types).
    """
    layout = tuple(map(type, row))
    fmt = formats.get(layout)
    if fmt is None:
        fmt = formats[layout] = ",".join("%.17g" if issubclass(t, float) else "%s" for t in layout)
    if 0.0 in row:
        row = tuple(v + 0.0 if isinstance(v, float) else v for v in row)  # -0.0 + 0.0 is 0.0
    return fmt % row


def _parse_grid(text: str) -> list[float]:
    """Parse start:stop:count into an inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise EntroineqError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise EntroineqError(f"cannot parse grid {text!r}") from exc
    if count < 1:
        raise EntroineqError("grid count must be at least 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise EntroineqError(f"cannot parse complex number {text!r}") from exc


def _emit(ns: argparse.Namespace, header: Sequence[str], rows: list[tuple], config: dict) -> None:
    if ns.format == "csv":
        formats: dict = {}
        lines = [",".join(header)]
        lines.extend(_csv_line(row, formats) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": config,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_dmat(ns: argparse.Namespace) -> int:
    j = HalfInt.coerce(ns.j)
    matrix = dmatrix(j, ns.theta)
    labels = [str(HalfInt(d)) for d in range(-j.doubled, j.doubled + 1, 2)]
    header = ["m_prime"] + [f"m={label}" for label in labels]
    rows = [(label, *values) for label, values in zip(labels, matrix.tolist())]
    _emit(ns, header, rows, {"command": "dmat", "j": str(j), "theta": ns.theta})
    return 0


def _su2(ns: argparse.Namespace):
    j = HalfInt.coerce(ns.j)
    m = HalfInt.coerce(ns.m)
    tsallis = ns.command == "su2-tsallis"
    q = check_q(ns.q) if tsallis else None
    asserted = q is None or q > 1.0
    mode = ("asserted" if asserted else "report_only",) if tsallis else ()

    def rows(grid: list[float]) -> list[tuple]:
        theta = np.array(grid)
        if tsallis:
            report = su2_tsallis_subadditivity(j, m, theta, q)
        else:
            report = su2_subadditivity(j, m, theta)
        lhs = report.h_first + report.h_second
        columns = (report.h_joint, report.h_first, report.h_second, lhs, report.slack)
        return [(*row, *mode) for row in zip(grid, *(c.tolist() for c in columns))]

    config = {"command": ns.command, "j": str(j), "m": str(m)}
    if tsallis:
        config["q"] = q
    config["grid"] = ns.grid
    return config, rows, asserted


def _su11_discrete(ns: argparse.Namespace):
    if ns.k is None:
        raise EntroineqError("--k is required for the discrete series")
    m = HalfInt.coerce(ns.m)

    def rows(grid: list[float]) -> list[tuple]:
        dist = discrete_series_distribution(ns.k, m, np.array(grid), eps=ns.eps)
        report = su11_subadditivity(dist)
        columns = (dist.truncation, dist.captured_mass, report.h_joint, report.h_first, report.h_second, report.slack)
        return list(zip(grid, *(c.tolist() for c in columns)))

    config = {
        "command": "su11-check",
        "series": "discrete",
        "k": ns.k,
        "m": str(m),
        "grid": ns.grid,
    }
    return config, rows, True


def _su11_continuous(ns: argparse.Namespace):
    if ns.s is None:
        raise EntroineqError("--s is required for the continuous series")
    kind = _LATTICES[ns.lattice]
    m_prime = HalfInt(0 if kind is SeriesKind.CONTINUOUS_INTEGER else -1)

    def rows(grid: list[float]) -> list[tuple]:
        args = [Su11Args(series=kind, m_prime=m_prime, m=float(ns.m), t=t, s=ns.s, sigma=ns.sigma) for t in grid]
        reports = [continuous_series_report(a, ns.truncation) for a in args]
        return [(t, ns.truncation, r.raw_mass, r.h_joint, r.h_first, r.h_second, r.slack) for t, r in zip(grid, reports)]

    config = {
        "command": "su11-check",
        "series": "continuous",
        "s": ns.s,
        "sigma": ns.sigma,
        "m": ns.m,
        "lattice": ns.lattice,
        "truncation": ns.truncation,
        "grid": ns.grid,
    }
    return config, rows, False


#: (command, --series or None) -> (CSV header, set-up).  `setup(ns)` checks
#: the arguments once and returns the JSON config, the rows function (the
#: grid -> one row per grid point, laid out as the header) and whether the
#: "slack" column is asserted.  The rows functions look the pipelines up in
#: this module when they run, so that they can be replaced there.
_SWEEPS = {
    ("su2-check", None): (("theta", "h_joint", "h1", "h2", "lhs", "slack"), _su2),
    ("su2-tsallis", None): (("theta", "h_joint", "h1", "h2", "lhs", "slack", "mode"), _su2),
    ("su11-check", "discrete"): (
        ("t", "truncation", "captured_mass", "h_joint", "h1", "h2", "slack"),
        _su11_discrete,
    ),
    ("su11-check", "continuous"): (
        ("t", "truncation", "raw_mass", "h_joint", "h1", "h2", "slack"),
        _su11_continuous,
    ),
}


def _cmd_sweep(ns: argparse.Namespace) -> int:
    """Evaluate one row per grid point; exit 1 if an asserted slack fails."""
    header, setup = _SWEEPS[ns.command, getattr(ns, "series", None)]
    config, rows_for, asserted = setup(ns)
    rows = rows_for(_parse_grid(ns.grid))
    slack = header.index("slack")
    violated = asserted and any(r[slack] < SLACK_FLOOR for r in rows)
    _emit(ns, header, rows, config)
    return 1 if violated else 0


def _cmd_hyp2f1(ns: argparse.Namespace) -> int:
    value = hyp2f1(
        _parse_complex(ns.a),
        _parse_complex(ns.b),
        _parse_complex(ns.c),
        _parse_complex(ns.z),
    )
    _emit(
        ns,
        ["re", "im"],
        [(value.real, value.imag)],
        {"command": "hyp2f1", "a": ns.a, "b": ns.b, "c": ns.c, "z": ns.z},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroineq",
        description="Entropic inequality checks for group representation matrix elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("dmat", help="emit a full rotation matrix")
    p.add_argument("--j", required=True, help='spin, e.g. "2" or "3/2"')
    p.add_argument("--theta", type=float, required=True)
    common(p)
    p.set_defaults(handler=_cmd_dmat)

    p = sub.add_parser("su2-check", help="Shannon inequality sweep for a d-column")
    p.add_argument("--j", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--grid", required=True, help="start:stop:count (inclusive)")
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("su2-tsallis", help="Tsallis inequality sweep for a d-column")
    p.add_argument("--j", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--grid", required=True)
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("su11-check", help="inequality sweep over the boost rapidity")
    p.add_argument("--series", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--k", type=int, default=None, help="discrete series index (j = -k/2)")
    p.add_argument("--s", type=float, default=None, help="continuous series parameter")
    p.add_argument("--sigma", type=int, choices=(0, 1), default=0)
    p.add_argument("--m", required=True, help="column weight / continuous label")
    p.add_argument("--grid", required=True, help="rapidity grid start:stop:count")
    p.add_argument("--eps", type=float, default=1e-8, help="discrete tail mass budget")
    p.add_argument("--truncation", type=int, default=64, help="continuous ladder length")
    p.add_argument("--lattice", choices=tuple(_LATTICES), default="integer")
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("hyp2f1", help="evaluate the Gauss hypergeometric series")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--z", required=True)
    common(p)
    p.set_defaults(handler=_cmd_hyp2f1)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return ns.handler(ns)
    except EntroineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
