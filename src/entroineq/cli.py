"""Command-line front end: sweeps and CSV/JSON emission of reports.

Exit codes: 0 all checks pass, 1 an asserted inequality was violated,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

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


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # fold -0.0
        return format(value, ".17g")
    return str(value)


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


def _emit(ns: argparse.Namespace, header: list[str], rows: list[tuple], config: dict) -> None:
    if ns.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
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


def _cmd_su2_check(ns: argparse.Namespace) -> int:
    j = HalfInt.coerce(ns.j)
    m = HalfInt.coerce(ns.m)
    grid = _parse_grid(ns.grid)
    header = ["theta", "h_joint", "h1", "h2", "lhs", "slack"]
    rows = []
    violated = False
    for theta in grid:
        report = su2_subadditivity(j, m, theta)
        rows.append(
            (
                theta,
                report.h_joint,
                report.h_first,
                report.h_second,
                report.h_first + report.h_second,
                report.slack,
            )
        )
        if report.slack < SLACK_FLOOR:
            violated = True
    config = {"command": "su2-check", "j": str(j), "m": str(m), "grid": ns.grid}
    _emit(ns, header, rows, config)
    return 1 if violated else 0


def _cmd_su2_tsallis(ns: argparse.Namespace) -> int:
    j = HalfInt.coerce(ns.j)
    m = HalfInt.coerce(ns.m)
    q = check_q(ns.q)
    grid = _parse_grid(ns.grid)
    asserted = q > 1.0
    mode = "asserted" if asserted else "report_only"
    header = ["theta", "h_joint", "h1", "h2", "lhs", "slack", "mode"]
    rows = []
    violated = False
    for theta in grid:
        report = su2_tsallis_subadditivity(j, m, theta, q)
        rows.append(
            (
                theta,
                report.h_joint,
                report.h_first,
                report.h_second,
                report.h_first + report.h_second,
                report.slack,
                mode,
            )
        )
        if asserted and report.slack < SLACK_FLOOR:
            violated = True
    config = {
        "command": "su2-tsallis",
        "j": str(j),
        "m": str(m),
        "q": q,
        "grid": ns.grid,
    }
    _emit(ns, header, rows, config)
    return 1 if violated else 0


def _cmd_su11_check(ns: argparse.Namespace) -> int:
    grid = _parse_grid(ns.grid)
    if ns.series == "discrete":
        if ns.k is None:
            raise EntroineqError("--k is required for the discrete series")
        m = HalfInt.coerce(ns.m)
        header = ["t", "truncation", "captured_mass", "h_joint", "h1", "h2", "slack"]
        rows = []
        violated = False
        for t in grid:
            dist = discrete_series_distribution(ns.k, m, t, eps=ns.eps)
            report = su11_subadditivity(dist)
            rows.append(
                (
                    t,
                    dist.truncation,
                    dist.captured_mass,
                    report.h_joint,
                    report.h_first,
                    report.h_second,
                    report.slack,
                )
            )
            if report.slack < SLACK_FLOOR:
                violated = True
        config = {
            "command": "su11-check",
            "series": "discrete",
            "k": ns.k,
            "m": str(m),
            "grid": ns.grid,
        }
        _emit(ns, header, rows, config)
        return 1 if violated else 0

    if ns.s is None:
        raise EntroineqError("--s is required for the continuous series")
    kind = _LATTICES[ns.lattice]
    header = ["t", "truncation", "raw_mass", "h_joint", "h1", "h2", "slack"]
    rows = []
    for t in grid:
        args = Su11Args(
            series=kind,
            m_prime=HalfInt(0 if kind is SeriesKind.CONTINUOUS_INTEGER else -1),
            m=float(ns.m),
            t=t,
            s=ns.s,
            sigma=ns.sigma,
        )
        report = continuous_series_report(args, ns.truncation)
        rows.append(
            (
                t,
                ns.truncation,
                report.raw_mass,
                report.h_joint,
                report.h_first,
                report.h_second,
                report.slack,
            )
        )
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
    _emit(ns, header, rows, config)
    return 0


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
    p.set_defaults(handler=_cmd_su2_check)

    p = sub.add_parser("su2-tsallis", help="Tsallis inequality sweep for a d-column")
    p.add_argument("--j", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--grid", required=True)
    common(p)
    p.set_defaults(handler=_cmd_su2_tsallis)

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
    p.set_defaults(handler=_cmd_su11_check)

    p = sub.add_parser("hyp2f1", help="evaluate the Gauss hypergeometric series")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--z", required=True)
    common(p)
    p.set_defaults(handler=_cmd_hyp2f1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return ns.handler(ns)
    except EntroineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
