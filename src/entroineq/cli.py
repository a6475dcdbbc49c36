"""Command-line front end: sweeps and CSV/JSON emission of reports.

Exit codes: 0 all checks pass, 1 an asserted inequality was violated,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
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


def _emit(ns: argparse.Namespace, config: dict, header: Sequence[str], columns: Sequence) -> None:
    """Write one row per index of the columns (arrays or lists, one per header name).

    CSV writes float columns as %.17g with -0.0 folded to 0, the rest as
    str; JSON writes the values as computed.
    """
    arrays = [np.asarray(column) for column in columns]
    if ns.format == "csv":
        arrays = [array + 0.0 if array.dtype.kind == "f" else array for array in arrays]  # -0.0 + 0.0 is 0.0
        fmt = ",".join("%.17g" if array.dtype.kind == "f" else "%s" for array in arrays)
        rows = zip(*(array.tolist() for array in arrays))
        text = "\n".join([",".join(header), *(fmt % row for row in rows)]) + "\n"
    else:
        rows = zip(*(array.tolist() for array in arrays))
        text = json.dumps({"config": config, "rows": [dict(zip(header, row)) for row in rows]}, indent=2) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# Each command maps the parsed arguments to (JSON config, header, columns,
# whether the "slack" column is asserted), checking its arguments before it
# parses a grid.  The pipelines are looked up in this module when a command
# runs, so that they can be replaced here.


def _dmat(ns: argparse.Namespace):
    j = HalfInt.coerce(ns.j)
    matrix = dmatrix(j, ns.theta)
    labels = [str(HalfInt(d)) for d in range(-j.doubled, j.doubled + 1, 2)]
    header = ["m_prime", *(f"m={label}" for label in labels)]
    return {"command": "dmat", "j": str(j), "theta": ns.theta}, header, [labels, *matrix.T], False


def _su2(ns: argparse.Namespace):
    j = HalfInt.coerce(ns.j)
    m = HalfInt.coerce(ns.m)
    tsallis = ns.command == "su2-tsallis"
    q = check_q(ns.q) if tsallis else None
    grid = _parse_grid(ns.grid)
    theta = np.array(grid)
    report = su2_tsallis_subadditivity(j, m, theta, q) if tsallis else su2_subadditivity(j, m, theta)
    config = {"command": ns.command, "j": str(j), "m": str(m), **({"q": q} if tsallis else {}), "grid": ns.grid}
    header = ["theta", "h_joint", "h1", "h2", "lhs", "slack"]
    columns = [grid, report.h_joint, report.h_first, report.h_second, report.h_first + report.h_second, report.slack]
    asserted = q is None or q > 1.0
    if tsallis:
        header.append("mode")
        columns.append(["asserted" if asserted else "report_only"] * len(grid))
    return config, header, columns, asserted


def _su11(ns: argparse.Namespace):
    if ns.series == "continuous":
        return _su11_continuous(ns)
    if ns.k is None:
        raise EntroineqError("--k is required for the discrete series")
    m = HalfInt.coerce(ns.m)
    grid = _parse_grid(ns.grid)
    dist = discrete_series_distribution(ns.k, m, np.array(grid), eps=ns.eps)
    report = su11_subadditivity(dist)
    config = {"command": "su11-check", "series": "discrete", "k": ns.k, "m": str(m), "eps": ns.eps, "grid": ns.grid}
    header = ["t", "truncation", "captured_mass", "h_joint", "h1", "h2", "slack"]
    columns = [grid, dist.truncation, dist.captured_mass, report.h_joint, report.h_first, report.h_second, report.slack]
    return config, header, columns, True


def _su11_continuous(ns: argparse.Namespace):
    if ns.s is None:
        raise EntroineqError("--s is required for the continuous series")
    kind = _LATTICES[ns.lattice]
    m_prime = HalfInt(0 if kind is SeriesKind.CONTINUOUS_INTEGER else -1)
    grid = _parse_grid(ns.grid)
    args = [Su11Args(series=kind, m_prime=m_prime, m=float(ns.m), t=t, s=ns.s, sigma=ns.sigma) for t in grid]
    reports = [continuous_series_report(a, ns.truncation) for a in args]
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
    header = ["t", "truncation", "raw_mass", "h_joint", "h1", "h2", "slack"]
    fields = ("raw_mass", "h_joint", "h_first", "h_second", "slack")
    columns = [grid, [ns.truncation] * len(grid), *([getattr(r, name) for r in reports] for name in fields)]
    return config, header, columns, False


def _hyp2f1(ns: argparse.Namespace):
    value = hyp2f1(*(_parse_complex(text) for text in (ns.a, ns.b, ns.c, ns.z)))
    config = {"command": "hyp2f1", "a": ns.a, "b": ns.b, "c": ns.c, "z": ns.z}
    return config, ["re", "im"], [[value.real], [value.imag]], False


_COMMANDS = {"dmat": _dmat, "su2-check": _su2, "su2-tsallis": _su2, "su11-check": _su11, "hyp2f1": _hyp2f1}


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

    p = sub.add_parser("su2-check", help="Shannon inequality sweep for a d-column")
    p.add_argument("--j", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--grid", required=True, help="start:stop:count (inclusive)")
    common(p)

    p = sub.add_parser("su2-tsallis", help="Tsallis inequality sweep for a d-column")
    p.add_argument("--j", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--grid", required=True)
    common(p)

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

    p = sub.add_parser("hyp2f1", help="evaluate the Gauss hypergeometric series")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--z", required=True)
    common(p)

    # argparse reads a word it cannot match to a flag as a value only when it
    # matches this pattern, so that "--m -1/2" and "--z -1j" parse like "--m=-1/2"
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile("")
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
        config, header, columns, asserted = _COMMANDS[ns.command](ns)
        _emit(ns, config, header, columns)
    except EntroineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if asserted and (np.asarray(columns[header.index("slack")]) < SLACK_FLOOR).any() else 0


if __name__ == "__main__":
    sys.exit(main())
