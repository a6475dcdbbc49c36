"""Command-line interface: schemas, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroineq import HalfInt, cli, specfun, su11, wigner_oracle
from entroineq.cli import main


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def parse_csv(data: bytes):
    lines = data.decode("utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDmat:
    def test_identity_csv(self, capsys):
        code = main(["dmat", "--j", "1/2", "--theta", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "m_prime,m=-1/2,m=1/2\n-1/2,1,0\n1/2,0,1\n"

    def test_integer_spin_labels(self, capsys):
        # the labels are written by `halfint.label`, the rule of str(HalfInt)
        assert main(["dmat", "--j", "1", "--theta", "0"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "m_prime,m=-1,m=0,m=1"
        assert [row.split(",")[0] for row in rows] == ["-1", "0", "1"]

    def test_matches_oracle(self, tmp_path):
        code, data = run_to_file(tmp_path, "d.csv", ["dmat", "--j", "2", "--theta", "1.0"])
        assert code == 0
        header, rows = parse_csv(data)
        assert header[0] == "m_prime"
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.max(np.abs(got - wigner_oracle(HalfInt(4), 1.0))) < 1e-12

    def test_near_half_turn(self, tmp_path):
        code, data = run_to_file(
            tmp_path, "d.csv", ["dmat", "--j", "3/2", "--theta", "3.14159"]
        )
        assert code == 0
        _, rows = parse_csv(data)
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        anti = np.abs(np.fliplr(got))
        assert np.max(np.abs(anti - np.eye(4))) < 1e-4

    def test_bad_spin_is_usage_error(self, capsys):
        assert main(["dmat", "--j", "nope", "--theta", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_angle_is_domain_error(self, capsys):
        # used to print a NaN matrix and exit 0
        assert main(["dmat", "--j", "1", "--theta", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_infinite_angle_is_domain_error(self, capsys):
        # used to raise an uncaught ValueError
        assert main(["dmat", "--j", "1/2", "--theta", "inf"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSu2Check:
    def test_single_point_zero(self, tmp_path):
        code, data = run_to_file(
            tmp_path, "s.csv", ["su2-check", "--j", "3/2", "--m", "3/2", "--grid", "0:0:1"]
        )
        assert code == 0
        header, rows = parse_csv(data)
        assert header == ["theta", "h_joint", "h1", "h2", "lhs", "slack"]
        assert abs(float(rows[0][5])) <= 1e-9

    def test_infinite_grid_is_domain_error(self, capsys):
        # used to raise an uncaught ValueError
        assert main(["su2-check", "--j", "1", "--m", "1", "--grid", "inf:inf:1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_infinite_spin_is_domain_error(self, capsys):
        # used to exit 1 with an OverflowError traceback
        assert main(["su2-check", "--j", "1e400", "--m", "0", "--grid", "0:1:2"]) == 2
        assert "float range" in capsys.readouterr().err

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["su2-check", "--j", "1", "--m", "1", "--grid", "0:1:0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0:1", "grid must be start:stop:count"),
            ("0:1:2:3", "grid must be start:stop:count"),
            ("a:1:3", "cannot parse grid"),
            ("0:1:2.5", "cannot parse grid"),
        ],
    )
    def test_malformed_grid_is_usage_error(self, grid, message, capsys):
        assert main(["su2-check", "--j", "1", "--m", "1", "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("grid", ["0:nan:5", "1:inf:3"])
    def test_non_finite_point_inside_the_grid_is_domain_error(self, grid, capsys):
        assert main(["su2-check", "--j", "1", "--m", "1", "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith("error: rotation angle must be finite")

    @pytest.mark.parametrize("command", (["su2-check"], ["su2-tsallis", "--q", "0.5"]))
    def test_one_pipeline_call_per_grid(self, tmp_path, monkeypatch, command):
        name = "su2_subadditivity" if command[0] == "su2-check" else "su2_tsallis_subadditivity"
        calls = []
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or original(*args))
        argv = [*command, "--j", "3/2", "--m", "1/2", "--grid", "0.1:6.2:256"]
        code, data = run_to_file(tmp_path, "s.csv", argv)
        assert code == 0
        assert len(calls) == 1
        theta = calls[0][2]
        assert isinstance(theta, np.ndarray) and theta.shape == (256,)
        # the theta column prints the parsed grid points themselves
        _, rows = parse_csv(data)
        assert [float(row[0]) for row in rows] == cli._parse_grid("0.1:6.2:256")

    def test_full_sweep_exit_zero(self, tmp_path):
        code, data = run_to_file(
            tmp_path,
            "s.csv",
            ["su2-check", "--j", "2", "--m", "2", "--grid", "0:6.2832:256"],
        )
        assert code == 0
        _, rows = parse_csv(data)
        assert len(rows) == 256
        slacks = [float(r[5]) for r in rows]
        assert min(slacks) >= -1e-10
        # equality only approached near 0, pi, 2 pi
        for theta, slack in ((float(r[0]), float(r[5])) for r in rows):
            if min(abs(theta - root) for root in (0.0, math.pi, 2 * math.pi)) > 1.0:
                assert slack > 1e-3

    def test_lhs_column_consistent(self, tmp_path):
        _, data = run_to_file(
            tmp_path, "s.csv", ["su2-check", "--j", "3/2", "--m", "1/2", "--grid", "0.3:2.1:5"]
        )
        _, rows = parse_csv(data)
        for row in rows:
            assert float(row[4]) == pytest.approx(float(row[2]) + float(row[3]), abs=1e-16)


class TestSu2Tsallis:
    def test_asserted_sweep(self, tmp_path):
        code, data = run_to_file(
            tmp_path,
            "t.csv",
            ["su2-tsallis", "--j", "3/2", "--m", "3/2", "--q", "2", "--grid", "0:6.2832:64"],
        )
        assert code == 0
        header, rows = parse_csv(data)
        assert header[-1] == "mode"
        assert all(r[-1] == "asserted" for r in rows)
        assert min(float(r[5]) for r in rows) >= -1e-12

    def test_report_only_below_one(self, tmp_path):
        code, data = run_to_file(
            tmp_path,
            "t.csv",
            ["su2-tsallis", "--j", "2", "--m", "2", "--q", "0.5", "--grid", "0:3:4"],
        )
        assert code == 0
        _, rows = parse_csv(data)
        assert all(r[-1] == "report_only" for r in rows)

    def test_q_one_is_usage_error(self, capsys):
        code = main(["su2-tsallis", "--j", "2", "--m", "2", "--q", "1", "--grid", "0:1:2"])
        assert code == 2
        assert "q must be" in capsys.readouterr().err


class TestSu11Check:
    def test_discrete_sweep(self, tmp_path):
        code, data = run_to_file(
            tmp_path,
            "u.csv",
            ["su11-check", "--k", "2", "--m", "1", "--grid", "0.1:1.5:8"],
        )
        assert code == 0
        header, rows = parse_csv(data)
        assert header == ["t", "truncation", "captured_mass", "h_joint", "h1", "h2", "slack"]
        assert len(rows) == 8
        for row in rows:
            assert abs(float(row[2]) - 1.0) <= 1e-8
            assert float(row[6]) >= -1e-10

    def test_zero_rapidity_row(self, tmp_path):
        code, data = run_to_file(
            tmp_path, "u.csv", ["su11-check", "--k", "2", "--m", "1", "--grid", "0:0:1"]
        )
        assert code == 0
        _, rows = parse_csv(data)
        assert abs(float(rows[0][6])) <= 1e-9

    def test_continuous_report_only(self, tmp_path):
        code, data = run_to_file(
            tmp_path,
            "u.csv",
            [
                "su11-check", "--series", "continuous", "--s", "0.5", "--sigma", "0",
                "--m", "0.5", "--truncation", "32", "--grid", "0.1:0.5:3",
            ],
        )
        assert code == 0
        header, rows = parse_csv(data)
        assert header[2] == "raw_mass"
        assert len(rows) == 3
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_continuous_m_zero_on_the_integer_lattice(self, tmp_path):
        # used to exit 2 with "c = 0j hits a pole"
        code, data = run_to_file(
            tmp_path,
            "u.csv",
            [
                "su11-check", "--series", "continuous", "--s", "0.5", "--m", "0",
                "--truncation", "16", "--grid", "0.5:0.5:1",
            ],
        )
        assert code == 0
        _, rows = parse_csv(data)
        assert all(math.isfinite(float(v)) for v in rows[0])

    @pytest.mark.parametrize("truncation, code", [(300, 0), (400, 0), (100001, 2)])
    def test_continuous_long_ladders(self, truncation, code, tmp_path, capsys):
        # 400 used to end in a bare OverflowError (exit 1), later in exit 2
        # at m' = +-200, and 300 printed raw_mass 1.49e257; each raw mass is
        # that of a 40-digit mpmath ladder of the same weights.  Past the
        # term budget the ladder exits 2 before it is built.
        argv = [
            "su11-check", "--series", "continuous", "--s", "0.5", "--m", "0.5",
            "--truncation", str(truncation), "--grid", "1.2:1.2:1",
            "--out", str(tmp_path / "u.csv"),
        ]
        assert main(argv) == code
        if code == 0:
            _, rows = parse_csv((tmp_path / "u.csv").read_bytes())
            raw_mass = {300: 1.6757776951335162, 400: 1.766896901812673}[truncation]
            assert float(rows[0][2]) == pytest.approx(raw_mass, rel=1e-10)
        else:
            assert "truncation 100001 is past the budget of 100000 terms" in capsys.readouterr().err

    def test_missing_k_is_usage_error(self, capsys):
        code = main(["su11-check", "--m", "1", "--grid", "0.1:1:2"])
        assert code == 2
        capsys.readouterr()

    def test_missing_s_is_usage_error(self, capsys):
        assert main(["su11-check", "--series", "continuous", "--m", "0.5", "--grid", "0.1:0.2:2"]) == 2
        assert capsys.readouterr().err == "error: --s is required for the continuous series\n"

    def test_domain_error_exit(self, capsys):
        code = main(["su11-check", "--k", "2", "--m", "1", "--grid", "0.5:2.5:3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan:nan:1", "inf:inf:1", "0.5:nan:2"])
    def test_non_finite_rapidity_is_domain_error(self, grid, capsys, monkeypatch):
        # used to run 1e5 discrete or 1e6 hypergeometric terms before failing
        evaluated = []
        for name in ("bargmann_b", "l_function"):
            original = getattr(su11, name)
            monkeypatch.setattr(
                su11, name, lambda args, f=original: evaluated.append(args) or f(args)
            )
        discrete = ["su11-check", "--k", "2", "--m", "1", "--grid", grid]
        continuous = [
            "su11-check", "--series", "continuous", "--s", "0.5", "--m", "0.5", "--grid", grid,
        ]
        for argv in (discrete, continuous):
            assert main(argv) == 2
            assert "rapidity must be finite" in capsys.readouterr().err
        assert not evaluated  # rejected before any element is evaluated

    def test_overflowing_element_is_domain_error(self, capsys):
        # the bulk of the column lies past the ladder's 1e5-term budget
        start = time.perf_counter()
        assert main(["su11-check", "--k", "2", "--m", "1e5", "--grid", "0.1:0.1:1"]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "k=2, m=100000, t=0.1 ladder did not stabilize within 100000 terms" in err

    def test_long_ladders_in_a_grid_exit_promptly(self, capsys):
        # a grid of such ladders runs one row at a time and stops at the
        # first; one array of every row's column would take several GB
        start = time.perf_counter()
        assert main(["su11-check", "--k", "2", "--m", "1e5", "--grid", "0.1:1.6:256"]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "k=2, m=100000, t=0.1 ladder did not stabilize within 100000 terms" in err

    @pytest.mark.parametrize("m", ["1e9", "1e17", "1e30", str(2**62)])
    def test_column_past_the_budget_exits_promptly(self, m, capsys):
        start = time.perf_counter()
        assert main(["su11-check", "--k", "2", "--m", m, "--grid", "0.1:0.1:1"]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert f"k=2, m={HalfInt.coerce(m)}, t=0.1 is longer than the budget of 1000000" in err

    def test_large_column_weight(self, tmp_path):
        # |b| passed 1e154 on the summed hypergeometric route here
        argv = ["su11-check", "--k", "2", "--m", "1000", "--grid", "1.0:1.0:1"]
        code, data = run_to_file(tmp_path, "m1000.csv", argv)
        assert code == 0
        assert abs(float(parse_csv(data)[1][0][2]) - 1.0) <= 1e-6

    def test_grid_rows_are_the_one_point_rows(self, tmp_path):
        grid = "0.12:1.66:64"
        code, data = run_to_file(tmp_path, "grid.csv", ["su11-check", "--k", "3", "--m", "7/2", "--grid", grid])
        assert code == 0
        lines = data.decode("utf-8").split("\n")
        assert len(lines) == 66
        for t, line in zip(cli._parse_grid(grid), lines[1:]):
            argv = ["su11-check", "--k", "3", "--m", "7/2", "--grid", f"{t!r}:{t!r}:1"]
            _, one = run_to_file(tmp_path, "one.csv", argv)
            assert one.decode("utf-8").split("\n")[1] == line

    def test_one_pipeline_call_per_grid(self, tmp_path, monkeypatch):
        calls = []
        original = cli.discrete_series_distribution
        monkeypatch.setattr(
            cli, "discrete_series_distribution", lambda *a, **kw: calls.append(a) or original(*a, **kw)
        )
        code, data = run_to_file(tmp_path, "u.csv", ["su11-check", "--k", "2", "--m", "2", "--grid", "0.1:1.6:64"])
        assert code == 0
        assert len(calls) == 1
        t = calls[0][2]
        assert isinstance(t, np.ndarray) and t.shape == (64,)
        _, rows = parse_csv(data)
        assert [float(row[0]) for row in rows] == cli._parse_grid("0.1:1.6:64")

    def test_one_column_evaluation_for_a_long_ladder(self, capsys, monkeypatch):
        # used to evaluate the 111,333-weight column once per block, 7 times
        calls = []
        for module, name in ((su11, "bargmann_b"), (specfun, "_boost_column")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=original, name=name: calls.append(name) or f(*a))
        assert main(["su11-check", "--k", "2", "--m", "1e5", "--grid", "0.1:0.1:1"]) == 2
        err = capsys.readouterr().err
        assert "k=2, m=100000, t=0.1 ladder did not stabilize within 100000 terms" in err
        assert calls == ["bargmann_b", "_boost_column"]

    def test_rapidity_outside_the_domain_anywhere_in_the_grid(self, capsys, monkeypatch):
        calls = []
        original = specfun._boost_column
        monkeypatch.setattr(specfun, "_boost_column", lambda *a: calls.append(a) or original(*a))
        assert main(["su11-check", "--k", "2", "--m", "1", "--grid", "0.1:1.8:5"]) == 2
        assert "outside the series domain" in capsys.readouterr().err
        assert not calls

    @pytest.mark.parametrize("fields", [["--s", "0.5", "--m", "nan"], ["--s", "inf", "--m", "0.5"]])
    def test_non_finite_continuous_parameters(self, fields, capsys, monkeypatch):
        # a NaN label used to run 1e6 hypergeometric terms per seed first
        evaluated = []
        original = specfun.hyp2f1
        monkeypatch.setattr(specfun, "hyp2f1", lambda *a: evaluated.append(a) or original(*a))
        argv = ["su11-check", "--series", "continuous", *fields, "--grid", "0.1:0.1:1"]
        assert main(argv + ["--truncation", "4"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not evaluated

    def test_zero_tail_exits_promptly(self, capsys, plant_ladder):
        # a column of exact zeros below 1 - eps stops the ladder well before
        # the 1e5-term budget
        plant_ladder([0.99999892])
        start = time.perf_counter()
        code = main(["su11-check", "--k", "3", "--m", "61/2", "--grid", "1.0:1.0:1"])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "exactly 0" in capsys.readouterr().err

    def test_excess_captured_mass_is_domain_error(self, capsys, plant_ladder):
        # a ladder capturing mass 4460.83 exits 2 and is not renormalized away
        plant_ladder([4460.83])
        code = main(["su11-check", "--k", "3", "--m", "61/2", "--grid", "1.5:1.5:1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "captured mass 4460.83" in err


class TestHyp2f1Command:
    def test_binomial_point(self, capsys):
        code = main(["hyp2f1", "--a", "1", "--b", "2", "--c", "2", "--z", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "re,im\n2,0\n"

    def test_origin(self, capsys):
        code = main(["hyp2f1", "--a", "0.3", "--b", "-1.2", "--c", "0.7", "--z", "0"])
        assert code == 0
        assert capsys.readouterr().out == "re,im\n1,0\n"

    def test_terminating_polynomial(self, capsys):
        code = main(["hyp2f1", "--a", "-2", "--b", "3", "--c", "1", "--z", "0.7"])
        assert code == 0
        header, rows = capsys.readouterr().out.strip().split("\n")
        assert float(rows.split(",")[0]) == pytest.approx(-0.26, abs=1e-13)

    def test_negative_argument_matches_mpmath(self, capsys):
        # printed -6841.54 with exit 0 before the Pfaff transformation
        code = main(["hyp2f1", "--a", "8", "--b", "8", "--c", "1.5", "--z", "-0.95"])
        assert code == 0
        _, row = capsys.readouterr().out.strip().split("\n")
        ref = float(mpmath.hyp2f1(8, 8, 1.5, -0.95))
        assert abs(float(row.split(",")[0]) - ref) <= 1e-12 * abs(ref)

    def test_convergence_domain_exit(self, capsys):
        code = main(["hyp2f1", "--a", "0.5", "--b", "0.5", "--c", "1.5", "--z", "0.97"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unparsable_argument_is_usage_error(self, capsys):
        assert main(["hyp2f1", "--a", "1", "--b", "two", "--c", "2", "--z", "0.5"]) == 2
        assert capsys.readouterr().err == "error: cannot parse complex number 'two'\n"


class TestOutputContracts:
    DOCUMENTED = (
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

    def test_csv_is_deterministic(self, tmp_path):
        for argv in self.DOCUMENTED:
            code_a, first = run_to_file(tmp_path, "a.csv", list(argv))
            code_b, second = run_to_file(tmp_path, "b.csv", list(argv))
            assert code_a == code_b == 0
            assert first == second

    def test_csv_is_lf_utf8(self, tmp_path):
        _, data = run_to_file(
            tmp_path, "c.csv", ["su2-check", "--j", "1", "--m", "0", "--grid", "0:3:4"]
        )
        assert b"\r" not in data
        data.decode("utf-8")

    def test_json_round_trip(self, tmp_path):
        code, data = run_to_file(
            tmp_path,
            "r.json",
            [
                "su2-check", "--j", "3/2", "--m", "3/2", "--grid", "0.2:2.8:7",
                "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["config"]["command"] == "su2-check"
        for row in payload["rows"]:
            assert row["slack"] == row["h1"] + row["h2"] - row["h_joint"]
            assert row["lhs"] == row["h1"] + row["h2"]

    @pytest.mark.parametrize(
        "argv, config, header",
        [
            (
                ["su2-check", "--j", "1", "--m", "0", "--grid", "0:3:2"],
                ["command", "j", "m", "grid"],
                ["theta", "h_joint", "h1", "h2", "lhs", "slack"],
            ),
            (
                ["su2-tsallis", "--j", "1", "--m", "0", "--q", "0.5", "--grid", "0:3:2"],
                ["command", "j", "m", "q", "grid"],
                ["theta", "h_joint", "h1", "h2", "lhs", "slack", "mode"],
            ),
            (
                ["su11-check", "--k", "2", "--m", "1", "--grid", "0.1:0.2:2"],
                ["command", "series", "k", "m", "eps", "grid"],
                ["t", "truncation", "captured_mass", "h_joint", "h1", "h2", "slack"],
            ),
            (
                [
                    "su11-check", "--series", "continuous", "--s", "0.5", "--m", "0.5",
                    "--truncation", "8", "--grid", "0.1:0.2:2",
                ],
                ["command", "series", "s", "sigma", "m", "lattice", "truncation", "grid"],
                ["t", "truncation", "raw_mass", "h_joint", "h1", "h2", "slack"],
            ),
        ],
    )
    def test_json_config_and_columns_per_sweep(self, tmp_path, argv, config, header):
        code, data = run_to_file(tmp_path, "s.json", [*argv, "--format", "json"])
        assert code == 0
        payload = json.loads(data)
        assert list(payload["config"]) == config
        assert payload["config"]["command"] == argv[0]
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert list(row) == header

    def test_discrete_config_records_eps(self, tmp_path):
        # runs with different --eps used to write the same config
        argv = ["su11-check", "--k", "2", "--m", "1", "--grid", "0.1:0.2:2", "--format", "json"]
        runs = [run_to_file(tmp_path, f"{eps}.json", [*argv, "--eps", eps]) for eps in ("1e-8", "1e-7")]
        assert [json.loads(data)["config"]["eps"] for _, data in runs] == [1e-8, 1e-7]

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "entroineq",
                "su2-check", "--j", "1", "--m", "1", "--grid", "0:1:3",
                "--out", str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_one_parser_per_process_writes_what_a_fresh_parser_writes(self, capsys):
        # main builds its parser once; a continuous sweep must leave no
        # trace on the discrete default that follows it, and so on
        sequence = (
            [
                "su11-check", "--series", "continuous", "--s", "0.5", "--sigma", "1",
                "--m", "0.5", "--truncation", "16", "--grid", "0.1:0.3:2",
            ],
            ["su11-check", "--k", "2", "--m", "1", "--grid", "0.1:0.5:3"],
            ["dmat", "--j", "3/2", "--theta", "0.7"],
            ["su2-tsallis", "--j", "1", "--m", "0", "--q", "0.5", "--grid", "0:3:4"],
            ["su11-check", "--m", "1", "--grid", "0.1:0.5:3"],  # no --k: exit 2
            ["su2-check", "--j", "1", "--m", "0"],  # no --grid: usage error, exit 2
            ["su2-check", "--j", "1", "--m", "0", "--grid", "0:3:3", "--format", "json"],
        )

        def run(fresh):
            written = []
            for argv in sequence:
                if fresh:
                    cli._parser.cache_clear()
                code = main(list(argv))
                captured = capsys.readouterr()
                written.append((code, captured.out, captured.err))
            return written

        cli._parser.cache_clear()
        once = run(fresh=False)
        assert [code for code, _, _ in once] == [0, 0, 0, 0, 2, 2, 0]
        assert once == run(fresh=True)

    def test_negative_zero_is_written_as_zero(self, tmp_path):
        assert np.signbit(cli.dmatrix(1, 0.0)).any()  # -0.0 off the diagonal
        code, data = run_to_file(tmp_path, "z.csv", ["dmat", "--j", "1", "--theta", "0"])
        assert code == 0
        _, rows = parse_csv(data)
        assert [row[1:] for row in rows] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


class TestEmission:
    """Every command writes only to --out, and its JSON rows are its CSV rows."""

    COMMANDS = (
        ["dmat", "--j", "1", "--theta", "0"],
        ["dmat", "--j", "7/2", "--theta", "2.1"],
        ["su2-check", "--j", "3/2", "--m", "1/2", "--grid", "0:3.1416:5"],
        ["su2-tsallis", "--j", "2", "--m", "1", "--q", "0.5", "--grid", "0:3.1416:5"],
        ["su11-check", "--k", "2", "--m", "1", "--grid", "0:1.5:4"],
        [
            "su11-check", "--series", "continuous", "--s", "0.5", "--sigma", "1", "--m", "0.5",
            "--truncation", "16", "--lattice", "half-integer", "--grid", "0.1:0.5:3",
        ],
        ["hyp2f1", "--a", "1", "--b", "2", "--c", "2", "--z", "0.5"],
        # the Pfaff route, with signed zeros in the arguments
        ["hyp2f1", "--a=-0.5-0j", "--b", "1", "--c", "1.5", "--z=-0.5-0j"],
    )

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_json_rows_are_the_csv_rows(self, argv, tmp_path, capfd):
        code_csv, csv_data = run_to_file(tmp_path, "o.csv", argv)
        code_json, json_data = run_to_file(tmp_path, "o.json", [*argv, "--format", "json"])
        assert code_csv == code_json == 0
        assert capfd.readouterr() == ("", "")
        header, lines = parse_csv(csv_data)
        rows = json.loads(json_data)["rows"]
        assert len(rows) == len(lines) > 0
        for cells, row in zip(lines, rows):
            assert list(row) == header
            for cell, value in zip(cells, row.values()):
                if isinstance(value, float):
                    assert float(cell) == value
                    assert cell != "-0"  # CSV writes -0.0 as 0
                else:
                    assert cell == str(value)

    @pytest.mark.parametrize("argv", [COMMANDS[0], COMMANDS[2], COMMANDS[4]], ids=" ".join)
    def test_json_keeps_negative_zero(self, argv, tmp_path):
        _, data = run_to_file(tmp_path, "z.json", [*argv, "--format", "json"])
        values = [v for row in json.loads(data)["rows"] for v in row.values() if isinstance(v, float)]
        assert any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values)


def reference_csv(header, columns):
    """One row at a time: %.17g for a float (-0.0 written as 0), %s for the rest."""
    lines = [",".join(header)]
    for row in zip(*(np.asarray(column).tolist() for column in columns)):
        lines.append(",".join("%.17g" % (v + 0.0) if isinstance(v, float) else "%s" % v for v in row))
    return "\n".join(lines) + "\n"


class TestCsvFormatting:
    """CSV bytes are those of a per-row formatter, whether a table's floats
    mostly repeat (each distinct one formatted once) or not."""

    SPECIAL = [0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf]
    TABLES = {
        "repeats and special values": (
            ["x", "n", "label", "y"],
            [SPECIAL, list(range(-5, 6)), [f"m={i}/2" for i in range(11)], SPECIAL[::-1]],
        ),
        "distinct values": (["x", "n", "label"], [SPECIAL, list(range(-5, 6)), [f"m={i}/2" for i in range(11)]]),
        "signed zeros and negatives only": (["a", "b"], [np.array([-0.0, -2.5, 0.0]), np.array([-2.5, -0.0, -1e-310])]),
        "one row": (["a", "k", "b"], [[-0.0], [3], [1e308]]),
        "one column": (["a"], [np.array([0.1, 0.1, -0.0, 1 / 3, 0.1])]),
        "one cell": (["a"], [[-5e-324]]),
        # no signed value repeats, but 6 of the 16 magnitudes do
        "repeats only up to sign": (
            ["x", "y"],
            [[0.1, 0.2, 0.3, 0.4, 1 / 3, 1e-300, 2.5, 7.0], [-0.1, -0.2, -0.3, -0.4, 1 / 7, -1e-300, 3.5, -7.0]],
        ),
        "opposites side by side": (
            ["a", "b"],
            [[0.0, math.inf, 5e-324, 1e308, -1e308], [-0.0, -math.inf, -5e-324, -1e308, 1e308]],
        ),
        "opposites in one column": (["a"], [[0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308]]),
        "int and str columns among repeats": (
            ["n", "x", "label", "y", "k"],
            [[-2, -1, 0, 1], [0.5, -0.5, 0.25, -0.25], ["-1/2", "a,b", "", "3"], [-0.25, 0.5, -0.0, 0.5], [10, 20, 30, 40]],
        ),
    }
    # values and their opposites, for random tables that mostly repeat a magnitude
    POOL = [0.0, 0.1, 1 / 3, 2.5, 5e-324, 2.2250738585072014e-308, 1e308, math.inf, math.nan]

    @staticmethod
    def emit(capsys, header, columns):
        cli._emit(argparse.Namespace(format="csv", out=None), {}, header, columns)
        return capsys.readouterr().out

    @pytest.mark.parametrize("name", TABLES)
    def test_table_is_the_per_row_reference(self, name, capsys):
        header, columns = self.TABLES[name]
        assert self.emit(capsys, header, columns) == reference_csv(header, columns)

    @staticmethod
    def repeats(columns, key):
        """The share of a table's floats (-0.0 folded) whose key repeats another's."""
        floats = np.concatenate([array for array in map(np.asarray, columns) if array.dtype.kind == "f"]) + 0.0
        return 1.0 - len(np.unique(key(floats))) / floats.size

    @pytest.mark.parametrize(
        "name", ["repeats only up to sign", "opposites side by side", "opposites in one column", "int and str columns among repeats"]
    )
    def test_table_repeats_a_quarter_of_its_magnitudes(self, name):
        # so that it is written from one word per magnitude
        _, columns = self.TABLES[name]
        assert self.repeats(columns, np.abs) >= 0.25
        if name == "repeats only up to sign":
            assert self.repeats(columns, np.asarray) < 0.25

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_signed_table_is_the_per_row_reference(self, data):
        rows, width = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 5))
        value = st.builds(lambda v, negative: -v if negative else v, st.sampled_from(self.POOL), st.booleans())
        columns = [data.draw(st.lists(value, min_size=rows, max_size=rows)) for _ in range(width)]
        if data.draw(st.booleans()):
            columns.insert(data.draw(st.integers(0, width)), list(range(rows)))
        header = [f"c{i}" for i in range(len(columns))]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit(argparse.Namespace(format="csv", out=None), {}, header, columns)
        assert out.getvalue() == reference_csv(header, columns)

    @pytest.mark.parametrize("j, theta", [("20", 1.234567), ("61/2", 2.043911), ("60", 0.912345), ("121/2", 2.345678)])
    def test_dmat_is_the_per_row_reference(self, j, theta, capsys):
        _, header, columns, _ = cli._dmat(argparse.Namespace(j=j, theta=theta))
        assert main(["dmat", "--j", j, "--theta", repr(theta)]) == 0
        out = capsys.readouterr().out
        assert out == reference_csv(header, [columns[0], *columns[1]])  # the matrix is one block, a column per row
        floats = np.concatenate(columns[1:])
        assert len(np.unique(floats)) < 0.6 * floats.size  # the symmetries repeat most entries
        assert len(np.unique(np.abs(floats))) < 0.3 * floats.size  # and up to sign about three in four


class TestNoTraceback:
    """Inputs past the float range exit 2 with one error line, through `python -m entroineq`."""

    CONTINUOUS = ["su11-check", "--series", "continuous", "--truncation", "8", "--grid", "0.5:0.5:1"]
    # past the term budget; it used to build its 2e6 weights before it failed
    PAST_THE_BUDGET = [
        "su11-check", "--series", "continuous", "--s", "0.5", "--m", "0.5", "--truncation", "2000000", "--grid", "0.5:0.5:1",
    ]
    CASES = (
        # the parity factor's sin used to overflow: exit 1 and a traceback
        [*CONTINUOUS, "--s", "0.5", "--m", "453"],
        [*CONTINUOUS, "--s", "0.5", "--m", "-500"],
        [*CONTINUOUS, "--s", "500", "--m", "0.5"],
        [*CONTINUOUS, "--s", "1e300", "--m", "0.5"],
        [*CONTINUOUS, "--s", "0.5", "--m", "1e300"],
        [*CONTINUOUS, "--s", "0.5", "--m", "451"],  # the family's float-range guard
        # log_gamma's reflection used to print numpy warnings before the error line
        [*CONTINUOUS, "--s", "250", "--m", "-249.5"],
        # the 2F1 partial sum used to run on as NaN: nan,nan and exit 0
        ["hyp2f1", "--a", "-1000", "--b", "-1000", "--c", "1", "--z", "0.9"],
        # the Pfaff product of finite partial sums used to print inf,0 and exit 0
        ["hyp2f1", "--a", "-100", "--b", "50.5", "--c", "1", "--z", "-1000"],
        # k = 2^63 used to overflow numpy's int64 in the lattice check
        ["su11-check", "--k", str(2**63), "--m", f"{2**63}/2", "--grid", "0.5:0.5:1"],
        ["su11-check", "--k", str(2**63 - 1), "--m", f"{2**63 - 1}/2", "--grid", "0.5:0.5:1"],
        PAST_THE_BUDGET,
    )

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_exit_two_with_one_error_line(self, argv):
        proc = subprocess.run([sys.executable, "-m", "entroineq", *argv], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_past_the_budget_in_little_memory(self, capsys):
        # it used to build its weights first, peaking at 108 MB RSS (77 MB
        # above the import); tracemalloc sees numpy's buffers, and unlike
        # ru_maxrss it is not raised by what ran before in this process
        tracemalloc.start()
        try:
            assert main(self.PAST_THE_BUDGET) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert capsys.readouterr().err == "error: truncation 2000000 is past the budget of 100000 terms\n"


class TestNegativeValues:
    """A word after a value flag is its value unless it is a flag, as in --flag=value."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["su2-check", "--j", "3/2", "--grid", "0:1:3"], "--m", "-1/2"),
            (["su11-check", "--series", "continuous", "--s", "0.5", "--truncation", "8", "--grid", "0.5:0.5:1"], "--m", "-1e-3"),
            (["dmat", "--j", "1"], "--theta", "-1e-3"),
            (["hyp2f1", "--a", "1", "--b", "2", "--c", "3"], "--z", "-1e-3"),
            (["hyp2f1", "--a", "1", "--b", "2", "--c", "3"], "--z", "-0.5+0.1j"),
            (["hyp2f1", "--a", "1", "--b", "2", "--c", "3"], "--z", "-1j"),
            (["hyp2f1", "--b", "1", "--c", "1.5", "--z", "0.5"], "--a", "-0.5-0j"),
            (["su2-check", "--j", "1", "--m", "0"], "--grid", "-1:1:3"),
        ],
    )
    def test_separate_word_is_the_joined_form(self, argv, flag, value, capsys):
        separate = main([*argv, flag, value]), capsys.readouterr()
        joined = main([*argv, f"{flag}={value}"]), capsys.readouterr()
        assert separate == joined
        assert separate[1].out or separate[1].err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv", [["su2-check", "--j", "--m", "1", "--grid", "0:1:2"], ["hyp2f1", "--a", "1", "--b", "2", "--c", "3", "--z"]]
    )
    def test_a_flag_is_never_a_value(self, argv, capsys):
        assert main(argv) == 2
        assert "expected one argument" in capsys.readouterr().err
