import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from todatopo import cli, report
from todatopo.cli import build_parser, main
from todatopo.errors import CorruptComplexError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCells:
    def test_a2_counts_and_euler(self, capsys):
        code, out, _ = run(capsys, "cells", "--type", "A", "--rank", "2")
        assert code == 0
        assert "dim 0: 4 cells" in out
        assert "dim 1: 12 cells" in out
        assert "dim 2: 6 cells" in out
        assert "Euler characteristic: -2" in out

    def test_a1_counts(self, capsys):
        code, out, _ = run(capsys, "cells", "--type", "A", "--rank", "1")
        assert code == 0
        assert "dim 0: 2 cells" in out
        assert "dim 1: 2 cells" in out
        assert "Euler characteristic: 0" in out

    def test_invalid_type_errors(self, capsys):
        code, _, err = run(capsys, "cells", "--type", "Z", "--rank", "2")
        assert code == 1
        assert "unknown type" in err

    def test_count_formula_mismatch_errors(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cell_count_formula", lambda W, codim: -1)
        code, out, err = run(capsys, "cells", "--type", "A", "--rank", "2", "--output", "-")
        assert (code, out, err) == (1, "", "error: cell counts disagree with the closed formula\n")

    def test_csv_artifact(self, capsys, tmp_path):
        path = tmp_path / "cells.csv"
        bpath = tmp_path / "bnd.csv"
        code, _, _ = run(
            capsys, "cells", "--type", "A", "--rank", "2",
            "--output", str(path), "--boundaries", str(bpath),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "dim,codim,colors,coset_word,coset_length"
        assert len(lines) == 1 + 22
        blines = bpath.read_text().splitlines()
        assert blines[0] == "degree,row,col,value"
        # 12 columns with 2 entries in degree 1, 6 columns with 4 in degree 2
        assert len(blines) == 1 + 48

    def test_json_stdout(self, capsys):
        code, out, _ = run(
            capsys, "cells", "--type", "A", "--rank", "2", "--format", "json",
            "--output", "-",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == 1
        assert obj["counts_by_dim"] == [4, 12, 6]
        assert obj["euler_characteristic"] == -2

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "cells", "--type", "B", "--rank", "2",
                         "--format", "json", "--output", "-")
        _, out2, _ = run(capsys, "cells", "--type", "B", "--rank", "2",
                         "--format", "json", "--output", "-")
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_file(self, capsys, tmp_path, fmt):
        argv = ["cells", "--type", "B", "--rank", "3", "--format", fmt]
        code, out, _ = run(capsys, *argv, "--output", "-")
        path = tmp_path / f"cells.{fmt}"
        assert code == 0
        assert run(capsys, *argv, "--output", str(path))[0] == 0
        assert out.encode() == path.read_bytes()


# sha256 of artifacts written by the root-permutation implementation of the
# Weyl group; the table-driven arithmetic must reproduce them byte for byte.
# The simulate artifacts were written by the numpy-vector integrator with one
# chevalley_invariants call per step; the Python-float steps and the blocked
# invariants must reproduce them byte for byte too.  The B3 JSON and the G2
# artifacts were written with diagrams stored as sorted (vertex, sign) pairs;
# the (S, Red) bit-mask diagrams must reproduce them byte for byte.
PINNED_SHA256 = {
    "b3_cells.csv": "2cf53e86cd85a3d728ee6dbad0040478fab5c4d5e6d99e28115a17c027c8bb3b",
    "b3_boundaries.csv": "09da2866d7f41f92126f4091ce462e203522980b511c5faff91e57282b065149",
    "b3_cells.json": "f2d9e1c8e0e982c5bced10674dedfef4fe1c946a19f1ac2532dbcd1c0510f781",
    "g2_cells.csv": "d2c4428d3c46ab6a5a2cea59842c02a9302dcb0e4966ad013529d4fa263816e7",
    "g2_boundaries.csv": "248dc1bc5443aed22af25696f631d782a938f7d9ed74d5143a1e33245c25c4a6",
    "a3_morse.json": "973002247ccd15212bf38007a433d14a5f6674f9945908b3c2e20f5f5aba7425",
    "a3_toda.dot": "806ec8b3e87f282ebac2e3b0d7f8bc424763596b9b2e8216a24e0589ac1b9ea6",
    "a3_morse.dot": "c8f952b79a87c9bfa8080f6fd42355da843b26919ccad4a7a328cda961d8e010",
    "r3_bounded.json": "bc566d1e642576a064e6134b9b927b26cfefd1860eb748032ad1bf1aeaa55098",
    "r3_escape.json": "2f50f862c7090b3fb9579bf7ecb7a30a88ab0c4551ee38d5616fb48d3ad0b550",
    "r4.json": "2075c34199352f7419d1a985704266178c4231e4e87598c879d5e64124112b4f",
    "r4_trajectory.csv": "3e298a8718aaa00a037512a73e76e9e7b3068b1bba2a41c01ed9c80954e827de",
}


class TestPinnedArtifacts:
    def check(self, tmp_path, names):
        for name in names:
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == PINNED_SHA256[name], name

    def test_cells_b3(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "cells", "--type", "B", "--rank", "3",
            "--output", str(tmp_path / "b3_cells.csv"),
            "--boundaries", str(tmp_path / "b3_boundaries.csv"),
        )
        assert code == 0
        self.check(tmp_path, ["b3_cells.csv", "b3_boundaries.csv"])

    def test_cells_b3_json(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "cells", "--type", "B", "--rank", "3", "--format", "json",
            "--output", str(tmp_path / "b3_cells.json"),
        )
        assert code == 0
        self.check(tmp_path, ["b3_cells.json"])

    def test_cells_g2(self, capsys, tmp_path):
        # B3's off-diagonal -2 is even and G2's -3 is odd: these pin the
        # odd-column orientation signs of a type that is not simply laced.
        code, _, _ = run(
            capsys, "cells", "--type", "G", "--rank", "2",
            "--output", str(tmp_path / "g2_cells.csv"),
            "--boundaries", str(tmp_path / "g2_boundaries.csv"),
        )
        assert code == 0
        self.check(tmp_path, ["g2_cells.csv", "g2_boundaries.csv"])

    def test_morse_a3(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "morse", "--type", "A", "--rank", "3",
            "--output", str(tmp_path / "a3_morse.json"),
            "--toda-dot", str(tmp_path / "a3_toda.dot"),
            "--morse-dot", str(tmp_path / "a3_morse.dot"),
        )
        assert code == 0
        self.check(tmp_path, ["a3_morse.json", "a3_toda.dot", "a3_morse.dot"])

    @pytest.mark.parametrize("name,argv", [
        ("r3_bounded.json", ["--rank", "3", "--signs=+++", "--tmax", "1"]),
        ("r3_escape.json", ["--rank", "3", "--signs=-+-"]),
    ])
    def test_simulate_rank3(self, capsys, tmp_path, name, argv):
        code, _, _ = run(capsys, "simulate", *argv, "--output", str(tmp_path / name))
        assert code == 0
        self.check(tmp_path, [name])

    def test_simulate_rank4_trajectory(self, capsys, tmp_path):
        # 301 rows: the invariants span several blocks.
        code, _, _ = run(
            capsys, "simulate", "--rank", "4", "--signs=+-++", "--tmax", "0.3",
            "--a0=0.25,-0.5,0.125,0.75", "--b0=1.5,-0.5,0.75,1.25",
            "--trajectory", str(tmp_path / "r4_trajectory.csv"),
            "--output", str(tmp_path / "r4.json"),
        )
        assert code == 0
        self.check(tmp_path, ["r4.json", "r4_trajectory.csv"])


class TestHomology:
    def test_a2_gold(self, capsys):
        code, out, _ = run(capsys, "homology", "--type", "A", "--rank", "2")
        assert code == 0
        assert "H_0 = Z" in out
        assert "H_1 = Z^3 + Z/2" in out
        assert "H_2 = 0" in out

    def test_a1_circle(self, capsys):
        code, out, _ = run(capsys, "homology", "--type", "A", "--rank", "1")
        assert code == 0
        assert out.count("= Z") == 2

    def test_euler_mismatch_errors(self, capsys, monkeypatch):
        groups = cli.homology_of

        def shifted(cx):
            first, *rest = groups(cx)
            return [type(first)(first.free_rank + 1, first.torsion), *rest]

        monkeypatch.setattr(cli, "homology_of", shifted)
        code, out, err = run(capsys, "homology", "--type", "A", "--rank", "2", "--output", "-")
        assert (code, out, err) == (
            1, "", "error: Euler characteristic mismatch between cells and homology\n")

    def test_a3_json(self, capsys):
        code, out, _ = run(capsys, "homology", "--type", "A", "--rank", "3",
                           "--output", "-")
        assert code == 0
        obj = json.loads(out)
        ranks = [g["free_rank"] for g in obj["groups"]]
        assert ranks == [1, 6, 5, 0]
        assert obj["groups"][1]["free_rank"] == 6


class TestJsonRenderedOnlyWhenAsked:
    ARGV = {
        "homology": ["homology", "--rank", "2"],
        "morse": ["morse", "--rank", "2"],
        "simulate": ["simulate", "--rank", "2", "--signs=++", "--tmax", "0.1"],
    }

    @pytest.mark.parametrize("cmd", ARGV)
    def test_dump_json_runs_only_for_output(self, capsys, tmp_path, monkeypatch, cmd):
        rendered = []
        dump_json = report.dump_json

        def counting(obj):
            rendered.append(dump_json(obj))
            return rendered[-1]

        monkeypatch.setattr(report, "dump_json", counting)
        code, summary, _ = run(capsys, *self.ARGV[cmd])
        assert code == 0 and rendered == []
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, *self.ARGV[cmd], "--output", str(path))
        assert code == 0 and out == summary
        assert len(rendered) == 1 and path.read_text() == rendered[0]


class TestEnvironment:
    def test_non_integer_order_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TODATOPO_MAX_WEYL_ORDER", "abc")
        code, out, err = run(capsys, "homology", "--rank", "2")
        assert code == 1
        assert out == ""
        assert err == "error: TODATOPO_MAX_WEYL_ORDER must be an integer, got 'abc'\n"


class TestMorse:
    def test_poincare_a3(self, capsys):
        code, out, _ = run(capsys, "morse", "--type", "A", "--rank", "3", "--poincare")
        assert code == 0
        assert "q^2 + 6q + 11" in out

    def test_betti1_a5(self, capsys):
        code, out, _ = run(capsys, "morse", "--type", "A", "--rank", "5", "--betti1")
        assert code == 0
        assert "betti_1 = 15" in out

    def test_rank_gate(self, capsys):
        code, _, err = run(capsys, "morse", "--type", "A", "--rank", "4")
        assert code == 1
        assert "override-rank-gate" in err

    def test_gate_override_reports_inconsistency(self, capsys):
        # beyond rank 3 the boundary fails the square-zero check; the CLI
        # surfaces that instead of emitting silently wrong homology
        code, _, err = run(capsys, "morse", "--type", "A", "--rank", "4",
                           "--override-rank-gate")
        assert code == 1
        assert "boundary composition" in err

    def test_full_report_a2(self, capsys, tmp_path):
        tdot = tmp_path / "toda.dot"
        mdot = tmp_path / "morse.dot"
        code, out, _ = run(
            capsys, "morse", "--type", "A", "--rank", "2",
            "--toda-dot", str(tdot), "--morse-dot", str(mdot), "--output", "-",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["sigma_interpretation"] == "value"
        assert obj["index_counts"] == [1, 4, 1]
        assert obj["toda_graph"] == {"vertices": 6, "edges": 6}
        assert obj["betti1"] == 3
        assert [g["free_rank"] for g in obj["morse_homology"]] == [1, 3, 0]
        assert obj["morse_homology"][1]["torsion"] == [2]
        flags = {row["k"]: row["conjecture"] for row in obj["betti_table"]}
        assert flags == {1: False, 2: True}
        toda = tdot.read_text()
        assert toda.startswith("digraph toda {")
        assert '"e" [label="**"]' in toda
        morse = mdot.read_text()
        assert 'label="2"' in morse or 'label="-2"' in morse

    def test_conjecture_table_a3(self, capsys):
        code, out, _ = run(capsys, "morse", "--type", "A", "--rank", "3",
                           "--conjecture", "--output", "-")
        assert code == 0
        obj = json.loads(out)
        rows = {r["k"]: r for r in obj["betti_table"]}
        assert rows[1]["value"] == 6 and rows[1]["conjecture"] is False
        assert rows[2]["value"] == 5 and rows[2]["conjecture"] is True
        assert rows[3]["value"] == 0

    def test_selector_requires_type_a(self, capsys):
        code, _, err = run(capsys, "morse", "--type", "B", "--rank", "2", "--betti1")
        assert code == 1
        assert "type A" in err

    @pytest.mark.parametrize("selector", [(), ("--poincare",), ("--betti1",), ("--conjecture",)])
    def test_rank_zero_rejected(self, capsys, selector):
        code, out, err = run(capsys, "morse", "--type", "A", "--rank", "0", *selector,
                             "--output", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("dot", ["--toda-dot", "--morse-dot"])
    @pytest.mark.parametrize("selector", ["--poincare", "--betti1", "--conjecture"])
    def test_dot_with_selector_rejected(self, capsys, tmp_path, selector, dot):
        # A selector report draws no graph, so the DOT file would be dropped.
        code, out, err = run(capsys, "morse", "--type", "A", "--rank", "3", selector,
                             dot, str(tmp_path / "g.dot"))
        assert code == 1
        assert out == ""
        assert err == ("error: --toda-dot/--morse-dot need the full report, "
                       "not --poincare/--betti1/--conjecture\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_check_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        def corrupt(l):
            raise CorruptComplexError("closed form disagrees")

        monkeypatch.setattr(cli, "betti_one", corrupt)
        code, out, err = run(capsys, "morse", "--type", "A", "--rank", "2",
                             "--toda-dot", str(tmp_path / "t.dot"),
                             "--morse-dot", str(tmp_path / "m.dot"),
                             "--output", str(tmp_path / "o.json"))
        assert (code, out, err) == (1, "", "error: closed form disagrees\n")
        assert list(tmp_path.iterdir()) == []

    def test_summary_before_dot_on_stdout(self, capsys):
        code, out, _ = run(capsys, "morse", "--type", "A", "--rank", "2", "--toda-dot", "-")
        assert code == 0
        summary, dot = out.split("digraph toda {", 1)
        assert summary.startswith("critical points: 6; toda edges: 6\n")
        assert summary.endswith("betti_1 = 3\n")
        assert dot.rstrip().endswith("}")

    def test_sigma_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["morse", "--type", "A", "--rank", "3", "--sigma", "value"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sigma value" in capsys.readouterr().err


class TestFlagInventory:
    # Adding or removing an option is an explicit edit of this table.
    COMMON = ["-h", "--help", "--type", "--rank", "--output"]
    OPTIONS = {
        "cells": [*COMMON, "--format", "--boundaries"],
        "homology": COMMON,
        "morse": [*COMMON, "--poincare", "--betti1", "--conjecture", "--override-rank-gate",
                  "--toda-dot", "--morse-dot"],
        "simulate": [*COMMON, "--signs", "--tmax", "--dt", "--threshold", "--a0", "--b0",
                     "--trajectory"],
    }

    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"]
        got = {name: [s for a in p._actions for s in a.option_strings] for name, p in sub.choices.items()}
        assert got == self.OPTIONS


class TestTypeLetterCase:
    @pytest.mark.parametrize("argv", [
        ["cells"],
        ["cells", "--format", "json"],
        ["homology"],
        ["morse"],
        ["simulate", "--signs", "+-", "--tmax", "0.5"],
    ], ids=["cells", "cells-json", "homology", "morse", "simulate"])
    def test_lower_case_type_same_bytes(self, capsys, argv):
        tail = ["--rank", "2", "--output", "-"]
        upper = run(capsys, *argv, "--type", "A", *tail)
        lower = run(capsys, *argv, "--type", "a", *tail)
        assert upper[0] == 0
        assert lower == upper


class TestReadme:
    def test_examples_print_what_the_readme_shows(self, capsys):
        # Each "$ todatopo ..." example prints exactly the lines under it, and
        # the Library snippet runs and prints the A2 groups.
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)
        examples = [ex for lang, body in blocks if not lang
                    for ex in body.strip().split("\n\n") if ex.startswith("$ todatopo ")]
        assert len(examples) == 4
        for example in examples:
            command, *want = example.splitlines()
            code, out, err = run(capsys, *shlex.split(command)[2:])
            assert (code, out.splitlines(), err) == (0, want, ""), command
        snippet = next(body for lang, body in blocks if lang == "python")
        exec(snippet, {})
        assert capsys.readouterr().out == "0 Z\n1 Z^3 + Z/2\n2 0\n"


class TestSimulate:
    def test_definite_no_blowup(self, capsys):
        code, out, _ = run(capsys, "simulate", "--rank", "2", "--signs", "++",
                           "--tmax", "5")
        assert code == 0
        assert "no blow-up" in out

    def test_indefinite_blowup_reported(self, capsys):
        code, out, _ = run(capsys, "simulate", "--rank", "1", "--signs", "-")
        assert code == 0
        assert "blow-up at t = 1.570" in out

    def test_sign_length_mismatch(self, capsys):
        code, _, err = run(capsys, "simulate", "--rank", "2", "--signs", "+++")
        assert code == 1
        assert "does not match rank" in err

    def test_summary_and_trajectory(self, capsys, tmp_path):
        traj = tmp_path / "traj.csv"
        code, out, _ = run(
            capsys, "simulate", "--rank", "2", "--signs", "++", "--tmax", "1",
            "--trajectory", str(traj), "--output", "-",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == 1
        assert obj["n"] == 3
        assert obj["signs"] == "++"
        assert obj["blowup_time"] is None
        assert obj["max_invariant_drift"] < 1e-8
        assert obj["max_eigenvalue_drift"] < 1e-8
        lines = traj.read_text().splitlines()
        assert lines[0] == "t,a1,a2,b1,b2,I1,I2"
        assert len(lines) == 1 + 1001

    @pytest.mark.parametrize("argv,message", [
        (("--type", "B", "--signs=++"), "the integrator implements the A-series matrix form only"),
        (("--signs=++", "--a0", "1,x"), "--a0 must be a comma-separated float list"),
        (("--signs=++", "--a0", "1"), "--a0 needs 2 values, got 1"),
    ], ids=["type-B", "a0-not-float", "a0-count"])
    def test_bad_input_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "simulate", "--rank", "2", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_simulate_deterministic(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--rank", "1", "--signs", "-",
                         "--output", "-")
        _, out2, _ = run(capsys, "simulate", "--rank", "1", "--signs", "-",
                         "--output", "-")
        assert out1 == out2

    @pytest.mark.parametrize("argv", [("--signs", "-+"), ("--signs=-+",), ("--signs=--",)])
    def test_sign_strings_starting_with_minus(self, capsys, argv):
        # argparse alone reads '-+' as an option and drops the value '--'
        code, out, _ = run(capsys, "simulate", "--rank", "2", *argv, "--tmax", "0.5",
                           "--output", "-")
        assert code == 0
        assert json.loads(out)["signs"] == argv[-1].split("=")[-1]

    @pytest.mark.parametrize(
        "argv",
        [("--signs=++", "--signs=--"), ("--signs=++", "--signs", "-+"), ("--signs", "+-", "--signs=-+")],
        ids=" ".join,
    )
    def test_repeated_signs_last_wins(self, capsys, argv):
        # as for --tmax and every other option, the last occurrence is the one read
        code, out, _ = run(capsys, "simulate", "--rank", "2", *argv, "--tmax", "0.1", "--output", "-")
        assert code == 0
        assert json.loads(out)["signs"] == argv[-1].split("=")[-1]

    def test_bad_sign_string(self, capsys):
        code, _, err = run(capsys, "simulate", "--rank", "2", "--signs=-x")
        assert code == 1
        assert "bad sign string '-x'" in err

    @pytest.mark.parametrize(
        "argv", [("--tmax", "nan"), ("--tmax", "inf"), ("--dt", "nan"), ("--dt", "inf")], ids="=".join
    )
    def test_non_finite_times_rejected(self, capsys, argv):
        code, out, err = run(capsys, "simulate", "--rank", "2", "--signs", "++", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize(
        "argv", [("--a0", "nan,0"), ("--b0", "inf,1"), ("--b0", "1,-inf")], ids="=".join
    )
    def test_non_finite_initial_values_rejected(self, capsys, argv):
        code, _, err = run(capsys, "simulate", "--rank", "2", "--signs", "++", *argv)
        assert code == 1
        assert err == f"error: {argv[0]} values must be finite\n"

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_non_positive_threshold_rejected(self, capsys, value):
        code, out, err = run(capsys, "simulate", "--rank", "2", "--signs", "++", "--tmax", "1",
                             f"--threshold={value}")
        assert code == 1
        assert out == ""
        assert err == f"error: threshold must be positive, got {float(value)}\n"

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_threshold_rejected(self, capsys, value):
        # With an infinite threshold the escaping rank-1 run would overflow and
        # report a meaningless drift, and the JSON would hold "Infinity".
        code, out, err = run(capsys, "simulate", "--rank", "1", "--signs=-",
                             f"--threshold={value}", "--output", "-")
        assert code == 1
        assert out == ""
        assert err == f"error: threshold must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("b0", ["0,1", "1,-0.0"])
    @pytest.mark.parametrize("signs", ["-+", "++"])
    def test_zero_b0_rejected(self, capsys, signs, b0):
        # A zero b lies in no sign sector, so it can agree with no --signs.
        code, out, err = run(capsys, "simulate", "--rank", "2", f"--signs={signs}", "--b0", b0,
                             "--output", "-")
        assert code == 1
        assert out == ""
        assert err == "error: --b0 values must be nonzero: a zero b lies in no sign sector\n"

    @pytest.mark.parametrize("b0", ["1,1e308", "1,1e9"])
    def test_start_past_threshold_rejected(self, capsys, b0):
        # integrate would stop at t = 0; at 1e308 the invariants and the drift overflow.
        code, out, err = run(capsys, "simulate", "--rank", "2", "--signs=++", "--b0", b0,
                             "--tmax", "0.01", "--output", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: the initial point is already past the threshold")
        assert err.count("\n") == 1

    def test_start_at_threshold_accepted(self, capsys):
        code, out, _ = run(capsys, "simulate", "--rank", "1", "--signs=+", "--b0", "1e8",
                           "--tmax", "0.001", "--output", "-")
        assert code == 0
        assert json.loads(out)["steps"] > 0

    @pytest.mark.parametrize("rank,signs", [("0", ""), ("-1", "+")])
    def test_rank_below_one_rejected(self, capsys, rank, signs):
        code, out, err = run(capsys, "simulate", "--rank", rank, f"--signs={signs}")
        assert code == 1
        assert out == ""
        assert err == f"error: rank must be at least 1, got {rank}\n"

    @pytest.mark.parametrize("threshold", ["1e76", "1e100"])
    def test_high_finite_threshold_accepted(self, capsys, threshold):
        # 1e76 is below the rank-3 bound, so no row is scanned; at 1e100 every row is.
        code, out, _ = run(capsys, "simulate", "--rank", "3", "--signs=-+-",
                           "--threshold", threshold, "--output", "-")
        assert code == 0
        obj = json.loads(out)
        assert obj["blowup_time"] is not None
        assert all(math.isfinite(x) for x in obj["final_invariants"])
        assert cli._invariants_may_overflow(3, float(threshold)) == (threshold == "1e100")

    def test_overflowing_invariants_rejected(self, capsys, recwarn):
        # The start point is far below 1e300, yet the invariants of its state overflow.
        code, out, err = run(capsys, "simulate", "--rank", "3", "--signs=-+-",
                             "--b0=-1e100,1e100,-1e100", "--threshold", "1e300", "--output", "-")
        assert code == 1
        assert out == ""
        assert err == "error: the Chevalley invariants overflow below the threshold 1e+300; lower --threshold\n"
        assert not recwarn.list

    def test_b0_sign_consistency(self, capsys):
        code, _, err = run(capsys, "simulate", "--rank", "1", "--signs", "+",
                           "--b0", "-1.0")
        assert code == 1
        assert "disagree" in err


class TestUnwritablePath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("homology", "--output", "{bad}"),
            ("cells", "--output", "{bad}"),
            ("cells", "--output", "-", "--boundaries", "{bad}"),
            ("morse", "--toda-dot", "{ok}", "--morse-dot", "{bad}", "--output", "-"),
            ("simulate", "--signs", "+-", "--tmax", "0.1", "--trajectory", "{bad}", "--output", "-"),
            ("simulate", "--signs", "+-", "--tmax", "0.1", "--trajectory", "{ok}", "--output", "{bad}"),
        ],
        ids=["homology-output", "cells-output", "cells-boundaries",
             "morse-dot", "simulate-trajectory", "simulate-output"],
    )
    def test_reported_as_error(self, capsys, tmp_path, argv):
        bad = str(tmp_path / "missing" / "out.txt")
        ok = tmp_path / "ok.txt"
        code, out, err = run(capsys, argv[0], "--type", "A", "--rank", "2",
                             *(a.format(bad=bad, ok=ok) for a in argv[1:]))
        assert code == 1
        assert err == f"error: cannot write {bad}: No such file or directory\n"
        # The bad path fails before any computation: no artifact anywhere.
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_existing_file_kept_on_failure(self, capsys, tmp_path):
        ok = tmp_path / "ok.dot"
        ok.write_text("earlier\n")
        bad = str(tmp_path / "missing" / "m.dot")
        code, out, _ = run(capsys, "morse", "--type", "A", "--rank", "2",
                           "--toda-dot", str(ok), "--morse-dot", bad)
        assert (code, out) == (1, "")
        assert ok.read_text() == "earlier\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_not_probed(self, capsys, tmp_path):
        # Probing a pipe by opening and closing it would hand its reader an
        # early end of input, and the real write would then find no reader.
        fifo = tmp_path / "out.json"
        os.mkfifo(fifo)
        reader = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdout.write(open(sys.argv[1]).read())", str(fifo)],
            stdout=subprocess.PIPE, text=True,
        )
        code = []
        writer = threading.Thread(
            target=lambda: code.append(main(["homology", "--rank", "2", "--output", str(fifo)])),
            daemon=True,
        )
        writer.start()
        text, _ = reader.communicate(timeout=60)
        writer.join(timeout=10)
        if writer.is_alive():  # blocked opening a pipe with no reader: give it one
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        capsys.readouterr()
        assert code == [0]
        assert json.loads(text)["groups"][1]["torsion"] == [2]


class TestSameDestination:
    # Two artifacts on one destination would run together on stdout, or the
    # later would overwrite the earlier; either is refused before any work.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("cells", "--output", "-", "--boundaries", "-"), "--output and --boundaries both write to -"),
            (("cells", "--output", "{x}", "--boundaries", "{x}"), "--output and --boundaries both write to {x}"),
            (("cells", "--output", "{x}", "--boundaries", "{x_dotted}"),
             "--output and --boundaries both write to {x_dotted}"),
            (("morse", "--toda-dot", "{x}", "--morse-dot", "{x}"), "--toda-dot and --morse-dot both write to {x}"),
            (("morse", "--toda-dot", "{y}", "--morse-dot", "{x}", "--output", "{x_dotted}"),
             "--output and --morse-dot both write to {x}"),
            (("simulate", "--signs", "+-", "--trajectory", "-", "--output", "-"),
             "--output and --trajectory both write to -"),
            (("simulate", "--signs", "+-", "--trajectory", "{x}", "--output", "{x}"),
             "--output and --trajectory both write to {x}"),
        ],
        ids=["cells-stdout", "cells-file", "cells-two-spellings", "morse-dots", "morse-output",
             "simulate-stdout", "simulate-file"],
    )
    def test_rejected_before_any_work(self, capsys, tmp_path, argv, message):
        paths = {"x": tmp_path / "x.out", "x_dotted": f"{tmp_path}/./x.out", "y": tmp_path / "y.out"}
        code, out, err = run(capsys, argv[0], "--type", "A", "--rank", "2",
                             *(a.format(**paths) for a in argv[1:]))
        assert code == 1
        assert err == f"error: {message.format(**paths)}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestFreshInterpreter:
    # Fresh interpreters: in this process other tests have already loaded numpy.
    SRC = os.path.dirname(os.path.dirname(cli.__file__))

    def interpreter(self, *args):
        env = {**os.environ, "PYTHONPATH": self.SRC}
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    def test_exact_subcommands_leave_numpy_unloaded(self, tmp_path):
        script = (
            "import contextlib, io, json, sys\n"
            "from todatopo import cli\n"
            "codes = []\n"
            "for cmd in ('cells', 'homology', 'morse'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main([cmd, '--type', 'A', '--rank', '2',\n"
            "                               '--output', f'{sys.argv[1]}/{cmd}.out']))\n"
            "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
        )
        proc = self.interpreter("-c", script, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "numpy": False}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cells.out", "homology.out", "morse.out"]

    def test_simulate_from_a_fresh_start(self):
        proc = self.interpreter("-m", "todatopo.cli", "simulate", "--rank", "2", "--signs=++",
                                "--tmax", "0.1")
        assert proc.returncode == 0, proc.stderr
        assert "no blow-up" in proc.stdout
