"""Tests for the batch command-line harness and problem file format."""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_interp import __version__
from hardy_interp.cli import Certificate, main
from hardy_interp.errors import ProblemFileError
from hardy_interp.problemfile import (
    _ROW_LISTS,
    _SCALAR_KEYS,
    _VALUE_LISTS,
    _WORD_KEYS,
    format_number,
    parse_problem_file,
)

README = Path(__file__).resolve().parents[1] / "README.md"

FEASIBLE_OK = """\
format hardy-interp/1
kind feasible
algebra hinf
alpha 1
node 0 0
node 0.5 0
direction 1 0
direction 1 0
target 0 0
target 0.4 0
"""

SOLVE_FILE = """\
format hardy-interp/1
kind solve
algebra hinf
method minimax
alpha 1
degree 6
grid 6 48 0.99
node 0 0
node 0.5 0
direction 1 0 0 0
direction 0 0 1 0
target 0.3 0
target 0.2 0
"""

FAMILY_FILE = """\
format hardy-interp/1
kind feasible
algebra cplusb
zero 0 0
zero 0 0
alpha 1
samples 64
seed 3
node 0 0
node 0.5 0
direction 1 0
direction 1 0
target 0 0
target 0.5 0
"""

# f(0) = 0, f(1/2) = 0.2 in C + z^2 H-infinity: the threshold is
# |w| / |x|^2 = 0.8, so alpha 0.79 is infeasible, though the Szego kernel and
# the cyclic kernel of the projection of 1 each give a positive Pick matrix
ALGEBRA_THRESHOLD_FILE = """\
format hardy-interp/1
kind feasible
algebra cplusb
zero 0 0
zero 0 0
alpha 0.79
node 0 0
node 0.5 0
direction 1 0
direction 1 0
target 0 0
target 0.2 0
"""

DISTANCE_FILE = """\
format hardy-interp/1
kind distance
arow 1 0 0 0
arow 0 0 -1 0
smatrix
srow 1 0 0 0
srow 0 0 1 0
"""

CORONA_CHECK_FILE = """\
format hardy-interp/1
kind corona
mode check
algebra cplusb
zero 0 0
zero 0 0
fdegree 1
samples 16
fcoeff 1 0 0 0 0 0
fcoeff 0 0 1 0 0 0
delta 0.9
set 0 0 0.3 0
set 0.2 0.2 -0.4 0
"""


CORONA_SOLVE_FILE = """\
format hardy-interp/1
kind corona
mode solve
algebra hinf
fdegree 1
fcoeff 0 0 1 0
fcoeff 0.5 0 0 0
delta 0.5
degree 6
grid 8 64 0.995
node 0 0
node 0.5 0
node -0.5 0
node 0 0.5
node 0 -0.5
"""


# f(z) = z at 0 and +-1/2: met at degree 1, though degree 1 cannot separate
# three classes of nodes
LINEAR_SOLVE_FILE = """\
format hardy-interp/1
kind solve
algebra hinf
method minimax
alpha 1
degree 1
node 0 0
node 0.5 0
node -0.5 0
direction 1 0
direction 1 0
direction 1 0
target 0 0
target 0.5 0
target -0.5 0
"""


# criterion 9's H-infinity solve file with tol 0: the minimax cannot close
# its gap, and the barrier's interior shrinks to rounding
NOT_CONVERGED_FILE = """\
format hardy-interp/1
kind solve
algebra hinf
method minimax
alpha 1
degree 6
grid 6 48 0.99
seed 3
node 0 0
node 0.4 0
direction 1 0
direction 1 0
target 0.1 0
target 0.3 0
tol 0
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_minimal_roundtrip(self):
        pf = parse_problem_file(FEASIBLE_OK)
        assert pf.kind == "feasible"
        assert pf.nodes == [0j, 0.5 + 0j]
        assert pf.scalars["alpha"] == 1.0

    def test_missing_format_line(self):
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file("kind feasible\n")
        assert err.value.line == 1

    def test_bad_number_reports_line(self):
        bad = FEASIBLE_OK.replace("target 0.4 0", "target abc 0")
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file(bad)
        assert err.value.line == 10

    def test_unknown_directive(self):
        bad = FEASIBLE_OK + "wibble 1 2\n"
        with pytest.raises(ProblemFileError):
            parse_problem_file(bad)

    def test_mismatched_counts(self):
        bad = FEASIBLE_OK + "node 0.2 0\n"
        with pytest.raises(ProblemFileError):
            parse_problem_file(bad)

    def test_readme_directive_table_matches_parser(self):
        # the first word of each code span in the first column of the table
        section = README.read_text(encoding="utf-8").split("### Problem file directives")[1]
        words = set()
        for line in section.split("\n#")[0].splitlines():
            if line.startswith("| `"):
                first_cell = re.split(r"(?<!\\)\|", line)[1]
                words.update(span.split()[0] for span in re.findall(r"`([^`]+)`", first_cell))
        keys = {*_SCALAR_KEYS, *_WORD_KEYS, *_VALUE_LISTS, *_ROW_LISTS}
        assert keys - words == set()
        for word in words - {"format", "kind"}:  # the two header lines
            try:
                parse_problem_file(f"format hardy-interp/1\nkind kernel\n{word}\n")
            except ProblemFileError as exc:
                assert "unknown directive" not in str(exc)

    def test_comments_and_blanks(self):
        text = FEASIBLE_OK.replace("alpha 1", "# a comment\n\nalpha 1  # inline")
        pf = parse_problem_file(text)
        assert pf.scalars["alpha"] == 1.0

    @given(st.complex_numbers(max_magnitude=1e12, allow_nan=False,
                              allow_infinity=False))
    def test_complex_serialization_roundtrips_doubles(self, z):
        text = (
            "format hardy-interp/1\nkind kernel\nkernel szego\n"
            f"pair {format_number(z.real)} {format_number(z.imag)} 0 0\n"
        )
        pf = parse_problem_file(text)
        back = pf.pairs[0][0]
        assert back.real == z.real and back.imag == z.imag


class TestCommands:
    def test_feasible_exit_codes(self, tmp_path, capsys):
        ok = tmp_path / "ok.txt"
        ok.write_text(FEASIBLE_OK)
        code, out, _ = run_cli(["feasible", str(ok)], capsys)
        assert code == 0
        assert "verdict feasible" in out

        bad = tmp_path / "bad.txt"
        bad.write_text(FEASIBLE_OK.replace("target 0.4 0", "target 0.6 0"))
        code, out, _ = run_cli(["feasible", str(bad)], capsys)
        assert code == 1
        assert "verdict infeasible" in out

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(FEASIBLE_OK.replace("alpha 1\n", ""))
        code, _, err = run_cli(["feasible", str(bad)], capsys)
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("old, new, line", [
        ("node 0.5 0", "node nan 0", 10),
        ("alpha 1", "alpha inf", 6),
        ("samples 64", "samples inf", 7),
    ])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, old, new, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(FAMILY_FILE.replace(old, new))
        code, out, err = run_cli(["feasible", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert f"line {line}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--grid-radius", "-inf"),
    ])
    def test_non_finite_flag_exit_two(self, tmp_path, flag, value):
        f = tmp_path / "ok.txt"
        f.write_text(FEASIBLE_OK)
        with pytest.raises(SystemExit) as exc:
            main(["feasible", str(f), flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("command, text", [
        ("feasible", FEASIBLE_OK),
        ("feasible", FAMILY_FILE.replace("target 0.5 0", "target 0.1 0")),
        ("corona", CORONA_CHECK_FILE),
        ("solve", SOLVE_FILE),
    ], ids=["single", "family", "corona-check", "solve-minimax"])
    def test_negative_tol_exit_two(self, tmp_path, capsys, command, text, source):
        # a negative tolerance is an input error, never a verdict
        f = tmp_path / "p.txt"
        f.write_text(text + "tol -1\n" if source == "file" else text)
        flag = ["--tol", "-1"] if source == "flag" else []
        code, out, err = run_cli([command, str(f)] + flag, capsys)
        assert code == 2
        assert out == ""
        assert "tol must be nonnegative" in err

    @pytest.mark.parametrize("command, text, line", [
        ("feasible", FEASIBLE_OK, "samples 0"),
        ("feasible", FEASIBLE_OK, "seed -5"),
        ("corona", CORONA_CHECK_FILE, "samples 0"),
        ("solve", SOLVE_FILE, "seed -1"),
    ], ids=["feasible-hinf-samples", "feasible-hinf-seed", "corona-cplusb-samples",
            "solve-hinf-seed"])
    def test_sweep_settings_validated_in_file(self, tmp_path, capsys, command, text, line):
        # on every command and algebra, also where no sweep runs
        f = tmp_path / "p.txt"
        f.write_text(text + line + "\n")
        code, out, err = run_cli([command, str(f)], capsys)
        assert code == 2
        assert out == ""
        lineno = len(text.splitlines()) + 1
        assert f"line {lineno}: {line.split()[0]}: expected at least" in err

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--seed", "-1")])
    def test_sweep_settings_validated_in_flags(self, tmp_path, capsys, flag, value):
        f = tmp_path / "ok.txt"
        f.write_text(FEASIBLE_OK)
        with pytest.raises(SystemExit) as exc:
            main(["feasible", str(f), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected at least" in capsys.readouterr().err

    def test_unknown_command_exit_two(self, tmp_path, capsys):
        f = tmp_path / "ok.txt"
        f.write_text(FEASIBLE_OK)
        with pytest.raises(SystemExit) as exc:
            main(["feasibility", str(f)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    @pytest.mark.parametrize("old, new, name", [
        ("arow 1 0 0 0", "arow 1e300 0 0 0", "target"),
        ("srow 1 0 0 0", "srow 1e300 0 0 0", "basis matrix 1"),
    ])
    def test_distance_overflow_exit_two(self, tmp_path, capfd, old, new, name):
        # capfd, not capsys: LAPACK writes its complaints to file descriptor 1
        bad = tmp_path / "d.txt"
        bad.write_text(DISTANCE_FILE.replace(old, new))
        code = main(["distance", str(bad)])
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert f"{name} overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, text, old, new, line", [
        ("feasible", FAMILY_FILE, "samples 64", "samples 2.7", 7),
        ("solve", SOLVE_FILE, "grid 6 48 0.99", "grid 6.5 48 0.99", 7),
    ])
    def test_fractional_integer_exit_two(self, tmp_path, capsys, command, text,
                                         old, new, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(old, new))
        code, out, err = run_cli([command, str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert f"line {line}:" in err

    def test_single_kernel_echoes_only_tol(self, tmp_path, capsys):
        f = tmp_path / "ok.txt"
        f.write_text(FEASIBLE_OK)
        code, out, _ = run_cli(["feasible", str(f)], capsys)
        assert code == 0
        config = [ln.split()[0] for ln in out.splitlines() if ln.startswith("config.")]
        assert config == ["config.tol"]

    @pytest.mark.parametrize("text, echoed", [
        (CORONA_SOLVE_FILE.replace("mode solve", "mode check") + "set 0 0 0.3 0\n",
         ["tol"]),
        (CORONA_SOLVE_FILE, ["tol", "degree", "grid"]),
        (CORONA_CHECK_FILE, ["tol", "seed", "samples"]),
    ], ids=["hinf-check", "hinf-solve", "cplusb-check"])
    def test_corona_echoes_sweep_settings_only_for_cplusb(self, tmp_path, capsys,
                                                          text, echoed):
        # H-infinity tests the Szego kernel alone: no seed, no samples
        f = tmp_path / "corona.txt"
        f.write_text(text)
        code, out, _ = run_cli(["corona", str(f)], capsys)
        assert code == 0
        config = [ln.split()[0] for ln in out.splitlines() if ln.startswith("config.")]
        assert config == [f"config.{key}" for key in echoed]

    @pytest.mark.parametrize("level", ["-1", "0"])
    def test_nonpositive_level_exit_two(self, tmp_path, capsys, level):
        # like a nonpositive alpha, a nonpositive level is an input error
        f = tmp_path / "s.txt"
        f.write_text(SOLVE_FILE + f"level {level}\n")
        code, out, err = run_cli(["solve", str(f)], capsys)
        assert code == 2
        assert out == ""
        assert "level must be positive" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(["feasible", "/nonexistent/x.txt"], capsys)
        assert code == 2

    def test_kind_command_mismatch(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text(FEASIBLE_OK)
        code, _, err = run_cli(["solve", str(f)], capsys)
        assert code == 2

    def test_family_witness_emitted(self, tmp_path, capsys):
        f = tmp_path / "fam.txt"
        f.write_text(FAMILY_FILE)
        code, out, _ = run_cli(["feasible", str(f)], capsys)
        assert code == 1
        assert "witness" in out

    def test_json_output(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text(FEASIBLE_OK)
        code, out, _ = run_cli(["feasible", str(f), "--output", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "feasible"
        assert payload["min_eig"] > 0

    def test_solve_verify_roundtrip(self, tmp_path, capsys):
        f = tmp_path / "solve.txt"
        f.write_text(SOLVE_FILE)
        code, out, _ = run_cli(["solve", str(f)], capsys)
        assert code == 0
        lines = dict()
        rows = []
        for ln in out.splitlines():
            key, _, rest = ln.partition(" ")
            lines[key] = rest
            if key.startswith("solution.fcoeff."):
                rows.append(rest)
        verify_text = "\n".join(
            [
                "format hardy-interp/1",
                "kind verify",
                "algebra hinf",
                "alpha 1",
                "node 0 0",
                "node 0.5 0",
                "direction 1 0 0 0",
                "direction 0 0 1 0",
                "target 0.3 0",
                "target 0.2 0",
                "grid 6 48 0.99",
                f"fdegree {lines['solution.fdegree']}",
            ]
            + [f"fcoeff {r}" for r in rows]
        ) + "\n"
        vf = tmp_path / "verify.txt"
        vf.write_text(verify_text)
        code, vout, _ = run_cli(["verify", str(vf)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in vout.splitlines())
        assert float(vals["max_residual"]) <= 1e-10
        assert abs(float(vals["grid_norm"]) - float(lines["grid_norm"])) <= 1e-10

    def test_solve_certificate_brackets_grid_norm(self, tmp_path, capsys):
        f = tmp_path / "solve.txt"
        f.write_text(SOLVE_FILE)
        code, out, _ = run_cli(["solve", str(f)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        upper, lower = float(vals["grid_norm"]), float(vals["lower_bound"])
        assert 0.0 < lower <= upper
        assert upper - lower <= 1e-6 * max(1.0, upper)

    def test_corona_solve_certificate_lower_bound(self, tmp_path, capsys):
        f = tmp_path / "corona.txt"
        f.write_text(CORONA_SOLVE_FILE)
        code, out, _ = run_cli(["corona", str(f)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        upper, lower = float(vals["solution_norm"]), float(vals["lower_bound"])
        # the grid optimum of G is 1/delta = 2, attained by G = (0, 2)
        assert 2.0 - 2e-6 <= lower <= upper <= 2.0 + 2e-6
        assert upper - lower <= 1e-6 * max(2.0, upper)

    def test_schur_solve_verify_rational_roundtrip(self, tmp_path, capsys):
        solve_text = (
            "format hardy-interp/1\nkind solve\nalgebra hinf\nmethod schur\n"
            "alpha 1\ngrid 6 48 0.99\n"
            "node 0 0\nnode 0.5 0\n"
            "direction 1 0\ndirection 1 0\n"
            "target 0 0\ntarget 0.25 0\n"
        )
        f = tmp_path / "schur.txt"
        f.write_text(solve_text)
        code, out, _ = run_cli(["solve", str(f)], capsys)
        assert code == 0
        lines = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert lines["method"] == "schur"
        verify_text = (
            "format hardy-interp/1\nkind verify\nalgebra hinf\nalpha 1\n"
            "grid 6 48 0.99\n"
            "node 0 0\nnode 0.5 0\n"
            "direction 1 0\ndirection 1 0\n"
            "target 0 0\ntarget 0.25 0\n"
            f"rnum {lines['solution.rnum']}\n"
            f"rden {lines['solution.rden']}\n"
        )
        vf = tmp_path / "verify.txt"
        vf.write_text(verify_text)
        code, vout, _ = run_cli(["verify", str(vf)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in vout.splitlines())
        assert float(vals["max_residual"]) <= 1e-10
        assert abs(float(vals["grid_norm"]) - float(lines["grid_norm"])) <= 1e-10

    def test_scaled_feasibility_method(self, tmp_path, capsys):
        # the scaled single-kernel method and its similarity bound c are gone
        f = tmp_path / "scaled.txt"
        for extra, message in (("method scaled\n", "unknown feasibility method"),
                               ("c 1.5\n", "unknown directive 'c'")):
            f.write_text(FAMILY_FILE + extra)
            code, out, err = run_cli(["feasible", str(f)], capsys)
            assert code == 2
            assert out == ""
            assert message in err

    def test_algebra_chooses_feasibility_test(self, tmp_path, capsys):
        f = tmp_path / "algebra.txt"
        f.write_text(ALGEBRA_THRESHOLD_FILE)
        code, out, _ = run_cli(["feasible", str(f)], capsys)
        assert code == 1
        assert "method family\nverdict infeasible\n" in out
        f.write_text(ALGEBRA_THRESHOLD_FILE + "method family\n")
        assert run_cli(["feasible", str(f)], capsys)[:2] == (code, out)
        # one kernel does not decide C + B*H-infinity, so it gives no verdict
        for method in ("single", "model"):
            f.write_text(ALGEBRA_THRESHOLD_FILE + f"method {method}\n")
            code, out, err = run_cli(["feasible", str(f)], capsys)
            assert code == 2
            assert out == ""
            assert f"unknown feasibility method {method!r}" in err
        f.write_text(FEASIBLE_OK + "method family\n")
        code, out, err = run_cli(["feasible", str(f)], capsys)
        assert code == 2
        assert "unknown feasibility method 'family'" in err

    @pytest.mark.parametrize("text, kernel", [
        (FEASIBLE_OK, "kernel szego\n"),
        (FEASIBLE_OK, "kernel model\nzero 0 0\n"),
        (ALGEBRA_THRESHOLD_FILE, "kernel cyclic\ncoeff 1 0\ncoeff 0 0\n"),
        (ALGEBRA_THRESHOLD_FILE, "kernel model\n"),
    ], ids=["hinf-szego", "hinf-model", "cplusb-cyclic", "cplusb-model"])
    def test_feasible_rejects_kernel_line(self, tmp_path, capsys, text, kernel):
        # the algebra fixes the kernel of its test; a kernel line is for the
        # kernel and pick commands
        f = tmp_path / "k.txt"
        f.write_text(text + kernel)
        code, out, err = run_cli(["feasible", str(f)], capsys)
        assert code == 2
        assert out == ""
        assert "no kernel line" in err

    def test_corona_check_cplusb_family(self, tmp_path, capsys):
        f = tmp_path / "cc.txt"
        f.write_text(CORONA_CHECK_FILE)   # F = (1, z^2): 1 and B*z^0
        code, out, _ = run_cli(["corona", str(f)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert vals["verdict"] == "pass"
        assert int(vals["kernels_tested"]) == 2 * 16

    def test_pick_command(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text(FEASIBLE_OK.replace("kind feasible", "kind pick"))
        code, out, _ = run_cli(["pick", str(f)], capsys)
        assert code == 0
        assert "min_eig" in out and "row.0" in out

    def test_kernel_command(self, tmp_path, capsys):
        f = tmp_path / "k.txt"
        f.write_text(
            "format hardy-interp/1\nkind kernel\nkernel szego\n"
            "pair 0.5 0 0.5 0\n"
        )
        code, out, _ = run_cli(["kernel", str(f)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert float(vals["value.0"].split()[0]) == pytest.approx(4.0 / 3.0)

    def test_zero_cyclic_coeff_exit_two(self, tmp_path, capsys):
        # an all-zero model vector cannot be normalized: no kernel, no NaN values
        f = tmp_path / "k.txt"
        f.write_text(
            "format hardy-interp/1\nkind kernel\nkernel cyclic\n"
            "zero 0 0\ncoeff 0 0\npair 0.5 0 0.5 0\n"
        )
        code, out, err = run_cli(["kernel", str(f)], capsys)
        assert code == 2
        assert out == ""
        assert "nonzero coeff" in err

    def test_huge_cyclic_coeff_normalized(self, tmp_path, capfd):
        # entries near 1e300 have a norm that overflows; they name the same
        # unit model vector as entries of modulus about 1
        f = tmp_path / "k.txt"
        values = []
        for coeff in ("1 0", "1e300 0", "1 1", "1.5e308 1.5e308"):
            f.write_text(
                "format hardy-interp/1\nkind kernel\nkernel cyclic\n"
                f"zero 0 0\nzero 0.5 0\ncoeff {coeff}\ncoeff {coeff}\n"
                "pair 0.2 0 0.1 0\n"
            )
            code = main(["kernel", str(f)])
            out, err = capfd.readouterr()
            assert code == 0, err
            assert "Warning" not in err
            values.append(dict(ln.partition(" ")[::2] for ln in out.splitlines())["value.0"])
        assert values[:2] == ["0.65344156271538945 0"] * 2
        assert values[3] == values[2]

    def test_distance_command(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text(DISTANCE_FILE)
        code, out, _ = run_cli(["distance", str(f)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert float(vals["primal"]) == pytest.approx(1.0, abs=1e-7)
        assert abs(float(vals["gap"])) <= 1e-6
        # the distance computation takes no tolerance or seed
        assert "config.tol" not in vals and "config.seed" not in vals

    def test_distance_runs_one_minimiser(self, tmp_path, capsys, monkeypatch):
        # primal and dual come from one barrier solve per problem
        from hardy_interp import duality

        calls = []
        barrier = duality._barrier
        monkeypatch.setattr(duality, "_barrier",
                            lambda problem: calls.append(1) or barrier(problem))
        f = tmp_path / "d.txt"
        f.write_text(DISTANCE_FILE)
        code, _, _ = run_cli(["distance", str(f)], capsys)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("last_target, expected", [("-0.5 0", 0), ("0 0", 2)])
    def test_solve_exits_by_degree_consistency(self, tmp_path, capsys, last_target,
                                                expected):
        # targets 0, 1/2, 0 lie on no degree-1 function: an input error
        f = tmp_path / "linear.txt"
        f.write_text(LINEAR_SOLVE_FILE.replace("target -0.5 0", f"target {last_target}"))
        code, out, _ = run_cli(["solve", str(f)], capsys)
        assert code == expected
        if expected == 0:
            vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
            assert vals["meets_level"] == "yes"
            coeffs = [float(t) for t in vals["solution.fcoeff.0"].split()]
            assert np.abs(np.array(coeffs) - [0.0, 0.0, 1.0, 0.0]).max() < 1e-8

    def test_not_converged_certificate(self, tmp_path, capsys):
        # the barrier stops once its interior is lost to rounding, with no
        # floating-point warning, and prints its best level
        f = tmp_path / "solve.txt"
        f.write_text(NOT_CONVERGED_FILE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["solve", str(f)], capsys)
        assert code == 3
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert vals["verdict"] == "not-converged"
        assert int(re.fullmatch(r"gap \S+ after (\d+) steps", vals["reason"])[1]) < 500
        assert 0.0 < float(vals["best_level"]) <= 1.0
        assert "not converged after" in err

    def test_corona_solve_failure_certificate(self, tmp_path, capsys):
        # |F(0)| = 1/2 < delta: the precheck fails on the node set
        f = tmp_path / "corona.txt"
        f.write_text(CORONA_SOLVE_FILE.replace("delta 0.5", "delta 0.9"))
        code, out, _ = run_cli(["corona", str(f)], capsys)
        assert code == 1
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert vals["verdict"] == "fail"
        assert vals["reason"].startswith("corona hypothesis fails on the node set")
        assert float(vals["min_eig"]) < -1e-8
        assert "solution.kind" not in vals

    def test_verify_cplusb_uses_canonical_cyclic_kernel(self, tmp_path, capsys):
        # f = z^2 + z^3 / 2 in C + z^2 H-infinity; pick_min_eig is the pick
        # command's min_eig (the same default kernel) at alpha = grid_norm
        data = ("algebra cplusb\nzero 0 0\nzero 0 0\n"
                "node 0 0\nnode 0.5 0\nnode 0 -0.4\n"
                "direction 1 0\ndirection 1 0\ndirection 1 0\n"
                "target 0 0\ntarget 0.3125 0\ntarget -0.16 0.032\n")
        f = tmp_path / "verify.txt"
        f.write_text("format hardy-interp/1\nkind verify\nalpha 1\ngrid 6 48 0.99\n"
                     "fdegree 1\nfcoeff 0 0 1 0 0.5 0\n" + data)
        code, out, _ = run_cli(["verify", str(f)], capsys)
        assert code == 0
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert float(vals["max_residual"]) <= 1e-15
        pick = tmp_path / "pick.txt"
        pick.write_text(f"format hardy-interp/1\nkind pick\nalpha {vals['grid_norm']}\n" + data)
        code, pout, _ = run_cli(["pick", str(pick)], capsys)
        assert code == 0
        pvals = dict(ln.partition(" ")[::2] for ln in pout.splitlines())
        assert pvals["kernel"] == "cyclic(deg 2)"
        assert vals["pick_min_eig"] == pvals["min_eig"]
        assert vals["pick_psd"] == "yes"

    def test_distance_prints_rounds(self, tmp_path, capsys):
        # the Newton steps of the barrier solve, after the unchanged lines
        f = tmp_path / "d.txt"
        f.write_text(DISTANCE_FILE.replace("arow 0 0 -1 0", "arow 0 0 -1 0.5"))
        code, out, _ = run_cli(["distance", str(f)], capsys)
        assert code == 0
        keys = [ln.partition(" ")[0] for ln in out.splitlines()]
        start = keys.index("primal")
        assert keys[start:start + 5] == ["primal", "dual", "gap", "rank", "rounds"]
        vals = dict(ln.partition(" ")[::2] for ln in out.splitlines())
        assert int(vals["rounds"]) > 0


class TestCertificate:
    def test_every_value_kind_in_text_and_json(self):
        cert = Certificate()
        cert.add("complex", complex(0.1, -2.0))
        cert.add("float", 1.0 / 3.0)
        cert.add("np_float", np.float64(2.0) / 3.0)
        cert.add("int", 5)
        cert.add("np_int", np.int64(7))
        cert.add("array", np.array([1.0 + 2.0j, 0.5]))
        cert.add("list", [complex(1.0, 0.0), 1j])
        cert.add("mixed", [16, 64, 0.995])
        cert.add("str", "yes")
        assert cert.emit("text") == (
            "complex 0.10000000000000001 -2\n"
            "float 0.33333333333333331\n"
            "np_float 0.66666666666666663\n"
            "int 5\n"
            "np_int 7\n"
            "array 1 2 0.5 0\n"
            "list 1 0 0 1\n"
            "mixed 16 64 0.995\n"
            "str yes\n"
        )
        expected = {
            "complex": [0.1, -2.0],
            "float": 1.0 / 3.0,
            "np_float": 2.0 / 3.0,
            "int": 5,
            "np_int": 7,
            "array": [[1.0, 2.0], [0.5, 0.0]],
            "list": [[1.0, 0.0], [0.0, 1.0]],
            "mixed": [16, 64, 0.995],
            "str": "yes",
        }
        assert cert.emit("json") == json.dumps(expected, indent=2) + "\n"


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


# Directives whose numbers are counts: a huge value there is a request for a
# huge allocation, not a malformed file, so the fuzzer does not make one.
COUNT_KEYS = ("samples", "grid", "degree", "fdegree", "rank", "seed")
FUZZ_BASES = [
    ("feasible", FEASIBLE_OK),
    ("feasible", FAMILY_FILE),
    ("corona", CORONA_CHECK_FILE),
    ("distance", DISTANCE_FILE),
]


@st.composite
def mutated_problem(draw):
    """A base problem file with lines dropped or duplicated and numeric
    tokens replaced by nan, inf, a huge value or a word."""
    command, text = draw(st.sampled_from(FUZZ_BASES))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "number")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split()
            spots = [j for j, t in enumerate(tokens) if j and _is_number(t)]
            if not spots:
                continue
            words = ["nan", "inf", "-inf", "seven"]
            if tokens[0] not in COUNT_KEYS:
                words.append("1e300")
            tokens[draw(st.sampled_from(spots))] = draw(st.sampled_from(words))
            lines[i] = " ".join(tokens)
    return command, "\n".join(lines) + "\n"


class TestFuzz:
    @settings(max_examples=60)
    @given(mutated_problem())
    def test_mutated_file_exits_cleanly(self, case):
        command, text = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.txt"
            path.write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestImport:
    def test_every_export_resolves(self):
        # a stale name in a module's __all__ breaks `from <module> import *`
        import hardy_interp

        stale = []
        for info in pkgutil.iter_modules(hardy_interp.__path__):
            module = importlib.import_module(f"hardy_interp.{info.name}")
            stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                      if not hasattr(module, name)]
        assert stale == []

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hardy_interp.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_minimax_solve_leaves_scipy_optimize_unloaded(self, tmp_path):
        f = tmp_path / "solve.txt"
        f.write_text(SOLVE_FILE)
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        script = ("import io, sys, contextlib\n"
                  "from hardy_interp import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = cli.main(['solve', {str(f)!r}])\n"
                  "print(code, 'scipy.optimize' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_distance_leaves_scipy_optimize_unloaded(self, tmp_path):
        f = tmp_path / "distance.txt"
        f.write_text(DISTANCE_FILE)
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        script = ("import io, sys, contextlib\n"
                  "from hardy_interp import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = cli.main(['distance', {str(f)!r}])\n"
                  "print(code, 'scipy.optimize' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        f = tmp_path / "fam.txt"
        f.write_text(FAMILY_FILE)
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "hardy_interp.cli", "feasible", str(f)],
                capture_output=True,
            )
            assert proc.returncode == 1
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_thread_cap_does_not_change_output(self, tmp_path):
        f = tmp_path / "fam.txt"
        f.write_text(FAMILY_FILE)
        outs = []
        for threads in ("1", "4"):
            src = Path(__file__).resolve().parents[1] / "src"
            env = {"HARDY_INTERP_THREADS": threads, "PATH": "/usr/bin:/bin",
                   "PYTHONPATH": str(src)}
            proc = subprocess.run(
                [sys.executable, "-m", "hardy_interp.cli", "feasible", str(f)],
                capture_output=True,
                env={**env},
            )
            assert proc.returncode == 1
            assert b"verdict infeasible" in proc.stdout
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
