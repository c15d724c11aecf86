"""Batch command-line harness.

Reads problem instances from structured text files, dispatches to the
solver modules, and emits machine-readable certificates on standard output
(text or JSON).  Diagnostics and timing go to standard error so that
certificates for identical inputs and seeds are byte-identical.

Exit codes: 0 feasible/success, 1 infeasible / no solution (certificate
still emitted), 2 input error, 3 numeric non-convergence (partial
certificate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .corona import CoronaProblem, corona_check, corona_solve
from .duality import TruncatedDistanceProblem, solve_distance
from .errors import (
    HardyInterpError,
    HypothesisInsufficientAtScale,
    NotConverged,
    ProblemFileError,
)
from .numerics import disk_grid, hermitian_min_eig
from .pick import (
    CplusB,
    FullHinf,
    TangentialProblem,
    Verdict,
    build_pick_matrix,
    default_kernel,
    feasible_family,
    feasible_single,
)
from .problemfile import (
    FORMAT_TAG,
    MINIMUMS,
    ProblemFile,
    format_number,
    parse_problem_file,
)
from .rkhs import (
    BlaschkeProduct,
    CyclicKernel,
    ModelSpaceKernel,
    ModelVector,
    SzegoKernel,
    tm_basis,
)
from .solve import (
    AnalyticBasis,
    SchurInterpolant,
    VectorAnalyticFunction,
    schur_interpolate,
    tangential_solve,
    verify_solution,
)

DEFAULT_GRID = (16, 64, 0.995)


def _plain(value):
    """A certificate value as JSON-ready Python, complex numbers as [re, im]."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _text(value) -> str:
    if isinstance(value, list):
        return " ".join(_text(v) for v in value)
    return format_number(value) if isinstance(value, float) else str(value)


class Certificate:
    """Ordered key/value certificate with deterministic serialization."""

    def __init__(self):
        self.items = []

    def add(self, key: str, value) -> None:
        self.items.append((key, _plain(value)))

    def emit(self, style: str) -> str:
        if style == "json":
            return json.dumps(dict(self.items), indent=2) + "\n"
        return "\n".join(f"{k} {_text(v)}" for k, v in self.items) + "\n"


def _build_algebra(pf: ProblemFile):
    name = pf.words.get("algebra", "hinf")
    if name in ("hinf", "h-infinity", "full"):
        return FullHinf()
    if name in ("cplusb", "c+bh"):
        if not pf.zeros:
            raise ProblemFileError("algebra cplusb requires at least one zero line")
        return CplusB(BlaschkeProduct(tuple(pf.zeros), pf.constant))
    raise ProblemFileError(f"unknown algebra {name!r}")


def _build_problem(pf: ProblemFile) -> TangentialProblem:
    algebra = _build_algebra(pf)
    pf.require("node", pf.nodes)
    pf.require("direction", pf.directions)
    pf.require("target", pf.targets)
    alpha = pf.scalars.get("alpha")
    if alpha is None:
        raise ProblemFileError("missing required field 'alpha'")
    return TangentialProblem(
        points=np.array(pf.nodes, dtype=complex),
        directions=np.array(pf.directions, dtype=complex),
        targets=np.array(pf.targets, dtype=complex),
        bound=alpha,
        algebra=algebra,
    )


def _build_kernel(pf: ProblemFile, algebra):
    name = pf.words.get("kernel")
    if name is None:
        return default_kernel(algebra) if algebra is not None else SzegoKernel()
    if name == "szego":
        return SzegoKernel()
    if not pf.zeros:
        raise ProblemFileError(f"kernel {name!r} requires zero lines")
    product = BlaschkeProduct(tuple(pf.zeros), pf.constant)
    if name == "model":
        return ModelSpaceKernel(product)
    if name == "cyclic":
        if not pf.coeffs:
            raise ProblemFileError("kernel cyclic requires coeff lines")
        coeffs = np.array(pf.coeffs, dtype=complex)
        if not np.any(coeffs):
            raise ProblemFileError("kernel cyclic needs a nonzero coeff vector")
        # parts scaled to at most 1, so that the norm of huge entries is finite
        coeffs /= max(np.abs(coeffs.real).max(), np.abs(coeffs.imag).max())
        vec = ModelVector(tm_basis(product), coeffs / np.linalg.norm(coeffs))
        return CyclicKernel(product, vec)
    raise ProblemFileError(f"unknown kernel {name!r}")


def _grid_from(pf: ProblemFile, args):
    radial, angular, radius = pf.grid if pf.grid else DEFAULT_GRID
    if args.grid_radial is not None:
        radial = args.grid_radial
    if args.grid_angular is not None:
        angular = args.grid_angular
    if args.grid_radius is not None:
        radius = args.grid_radius
    return disk_grid(radial, angular, radius)


def _scalar(pf: ProblemFile, args, key: str, default):
    if getattr(args, key, None) is not None:
        return getattr(args, key)
    return pf.scalars.get(key, default)


def _sweep(pf: ProblemFile, args, algebra, samples: int) -> dict:
    """The model-vector sweep's ``samples`` and ``seed``, from the flags or
    the file, as keywords; none for H-infinity, which tests one kernel."""
    if isinstance(algebra, FullHinf):
        return {}
    return {"samples": _scalar(pf, args, "samples", samples),
            "seed": _scalar(pf, args, "seed", 0)}


def _echo_config(cert: Certificate, **used) -> None:
    """Echo the settings a command used, and only those, in a fixed order."""
    grid = used.pop("grid", None)
    for key in ("tol", "seed", "samples", "degree"):
        if key in used:
            cert.add(f"config.{key}", used[key])
    if grid is not None:
        cert.add("config.grid", [grid.radial_count, grid.angular_count, grid.max_radius])


def _cmd_kernel(pf: ProblemFile, args, cert: Certificate) -> int:
    algebra = _build_algebra(pf) if pf.words.get("algebra") else None
    kernel = _build_kernel(pf, algebra)
    cert.add("kernel", kernel.tag)
    if not pf.pairs:
        raise ProblemFileError("kind kernel requires pair lines")
    for idx, (z, w) in enumerate(pf.pairs):
        cert.add(f"value.{idx}", complex(kernel(z, w)))
    return 0


def _cmd_pick(pf: ProblemFile, args, cert: Certificate) -> int:
    problem = _build_problem(pf)
    kernel = _build_kernel(pf, problem.algebra)
    pm = build_pick_matrix(problem, kernel)
    cert.add("kernel", pm.kernel_tag)
    cert.add("order", pm.matrix.shape[0])
    for i, row in enumerate(pm.matrix):
        cert.add(f"row.{i}", list(row))
    cert.add("min_eig", hermitian_min_eig(pm.matrix))
    return 0


def _cmd_feasible(pf: ProblemFile, args, cert: Certificate) -> int:
    problem = _build_problem(pf)
    tol = _scalar(pf, args, "tol", 1e-8)
    # the algebra fixes the test: no single kernel decides C + B*H-infinity
    method = "single" if isinstance(problem.algebra, FullHinf) else "family"
    if pf.words.get("method", method) != method:
        raise ProblemFileError(f"unknown feasibility method {pf.words['method']!r} "
                               f"for {problem.algebra.describe()}: it takes {method!r}")
    if "kernel" in pf.words:
        raise ProblemFileError("kind feasible takes no kernel line: the algebra fixes it")
    sweep = _sweep(pf, args, problem.algebra, 512)
    if method == "single":
        report = feasible_single(problem, tol)
    else:
        report = feasible_family(problem, tol=tol, **sweep)
    cert.add("method", method)
    cert.add("verdict", report.verdict.value)
    cert.add("min_eig", report.worst_min_eig)
    cert.add("samples_tested", report.samples_tested)
    if report.worst_parameter is not None:
        cert.add("witness", list(report.worst_parameter.coefficients))
    _echo_config(cert, tol=tol, **sweep)
    return 0 if report.verdict is Verdict.FEASIBLE else 1


def _solution_payload(cert: Certificate, func) -> None:
    if isinstance(func, SchurInterpolant):
        cert.add("solution.kind", "rational")
        cert.add("solution.rnum", list(func.numerator))
        cert.add("solution.rden", list(func.denominator))
    else:
        cert.add("solution.kind", "basis")
        cert.add("solution.fdegree", func.basis.degree)
        for k, row in enumerate(func.coefficients):
            cert.add(f"solution.fcoeff.{k}", list(row))


def _cmd_solve(pf: ProblemFile, args, cert: Certificate) -> int:
    problem = _build_problem(pf)
    method = pf.words.get("method", "auto")
    scalar_hinf = (
        problem.component_count == 1 and isinstance(problem.algebra, FullHinf)
    )
    if method == "auto":
        method = "schur" if scalar_hinf else "minimax"
    cert.add("method", method)
    grid = _grid_from(pf, args)
    if method == "schur":
        if not scalar_hinf:
            raise ProblemFileError("method schur needs scalar H-infinity data")
        func = schur_interpolate(problem.points, problem.targets, problem.bound)
        gnorm = func.grid_norm(grid.points)
        residual = float(np.abs(func.values(problem.points)[:, 0] - problem.targets).max())
        cert.add("grid_norm", gnorm)
        cert.add("residual", residual)
        _solution_payload(cert, func)
        _echo_config(cert, grid=grid)
        return 0
    degree = int(_scalar(pf, args, "degree", 8))
    level = pf.scalars.get("level", problem.bound)
    if not level > 0:
        raise ProblemFileError(f"level must be positive, got {level!r}")
    tol = _scalar(pf, args, "tol", 1e-6)
    result = tangential_solve(problem, degree, grid, level=level, tol=tol)
    cert.add("grid_norm", result.grid_norm)
    cert.add("lower_bound", result.minimax.lower_bound)
    cert.add("level", level)
    cert.add("meets_level", "yes" if result.meets_level else "no")
    cert.add("rounds", result.minimax.iterations)
    _solution_payload(cert, result.function)
    _echo_config(cert, tol=tol, degree=degree, grid=grid)
    return 0 if result.meets_level else 1


def _function_from(pf: ProblemFile, algebra) -> VectorAnalyticFunction:
    if not pf.fcoeff_rows:
        raise ProblemFileError("missing fcoeff lines")
    fdeg = pf.scalars.get("fdegree")
    coeffs = np.array(pf.fcoeff_rows, dtype=complex)
    basis_size = coeffs.shape[1]
    if fdeg is None:
        fdeg = basis_size - 1 if isinstance(algebra, FullHinf) else basis_size - 2
    basis = AnalyticBasis(algebra, int(fdeg))
    if basis.size != basis_size:
        raise ProblemFileError(
            f"fcoeff width {basis_size} does not match fdegree {fdeg} "
            f"(basis size {basis.size})"
        )
    return VectorAnalyticFunction(basis, coeffs)


def _cmd_corona(pf: ProblemFile, args, cert: Certificate) -> int:
    algebra = _build_algebra(pf)
    func = _function_from(pf, algebra)
    delta = pf.scalars.get("delta")
    if delta is None:
        raise ProblemFileError("missing required field 'delta'")
    problem = CoronaProblem(func, delta)
    mode = pf.words.get("mode", "check")
    cert.add("mode", mode)
    sweep = _sweep(pf, args, algebra, 200)
    if mode == "check":
        sets = [np.array(s, dtype=complex) for s in pf.point_sets]
        if not sets:
            raise ProblemFileError("mode check requires set lines")
        tol = _scalar(pf, args, "tol", 1e-8)
        report = corona_check(problem, sets, tol=tol, **sweep)
        cert.add("verdict", "pass" if report.passed else "fail")
        cert.add("min_eig", report.min_eig)
        cert.add("sets_tested", report.sets_tested)
        cert.add("kernels_tested", report.kernels_tested)
        if report.worst_point_set is not None:
            cert.add("worst_set", list(report.worst_point_set))
        if report.worst_parameter is not None:
            cert.add("worst_parameter", list(report.worst_parameter.coefficients))
        _echo_config(cert, tol=tol, **sweep)
        return 0 if report.passed else 1
    if mode == "solve":
        pf.require("node", pf.nodes)
        nodes = np.array(pf.nodes, dtype=complex)
        grid = _grid_from(pf, args)
        degree = int(_scalar(pf, args, "degree", 8))
        tol = _scalar(pf, args, "tol", 1e-6)
        used = dict(tol=tol, degree=degree, grid=grid, **sweep)
        try:
            solution, report = corona_solve(problem, nodes, degree, grid, tol=tol, **sweep)
        except HypothesisInsufficientAtScale as exc:
            cert.add("verdict", "fail")
            cert.add("reason", str(exc))
            if exc.report is not None:
                cert.add("min_eig", exc.report.min_eig)
            _echo_config(cert, **used)
            return 1
        cert.add("verdict", "pass")
        cert.add("node_residual", report.node_residual)
        cert.add("grid_residual", report.grid_residual)
        cert.add("solution_norm", report.solution_norm)
        cert.add("lower_bound", report.lower_bound)
        cert.add("norm_slack", report.norm_slack)
        _solution_payload(cert, solution)
        _echo_config(cert, **used)
        return 0
    raise ProblemFileError(f"unknown corona mode {mode!r}")


def _cmd_distance(pf: ProblemFile, args, cert: Certificate) -> int:
    if not pf.target_rows:
        raise ProblemFileError("kind distance requires arow lines")
    target = np.array(pf.target_rows, dtype=complex)
    basis = [np.array(m, dtype=complex) for m in pf.basis_matrices]
    rank = pf.scalars.get("rank", target.shape[1])
    problem = TruncatedDistanceProblem(target, basis, rank)
    solution = solve_distance(problem)
    cert.add("primal", solution.primal)
    cert.add("dual", solution.dual)
    cert.add("gap", solution.primal - solution.dual)
    cert.add("rank", problem.rank)
    cert.add("rounds", solution.rounds)
    return 0


def _cmd_verify(pf: ProblemFile, args, cert: Certificate) -> int:
    problem = _build_problem(pf)
    if pf.rational_num is not None:
        func = SchurInterpolant(np.array(pf.rational_num, dtype=complex),
                                np.array(pf.rational_den or [1.0], dtype=complex))
    else:
        func = _function_from(pf, problem.algebra)
    grid = _grid_from(pf, args)
    report = verify_solution(func, problem, grid)
    cert.add("max_residual", report.max_residual)
    for j, r in enumerate(report.residuals):
        cert.add(f"residual.{j}", float(r))
    cert.add("grid_norm", report.grid_norm)
    cert.add("pick_min_eig", report.pick_min_eig)
    cert.add("pick_psd", "yes" if report.pick_psd else "no")
    _echo_config(cert, grid=grid)
    return 0


_COMMANDS = {
    "kernel": _cmd_kernel,
    "pick": _cmd_pick,
    "feasible": _cmd_feasible,
    "solve": _cmd_solve,
    "corona": _cmd_corona,
    "distance": _cmd_distance,
    "verify": _cmd_verify,
}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardy-interp",
        description="Tangential interpolation and Toeplitz-corona batch solver",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=list(_COMMANDS), help="problem kind to run")
    parser.add_argument("file", help="problem file path")
    parser.add_argument("--tol", type=_finite_float, default=None)
    parser.add_argument("--grid-radial", type=int, default=None)
    parser.add_argument("--grid-angular", type=int, default=None)
    parser.add_argument("--grid-radius", type=_finite_float, default=None)
    parser.add_argument("--degree", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, least in MINIMUMS.items():
        if (value := getattr(args, key)) is not None and value < least:
            parser.error(f"argument --{key}: expected at least {least}, got {value}")
    started = time.perf_counter()
    cert = Certificate()
    cert.add("format", FORMAT_TAG)
    cert.add("command", args.command)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        pf = parse_problem_file(text)
        if pf.kind != args.command:
            raise ProblemFileError(
                f"problem file has kind {pf.kind!r}, command is {args.command!r}")
        if _scalar(pf, args, "tol", 0.0) < 0:
            raise ProblemFileError("tol must be nonnegative")
        code = _COMMANDS[args.command](pf, args, cert)
    except (ProblemFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        cert.add("verdict", "not-converged")
        cert.add("reason", str(exc))
        if exc.best is not None:
            cert.add("best_level", exc.best.achieved_level)
        sys.stdout.write(cert.emit(args.output))
        print(f"not converged after {time.perf_counter() - started:.3f}s",
              file=sys.stderr)
        return 3
    except HardyInterpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(cert.emit(args.output))
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
