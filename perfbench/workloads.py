"""Seeded problem generators for the three benchmark workloads.

Each workload is a fixed template of problem shapes (algebra, Blaschke
product, node count, components, degree).  The seed only draws the numbers
inside each shape, so the work per pass is the same for every seed while
the inputs differ.  Every problem carries the answer it must get, decided
here from a known truth and never from the program:

* the C + z^d H-infinity two-node family f(0) = 0, f(x) = w is feasible
  iff alpha >= |w| / |x|^d;
* data sampled from a function F in the algebra with alpha above its
  boundary supremum is feasible (necessity of Pick positivity);
* alpha below the H-infinity Pick threshold, computed here with
  ``numpy.linalg.eigvalsh``, is infeasible in H-infinity and in every
  subalgebra;
* a corona row F whose first component is 1 passes for delta < 1, and one
  whose norm at a node of a point set is below delta fails there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks

# The fixed Blaschke products problems draw from (zeros with multiplicity),
# so work that depends only on B repeats across problems.
PRODUCTS = {
    "z2": (0.0, 0.0),
    "z3": (0.0, 0.0, 0.0),
    "b2": (0.5, -0.4j),
    "b3": (0.3 + 0.3j, -0.5, 0.0),
}

GRID_CRIT4 = (8, 128, 0.995)
GRID_SOLVE = (8, 64, 0.995)


@dataclass
class Problem:
    """One problem file plus what the benchmark needs to check its answer."""

    pid: str
    stratum: str
    command: str
    text: str
    expect: dict
    data: dict = field(default_factory=dict)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def cfmt(values) -> str:
    return " ".join(f"{fmt(complex(z).real)} {fmt(complex(z).imag)}"
                    for z in np.atleast_1d(values))


def header(kind: str, *lines: str) -> list:
    return ["format hardy-interp/1", f"kind {kind}", *lines]


def algebra_lines(zeros) -> list:
    if zeros is None:
        return ["algebra hinf"]
    return ["algebra cplusb"] + [f"zero {cfmt(a)}" for a in zeros]


def tangential_lines(points, dirs, targets, alpha) -> list:
    lines = [f"alpha {fmt(alpha)}"]
    lines += [f"node {cfmt(x)}" for x in points]
    lines += [f"direction {cfmt(v)}" for v in dirs]
    lines += [f"target {cfmt(w)}" for w in targets]
    return lines


def text_of(lines) -> str:
    return "\n".join(lines) + "\n"


def disk_points(rng, n: int, rmax: float = 0.8, min_sep: float = 0.2):
    """n points uniform in the disk of radius rmax, pairwise min_sep apart."""
    pts = []
    while len(pts) < n:
        z = rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - p) >= min_sep for p in pts):
            pts.append(z)
    return np.array(pts)


def unit_rows(rng, n: int, m: int):
    v = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# --- feasibility -----------------------------------------------------------

def two_node_family(rng, pid, name, feasible):
    """f(0) = 0, f(x) = w in C + z^d H-infinity: feasible iff
    alpha >= |w| / |x|^d.  Alpha is 5-50% above the threshold or 10-50%
    below it."""
    zeros = PRODUCTS[name]
    d = len(zeros)
    x = rng.uniform(0.4, 0.75) * np.exp(2j * np.pi * rng.uniform())
    threshold = rng.uniform(0.5, 2.0)
    w = threshold * abs(x) ** d * np.exp(2j * np.pi * rng.uniform())
    alpha = threshold * (rng.uniform(1.05, 1.5) if feasible else rng.uniform(0.5, 0.9))
    points = np.array([0.0, x])
    dirs = np.ones((2, 1))
    targets = np.array([0.0, w])
    return Problem(
        pid, f"fam2-{name}", "feasible",
        text_of(header("feasible", *algebra_lines(zeros),
                       *tangential_lines(points, dirs, targets, alpha))),
        {"exit": 0 if feasible else 1,
         "verdict": "feasible" if feasible else "infeasible"},
        {"zeros": zeros, "points": points, "dirs": dirs, "targets": targets,
         "alpha": alpha},
    )


def sampled_data(rng, zeros, n, m):
    """Nodes, unit directions and targets attained by an in-algebra F,
    together with the boundary supremum of F."""
    fdeg = int(rng.integers(1, 4))
    coeffs = cnormal(rng, m, checks.basis_size(zeros, fdeg))
    points = disk_points(rng, n)
    dirs = unit_rows(rng, n, m)
    fv = checks.function_values(zeros, fdeg, coeffs, points)
    targets = np.sum(fv * np.conj(dirs), axis=1)
    sup = checks.boundary_sup(zeros, fdeg, coeffs)
    return points, dirs, targets, sup


def multi_node_family(rng, pid, name, n, m, feasible):
    """Feasible: data of an in-algebra F with alpha 5-20% above its
    boundary supremum.  Infeasible: the same kind of data with alpha 10-50%
    below the H-infinity Pick threshold."""
    zeros = PRODUCTS[name] if name else None
    points, dirs, targets, sup = sampled_data(rng, zeros, n, m)
    if feasible:
        alpha = sup * rng.uniform(1.05, 1.2)
    else:
        alpha = checks.hinf_threshold(points, dirs, targets) * rng.uniform(0.5, 0.9)
    stratum = f"fam{n}-{name}-m{m}" if name else f"hinf{n}-m{m}"
    return Problem(
        pid, stratum, "feasible",
        text_of(header("feasible", *algebra_lines(zeros),
                       *tangential_lines(points, dirs, targets, alpha))),
        {"exit": 0 if feasible else 1,
         "verdict": "feasible" if feasible else "infeasible"},
        {"zeros": zeros, "points": points, "dirs": dirs, "targets": targets,
         "alpha": alpha},
    )


def corona_check_problem(rng, pid, name, passes):
    """Pass: F = (1, g) with delta < 1 over three sets of six points.
    Fail: F with delta 20-50% above |F(x)| at a node of the first set, of
    two points, so the check fails fast there."""
    zeros = PRODUCTS[name]
    fdeg = 1
    coeffs = cnormal(rng, 2, checks.basis_size(zeros, fdeg))
    sets = [disk_points(rng, k) for k in ((6, 6, 6) if passes else (2, 5, 5))]
    if passes:
        coeffs[0] = 0.0
        coeffs[0, 0] = 1.0
        delta = rng.uniform(0.5, 0.95)
    else:
        bad = sets[0][int(rng.integers(sets[0].size))]
        fv = checks.function_values(zeros, fdeg, coeffs, np.array([bad]))
        delta = float(np.linalg.norm(fv[0])) * rng.uniform(1.2, 1.5)
    lines = header("corona", "mode check", *algebra_lines(zeros),
                   f"fdegree {fdeg}", *[f"fcoeff {cfmt(r)}" for r in coeffs],
                   f"delta {fmt(delta)}", *[f"set {cfmt(s)}" for s in sets])
    return Problem(
        pid, f"corona-check-{name}", "corona", text_of(lines),
        {"exit": 0 if passes else 1, "verdict": "pass" if passes else "fail"},
        {"zeros": zeros, "fdeg": fdeg, "coeffs": coeffs, "delta": delta,
         "sets": sets},
    )


def feasibility_pass(rng, tag):
    # Per-problem cost comes in four bands of 7/6/4/3 problems, so that the
    # median latency falls inside the second band and the 75th percentile
    # inside the third rather than on a gap between bands: H-infinity checks
    # and fail-fast corona checks (milliseconds), two-node sweeps, four-node
    # sweeps, then six-node sweeps and a passing corona check.
    specs = [
        lambda p: multi_node_family(rng, p, None, 2, 1, True),
        lambda p: multi_node_family(rng, p, None, 3, 2, False),
        lambda p: multi_node_family(rng, p, None, 4, 1, True),
        lambda p: multi_node_family(rng, p, None, 5, 2, False),
        lambda p: multi_node_family(rng, p, None, 6, 1, True),
        lambda p: corona_check_problem(rng, p, "z2", False),
        lambda p: corona_check_problem(rng, p, "b2", False),
        lambda p: two_node_family(rng, p, "z2", True),
        lambda p: two_node_family(rng, p, "z2", False),
        lambda p: two_node_family(rng, p, "z3", True),
        lambda p: two_node_family(rng, p, "z3", False),
        lambda p: two_node_family(rng, p, "z2", False),
        lambda p: two_node_family(rng, p, "z3", True),
        lambda p: multi_node_family(rng, p, "b2", 4, 1, True),
        lambda p: multi_node_family(rng, p, "b3", 4, 2, False),
        lambda p: multi_node_family(rng, p, "b2", 4, 2, False),
        lambda p: multi_node_family(rng, p, "b3", 4, 1, True),
        lambda p: multi_node_family(rng, p, "b3", 6, 1, True),
        lambda p: multi_node_family(rng, p, "z2", 6, 2, False),
        lambda p: corona_check_problem(rng, p, "b3", True),
    ]
    return [spec(f"{tag}.{i}") for i, spec in enumerate(specs)]


# --- interpolate -----------------------------------------------------------

def two_node_solve(rng, pid, degree):
    """Criterion-4 shape: f(0) = 0, f(x) = w in C + z^2 H-infinity at
    tol 1e-4 on the 8x128 grid of radius 0.995.  The optimum is the constant
    multiple of z^2, of grid norm rho^2 |w| / |x|^2; alpha is that optimum."""
    x = rng.uniform(0.4, 0.75) * np.exp(2j * np.pi * rng.uniform())
    optimum = rng.uniform(0.5, 2.0)
    w = optimum * abs(x) ** 2 * np.exp(2j * np.pi * rng.uniform())
    points = np.array([0.0, x])
    dirs = np.ones((2, 1))
    targets = np.array([0.0, w])
    lines = header("solve", *algebra_lines(PRODUCTS["z2"]), "method minimax",
                   f"degree {degree}", "tol 0.0001", f"grid {GRID_CRIT4[0]} "
                   f"{GRID_CRIT4[1]} {GRID_CRIT4[2]}",
                   *tangential_lines(points, dirs, targets, optimum))
    return Problem(
        pid, f"solve2-d{degree}", "solve", text_of(lines), {"exit": 0},
        {"zeros": PRODUCTS["z2"], "points": points, "dirs": dirs,
         "targets": targets, "alpha": optimum, "grid": GRID_CRIT4,
         "optimum": GRID_CRIT4[2] ** 2 * optimum},
    )


def vector_solve(rng, pid, n):
    """H-infinity data of a two-component polynomial F, alpha 5-20% above
    its boundary supremum, solved at tol 1e-6 and then verified."""
    points, dirs, targets, sup = sampled_data(rng, None, n, 2)
    alpha = sup * rng.uniform(1.05, 1.2)
    grid = f"grid {GRID_SOLVE[0]} {GRID_SOLVE[1]} {GRID_SOLVE[2]}"
    lines = header("solve", *algebra_lines(None), "method minimax", "degree 6",
                   "tol 0.000001", grid,
                   *tangential_lines(points, dirs, targets, alpha))
    return Problem(
        pid, f"solve-hinf{n}-m2", "solve", text_of(lines), {"exit": 0},
        {"zeros": None, "points": points, "dirs": dirs, "targets": targets,
         "alpha": alpha, "grid": GRID_SOLVE, "verify": grid},
    )


def followup(solve: Problem, outcome):
    """The README round trip: a verify file made by pasting a checked solve
    certificate, or None when the problem has no round trip."""
    if "verify" not in solve.data or outcome.solution is None:
        return None
    fdegree, rows, norm = outcome.solution
    d = solve.data
    lines = header("verify", *algebra_lines(d["zeros"]),
                   *tangential_lines(d["points"], d["dirs"], d["targets"], d["alpha"]),
                   d["verify"], f"fdegree {fdegree}", *[f"fcoeff {r}" for r in rows])
    return Problem(solve.pid + ".verify", "verify-" + solve.stratum, "verify",
                   text_of(lines), {"exit": 0}, dict(d, solve_norm=norm))


def corona_solve_problem(rng, pid):
    """Criterion-5 shape over H-infinity: F = (p, c) with p linear and
    delta just below |c|, so G = (0, 1/c) shows the problem is solvable."""
    c = rng.uniform(0.4, 0.7) * np.exp(2j * np.pi * rng.uniform())
    coeffs = np.array([cnormal(rng, 2) * 0.5, [c, 0.0]])
    delta = 0.98 * abs(c)
    nodes = disk_points(rng, 5, rmax=0.6)
    lines = header("corona", "mode solve", *algebra_lines(None), "fdegree 1",
                   *[f"fcoeff {cfmt(r)}" for r in coeffs], f"delta {fmt(delta)}",
                   "degree 6", "tol 0.000001",
                   f"grid {GRID_SOLVE[0]} {GRID_SOLVE[1]} {GRID_SOLVE[2]}",
                   *[f"node {cfmt(x)}" for x in nodes])
    return Problem(
        pid, "corona-solve-hinf", "corona", text_of(lines),
        {"exit": 0, "verdict": "pass"},
        {"zeros": None, "fdeg": 1, "coeffs": coeffs, "delta": delta,
         "nodes": nodes, "grid": GRID_SOLVE},
    )


def interpolate_pass(rng, tag):
    # Cost bands of 7/7/6 problems (the median inside the second, the 75th
    # percentile inside the third): the 4 verify round trips and the degree
    # 2-6 solves, the degree 8-20 solves, the vector and corona solves.
    specs = [lambda p, d=d: two_node_solve(rng, p, d) for d in range(2, 21, 2)]
    specs += [lambda p, n=n: vector_solve(rng, p, n) for n in (4, 5, 5, 6)]
    specs += [lambda p: corona_solve_problem(rng, p)] * 2
    return [spec(f"{tag}.{i}") for i, spec in enumerate(specs)]


# --- distance --------------------------------------------------------------

# (n1, n2, s) in cost bands of 7/6/4/3 shapes, as for feasibility; the
# cost grows mostly with s.
DISTANCE_SHAPES = [
    (2, 3, 1), (2, 2, 1), (2, 6, 1), (2, 4, 1), (2, 5, 1), (3, 3, 1), (4, 2, 1),
    (4, 4, 1), (5, 5, 1), (4, 6, 1), (6, 2, 1), (5, 3, 1), (6, 4, 1),
    (4, 4, 2), (6, 3, 2), (5, 4, 2), (5, 5, 2),
    (4, 4, 3), (5, 6, 3), (6, 6, 3),
]


def distance_problem(rng, pid, n1, n2, s):
    """Criterion-6 shape: Gaussian target and subspace, tensor rank n1."""
    target = cnormal(rng, n2, n1)
    basis = [cnormal(rng, n2, n1) for _ in range(s)]
    lines = header("distance", *[f"arow {cfmt(r)}" for r in target])
    for b in basis:
        lines += ["smatrix"] + [f"srow {cfmt(r)}" for r in b]
    return Problem(pid, f"distance-{n1}x{n2}-s{s}", "distance", text_of(lines),
                   {"exit": 0}, {"target": target, "basis": basis})


def distance_pass(rng, tag):
    return [distance_problem(rng, f"{tag}.{i}", *shape)
            for i, shape in enumerate(DISTANCE_SHAPES)]


WORKLOADS = {
    "feasibility": feasibility_pass,
    "interpolate": interpolate_pass,
    "distance": distance_pass,
}


def generate_pass(workload: str, seed: int, index: int) -> list:
    """Problems of pass ``index``: the workload's template, numbers drawn
    from (seed, workload, pass)."""
    key = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, key, index])
    return WORKLOADS[workload](rng, f"s{seed}.p{index}")
