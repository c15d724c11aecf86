"""Independent checks of the program's certificates.

Everything here is the benchmark's own numpy: Blaschke products, the
Takenaka-Malmquist basis that witness coefficients refer to, the algebra
bases that solution coefficients refer to, cyclic-kernel Pick assembly and
``numpy.linalg.eigvalsh``.  Nothing imports the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EIG_TOL = 1e-8          # the program's default PSD tolerance
RESIDUAL_TOL = 1e-8     # node residual of any returned interpolant
NORM_RTOL = 1e-9        # recomputed grid norm against the reported one
SWEEP = 4096            # unit vectors in the reference sweep for witnesses


@dataclass
class Outcome:
    """Verdict of the benchmark's checks on one certificate."""

    ok: bool
    reason: str = ""
    quality: dict = field(default_factory=dict)
    solution: tuple = None   # (fdegree, fcoeff rows as printed, grid norm)


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# --- disk-analytic primitives ---------------------------------------------

def blaschke(zeros, z):
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def tm_basis(zeros, z):
    """Takenaka-Malmquist orthonormal basis of the model space at z."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((z.size, len(zeros)), dtype=complex)
    prefix = np.ones(z.size, dtype=complex)
    for k, a in enumerate(zeros):
        out[:, k] = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) * prefix
        prefix = prefix * (z - a) / (1.0 - np.conj(a) * z)
    return out


def basis_size(zeros, degree: int) -> int:
    return degree + 1 if zeros is None else degree + 2


def basis_eval(zeros, degree: int, z):
    """Monomials z^0..z^d for H-infinity; 1, B z^0..B z^d for C + B H-inf."""
    z = np.asarray(z, dtype=complex)
    powers = z[:, None] ** np.arange(degree + 1)[None, :]
    if zeros is None:
        return powers
    return np.column_stack([np.ones(z.size), blaschke(zeros, z)[:, None] * powers])


def function_values(zeros, degree, coeffs, z):
    return basis_eval(zeros, degree, z) @ np.atleast_2d(coeffs).T


def boundary_sup(zeros, degree, coeffs, count: int = 4096) -> float:
    circle = np.exp(2j * np.pi * np.arange(count) / count)
    return float(np.linalg.norm(function_values(zeros, degree, coeffs, circle),
                                axis=1).max())


def grid_points(radial: int, angular: int, radius: float):
    """Cosine-spaced radii times uniform angles, the program's disk grid."""
    radii = radius * np.sin(np.pi * (np.arange(radial) + 1) / (2.0 * radial))
    return (radii[:, None] * np.exp(2j * np.pi * np.arange(angular) / angular)).ravel()


def grid_norm(zeros, degree, coeffs, grid) -> float:
    return float(np.linalg.norm(function_values(zeros, degree, coeffs,
                                                grid_points(*grid)), axis=1).max())


def szego(x):
    return 1.0 / (1.0 - x[:, None] * np.conj(x)[None, :])


def cyclic_gram(zeros, c, x):
    """Gram of the cyclic kernel v(z) conj(v(w)) + B(z) conj(B(w)) S(z, w);
    ``c`` may be one unit vector (d,) or a batch (K, d)."""
    a = tm_basis(zeros, x) @ np.atleast_2d(c).T          # (n, K)
    b = blaschke(zeros, x)
    inner = np.outer(b, np.conj(b)) * szego(x)
    g = np.einsum("ik,jk->kij", a, np.conj(a)) + inner[None]
    return g if np.ndim(c) == 2 else g[0]


def pick_coefficients(dirs, targets, alpha):
    """alpha^2 <v_j, v_i> - w_i conj(w_j)."""
    dirs = np.atleast_2d(dirs)
    return alpha ** 2 * (np.conj(dirs) @ dirs.T) - np.outer(targets, np.conj(targets))


def min_eig(q) -> float:
    q = np.asarray(q)
    return np.linalg.eigvalsh(0.5 * (q + np.swapaxes(q, -1, -2).conj()))[..., 0]


def hinf_threshold(points, dirs, targets) -> float:
    """Smallest alpha with a PSD Szego Pick matrix: alpha^2 is the top
    eigenvalue of the pencil ((w w*) o S, (V V*) o S)."""
    s = szego(points)
    a = np.outer(targets, np.conj(targets)) * s
    b = (np.conj(dirs) @ dirs.T) * s
    chol = np.linalg.cholesky(0.5 * (b + b.conj().T))
    half = np.linalg.solve(chol, a)
    m = np.linalg.solve(chol, half.conj().T).conj().T
    return float(np.sqrt(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]))


def unit_sweep(rng, d: int, count: int = SWEEP):
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# --- certificates -----------------------------------------------------------

def parse_certificate(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out[key] = rest
    return out


def complexes(text: str):
    vals = [float(t) for t in text.split()]
    require(len(vals) % 2 == 0 and vals, f"bad complex list {text!r}")
    return np.array(vals[0::2]) + 1j * np.array(vals[1::2])


def number(cert: dict, key: str) -> float:
    require(key in cert, f"certificate lacks {key}")
    val = float(cert[key])
    require(np.isfinite(val), f"{key} is not finite")
    return val


def close(reported: float, own: float, scale: float, what: str) -> None:
    require(abs(reported - own) <= 1e-8 * max(1.0, scale),
            f"{what}: reported {reported:.6e}, recomputed {own:.6e}")


def solution_rows(cert: dict):
    degree = int(number(cert, "solution.fdegree"))
    rows, k = [], 0
    while f"solution.fcoeff.{k}" in cert:
        rows.append(complexes(cert[f"solution.fcoeff.{k}"]))
        k += 1
    require(bool(rows), "certificate lacks solution.fcoeff rows")
    return degree, np.array(rows), [cert[f"solution.fcoeff.{j}"] for j in range(k)]


def check_feasible(p, cert, rng) -> dict:
    d = p.data
    verdict = cert.get("verdict")
    require(verdict == p.expect["verdict"],
            f"verdict {verdict}, known answer {p.expect['verdict']}")
    reported = number(cert, "min_eig")
    cmat = pick_coefficients(d["dirs"], d["targets"], d["alpha"])
    if d["zeros"] is None:
        q = cmat * szego(d["points"])
        close(reported, min_eig(q), np.abs(q).max(), "Szego Pick min eig")
        return {}
    if verdict == "feasible":
        require(reported >= -EIG_TOL, f"feasible with min_eig {reported:.3e}")
        return {}
    witness = complexes(cert.get("witness", ""))
    require(abs(np.linalg.norm(witness) - 1.0) <= 1e-8, "witness is not a unit vector")
    q = cmat * cyclic_gram(d["zeros"], witness, d["points"])
    own = min_eig(q)
    require(own < -EIG_TOL, f"witness kernel gives min eig {own:.3e}, not negative")
    close(reported, own, np.abs(q).max(), "witness min eig")
    grams = cyclic_gram(d["zeros"], unit_sweep(rng, witness.size), d["points"])
    reference = min(own, float(min_eig(cmat[None] * grams).min()))
    return {"witness_depth": reported / reference}


def corona_matrix(d, points, gram):
    fv = function_values(d["zeros"], d["fdeg"], d["coeffs"], points)
    return (fv @ fv.conj().T - d["delta"] ** 2) * gram


def check_corona_check(p, cert) -> dict:
    d = p.data
    require(cert.get("verdict") == p.expect["verdict"],
            f"verdict {cert.get('verdict')}, known answer {p.expect['verdict']}")
    reported = number(cert, "min_eig")
    if cert["verdict"] == "pass":
        require(int(number(cert, "sets_tested")) == len(d["sets"]),
                "pass without testing every set")
        require(reported >= -EIG_TOL, f"pass with min_eig {reported:.3e}")
        return {}
    pts = complexes(cert.get("worst_set", ""))
    require(any(s.size == pts.size and np.allclose(s, pts, atol=1e-15)
                for s in d["sets"]), "worst_set is not one of the point sets")
    param = complexes(cert.get("worst_parameter", ""))
    q = corona_matrix(d, pts, cyclic_gram(d["zeros"], param, pts))
    own = min_eig(q)
    require(own < -EIG_TOL, f"witness kernel gives min eig {own:.3e}, not negative")
    close(reported, own, np.abs(q).max(), "corona witness min eig")
    return {}


def check_corona_solve(p, cert) -> dict:
    d = p.data
    require(cert.get("verdict") == "pass", f"verdict {cert.get('verdict')}")
    degree, rows, _ = solution_rows(cert)
    nodes = d["nodes"]
    fv = function_values(d["zeros"], d["fdeg"], d["coeffs"], nodes)
    gv = function_values(d["zeros"], degree, rows, nodes)
    residual = float(np.abs(np.sum(fv * gv, axis=1) - 1.0).max())
    require(residual <= RESIDUAL_TOL, f"F.G - 1 at the nodes is {residual:.3e}")
    norm = grid_norm(d["zeros"], degree, rows, d["grid"])
    reported = number(cert, "solution_norm")
    require(abs(norm - reported) <= NORM_RTOL * norm,
            f"solution_norm {reported!r}, recomputed {norm!r}")
    require(norm <= (1.0 + 1e-3) / d["delta"], f"norm {norm:.6f} above (1+1e-3)/delta")
    return {}


def node_residual(d, degree, rows) -> float:
    fv = function_values(d["zeros"], degree, rows, d["points"])
    attained = np.sum(fv * np.conj(np.atleast_2d(d["dirs"])), axis=1)
    return float(np.abs(attained - d["targets"]).max())


def check_solve(p, cert) -> tuple:
    d = p.data
    require(cert.get("meets_level") == "yes", "solution does not meet its level")
    degree, rows, raw = solution_rows(cert)
    residual = node_residual(d, degree, rows)
    require(residual <= RESIDUAL_TOL, f"node residual {residual:.3e}")
    norm = grid_norm(d["zeros"], degree, rows, d["grid"])
    reported = number(cert, "grid_norm")
    require(abs(norm - reported) <= NORM_RTOL * norm,
            f"grid_norm {reported!r}, recomputed {norm!r}")
    require(norm <= d["alpha"] * (1.0 + 1e-6), f"grid norm {norm} above alpha")
    quality = {"norm_ratio": norm / d["optimum"]} if "optimum" in d else {}
    return quality, (degree, raw, norm)


def check_verify(p, cert) -> dict:
    d = p.data
    residual = number(cert, "max_residual")
    require(residual <= RESIDUAL_TOL, f"verify max_residual {residual:.3e}")
    reported = number(cert, "grid_norm")
    require(abs(reported - d["solve_norm"]) <= NORM_RTOL * d["solve_norm"],
            f"verify grid_norm {reported!r}, solve reported {d['solve_norm']!r}")
    q = pick_coefficients(d["dirs"], d["targets"], reported) * szego(d["points"])
    close(number(cert, "pick_min_eig"), min_eig(q), np.abs(q).max(), "verify Pick min eig")
    return {}


def check_distance(p, cert) -> dict:
    d = p.data
    primal, dual = number(cert, "primal"), number(cert, "dual")
    require(abs(primal - dual) <= 1e-6, f"|primal - dual| = {abs(primal - dual):.3e}")
    require(primal >= dual - 1e-10, f"weak duality violated by {dual - primal:.3e}")
    require(abs(number(cert, "gap") - (primal - dual)) <= 1e-15 * max(1.0, primal),
            "gap is not primal - dual")
    top = float(np.linalg.svd(d["target"], compute_uv=False)[0])
    require(0.0 < dual and primal <= top * (1.0 + 1e-12),
            f"distance {primal} outside (0, ||A|| = {top}]")
    return {}


def check(p, code: int, out: str, rng) -> Outcome:
    """Check one run: exit code against the known answer, then the
    certificate against the benchmark's own recomputation."""
    try:
        require(code == p.expect["exit"], f"exit code {code}, expected {p.expect['exit']}")
        cert = parse_certificate(out)
        quality, solution = {}, None
        if p.command == "feasible":
            quality = check_feasible(p, cert, rng)
        elif p.command == "corona" and "nodes" in p.data:
            quality = check_corona_solve(p, cert)
        elif p.command == "corona":
            quality = check_corona_check(p, cert)
        elif p.command == "solve":
            quality, solution = check_solve(p, cert)
        elif p.command == "verify":
            quality = check_verify(p, cert)
        elif p.command == "distance":
            quality = check_distance(p, cert)
        else:
            raise CheckFailed(f"no check for command {p.command}")
    except (CheckFailed, ValueError, KeyError, np.linalg.LinAlgError) as exc:
        return Outcome(False, f"{type(exc).__name__}: {exc}")
    return Outcome(True, "", quality, solution)
