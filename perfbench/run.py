"""hardy-interp benchmark.

    python3 perfbench/run.py --workload feasibility --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program under test is imported
from ``src/`` of that checkout and nowhere else.  Generated problem files
are fed to ``hardy_interp.cli.main`` in process, in a closed loop with one
client, after the interpreter has imported the package once.  Cold start is
measured separately in fresh interpreters: ``setup_s`` (import of
``hardy_interp.cli``) and ``cold_first_s`` (``python -m hardy_interp.cli``
on the workload's first problem file).  Every answer is checked by the
benchmark's own code (``checks.py``) before it counts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
warm loop with spans around the program's layers (``spans.py``) and prints
the per-layer metrics, import attribution and the tracing overhead.  The
last line of standard output is the JSON result; the line before it records
the environment, the raw wall-clock figures, the samples behind each metric
and any failed problem.  Times in the metrics are scaled for machine speed
(``speed.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

COLD_REPEATS = 5          # fresh interpreters for setup_s and for cold_first_s
MIN_SAMPLES = 40          # so that >= 10 samples lie beyond the tail percentile
TAIL_PERCENTILE = 75


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HARDY_INTERP_THREADS", None)
    return env


def timed_subprocess(argv) -> tuple:
    """Wall and speed-scaled seconds of a fresh interpreter, and its result."""
    before = speed.reference()
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=subprocess_env(), timeout=120)
    wall = time.perf_counter() - start
    return wall, wall * speed.scale(before, speed.reference()), proc


class Tally:
    """Attempted and failed problems of one run, with the failures listed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.quality = {"norm_ratio": [], "witness_depth": []}

    def record(self, problem, outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failures.append({"problem": problem.pid, "stratum": problem.stratum,
                                  "reason": outcome.reason})
        for key, value in outcome.quality.items():
            self.quality[key].append(float(value))


class Runner:
    """Feeds problem files to the imported CLI and checks each answer."""

    def __init__(self, cli, workdir: Path, seed: int, tally: Tally):
        self.cli = cli
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 99])
        self.tally = tally
        self.tracer = None
        self.last_reference = None

    def run_one(self, problem) -> tuple:
        """Wall and speed-scaled seconds inside ``cli.main``, and the outcome."""
        path = self.workdir / f"{problem.pid}.txt"
        path.write_text(problem.text, encoding="utf-8")
        out = io.StringIO()
        if self.tracer is not None:
            self.tracer.problem = problem.pid
        before = self.last_reference or speed.reference()
        raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main([problem.command, str(path)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            raised = traceback.format_exc().strip().splitlines()[-1]
        wall = time.perf_counter() - start
        self.last_reference = speed.reference()
        if raised is None:
            outcome = checks.check(problem, code, out.getvalue(), self.rng)
        else:
            outcome = checks.Outcome(False, f"raised {raised}")
        self.tally.record(problem, outcome)
        return wall, wall * speed.scale(before, self.last_reference), outcome

    def run_pass(self, workload: str, seed: int, index: int) -> dict:
        """One pass of the workload template.  Problem generation, checks
        and the speed reference are not timed."""
        side = {"wall": [], "scaled": [], "ok": 0}
        queue = list(workloads.generate_pass(workload, seed, index))
        while queue:
            problem = queue.pop(0)
            wall, scaled, outcome = self.run_one(problem)
            side["wall"].append(wall)
            side["scaled"].append(scaled)
            side["ok"] += outcome.ok
            verify = workloads.followup(problem, outcome)
            if verify is not None:
                queue.insert(0, verify)
        return side

    def loop(self, workload: str, seed: int, seconds: float) -> dict:
        """Whole passes until ``seconds`` of wall time inside the program
        and MIN_SAMPLES problems are done."""
        total = {"wall": [], "scaled": [], "ok": 0, "passes": 0}
        while sum(total["wall"]) < seconds or len(total["wall"]) < MIN_SAMPLES:
            merge(total, self.run_pass(workload, seed, total["passes"]))
        return total


def merge(total: dict, side: dict) -> None:
    total["wall"] += side["wall"]
    total["scaled"] += side["scaled"]
    total["ok"] += side["ok"]
    total["passes"] += 1


def import_program():
    sys.path.insert(0, str(SRC))
    from hardy_interp import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's source")
    return cli


def blas_threads():
    """OpenBLAS thread count of this process, read from the loaded library."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "hardy_interp_threads": os.environ.get("HARDY_INTERP_THREADS", "unset"),
    }


def declared_metrics(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end(args, runner: Runner, tally: Tally, workdir: Path) -> tuple:
    python = sys.executable
    first = workloads.generate_pass(args.workload, args.seed, 0)[0]
    path = workdir / "cold.txt"
    path.write_text(first.text, encoding="utf-8")
    # Import and cold runs alternate, so that drift in machine speed during
    # the run affects both alike.
    setup, cold = {"wall": [], "scaled": []}, {"wall": [], "scaled": []}
    for _ in range(COLD_REPEATS):
        wall, scaled, proc = timed_subprocess([python, "-c", "import hardy_interp.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-400:]}")
        setup["wall"].append(wall)
        setup["scaled"].append(scaled)
        wall, scaled, proc = timed_subprocess(
            [python, "-m", "hardy_interp.cli", first.command, str(path)])
        tally.record(first, checks.check(first, proc.returncode, proc.stdout, runner.rng))
        cold["wall"].append(wall)
        cold["scaled"].append(scaled)
    runner.run_one(first)   # warm-up: lazy initialisation is not timed below
    loop = runner.loop(args.workload, args.seed, args.seconds)

    def timings(kind: str) -> dict:
        lat = loop[kind]
        return {
            "setup_s": statistics.median(setup[kind]),
            "cold_first_s": statistics.median(cold[kind]),
            "problems_per_s": loop["ok"] / sum(lat),
            "latency_p50_s": float(np.percentile(lat, 50)),
            "latency_tail_s": float(np.percentile(lat, TAIL_PERCENTILE)),
        }

    metrics = timings("scaled")
    metrics.update({
        "ok_share": loop["ok"] / len(loop["wall"]),
        "norm_ratio": mean_or_one(tally.quality["norm_ratio"]),
        "witness_depth": mean_or_one(tally.quality["witness_depth"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    record = {"wall": timings("wall"), "setup_wall": setup["wall"],
              "cold_first_wall": cold["wall"], "passes": loop["passes"],
              "latency_samples": len(loop["wall"]), "tail_percentile": TAIL_PERCENTILE,
              "norm_ratio_samples": len(tally.quality["norm_ratio"]),
              "witness_depth_samples": len(tally.quality["witness_depth"])}
    return metrics, record


def mean_or_one(values) -> float:
    """Mean quality ratio; 1 (no shortfall) on workloads without such problems."""
    return float(np.mean(values)) if values else 1.0


def per_layer(args, runner: Runner) -> tuple:
    metrics = spans.import_times(sys.executable, subprocess_env(), str(ROOT))
    runner.run_one(workloads.generate_pass(args.workload, args.seed, 0)[0])
    # Each pass runs untraced and then traced, so that drift in machine
    # speed affects both sides of the overhead alike.
    tracer = spans.Tracer()
    plain = {"wall": [], "scaled": [], "ok": 0, "passes": 0}
    traced = {"wall": [], "scaled": [], "ok": 0, "passes": 0}
    while sum(plain["wall"]) < args.seconds or len(plain["wall"]) < MIN_SAMPLES:
        merge(plain, runner.run_pass(args.workload, args.seed, plain["passes"]))
        tracer.install()
        runner.tracer = tracer
        try:
            merge(traced, runner.run_pass(args.workload, args.seed, traced["passes"]))
        finally:
            tracer.uninstall()
            runner.tracer = None
    problems = len(traced["wall"])
    metrics.update(spans.layer_metrics(tracer, problems))
    plain_rate = plain["ok"] / sum(plain["scaled"])
    metrics["trace.overhead_frac"] = (
        (plain_rate - traced["ok"] / sum(traced["scaled"])) / plain_rate)
    summary = tracer.summary()
    metrics["trace.self_coverage"] = (
        sum(entry["self_s"] for entry in summary.values()) / sum(traced["wall"]))
    tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.csv")
    record = {"passes": traced["passes"], "traced_problems": problems,
              "absent": tracer.absent,
              "self_s_per_problem": {name: entry["self_s"] / problems
                                     for name, entry in sorted(summary.items())}}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hardy_interp" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("HARDY_INTERP_THREADS", None)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        cli = import_program()
        tally = Tally()
        runner = Runner(cli, workdir, args.seed, tally)
        if args.trace:
            computed, record = per_layer(args, runner)
            section = "per_layer"
        else:
            computed, record = end_to_end(args, runner, tally, workdir)
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_metrics(section)
    missing = sorted(set(units) - set(computed))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for failure in tally.failures:
        print(f"FAILED {failure['problem']} ({failure['stratum']}): {failure['reason']}",
              file=sys.stderr)
    print(json.dumps({"workload": args.workload, "environment": environment(args.seed),
                      "samples": record, "failures": tally.failures}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": float(computed[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
