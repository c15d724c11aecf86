"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a recording wrapper in
every ``hardy_interp`` module namespace that binds it: a name imported with
``from .numerics import hermitian_min_eig`` is a separate binding, and
patching only the defining module would miss calls made through it.  A
traced name that no longer exists is reported as absent, so the same
benchmark keeps measuring after a layer is renamed or deleted.

Spans (name, start, end, parent, problem id) are kept in memory and written
out when the run ends; self time is a span's duration minus its children's.
The wrappers keep one stack and assume one thread, which holds while
``HARDY_INTERP_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import re
import subprocess
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) bindings that make up that layer
TRACED = {
    "cli.main": [("cli", "main")],
    "cli.parse_problem_file": [("problemfile", "parse_problem_file")],
    "numerics.hermitian_eigenvalues": [("numerics", "hermitian_eigenvalues")],
    "numerics.minimax_affine": [("numerics", "minimax_affine")],
    "pick.feasible_family": [("pick", "feasible_family")],
    "pick.feasible_single": [("pick", "feasible_single")],
    "pick.build_pick_matrix": [("pick", "build_pick_matrix")],
    "rkhs.gram": [("rkhs", "SzegoKernel.gram"), ("rkhs", "ModelSpaceKernel.gram"),
                  ("rkhs", "CyclicKernel.gram")],
    "rkhs.sample_model_sphere": [("rkhs", "sample_model_sphere")],
    "corona.corona_check": [("corona", "corona_check")],
    "corona.corona_solve": [("corona", "corona_solve")],
    "solve.tangential_solve": [("solve", "tangential_solve")],
    "solve.witness_interpolant": [("solve", "witness_interpolant")],
    "solve.verify_solution": [("solve", "verify_solution")],
    "duality.distance_primal": [("duality", "distance_primal")],
    "duality.distance_dual": [("duality", "distance_dual")],
}

# work counters read off return values: span name -> (counter, attribute)
RESULT_COUNTERS = {
    "pick.feasible_family": ("pick.samples_tested", "samples_tested"),
    "corona.corona_check": ("corona.kernels_tested", "kernels_tested"),
    "numerics.minimax_affine": ("numerics.minimax_affine.rounds", "iterations"),
}

IMPORTS = {
    "import.numpy.s": "numpy",
    "import.scipy_stats.s": "scipy.stats",
    "import.scipy_optimize.s": "scipy.optimize",
    "import.hardy_interp.s": "hardy_interp",
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, problem id]
        self.stack = []
        self.problem = None
        self.counters = defaultdict(int)
        self.absent = []
        self._restore = []

    def _wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self.stack[-1] if self.stack else -1, self.problem])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = [start, end]
            if counter is not None:
                self.counters[counter[0]] += int(getattr(result, counter[1], 0) or 0)
            return result

        return traced

    def install(self, package: str = "hardy_interp") -> None:
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if (key == package or key.startswith(package + ".")) and m is not None]
        for name, bindings in TRACED.items():
            found = False
            for module_name, path in bindings:
                owner = sys.modules.get(f"{package}.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, "__dict__", {}).get(attr)
                if not callable(original):
                    continue
                found = True
                wrapper = self._wrap(name, original)
                if outer:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
            if not found:
                self.absent.append(name)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,problem\n")
            for i, (name, start, end, parent, problem) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{problem}\n")


def layer_metrics(tracer: Tracer, problems: int) -> dict:
    """Per-problem calls and seconds of each traced layer, plus the work
    counters, as named in BENCHMARK.json."""
    summary = tracer.summary()
    per = 1.0 / max(problems, 1)

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0) * per

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.s"] = get(name, "s")
    metrics["cli.self.s"] = get("cli.main", "self_s")
    for counter, _ in RESULT_COUNTERS.values():
        metrics[counter] = tracer.counters.get(counter, 0) * per
    eig_under = tracer.calls_under("numerics.hermitian_eigenvalues", "pick.feasible_family")
    samples = tracer.counters.get("pick.samples_tested", 0)
    metrics["pick.refine_eig_share"] = (
        max(eig_under - samples, 0) / eig_under if eig_under else 0.0)
    return metrics


def import_times(python: str, env: dict, cwd: str) -> dict:
    """Cumulative import seconds of the named modules from -X importtime;
    a module that is no longer imported at start-up reads 0."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import hardy_interp.cli"],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-400:]}")
    cumulative = {}
    pattern = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")
    for line in proc.stderr.splitlines():
        match = pattern.match(line.strip())
        if match:
            cumulative.setdefault(match.group(2), int(match.group(1)) * 1e-6)
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORTS.items()}
