"""Compare the certificates of two source trees on every benchmark problem.

Usage: python3 tools/same_certificates.py PARENT_SRC CHANGE_SRC

Each argument is the ``src`` directory of a checkout.  Each tree runs in its
own interpreter and feeds ``hardy_interp.cli.main`` every problem file of the
benchmark workloads (perfbench/workloads.py, imported read-only): the three
workloads, seeds 1 and 7, passes 0-2, with the verify round trips that
perfbench/checks.py derives from each tree's own solve certificates, once
with text output and once with JSON.  The problem files in
tools/extra_problems, which cover commands and paths the workloads never
run, follow as their own group "extra", also in text and JSON.  Stdout and
the exit code of each run are compared; the differing runs are printed per
workload, with the lines that differ.  Exits 1 if any run differs or the two trees ran different
problems, else 0.
"""

import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
EXTRA = TOOLS / "extra_problems"
SEEDS = (1, 7)
PASSES = (0, 1, 2)
STYLES = ("text", "json")


def run_tree(src: str) -> None:
    """Run every problem through the tree at ``src``; print one JSON record
    per run (workload, run id, exit code, stdout) to stdout."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import numpy as np

    import checks
    import workloads
    from hardy_interp import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the tree at {src}")
    records = []

    def run(workload, name, command, path):
        """Run one problem file in both styles; return exit codes and stdout."""
        outputs, codes = {}, {}
        for style in STYLES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes[style] = cli.main([command, str(path), "--output", style])
            outputs[style] = out.getvalue()
            records.append({"workload": workload, "run": f"{name} {style}",
                            "exit": codes[style], "stdout": outputs[style]})
        return codes, outputs

    with tempfile.TemporaryDirectory() as work:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                rng = np.random.default_rng([seed, 99])
                for index in PASSES:
                    queue = list(workloads.generate_pass(workload, seed, index))
                    while queue:
                        problem = queue.pop(0)
                        path = Path(work) / f"{problem.pid}.txt"
                        path.write_text(problem.text, encoding="utf-8")
                        codes, outputs = run(workload, problem.pid, problem.command, path)
                        outcome = checks.check(problem, codes["text"], outputs["text"], rng)
                        follow = workloads.followup(problem, outcome)
                        if follow is not None:
                            queue.insert(0, follow)
    for path in sorted(EXTRA.glob("*.txt")):
        # the second directive, "kind <command>", names the command
        run("extra", path.stem, path.read_text(encoding="utf-8").split()[3], path)
    json.dump(records, sys.stdout)


def collect(src: str) -> list:
    code = ("import sys; sys.path.insert(0, sys.argv[2]); "
            "import same_certificates; same_certificates.run_tree(sys.argv[1])")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("HARDY_INTERP_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code, src, str(TOOLS)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (collect(src) for src in argv)
    differ = False
    for workload in dict.fromkeys(r["workload"] for r in parent + change):
        old = {r["run"]: r for r in parent if r["workload"] == workload}
        new = {r["run"]: r for r in change if r["workload"] == workload}
        runs = list(dict.fromkeys([*old, *new]))
        changed = [run for run in runs if old.get(run) != new.get(run)]
        print(f"{workload}: {len(runs)} runs, {len(changed)} differ")
        for run in changed:
            differ = True
            if run not in old or run not in new:
                print(f"  {run}: only in the {'change' if run in new else 'parent'}")
                continue
            a, b = old[run], new[run]
            print(f"  {run}: exit {a['exit']} -> {b['exit']}")
            for line in difflib.unified_diff(a["stdout"].splitlines(),
                                             b["stdout"].splitlines(), n=0, lineterm=""):
                if not line.startswith(("---", "+++", "@@")):
                    print(f"    {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
