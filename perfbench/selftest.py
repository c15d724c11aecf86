"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that a run of every workload
emits exactly the metrics it declares with their units, that tampered
certificates (a flipped verdict, a perturbed coefficient or bound) are
counted as failed, that a traced name which no longer exists is reported
as absent, and that the benchmark refuses to run without the program's
source.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import checks
import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULTS = []


def report(label: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")


def check_spec() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                     "per_layer"}:
        problems.append(f"keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"workloads {names} differ from the generators")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            if not NAME.match(entry["name"]) or entry["name"] in seen:
                problems.append(f"bad or repeated name {entry['name']!r}")
            seen.add(entry["name"])
            if section != "workloads" and not UNIT.match(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if section == "end_to_end" and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} out of range")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s missing or without the largest bound")
    report("BENCHMARK.json is well formed", not problems, "; ".join(problems))
    return spec


@contextlib.contextmanager
def tiny():
    """Every fifth problem of each template, one pass, one cold run."""
    saved = dict(workloads.WORKLOADS), run.MIN_SAMPLES, run.COLD_REPEATS
    for name, make in saved[0].items():
        workloads.WORKLOADS[name] = lambda rng, tag, make=make: make(rng, tag)[::5]
    run.MIN_SAMPLES, run.COLD_REPEATS = 1, 1
    try:
        yield
    finally:
        workloads.WORKLOADS.update(saved[0])
        run.MIN_SAMPLES, run.COLD_REPEATS = saved[1], saved[2]


def check_emitted(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            out = io.StringIO()
            with tiny(), contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "7",
                                 "--seconds", "0", "--trace", str(trace)])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (code == 0 and emitted == declared and result["correct"]
                  and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and all(isinstance(v["value"], float) for v in result["metrics"].values()))
            report(f"{workload} --trace {trace} emits every {section} metric with its unit",
                   ok, "" if ok else json.dumps(result)[:400])


def perturb_first_number(out: str, key: str, delta: float) -> str:
    lines = out.splitlines()
    for i, line in enumerate(lines):
        name, _, rest = line.partition(" ")
        if name == key:
            values = rest.split()
            values[0] = repr(float(values[0]) + delta)
            lines[i] = f"{name} {' '.join(values)}"
            return "\n".join(lines) + "\n"
    raise KeyError(key)


FLIP = {"feasible": "infeasible", "infeasible": "feasible", "pass": "fail", "fail": "pass"}


def tampered(problem, code: int, out: str):
    """Certificates that lie about the answer, each with a label."""
    cert = checks.parse_certificate(out)
    if "verdict" in cert and cert["verdict"] in FLIP:
        flipped = out.replace(f"verdict {cert['verdict']}\n",
                              f"verdict {FLIP[cert['verdict']]}\n")
        yield "flipped verdict", 1 - code, flipped
    keys = ["witness", "worst_parameter", "solution.fcoeff.0", "grid_norm",
            "solution_norm", "dual"]
    if cert.get("verdict") in ("infeasible", "fail"):
        keys.append("min_eig")   # a feasible sweep's minimum has no witness to re-check
    for key in keys:
        if key in cert:
            yield f"perturbed {key}", code, perturb_first_number(out, key, 1e-5)


def check_tampering() -> None:
    cli = run.import_program()
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(cli, workdir, 7, run.Tally())
        for workload in workloads.WORKLOADS:
            caught, total, clean = 0, 0, True
            queue = workloads.generate_pass(workload, 7, 0)[::3]
            while queue:
                problem = queue.pop(0)
                path = workdir / f"{problem.pid}.txt"
                path.write_text(problem.text, encoding="utf-8")
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([problem.command, str(path)])
                honest = checks.check(problem, code, out.getvalue(), runner.rng)
                clean = clean and honest.ok
                verify = workloads.followup(problem, honest)
                if verify is not None:
                    queue.insert(0, verify)
                for label, bad_code, bad_out in tampered(problem, code, out.getvalue()):
                    total += 1
                    outcome = checks.check(problem, bad_code, bad_out, runner.rng)
                    caught += not outcome.ok
                    if outcome.ok:
                        print(f"  not caught: {problem.stratum} {label}")
            report(f"{workload}: honest certificates pass, {caught}/{total} tampered "
                   "ones are counted as failed", clean and total > 0 and caught == total)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_absent() -> None:
    run.import_program()
    from hardy_interp import numerics
    original = numerics.hermitian_eigenvalues
    spans.TRACED["numerics.removed_layer"] = [("numerics", "no_such_function")]
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = numerics.hermitian_eigenvalues is not original
        tracer.uninstall()
    finally:
        del spans.TRACED["numerics.removed_layer"]
    report("a traced name that no longer exists is reported absent",
           tracer.absent == ["numerics.removed_layer"] and patched
           and numerics.hermitian_eigenvalues is original)


def check_refuses_without_source() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in (run.ROOT / "perfbench").glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "distance", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report("refuses to run without the program source",
           proc.returncode != 0 and not proc.stdout.strip(), proc.stderr.strip()[:200])


def main() -> int:
    spec = check_spec()
    check_tampering()
    check_absent()
    check_refuses_without_source()
    check_emitted(spec)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
