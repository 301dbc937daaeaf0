"""Self-test of the benchmark: a reduced-size pass over every workload.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --scale smoke`` untraced and traced
and checks that the result line is well formed, that the output checks
passed, and that every metric ``BENCHMARK.json`` names is emitted with
its unit. It then checks that a perturbed item list trips the digest
check, and that the benchmark refuses to run without the sources.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message: str) -> None:
    sys.exit(f"selftest: FAIL: {message}")


def run_benchmark(cwd: Path, workload: str, trace: int):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_workload(workload: str, trace: int) -> None:
    done = run_benchmark(ROOT, workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:"
             f" {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        fail(f"{workload} trace={trace}: output check failed:"
             f" {detail['problems']}")
    if result["attempted"] < 1:
        fail(f"{workload}: nothing attempted")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = result["metrics"]
    names = {metric["name"] for metric in wanted}
    if set(emitted) != names:
        fail(f"{workload} trace={trace}: missing"
             f" {sorted(names - set(emitted))}, extra"
             f" {sorted(set(emitted) - names)}")
    for metric in wanted:
        got = emitted[metric["name"]]
        if got["unit"] != metric["unit"]:
            fail(f"{workload}: {metric['name']} unit {got['unit']}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{workload}: {metric['name']} value {got['value']!r}")
        if not trace and got["value"] == 0:
            fail(f"{workload}: end-to-end {metric['name']} is 0")
    print(f"selftest: {workload} trace={trace}: {len(emitted)} metrics ok")


def check_perturbation() -> None:
    """A changed score, order or item must change the digest."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checks
    from repro.core import ADAHealth
    from repro.data.synthetic import small_dataset

    result = ADAHealth().analyze(small_dataset(n_patients=120, seed=2))
    items = list(result.items)
    recorded = checks.items_digest(items)
    if checks.digest_problems("same", checks.items_digest(items), recorded):
        fail("an unchanged item list tripped the check")
    swapped = [items[1], items[0]] + items[2:]
    dropped = items[:-1]
    nudged = [item for item in items]
    original_score = nudged[0].score
    nudged[0].score = original_score + 1e-12
    for label, perturbed in (("swapped", swapped), ("dropped", dropped),
                             ("nudged", nudged)):
        if not checks.digest_problems(
            label, checks.items_digest(perturbed), recorded
        ):
            fail(f"a {label} item list passed the digest check")
    nudged[0].score = original_score
    result.items = []
    if not checks.analysis_problems(result, checks.ALL_GOALS):
        fail("an empty item list passed the analysis check")
    print("selftest: perturbed item lists trip the output check")


def check_refuses_without_sources() -> None:
    """In a directory holding only the benchmark, it must exit non-zero."""
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_benchmark(bare, "paper-cold", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    if done.returncode == 0 or done.stdout.strip():
        fail("the benchmark ran without the ADA-HEALTH sources")
    print("selftest: refuses to run without sources")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)
    check_perturbation()
    check_refuses_without_sources()
    print("selftest: ok")


if __name__ == "__main__":
    main()
