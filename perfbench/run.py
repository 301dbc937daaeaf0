"""ADA-HEALTH benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics. The
line before the last is a detail block (host, provenance, sample
counts, digests, problems); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="cohort sizes; smoke is the reduced self-test pass",
    )
    return parser.parse_args(argv)


def load_engine() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(
            f"perfbench: no ADA-HEALTH sources at {SRC}; run from the"
            " root of a repository checkout"
        )
    sys.path.insert(0, str(SRC))


def _terminate(signum, frame) -> None:
    """Turn SIGTERM into SystemExit so the scratch directory is removed."""
    sys.exit(128 + signum)


def stop_helper_processes() -> None:
    """Stop every process ``multiprocessing`` started, and wait for each.

    A pooled round's shared-memory leases start the resource tracker,
    which otherwise outlives this process until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    for helper in (
        getattr(resource_tracker, "_resource_tracker", None),
        getattr(forkserver, "_forkserver", None),
    ):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    load_engine()
    signal.signal(signal.SIGTERM, _terminate)
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of"
                 f" {', '.join(WORKLOADS)}")

    expected = json.loads((HERE / "digests.json").read_text())
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, detail = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            args.scale,
            workdir,
            ROOT,
            expected,
        )
    finally:
        stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
