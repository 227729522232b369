"""Repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_gateway --seed 1 \\
        --seconds 15 --trace 0

The launcher prepares the compiled kernel library once, outside any
measurement, then runs the workload in a fresh child process whose
environment has the thread and backend overrides removed, so every run
measures the program's defaults.  The child's last output line is the
result object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
separately traced variant and reports the per-layer metrics, writing
its spans to ``.bench_build/traces/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
CHILD = Path(__file__).resolve().parent / "child.py"

#: Overrides a caller's shell may carry; removed so runs measure the
#: program's own defaults (threads are deliberately not pinned).
SCRUBBED = (
    "REPRO_BACKEND", "REPRO_PE", "REPRO_CNATIVE_THREADS",
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
)
PREPARE_TIMEOUT_S = 600.0
RUN_TIMEOUT_S = 170.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    # Keep the compiled-kernel cache inside the checkout.
    env["REPRO_CNATIVE_CACHE"] = str(BUILD / "cnative")
    return env


def _reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait until every process of the group has ended; kill stragglers
    (such as a worker or resource tracker still shutting down)."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


def run_child(args: list[str], timeout: float) -> int:
    """Run ``child.py`` in its own process group and wait for the whole
    group; kill it (workers included) if the child overruns."""
    process = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
        start_new_session=True,
    )
    try:
        status = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"benchmark child exceeded {timeout:.0f} s", file=sys.stderr)
        status = 1
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    finally:
        _reap_group(process.pid)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("no program sources under src/repro", file=sys.stderr)
        return 2
    status = run_child(["--prepare"], PREPARE_TIMEOUT_S)
    if status != 0:
        print("preparing the compiled kernels failed", file=sys.stderr)
        return 1
    child_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        trace_out = BUILD / "traces" / f"{args.workload}-{args.seed}.json"
        child_args += ["--trace-out", str(trace_out)]
    status = run_child(child_args, RUN_TIMEOUT_S)
    return 1 if status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
