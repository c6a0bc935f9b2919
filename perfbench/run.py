"""Repo benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-uniform --seed 1 --seconds 30 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each measures.  The run

1. generates the seed's inputs into ``.perfbench-cache/`` unless they are
   cached there already (outside any timing);
2. runs the workload in a process of its own, so peak memory, pool
   start-up and import state belong to this run only;
3. prints one JSON object as the last line of standard output:
   ``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``
   with every end-to-end metric (``--trace 0``) or every per-layer metric
   (``--trace 1``).

It exits non-zero, without a result line, when the program's sources are
missing or a metric declared in ``BENCHMARK.json`` was not measured, and
exits 1 after printing the result when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench-cache")
WORKLOADS = ("stream-uniform", "stream-durable", "solve-batch")

#: Hard wall budget of one run; child processes are killed past it.
RUN_BUDGET_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _run_child(cmd, *, env, deadline: float, what: str) -> None:
    """Run ``cmd`` in its own process group; kill the group past ``deadline``."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchmarkError(f"{what} exceeded the run budget") from None
    finally:
        # Reap anything the child left behind in its group (e.g. pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise BenchmarkError(f"{what} exited with code {code}")


def _declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run(args) -> dict:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchmarkError(f"program sources not found under {src}")
    declared = _declared_metrics(args.trace)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + HERE
    deadline = time.monotonic() + RUN_BUDGET_S
    kind = "batch" if args.workload == "solve-batch" else "stream"

    os.makedirs(CACHE, exist_ok=True)
    _run_child(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--seed", str(args.seed),
         "--scale", args.scale, "--kind", kind, "--cache", CACHE],
        env=env, deadline=deadline, what="input generation",
    )
    sys.path.insert(0, HERE)
    import inputs  # noqa: E402  (the benchmark's own module, found via HERE)

    input_dir = inputs.input_dir(CACHE, args.scale, args.seed, kind)
    work = os.path.join(CACHE, f"work-{os.getpid()}")
    out = os.path.join(work, "result.json")
    trace_out = os.path.join(
        CACHE, "traces", f"{args.workload}-{args.scale}-seed{args.seed}.json"
    )
    os.makedirs(work, exist_ok=True)
    try:
        _run_child(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--workload", args.workload, "--inputs", input_dir, "--work", work,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-out", trace_out, "--out", out],
            env=env, deadline=deadline, what=f"workload {args.workload}",
        )
        with open(out, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    missing = sorted(set(declared) - set(measured))
    if missing:
        raise BenchmarkError(f"declared metrics not measured: {missing}")
    print(json.dumps(result["detail"], sort_keys=True), file=sys.stderr)
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(measured[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"),
        help="input size; 'tiny' is for the benchmark's own smoke tests",
    )
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
