"""Benchmark of the ``admsl2`` entry point on seeded, generated inputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload series-queries --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn

Workloads and their inputs are described in ``workloads.py``; ``--seconds``
sets the amount of work of a query stream there, not a clock.  A run:

1. times a fixed pure-Python loop (a machine-speed diagnostic that never
   rescales a metric);
2. with ``--trace 0``, measures set-up: ``SETUP_REPEATS`` fresh interpreters
   that only import ``admissible_sl2.cli`` from ``src/`` (after one warm-up
   that also compiles the bytecode), reporting the median wall time;
3. with ``--trace 0``, runs the op stream ``workloads.PASSES`` times, each
   pass in a fresh worker process (``worker.py``) and in the same order (see
   ``end_to_end_values`` for how the passes combine); with ``--trace 1``
   it runs one untraced and then one traced worker, and reports the
   per-layer metrics of the traced one together with the tracing overhead
   (traced minus untraced ``wall_s``);
4. checks every op against its stored reference (``reference.py``).

End-to-end metrics (``--trace 0``): ``wall_s`` (sum of op latencies, set-up
excluded), ``setup_s``, ``op_p50_ms``, ``op_p90_ms`` (with one op, as in
``verify-sweep``, both are that op's latency), and ``peak_rss_mb``, the
largest peak RSS of the workers.  ``attempted`` in the result counts the op
executions (ops x passes), the samples behind the percentiles.  The share of
failed executions is printed as ``ops_failed_frac`` and carried by
``failed``/``attempted`` in the result.

Every metric is printed by name with its unit; the last line of stdout is the
JSON result.  Each run also writes ``perfbench/results/<workload>-seed<seed>
-trace<t>.json`` with the metrics, the per-op latencies and failures, and the
machine: commit, nproc, CPU model, Python, mpmath backend, numpy and the loop
time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RESULTS_DIR = os.path.join(HERE, "results")
SETUP_REPEATS = 7
BUDGET_S = 170.0
IMPORT_ONLY = "import sys; sys.path.insert(0, 'src'); import admissible_sl2.cli"
CALIBRATION_ITERS = 2_000_000

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def calibration_loop_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _git_commit(root: str) -> str | None:
    try:
        # The ceiling keeps git from searching the directories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(root: str, loop_s: float) -> dict:
    return {
        "commit": _git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "calibration_loop_s": loop_s,
    }


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def measure_setup(root: str, deadline: float) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_ONLY],
            cwd=root, capture_output=True, text=True, timeout=_remaining(deadline),
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"importing the package failed:\n{proc.stderr[-2000:]}")
        if i:
            times.append(elapsed)
    return times


def run_worker(root: str, job: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=json.dumps(job), cwd=root, capture_output=True, text=True,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the time budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(workload: str, ops: list[list[str]], outputs: list[dict]) -> list[dict]:
    refs = reference.load(workload)
    failures = []
    for argv, rec in zip(ops, outputs):
        key = workloads.op_key(argv)
        why = reference.failure(rec, refs.get(key))
        if why is not None:
            failures.append({"op": key, "why": why})
    return failures


def percentile_ms(latencies: list[float], pct: int) -> float:
    if len(latencies) == 1:
        return latencies[0] * 1000
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1000


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(root, "src", "admissible_sl2", "cli.py")):
        raise BenchError(f"no package sources under {os.path.join(root, 'src')}")
    loop_s = calibration_loop_s()
    ops = workloads.ops_for(workload, seed, seconds)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{int(trace)}")

    setup = [] if trace else measure_setup(root, deadline)
    jobs = [{"ops": ops, "trace": False}] * (1 if trace else workloads.PASSES[workload])
    if trace:
        jobs.append({"ops": ops, "trace": True, "spans_path": stem + "-spans.json.gz"})
    runs = [run_worker(root, job, deadline) for job in jobs]
    failures = [f for r in runs for f in check_outputs(workload, ops, r["outputs"])]
    attempted = len(ops) * len(runs)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in trace_values(*runs).items()}
    else:
        values = end_to_end_values(runs)
        values["setup_s"] = statistics.median(setup)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    for f in failures[:5]:
        print(f"{workload}: failed op {f['op']}: {f['why']}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(root, loop_s),
        "versions": runs[0]["versions"],
        "result": result,
        "setup_s_samples": setup,
        "latencies_s": [r["latencies_s"] for r in runs],
        "failures": failures,
        "ops": [workloads.op_key(op) for op in ops],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return result


def end_to_end_values(runs: list[dict]) -> dict[str, float]:
    """End-to-end values (all but setup_s) of passes over one op stream.

    ``wall_s`` sums each op's lowest latency over the passes.  The latency
    percentiles are taken over every execution of every op (ops x passes),
    which five seeds on modular-queries showed to be steadier than the
    percentiles of the per-op lowest latencies (IQR/median 0.03 against 0.19
    for p90); a one-op stream reports its op's lowest latency for both.
    """
    per_op = list(zip(*(r["latencies_s"] for r in runs)))
    lowest = [min(samples) for samples in per_op]
    executions = lowest if len(lowest) == 1 else [x for samples in per_op for x in samples]
    return {
        "wall_s": sum(lowest),
        "op_p50_ms": percentile_ms(executions, 50),
        "op_p90_ms": percentile_ms(executions, 90),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def trace_values(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer values of the traced worker, with the overhead against the untraced one."""
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or "_per_" in name:
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def print_result(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload}  ops_failed_frac = {frac:g} ({result['failed']} of {result['attempted']} op executions)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            print_result(name, result)
            for key in ("attempted", "failed"):
                combined[key] += result[key]
            combined["correct"] = combined["correct"] and result["correct"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
