"""Rewrite ``reference/<workload>.json`` from the package in ``src/``.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [workload ...]

Runs every op any seed can select (the whole catalogue of a query workload,
the one op of ``verify-sweep``) and stores what ``reference.extract`` keeps.
It refuses to write a reference for an op that raises, exits non-zero or
fails a report check.  Rewrite references only at a commit whose outputs are
known to be right: they are what later commits are checked against.
"""

from __future__ import annotations

import json
import os
import sys
import time

import reference
import run
import workloads


def all_ops(workload: str) -> list[list[str]]:
    if workload == "verify-sweep":
        return workloads.ops_for(workload, 0, 1)
    return [op for ops in workloads.catalogue(workload).values() for op in ops]


def main(argv: list[str]) -> int:
    root = os.getcwd()
    for workload in argv or workloads.WORKLOADS:
        ops = all_ops(workload)
        deadline = time.monotonic() + 3600
        result = run.run_worker(root, {"ops": ops, "trace": False}, deadline)
        refs = {}
        for argv_, rec in zip(ops, result["outputs"]):
            why = reference.failure(rec, reference.reference_entry(rec))
            if why is not None:
                print(f"error: {workloads.op_key(argv_)}: {why}", file=sys.stderr)
                return 1
            refs[workloads.op_key(argv_)] = reference.reference_entry(rec)
        os.makedirs(reference.REFERENCE_DIR, exist_ok=True)
        path = os.path.join(reference.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            lines = [f"{json.dumps(k)}: {json.dumps(refs[k], separators=(',', ':'))}" for k in sorted(refs)]
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{workload}: {len(refs)} ops in {result['wall_s']:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
