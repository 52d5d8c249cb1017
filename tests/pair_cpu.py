"""Paired process CPU of two source trees on one benchmark op stream.

Usage, from the root of a checkout::

    python3 tests/pair_cpu.py <tree_a> <tree_b> <workload> <rounds>

Each tree's ``src/admissible_sl2`` is imported under its own name
(``admsl2_a``, ``admsl2_b``) into this one interpreter, and the op stream of
``perfbench/workloads.ops_for(workload, 241, 10)`` is run ``rounds`` times.
Within a round each op runs once on each tree, back to back, the first side
alternating from op to op and from round to round, so a slow phase of a
shared machine falls on both sides alike.  An op's cost is its lowest
process CPU (``time.process_time``) over the rounds, as perfbench keeps an
op's lowest latency over its passes.

Printed: each side's sum of per-op minima, the first 16 hex digits of the
SHA-256 of each side's concatenated stdout (the same in every round, or the
script fails), the number of ops on which B's minimum is the lower, and
both sides' sums and their ratio B/A over the top decile: the tenth of the
ops (rounded up) with the largest A minima, the ops that set perfbench's
``op_p90_ms``.
Tier-1 does not collect this file; ``perfbench`` is imported, not changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS = 241, 10


def load_cli(tree: str, name: str):
    """``<tree>/src/admissible_sl2`` imported as the package ``name``; its ``cli`` module."""
    init = Path(tree).resolve() / "src" / "admissible_sl2" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_op(cli, argv: list[str]) -> tuple[float, str]:
    """(process CPU seconds, stdout) of one ``cli.main(argv)`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        cli.main(argv)
        cpu = time.process_time() - start
    return cpu, out.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) < 1:
        print("usage: python3 tests/pair_cpu.py <tree_a> <tree_b> <workload> <rounds>",
              file=sys.stderr)
        return 2
    tree_a, tree_b, workload, rounds = argv[0], argv[1], argv[2], int(argv[3])
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    ops = workloads.ops_for(workload, SEED, SECONDS)
    clis = (load_cli(tree_a, "admsl2_a"), load_cli(tree_b, "admsl2_b"))
    best = [[float("inf")] * len(ops) for _ in clis]
    digests: list[set[str]] = [set(), set()]
    for r in range(rounds):
        texts: list[list[str]] = [[], []]
        for k, op in enumerate(ops):
            for side in ((0, 1) if (k + r) % 2 == 0 else (1, 0)):
                cpu, text = run_op(clis[side], op)
                best[side][k] = min(best[side][k], cpu)
                texts[side].append(text)
        for side in (0, 1):
            digests[side].add(hashlib.sha256("".join(texts[side]).encode()).hexdigest()[:16])
    if any(len(d) != 1 for d in digests):
        print(f"error: stdout changed between rounds: {digests}", file=sys.stderr)
        return 1
    b_lower = sum(b < a for a, b in zip(*best))
    for label, tree, side in (("A", tree_a, 0), ("B", tree_b, 1)):
        print(f"{label} {tree}: cpu_s {sum(best[side]):.3f}  stdout_sha256 {digests[side].pop()}")
    print(f"B lower on {b_lower} of {len(ops)} ops ({workload}, seed {SEED}, {rounds} rounds)")
    decile = -(-len(ops) // 10)  # a tenth of the ops, rounded up
    top = sorted(range(len(ops)), key=best[0].__getitem__)[-decile:]
    top_a, top_b = (sum(side[k] for k in top) for side in best)
    print(f"top decile ({len(top)} ops by A): A {top_a:.3f}  B {top_b:.3f}  B/A {top_b / top_a:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
