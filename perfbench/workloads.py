"""Seeded op streams for the three benchmark workloads.

An op is the argv of one ``admsl2`` call (``cli.main``).  Each workload
stresses a different layer of the package:

- ``verify-sweep``: one ``verify --suite all`` over the fixed box
  (pmax, qmax) = (6, 4).  PBW normal ordering and the MFF singular-vector
  reduction (``pbw``, ``mff``) dominate it, and every bimodule oracle is built
  twice (fusion suite and mff suite).  The box is the whole input, so neither
  the seed nor the run length changes it.
- ``series-queries``: ``character`` queries.  Exact theta-quotient division
  (``qseries_div``) is nearly all of the cost; no PBW code runs.
- ``modular-queries``: ``stransform`` queries.  Certified mpmath theta
  evaluation (``numeric``) and report encoding dominate; exact Fraction
  arithmetic is negligible.

The query workloads draw from a fixed catalogue of ``CATALOGUE_PER_LEVEL``
ops (5) for each of the 24 coprime levels 2 <= p <= 8, 1 <= q <= 5, so
that reference outputs exist for every op any seed can select.  The catalogue
itself is drawn once, from ``CATALOGUE_SEED``, out of these ranges:

- weight (n, k) uniform in the box 0 <= n <= p-2, 0 <= k <= q-1;
- z = v/u with u in 2..7 (every value once before any value repeats within
  a level) and v uniform among 1 <= v < u coprime to u;
- ``character``: ``--trunc`` in 60..160 (one draw per stratum of equal
  width), ``--kind`` chi for half the ops of a level and chibar for the rest;
- ``stransform``: tau with Re in [-3/2, 3/2] and Im in [1/6, 3] (three
  decimals, one draw per stratum), ``--tol`` 1e-10 .. 1e-30 (one exponent per
  stratum), variant KW2.

A run with seed s visits every level ``rounds`` times: the level's catalogue
ops in an order shuffled by s, cycling when ``rounds`` exceeds the catalogue.
The whole stream is then shuffled by s.  The run length sets ``rounds``
(``ROUNDS_PER_SECOND``) rather than a clock, so runs of one length always do
the same amount of work whatever the speed of the machine.  At 10 s the
rounds equal the catalogue size, so every seed runs the same multiset of ops
and the seed changes only their order: series-queries runs 120 ops (~12 s a
pass on a 2-vCPU Xeon VM) and modular-queries 120 ops (~17 s a pass), so
that p90 has 12 samples beyond it.  No op is ever dropped: every op of the
catalogue completes and passes its checks at the reference commit.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-sweep", "series-queries", "modular-queries")

VERIFY_BOX = (6, 4)
LEVELS = tuple(
    (p, q) for p in range(2, 9) for q in range(1, 6) if math.gcd(p, q) == 1
)
CATALOGUE_SEED = 1995
CATALOGUE_PER_LEVEL = {"series-queries": 5, "modular-queries": 5}
ROUNDS_PER_SECOND = {"series-queries": 0.5, "modular-queries": 0.5}
Z_DENOMINATORS = tuple(range(2, 8))
# Untraced worker passes per run, each a fresh process running the same op
# stream in the same order; ``run.end_to_end_values`` combines them.  On a
# shared 2-vCPU Xeon VM the speed of a fixed Python loop swings between two
# levels ~30% apart within a second, which an op's lowest latency over
# several passes filters out.  modular-queries makes fewer passes because its
# pass is the longest and a run must fit the benchmark's time budget.
PASSES = {"verify-sweep": 3, "series-queries": 3, "modular-queries": 2}


def verify_op(pmax: int, qmax: int) -> list[str]:
    return ["verify", "--suite", "all", "--pmax", str(pmax), "--qmax", str(qmax),
            "--format", "json"]


def stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers from lo..hi, one uniform draw from each of n equal strata, shuffled."""
    width = (hi - lo + 1) / n
    out = [lo + int(i * width + rng.random() * width) for i in range(n)]
    rng.shuffle(out)
    return out


def _z_values(rng: random.Random, n: int) -> list[str]:
    dens = list(Z_DENOMINATORS)
    rng.shuffle(dens)
    dens += [rng.choice(Z_DENOMINATORS) for _ in range(n - len(dens))]
    out = []
    for u in dens[:n]:
        v = rng.choice([v for v in range(1, u) if math.gcd(u, v) == 1])
        out.append(f"{v}/{u}")
    return out


def _milli(x: int) -> str:
    sign = "-" if x < 0 else ""
    return f"{sign}{abs(x) // 1000}.{abs(x) % 1000:03d}"


def _series_level(rng: random.Random, p: int, q: int, n: int) -> list[list[str]]:
    zs = _z_values(rng, n)
    truncs = stratified(rng, 60, 160, n)
    kinds = ["chi", "chibar"] * (n // 2) + ["chi"] * (n % 2)
    rng.shuffle(kinds)
    ops = []
    for z, trunc, kind in zip(zs, truncs, kinds):
        nn, kk = rng.randint(0, p - 2), rng.randint(0, q - 1)
        ops.append(["character", "--p", str(p), "--q", str(q), "--n", str(nn),
                    "--k", str(kk), "--z", z, "--trunc", str(trunc), "--kind", kind,
                    "--format", "json"])
    return ops


def _modular_level(rng: random.Random, p: int, q: int, n: int) -> list[list[str]]:
    zs = _z_values(rng, n)
    res = stratified(rng, -1500, 1500, n)
    ims = stratified(rng, 167, 3000, n)  # 0.167 is the first millesimal >= 1/6
    tols = stratified(rng, 10, 30, n)
    ops = []
    for z, re, im, tol in zip(zs, res, ims, tols):
        # --tau=re,im: a negative Re would otherwise be read by argparse as a flag.
        ops.append(["stransform", "--p", str(p), "--q", str(q), "--z", z,
                    f"--tau={_milli(re)},{_milli(im)}", "--tol", f"1e-{tol}",
                    "--format", "json"])
    return ops


_LEVEL_DRAW = {"series-queries": _series_level, "modular-queries": _modular_level}


def catalogue(workload: str) -> dict[tuple[int, int], list[list[str]]]:
    """Every op the query workload can select, per level; fixed by CATALOGUE_SEED."""
    rng = random.Random(f"{CATALOGUE_SEED}/{workload}")
    draw = _LEVEL_DRAW[workload]
    return {(p, q): draw(rng, p, q, CATALOGUE_PER_LEVEL[workload]) for p, q in LEVELS}


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def ops_for(workload: str, seed: int, seconds: int) -> list[list[str]]:
    """The op stream of one run; the same (workload, seed, seconds) gives the same ops."""
    if workload == "verify-sweep":
        return [verify_op(*VERIFY_BOX)]
    if workload not in _LEVEL_DRAW:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    rounds = rounds_for(workload, seconds)
    ops = []
    for level, cands in catalogue(workload).items():
        order = rng.sample(range(len(cands)), len(cands))
        ops.extend(cands[order[r % len(cands)]] for r in range(rounds))
    rng.shuffle(ops)
    return ops


def op_key(argv: list[str]) -> str:
    return " ".join(argv)
