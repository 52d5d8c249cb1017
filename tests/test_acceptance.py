"""Acceptance suite: eleven certification criteria, one pass/fail line each.

Each test certifies one externally checkable property of the package at its
stated tolerance — fusion-route agreement, classical limits, ring axioms,
Zhu/C2 dimensions, annihilation fixtures, operator identities, theta-ratio
rewriting, character structure, series/numeric agreement, the S-transform
report, and CLI determinism.  Run with ``pytest -v`` to see one line per
criterion; each test also prints a ``[PRIMARY nn]`` summary line.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from admissible_sl2 import (
    CharacterSpec,
    FusionRing,
    Level,
    c2_heisenberg_reduction,
    character_eval_numeric,
    character_qseries,
    chibar_lowest_exponent,
    classical_su2_fusion,
    conformal_weight,
    enumerate_admissible,
    hw_annihilation_polynomial,
    poly_gcd,
    qseries_eval_numeric,
    s_transform_residual,
    theta_ratio_identity_check,
    vacuum_polynomial,
    verify_operator_identities,
    virasoro_data,
    weight_from_j,
)
from admissible_sl2.exact import poly_from_linear_factors
from admissible_sl2.fusion import fusion
from admissible_sl2.report import encode
from admissible_sl2.verify import coprime_levels
from _pbw_annihilation_oracle import pbw_annihilation_polynomial

SWEEP_PMAX, SWEEP_QMAX = 6, 5
CHARACTER_FIXTURES = ((2, 1), (3, 1), (3, 2), (5, 3))
FIXTURE_ZS = (Fraction(1, 3), Fraction(1, 2))


def _report(num: int, title: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = detail if not failures else "; ".join(failures[:4])
    line = f"[PRIMARY {num:02d}] {status} {title}" + (f" ({extra})" if extra else "")
    print(line)
    assert not failures, line


@lru_cache(maxsize=None)
def _sweep_levels():
    return coprime_levels(SWEEP_PMAX, SWEEP_QMAX)


@lru_cache(maxsize=None)
def _ring(p: int, q: int) -> FusionRing:
    return FusionRing.build(Level(p, q))


def test_primary_01_three_way_fusion_agreement():
    failures: list[str] = []
    pairs = 0
    started = time.monotonic()
    for level in _sweep_levels():
        weights = enumerate_admissible(level)
        for w1 in weights:
            for w2 in weights:
                rec = fusion(w1, w2, oracle="all")
                pairs += 1
                if not rec.oracles_agree:
                    failures.append(f"(p,q)=({level.p},{level.q}) {w1.j}x{w2.j}")
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        failures.append(f"sweep took {elapsed:.1f}s, budget 120s")
    _report(
        1,
        "three-way fusion agreement",
        failures,
        f"{pairs} ordered pairs over {len(_sweep_levels())} levels in {elapsed:.1f}s",
    )


def test_primary_02_classical_limit():
    failures: list[str] = []
    pairs = 0
    for ell in range(0, 7):
        level = Level(ell + 2, 1)
        for w1 in enumerate_admissible(level):
            for w2 in enumerate_admissible(level):
                closed = {w.j: m for w, m in fusion(w1, w2).outputs}
                classical = {
                    Fraction(j): m
                    for j, m in classical_su2_fusion(ell, w1.n, w2.n).items()
                }
                pairs += 1
                if closed != classical:
                    failures.append(f"ell={ell} {w1.n}x{w2.n}")
    _report(2, "classical limit matches su(2) fusion", failures, f"{pairs} pairs, ell=0..6")


def test_primary_03_fusion_ring_axioms_and_fixture_rows():
    failures: list[str] = []
    for level in _sweep_levels():
        axioms = _ring(level.p, level.q).axioms()
        for name, ok in axioms.items():
            if not ok:
                failures.append(f"(p,q)=({level.p},{level.q}) {name}")
    level = Level(3, 2)
    rows = {
        (Fraction(1), Fraction(1)): {Fraction(0): 1},
        (Fraction(-1, 2), Fraction(-1, 2)): {},
        (Fraction(-3, 2), Fraction(1)): {Fraction(-1, 2): 1},
    }
    for (j1, j2), expected in rows.items():
        w1, w2 = weight_from_j(level, j1), weight_from_j(level, j2)
        outputs = {w.j: m for w, m in fusion(w1, w2).outputs}
        if outputs != expected:
            failures.append(f"fixture {j1}x{j2}: {outputs}")
    _report(
        3,
        "fusion ring axioms and (3,2) fixture rows",
        failures,
        f"unit/commutativity/associativity over {len(_sweep_levels())} levels",
    )


def test_primary_04_zhu_and_c2_dimensions():
    failures: list[str] = []
    for level in _sweep_levels():
        dim = (level.p - 1) * level.q
        rel = vacuum_polynomial(level)
        if rel.degree != dim:
            failures.append(f"zhu dim ({level.p},{level.q})")
        if poly_gcd(rel, rel.derivative()).degree != 0:
            failures.append(f"relation not squarefree ({level.p},{level.q})")
        coeff, exponent = c2_heisenberg_reduction(level)
        if exponent != dim or coeff == 0:
            failures.append(f"c2 ({level.p},{level.q}): ({coeff}, {exponent})")
    _report(
        4,
        "Zhu dimension (p-1)q with squarefree vacuum relation; C2 exponent with nonzero constant",
        failures,
        f"{len(_sweep_levels())} levels",
    )


def _annihilation_polynomial(level):
    """The constant and the expanded product const prod (x - J/q) over the root labels J."""
    const, labels = hw_annihilation_polynomial(level)
    return const, poly_from_linear_factors(Fraction(J, level.q) for J in labels).scale(const)


def test_primary_05_annihilation_polynomial():
    failures: list[str] = []
    const, poly = _annihilation_polynomial(Level(2, 1))
    if (const, encode(poly)) != (Fraction(1), [[1, "1"]]):
        failures.append(f"(2,1) fixture: ({const}, {poly})")
    const, poly = _annihilation_polynomial(Level(3, 1))
    expected = vacuum_polynomial(Level(3, 1)).scale(Fraction(2))
    if const != 2 or poly != expected:
        failures.append(f"(3,1) fixture: ({const}, {poly})")
    for level in _sweep_levels():
        const, poly = _annihilation_polynomial(level)
        if const == 0 or poly != vacuum_polynomial(level).scale(const):
            failures.append(f"({level.p},{level.q}) not a nonzero multiple")
        if (const, poly) != pbw_annihilation_polynomial(level):
            failures.append(f"({level.p},{level.q}) differs from the PBW normal ordering")
    _report(
        5,
        "annihilation polynomial is a nonzero multiple of the vacuum polynomial",
        failures,
        f"fixtures (2,1)->(1, x), (3,1)->(2, 2x^2-2x); sweep of {len(_sweep_levels())} levels, "
        "each also against PBW normal ordering",
    )


def test_primary_06_operator_identities():
    rep = verify_operator_identities(m_max=5)
    failures = [c.name for c in rep.checks if not c.passed]
    if rep.n_samples != 7:
        failures.append(f"n_samples={rep.n_samples}")
    _report(
        6,
        "operator-calculus identities exact to m_max=5",
        failures,
        f"{len(rep.checks)} identity families, 7 rational samples each",
    )


def test_primary_07_theta_ratio_identity():
    failures: list[str] = []
    count = 0
    for p, q in CHARACTER_FIXTURES:
        level = Level(p, q)
        for z in FIXTURE_ZS:
            for w in enumerate_admissible(level):
                spec = CharacterSpec(w, z)
                rep = theta_ratio_identity_check(spec, character_qseries(spec, Fraction(20)))
                count += 1
                if not rep.agree:
                    failures.append(f"({p},{q}) j={w.j} z={z}: {rep.first_mismatch}")
                if not rep.prefactor_zero:
                    failures.append(f"({p},{q}) exponent identity")
    _report(
        7,
        "theta-ratio identity to order 20 with exact prefactor-exponent cancellation",
        failures,
        f"{count} (weight, z) cases over 4 levels",
    )


def test_primary_08_character_structure():
    failures: list[str] = []
    count = 0
    for p, q in CHARACTER_FIXTURES:
        level = Level(p, q)
        for z in FIXTURE_ZS:
            for w in enumerate_admissible(level):
                spec = CharacterSpec(w, z)
                series = character_qseries(spec, Fraction(30), kind="chibar")
                count += 1
                vd = virasoro_data(level, z)
                sugawara = conformal_weight(level, w.j) - z * w.j / 2 - vd.c_ell / 24
                if series.lowest() != (sugawara, Fraction(1)):
                    failures.append(f"({p},{q}) j={w.j} z={z} lowest")
                if chibar_lowest_exponent(spec) != sugawara:
                    failures.append(f"({p},{q}) j={w.j} z={z} exponent formula")
                if not all(
                    c.denominator == 1 and c >= 0 for c in series.terms.values()
                ):
                    failures.append(f"({p},{q}) j={w.j} z={z} coefficients")
    fixture = CharacterSpec(
        weight_from_j(Level(3, 2), Fraction(1)), Fraction(1, 2)
    )
    if chibar_lowest_exponent(fixture) != Fraction(7, 24):
        failures.append("worked fixture lowest exponent != 7/24")
    _report(
        8,
        "normalized characters: nonnegative integer coefficients to order 30, Sugawara lowest term",
        failures,
        f"{count} series; worked fixture lowest exponent 7/24",
    )


def test_primary_09_series_numeric_agreement():
    failures: list[str] = []
    bound = mp.mpf("1e-8")
    count = 0
    for p, q in CHARACTER_FIXTURES:
        level = Level(p, q)
        for w in enumerate_admissible(level):
            spec = CharacterSpec(w, Fraction(1, 2))
            for kind in ("chi", "chibar"):
                series = character_qseries(spec, Fraction(30), kind=kind)
                for tau in (mp.mpc(0, 1), mp.mpc(0, 2)):
                    direct = character_eval_numeric(spec, tau, tol=bound / 100, kind=kind)
                    via = qseries_eval_numeric(series, tau)
                    count += 1
                    if abs(direct.value - via.value) > bound + direct.err + via.err:
                        failures.append(f"({p},{q}) j={w.j} {kind} tau={tau}")
    _report(
        9,
        "certified numeric evaluation matches the exact series within 1e-8",
        failures,
        f"{count} evaluations at tau in {{i, 2i}}",
    )


def test_primary_10_s_transform_report():
    failures: list[str] = []
    level = Level(3, 2)
    tau = mp.mpc(0, "1.5")
    kw2 = s_transform_residual(level, Fraction(1, 2), tau, variant="KW2", tol=mp.mpf("1e-10"))
    kw1 = s_transform_residual(level, Fraction(1, 2), tau, variant="KW1", tol=mp.mpf("1e-10"))
    partial = kw2["residual_partial_sums"]
    if len(partial) != 4 or any(len(row) != 4 for row in partial):
        failures.append("residual matrix is not 4x4")
    if kw2["theta_error_max"] > mp.mpf("1e-9"):
        failures.append(f"theta error {mp.nstr(kw2['theta_error_max'], 3)} > 1e-9")
    # recorded fixtures: KW2 should satisfy the law; KW1 is the contrast run
    kw2_final = [mp.nstr(kw2["residual_partial_sums"][i][-1], 3) for i in range(4)]
    kw1_final = [mp.nstr(kw1["residual_partial_sums"][i][-1], 3) for i in range(4)]
    for i in range(4):
        if kw2["residual_partial_sums"][i][-1] > mp.mpf("1e-10") + kw2["residual_errors"][i][-1]:
            failures.append(f"KW2 residual row {i}: {kw2_final[i]}")
    _report(
        10,
        "certified S-transform residual report at (3,2), z=1/2, tau=3i/2",
        failures,
        f"KW2 finals {kw2_final}; KW1 contrast {kw1_final}",
    )


def test_primary_11_cli_determinism_and_verify_budget():
    failures: list[str] = []
    base = [sys.executable, "-m", "admissible_sl2"]
    repeat = [
        "stransform", "--p", "3", "--q", "2", "--z", "1/2", "--tau", "0,3/2",
        "--format", "json",
    ]
    runs = [
        subprocess.run(base + repeat, capture_output=True, check=True).stdout
        for _ in range(2)
    ]
    if runs[0] != runs[1]:
        failures.append("repeated stransform runs differ")
    char_cmd = [
        "character", "--p", "5", "--q", "3", "--j=-1/3", "--z", "1/3",
        "--format", "text",
    ]
    runs = [
        subprocess.run(base + char_cmd, capture_output=True, check=True).stdout
        for _ in range(2)
    ]
    if runs[0] != runs[1]:
        failures.append("repeated character runs differ")

    started = time.monotonic()
    proc = subprocess.run(
        base + ["verify", "--suite", "all", "--pmax", "6", "--qmax", "5",
                "--format", "json"],
        capture_output=True,
    )
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        failures.append(f"verify exited {proc.returncode}")
    else:
        doc = json.loads(proc.stdout)
        if doc["results"]["checks_failed"] != 0:
            failures.append(f"verify reports {doc['results']['checks_failed']} failures")
    if elapsed >= 300:
        failures.append(f"verify took {elapsed:.0f}s, budget 300s")
    _report(
        11,
        "byte-identical CLI output; full verification sweep exits 0",
        failures,
        f"verify --suite all --pmax 6 --qmax 5 in {elapsed:.1f}s",
    )
