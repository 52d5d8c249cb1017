"""Invariant sweeps behind the ``verify`` subcommand.

Each suite returns a ``(results, checks)`` pair ready for
:func:`admissible_sl2.report.document`:

- ``fusion``: replays the three fusion routes (closed form, bimodule
  presentation, bimodule oracle from the projections) against each other
  over every ordered pair of weights of every coprime level in range, checks
  the ring axioms per level, and compares the q = 1 column against the
  classical su(2) fusion rule.
- ``mff``: verifies the operator-calculus identities once, then per level
  re-derives the annihilation polynomial (proportional to the vacuum
  polynomial with nonzero constant), the C2 reduction (exponent and the
  product closed form of its constant), and the bimodule dimensions from the
  projections alone (Harish-Chandra projection of T_-^d times each
  projection, per-degree gcds as root-multiset intersections).
- ``characters``: on the fixture levels in range, checks the theta-ratio
  identity to order 20, character coefficients to order 30 (nonnegative
  integers, unit lowest term at the predicted exponent), and series-vs-
  numeric agreement at three sample points of the upper half plane.

The fusion and mff suites each build a level's bimodule oracles once with
:func:`level_oracles`; ``--suite all`` therefore builds them twice, a
figure the benchmark's traced verify run still asserts.  The fusion suite
also builds each weight's bimodule presentation once per level.  The predicates
below that judge one level, one weight or one series are the ones the
``admsl2`` subcommands report, so the CLI and the sweeps check alike.

A computation that raises instead of completing is recorded as a failed
check; the sweep always runs to the end so the report covers every item.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .characters import (
    CharacterSpec,
    character_qseries,
    chibar_lowest_exponent,
    theta_ratio_identity_check,
)
from .errors import AdmissibleError, InputError
from .exact import rat_str
from .fusion import (
    FusionRing,
    bimodule_presentation,
    classical_su2_fusion,
    fusion_closed_form,
    fusion_via_mff,
    surviving_outputs,
)
from .mff import bimodule_from_mff, c2_heisenberg_reduction, hw_annihilation_polynomial
from .numeric import character_eval_numeric, qseries_eval_numeric
from .pbw import verify_operator_identities
from .report import check, failed
from .weights import Level, enumerate_admissible, level_from_pq

__all__ = [
    "SUITES",
    "PMAX_RANGE",
    "QMAX_RANGE",
    "coprime_levels",
    "c2_expected_constant",
    "level_oracles",
    "three_routes_agree",
    "bimodule_oracle_checks",
    "character_series_checks",
    "series_numeric_agreement",
    "fusion_suite",
    "mff_suite",
    "characters_suite",
    "run_suites",
]

SUITES = ("fusion", "mff", "characters")
PMAX_RANGE = (2, 8)
QMAX_RANGE = (1, 6)

_CHARACTER_FIXTURES = ((2, 1), (3, 1), (3, 2), (5, 3))
_FIXTURE_ZS = (Fraction(1, 3), Fraction(1, 2))
_RATIO_ORDER = Fraction(20)
_SERIES_ORDER = Fraction(30)
_AGREE_BOUND = mp.mpf("1e-8")


def _guard(pmax: int, qmax: int) -> None:
    if not PMAX_RANGE[0] <= pmax <= PMAX_RANGE[1]:
        raise InputError(
            f"pmax={pmax} outside {PMAX_RANGE[0]}..{PMAX_RANGE[1]}"
        )
    if not QMAX_RANGE[0] <= qmax <= QMAX_RANGE[1]:
        raise InputError(
            f"qmax={qmax} outside {QMAX_RANGE[0]}..{QMAX_RANGE[1]}"
        )


def coprime_levels(pmax: int, qmax: int) -> list[Level]:
    """All admissible levels with 2 <= p <= pmax, 1 <= q <= qmax."""
    _guard(pmax, qmax)
    return [
        level_from_pq(p, q)
        for p in range(2, pmax + 1)
        for q in range(1, qmax + 1)
        if math.gcd(p, q) == 1
    ]


def c2_expected_constant(level: Level) -> Fraction:
    """Independent closed form of the C2 reduction constant.

    The reduction of fb^{p-1} P2 collapses to
    (-1)^(p-1) (p-1)! * prod_{r=0}^{p-2} prod_{s=1}^{q-1} (s t - r) * hb^((p-1) q);
    every factor s t - r is nonzero because 0 < s < q forces a nonintegral
    s t, so the constant never vanishes.
    """
    p, q, t = level.p, level.q, level.t
    c = Fraction(math.factorial(p - 1))
    if (p - 1) % 2:
        c = -c
    for r in range(p - 1):
        for s in range(1, q):
            c *= s * t - r
    return c


def _all_pass(checks: list[dict]) -> bool:
    return all(c["status"] == "pass" for c in checks)


# -- per-level predicates shared with the CLI ---------------------------------


def level_oracles(level: Level) -> dict:
    """The bimodule oracle of every admissible weight, in enumeration order.

    Each is read off the singular-vector projections by
    :func:`admissible_sl2.mff.bimodule_from_mff`, a product of linear factors
    per T_- degree.
    """
    return {
        w: bimodule_from_mff(level, w.n_primed, w.k_primed)
        for w in enumerate_admissible(level)
    }


def three_routes_agree(level: Level, oracles: dict) -> bool:
    """Whether all three fusion routes agree on every ordered pair of weights.

    ``oracles`` maps each weight of the level to its bimodule oracle, as
    :func:`level_oracles` builds it (route 3).  Route 2 builds each weight's
    bimodule presentation once from its own root formula; route 1 is the
    closed form.
    """
    generators = {w: bimodule_presentation(level, w).generators for w in oracles}
    return all(
        fusion_closed_form(level, w1, w2)[1]
        == surviving_outputs(level, w1, w2, generators[w1])
        == fusion_via_mff(level, w1, w2, oracle)
        for w1, oracle in oracles.items()
        for w2 in oracles
    )


def bimodule_oracle_checks(oracle, presentation) -> list[dict]:
    """The bimodule oracle against the presentation: same dimension, unit tail gcds."""
    lo, hi = oracle.tail_window
    return [
        check(
            "mff_dimension_agrees",
            oracle.dimension == presentation.dimension,
            f"PBW reduction gives {oracle.dimension}",
        ),
        check("mff_tail_unit", oracle.tail_unit, f"degrees {lo}..{hi} wash out"),
    ]


def character_series_checks(series, predicted: Fraction) -> list[dict]:
    """Unit lowest term at the predicted exponent; nonnegative integer coefficients."""
    return [
        check(
            "lowest_term",
            series.lowest() == (predicted, Fraction(1)),
            f"expected coefficient 1 at exponent {rat_str(predicted)}",
        ),
        check(
            "coefficients_nonnegative_integers",
            all(c.denominator == 1 and c >= 0 for c in series.terms.values()),
            f"{len(series.terms)} terms below order {rat_str(series.order)}",
        ),
    ]


def series_numeric_agreement(spec: CharacterSpec, series, tau, bound, kind: str = "chi"):
    """Compare an exact series with the certified numeric character at ``tau``.

    The numeric value is certified to ``bound / 100``; they agree when they
    differ by at most ``bound`` plus both error bars.  Returns
    ``(numeric, series_value, difference, agree)``.
    """
    numeric = character_eval_numeric(spec, tau, tol=bound / 100, kind=kind)
    series_value = qseries_eval_numeric(series, tau)
    diff = abs(numeric.value - series_value.value)
    return numeric, series_value, diff, diff <= bound + numeric.err + series_value.err


# -- fusion suite ------------------------------------------------------------


def fusion_suite(pmax: int, qmax: int) -> tuple[dict, list[dict]]:
    levels = coprime_levels(pmax, qmax)
    checks: list[dict] = []
    rows = []
    total_pairs = 0
    for level in levels:
        name = f"fusion_three_way_p{level.p}_q{level.q}"
        weights = enumerate_admissible(level)
        pairs = len(weights) ** 2
        try:
            agree = three_routes_agree(level, level_oracles(level))
            checks.append(check(name, agree, f"{pairs} ordered pairs"))
        except AdmissibleError as exc:
            checks.append(failed(name, exc))
        axioms = FusionRing.build(level).axioms()
        checks.append(
            check(
                f"fusion_axioms_p{level.p}_q{level.q}",
                all(axioms.values()),
                ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in axioms.items()),
            )
        )
        rows.append({"level": level, "weights": len(weights), "ordered_pairs": pairs})
        total_pairs += pairs

    for ell in range(0, 7):
        level = level_from_pq(ell + 2, 1)
        weights = enumerate_admissible(level)
        ok = True
        for w1 in weights:
            for w2 in weights:
                closed = {w.j: m for w, m in fusion_closed_form(level, w1, w2)[1]}
                classical = {
                    Fraction(j): m for j, m in classical_su2_fusion(ell, w1.n, w2.n).items()
                }
                ok = ok and closed == classical
        checks.append(check(f"classical_limit_ell{ell}", ok, f"{len(weights) ** 2} pairs"))

    results = {"levels": rows, "ordered_pairs": total_pairs}
    return results, checks


# -- mff suite ---------------------------------------------------------------


def mff_suite(pmax: int, qmax: int) -> tuple[dict, list[dict]]:
    levels = coprime_levels(pmax, qmax)
    checks: list[dict] = []

    identity_report = verify_operator_identities(m_max=5)
    checks.append(
        check(
            "operator_identities_m5",
            identity_report.all_pass,
            f"{len(identity_report.checks)} identities, "
            f"{len(identity_report.failures())} failures",
        )
    )

    rows = []
    for level in levels:
        p, q = level.p, level.q
        tag = f"p{p}_q{q}"
        row: dict = {"level": level}

        name = f"annihilation_{tag}"
        try:
            const, poly = hw_annihilation_polynomial(level)
            row["annihilation_constant"] = const
            checks.append(
                check(name, const != 0, f"constant {rat_str(const)}, degree {poly.degree}")
            )
        except AdmissibleError as exc:
            checks.append(failed(name, exc))

        name = f"c2_reduction_{tag}"
        try:
            coeff, exponent = c2_heisenberg_reduction(level)
            expected = c2_expected_constant(level)
            ok = exponent == (p - 1) * q and coeff == expected and coeff != 0
            row["c2_constant"] = coeff
            row["c2_exponent"] = exponent
            checks.append(
                check(name, ok, f"hb^{exponent}, constant {rat_str(coeff)}")
            )
        except AdmissibleError as exc:
            checks.append(failed(name, exc))

        name = f"bimodule_dims_{tag}"
        try:
            found = level_oracles(level)
            dims = [oracle.dimension for oracle in found.values()]
            ok = all(
                _all_pass(bimodule_oracle_checks(oracle, bimodule_presentation(level, w)))
                for w, oracle in found.items()
            )
            row["bimodule_dimensions"] = dims
            checks.append(check(name, ok, f"dims {dims}"))
        except AdmissibleError as exc:
            checks.append(failed(name, exc))

        rows.append(row)

    return {"levels": rows}, checks


# -- characters suite --------------------------------------------------------


def _sample_taus() -> list[tuple[str, mp.mpc]]:
    with mp.workprec(256):
        return [
            ("i", mp.mpc(0, 1)),
            ("2i", mp.mpc(0, 2)),
            ("1/3+3i/2", mp.mpc(mp.mpf(1) / 3, mp.mpf(3) / 2)),
        ]


def characters_suite(pmax: int, qmax: int) -> tuple[dict, list[dict]]:
    _guard(pmax, qmax)
    fixtures = [
        level_from_pq(p, q) for p, q in _CHARACTER_FIXTURES if p <= pmax and q <= qmax
    ]
    taus = _sample_taus()
    checks: list[dict] = []
    rows = []
    for level in fixtures:
        weights = enumerate_admissible(level)
        for z in _FIXTURE_ZS:
            tag = f"p{level.p}_q{level.q}_z{z.numerator}_{z.denominator}"
            specs = [CharacterSpec(w, z) for w in weights]
            rows.append({"level": level, "z": z, "weights": len(weights)})

            name = f"theta_ratio_{tag}"
            try:
                reports = [theta_ratio_identity_check(s, _RATIO_ORDER) for s in specs]
                ok = all(r.agree and r.prefactor_zero for r in reports)
                checks.append(
                    check(name, ok, f"{len(reports)} weights to order {_RATIO_ORDER}")
                )
            except AdmissibleError as exc:
                checks.append(failed(name, exc))

            # One division per weight serves the two checks below: chi to order
            # N is chibar to order N - anomaly, shifted by the anomaly.
            try:
                chibars = [
                    character_qseries(
                        s, max(_SERIES_ORDER, _SERIES_ORDER - s.anomaly), kind="chibar"
                    )
                    for s in specs
                ]
            except AdmissibleError as exc:
                checks.append(failed(f"character_coefficients_{tag}", exc))
                checks.append(failed(f"series_numeric_{tag}", exc))
                continue

            name = f"character_coefficients_{tag}"
            try:
                ok = True
                for s, full in zip(specs, chibars):
                    ser = full.truncate(_SERIES_ORDER)
                    ok = ok and _all_pass(
                        character_series_checks(ser, chibar_lowest_exponent(s))
                    )
                checks.append(
                    check(name, ok, f"{len(specs)} weights to order {_SERIES_ORDER}")
                )
            except AdmissibleError as exc:
                checks.append(failed(name, exc))

            name = f"series_numeric_{tag}"
            try:
                worst = mp.mpf(0)
                ok = True
                for s, full in zip(specs, chibars):
                    ser = full.truncate(_SERIES_ORDER - s.anomaly).shift_exponents(s.anomaly)
                    for _, tau in taus:
                        *_, diff, agree = series_numeric_agreement(s, ser, tau, _AGREE_BOUND)
                        worst = max(worst, diff)
                        ok = ok and agree
                checks.append(
                    check(name, ok, f"max |series - numeric| = {mp.nstr(worst, 6)}")
                )
            except AdmissibleError as exc:
                checks.append(failed(name, exc))

    return {"fixtures": rows}, checks


# -- aggregation -------------------------------------------------------------


def run_suites(suite: str, pmax: int, qmax: int) -> tuple[dict, list[dict]]:
    """Run one named suite, or all of them, returning (results, checks)."""
    if suite != "all" and suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}")
    _guard(pmax, qmax)
    selected = SUITES if suite == "all" else (suite,)
    results: dict = {"suites": list(selected), "pmax": pmax, "qmax": qmax}
    checks: list[dict] = []
    runners = {
        "fusion": fusion_suite,
        "mff": mff_suite,
        "characters": characters_suite,
    }
    for name in selected:
        sub_results, sub_checks = runners[name](pmax, qmax)
        results[name] = sub_results
        checks.extend(sub_checks)
    results["checks_total"] = len(checks)
    results["checks_failed"] = sum(1 for c in checks if c["status"] != "pass")
    return results, checks
