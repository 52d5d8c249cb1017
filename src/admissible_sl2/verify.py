"""Invariant sweeps behind the ``verify`` subcommand.

Each suite returns a ``(results, checks)`` pair ready for
:func:`admissible_sl2.report.document`:

- ``fusion``: compares the surviving degrees of the three fusion routes
  (closed form, and q*j2 among the integer root labels of the presentation's
  generators and of the oracle's gcds) over every ordered pair of weights of
  every coprime level in range, checks the ring axioms per level, and
  compares the q = 1 column against the classical su(2) fusion rule.
- ``mff``: verifies the operator-calculus identities once in PBW, then per
  level re-derives the annihilation polynomial by the Harish-Chandra
  projection (a nonzero constant, and the vacuum polynomial's root labels),
  the C2 reduction by PBW normal ordering inside the eb-free part (exponent
  and the product closed form of its constant), and the bimodule dimensions from the projections
  alone (Harish-Chandra projection of T_-^d times each projection,
  per-degree gcds as root-multiset intersections), each weight's against
  the presentation and Frenkel-Zhu's closed form.
- ``characters``: on the fixture levels in range, checks the theta-ratio
  identity to order 20, character coefficients to order 30 (nonnegative
  integers, unit lowest term at the predicted exponent), and series-vs-
  numeric agreement at three sample points of the upper half plane.  One
  chibar division per weight and z serves all three checks: chi to any
  order up to 30 is that series truncated and shifted by the anomaly.

The fusion and mff suites each build a level's bimodule oracles once with
:func:`level_oracles`; ``--suite all`` therefore builds them twice, a
figure the benchmark's traced verify run still asserts.  The fusion suite
also builds each weight's bimodule presentation once per level.  The predicates
below that judge one level, one weight or one series are the ones the
``admsl2`` subcommands report, so the CLI and the sweeps check alike.

Every check goes through one guard, ``_judge``, the ring-axiom,
classical-limit and operator-identity checks included: a computation that
raises an ``AdmissibleError`` fails its own named check (all three checks,
for the chibar division that serves three), and the sweep runs to the end so
the report covers every item.
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
    fusion_degrees,
    fusion_outputs,
    surviving_degrees,
)
from .mff import bimodule_from_mff, c2_heisenberg_reduction, hw_annihilation_polynomial
from .numeric import character_eval_numeric, qseries_eval_numeric
from .pbw import verify_operator_identities
from .report import all_checks_pass, check, failed
from .weights import Level, enumerate_admissible, vacuum_labels

__all__ = [
    "SUITES",
    "PMAX_RANGE",
    "QMAX_RANGE",
    "coprime_levels",
    "c2_expected_constant",
    "level_oracles",
    "three_routes_agree",
    "annihilation_proportional",
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
        Level(p, q)
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


# -- per-level predicates shared with the CLI ---------------------------------


def level_oracles(level: Level) -> dict:
    """The bimodule oracle of every admissible weight, in enumeration order.

    Each is read off the singular-vector projections by
    :func:`admissible_sl2.mff.bimodule_from_mff`, a product of linear factors
    per T_- degree.
    """
    return {w: bimodule_from_mff(w) for w in enumerate_admissible(level)}


def three_routes_agree(oracles: dict) -> bool:
    """Whether all three fusion routes keep the same degrees on every ordered pair.

    ``oracles`` maps each weight of one level to its bimodule oracle, as
    :func:`level_oracles` builds it (route 3).  Route 2 builds each weight's
    bimodule presentation once from its own root formula; route 1 is the
    closed form.  The routes are compared as degree lists, which resolves no
    weight and expands no polynomial: i -> j1 + j2 - 2i is injective, so equal
    degrees are equal outputs.
    """
    generators = {w: bimodule_presentation(w).generators for w in oracles}
    return all(
        fusion_degrees(w1, w2)
        == surviving_degrees(w2.J, generators[w1])
        == surviving_degrees(w2.J, oracle.gcds)
        for w1, oracle in oracles.items()
        for w2 in oracles
    )


def annihilation_proportional(level: Level, const: Fraction, labels: tuple[int, ...]) -> bool:
    """Whether ``const`` prod (x - J/q) over the sorted root ``labels`` J is a nonzero multiple
    of the vacuum polynomial: both are products of linear factors, so iff the labels match."""
    return const != 0 and labels == vacuum_labels(level)


def bimodule_oracle_checks(oracle, presentation) -> list[dict]:
    """Frenkel-Zhu's closed form, the presentation and the oracle agree; unit tail gcds."""
    w = presentation.weight
    p, q, n_primed, k_primed = w.level.p, w.level.q, w.n_primed, w.k_primed
    expected = n_primed * (p - n_primed) * (q - k_primed + 1)
    lo, hi = oracle.tail_window
    return [
        check(
            "dimension_formula",
            presentation.dimension == expected,
            f"n'(p-n')(q-k'+1) = {expected}",
        ),
        check(
            "mff_dimension_agrees",
            oracle.dimension == presentation.dimension,
            f"projection oracle gives {oracle.dimension}",
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
    with mp.workprec(numeric.prec):
        diff = abs(numeric.value - series_value.value)
    return numeric, series_value, diff, diff <= bound + numeric.err + series_value.err


# -- the sweeps ---------------------------------------------------------------


def _outcome(run):
    """``(run(), None)``, or ``(None, exc)`` when ``run`` raises an ``AdmissibleError``."""
    try:
        return run(), None
    except AdmissibleError as exc:
        return None, exc


def _judge(checks: list[dict], name: str, run, raised: AdmissibleError | None = None) -> None:
    """Append the check ``name`` that ``run() -> (ok, detail)`` judges.

    This is the one guard of every sweep check: a computation that raises
    fails its own check, with the error as the detail, and the sweep goes
    on.  ``raised``, the error of a computation the check rests on, fails
    it without running ``run``.
    """
    if raised is None:
        verdict, raised = _outcome(run)
    checks.append(check(name, *verdict) if raised is None else failed(name, raised))


def _axioms(ring: FusionRing) -> tuple[bool, str]:
    axioms = ring.axioms()
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in axioms.items())
    return all(axioms.values()), detail


def _classical_limit(ell: int) -> tuple[bool, str]:
    """Whether the q = 1 closed form at level ell is classical su(2) fusion."""
    weights = enumerate_admissible(Level(ell + 2, 1))
    basis = {w.J: w.J for w in weights}  # J = j at q = 1
    ok = all(
        dict(fusion_outputs(w1, w2, fusion_degrees(w1, w2), basis.get))
        == classical_su2_fusion(ell, w1.n, w2.n)
        for w1 in weights
        for w2 in weights
    )
    return ok, f"{len(weights) ** 2} pairs"


def fusion_suite(pmax: int, qmax: int) -> tuple[dict, list[dict]]:
    checks: list[dict] = []
    rows = []
    for level in coprime_levels(pmax, qmax):
        tag = f"p{level.p}_q{level.q}"
        pairs = level.n_weights ** 2
        _judge(
            checks,
            f"fusion_three_way_{tag}",
            lambda: (three_routes_agree(level_oracles(level)), f"{pairs} ordered pairs"),
        )
        _judge(checks, f"fusion_axioms_{tag}", lambda: _axioms(FusionRing.build(level)))
        rows.append({"level": level, "weights": level.n_weights, "ordered_pairs": pairs})

    for ell in range(0, 7):
        _judge(checks, f"classical_limit_ell{ell}", lambda: _classical_limit(ell))

    return {"levels": rows, "ordered_pairs": sum(r["ordered_pairs"] for r in rows)}, checks


def _operator_identities() -> tuple[bool, str]:
    report = verify_operator_identities(m_max=5)
    failures = len(report.failures())
    return report.all_pass, f"{len(report.checks)} identities, {failures} failures"


def mff_suite(pmax: int, qmax: int) -> tuple[dict, list[dict]]:
    checks: list[dict] = []
    _judge(checks, "operator_identities_m5", _operator_identities)

    rows = []
    for level in coprime_levels(pmax, qmax):
        tag = f"p{level.p}_q{level.q}"
        row: dict = {"level": level}

        def annihilation():
            const, labels = hw_annihilation_polynomial(level)
            row["annihilation_constant"] = const
            ok = annihilation_proportional(level, const, labels)
            return ok, f"constant {rat_str(const)}, degree {len(labels)}"

        def c2_reduction():
            coeff, exponent = c2_heisenberg_reduction(level)
            expected = c2_expected_constant(level)
            ok = exponent == level.n_weights and coeff == expected and coeff != 0
            row.update(c2_constant=coeff, c2_exponent=exponent)
            return ok, f"hb^{exponent}, constant {rat_str(coeff)}"

        def bimodule_dims():
            found = level_oracles(level)
            dims = [oracle.dimension for oracle in found.values()]
            ok = all(
                all_checks_pass(bimodule_oracle_checks(oracle, bimodule_presentation(w)))
                for w, oracle in found.items()
            )
            row["bimodule_dimensions"] = dims
            return ok, f"dims {dims}"

        _judge(checks, f"annihilation_{tag}", annihilation)
        _judge(checks, f"c2_reduction_{tag}", c2_reduction)
        _judge(checks, f"bimodule_dims_{tag}", bimodule_dims)
        rows.append(row)

    return {"levels": rows}, checks


def _chi(spec: CharacterSpec, chibar, order: Fraction):
    """chi to ``order`` from a chibar series exact below ``order - anomaly``:
    the same exact series as ``character_qseries(spec, order)``."""
    return chibar.truncate(order - spec.anomaly).shift_exponents(spec.anomaly)


def characters_suite(pmax: int, qmax: int) -> tuple[dict, list[dict]]:
    _guard(pmax, qmax)
    fixtures = [Level(p, q) for p, q in _CHARACTER_FIXTURES if p <= pmax and q <= qmax]
    with mp.workprec(256):  # the sample points i, 2i and 1/3 + 3i/2
        taus = [mp.mpc(0, 1), mp.mpc(0, 2), mp.mpc(mp.mpf(1) / 3, mp.mpf(3) / 2)]
    checks: list[dict] = []
    rows = []
    for level in fixtures:
        weights = enumerate_admissible(level)
        for z in _FIXTURE_ZS:
            tag = f"p{level.p}_q{level.q}_z{z.numerator}_{z.denominator}"
            specs = [CharacterSpec(w, z) for w in weights]
            rows.append({"level": level, "z": z, "weights": len(weights)})
            # One division per weight serves the three checks below: chi to order
            # N is chibar to order N - anomaly, shifted by the anomaly (``_chi``).
            # If it raises, all three fail with its error.
            chibars, raised = _outcome(lambda: [
                character_qseries(s, max(_SERIES_ORDER, _SERIES_ORDER - s.anomaly), kind="chibar")
                for s in specs
            ])

            def theta_ratios():
                reports = [
                    theta_ratio_identity_check(s, _chi(s, full, _RATIO_ORDER))
                    for s, full in zip(specs, chibars)
                ]
                ok = all(r.agree for r in reports)
                return ok, f"{len(reports)} weights to order {_RATIO_ORDER}"

            def coefficients():
                ok = all(
                    all_checks_pass(character_series_checks(ser.truncate(_SERIES_ORDER), low))
                    for ser, low in zip(chibars, map(chibar_lowest_exponent, specs))
                )
                return ok, f"{len(specs)} weights to order {_SERIES_ORDER}"

            def agreement():
                worst = mp.mpf(0)
                ok = True
                for s, full in zip(specs, chibars):
                    ser = _chi(s, full, _SERIES_ORDER)
                    for tau in taus:
                        *_, diff, agree = series_numeric_agreement(s, ser, tau, _AGREE_BOUND)
                        worst = max(worst, diff)
                        ok = ok and agree
                return ok, f"max |series - numeric| = {mp.nstr(worst, 6)}"

            _judge(checks, f"theta_ratio_{tag}", theta_ratios, raised)
            _judge(checks, f"character_coefficients_{tag}", coefficients, raised)
            _judge(checks, f"series_numeric_{tag}", agreement, raised)

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
    # Built on each call, not at module level: the benchmark's tracer wraps the
    # suites by rebinding this module's attributes, and a table built at import
    # would keep the unwrapped functions, so their spans would read 0.
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
