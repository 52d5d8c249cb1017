"""Command-line front end (``admsl2``).

Subcommands::

    weights       enumerate admissible weights with conformal weights
    zhu           vacuum Zhu algebra: dimension, relation, annihilation constant
    bimodule      bimodule dimensions for one weight, presentation vs. projection oracle
    fusion        fusion rule for one ordered pair, along any of three routes
    fusion-table  full fusion table and ring axioms for one level
    mff-verify    exact operator-calculus identity sweep
    character     exact character q-expansion, optional numeric cross-check
    stransform    certified residuals of the S-transformation law
    verify        invariant suites (fusion / mff / characters) over a (p, q) box

Weights are addressed as ``--n N --k K`` (or ``--j a/b``, resolved through
the unique (n, k) box decomposition); the two-weight flags ``--j1/--j2``
accept either an ``n,k`` pair or a rational ``a/b``.  ``--tau`` takes
``re,im`` with rational or decimal parts.  Reports render as text (default)
or JSON from the same encoded document.  Each ``cmd_*`` handler returns
``(results, checks)`` and :func:`main` alone emits the report.  Exit status
is 0 when every check passes; 1 when a check fails, or when a computation
could not complete (an :class:`~admissible_sl2.errors.InvariantError`; the
report then carries one failed check); and 2 for usage or parameter errors
(an :class:`~admissible_sl2.errors.InputError`, reported on stderr).

One table defines the subcommands and their flags.  :func:`main` builds the
parser of the subcommand that ``argv[0]`` names alone, which costs a fraction
of building all nine; help, an empty argv and unknown names get the full
parser, and either prints the same usage and error text.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import mpmath as mp

from . import report, verify
from .characters import CharacterSpec, character_qseries, chibar_lowest_exponent
from .errors import InputError, InvariantError
from .exact import poly_gcd, rat_str
from .fusion import FusionRing, bimodule_presentation, fusion
from .mff import bimodule_from_mff, hw_annihilation_polynomial
from .numeric import s_transform_residual
from .pbw import verify_operator_identities
from .weights import (
    AdmissibleWeight,
    Level,
    conformal_weight,
    enumerate_admissible,
    vacuum_polynomial,
    weight_from_j,
)

__all__ = ["main", "build_parser"]


# -- argument helpers --------------------------------------------------------


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"{flag}: zero denominator in {text.strip()!r}") from exc


def _weight_from_flags(level, args) -> AdmissibleWeight:
    if args.j is not None:
        if args.n is not None or args.k is not None:
            raise InputError("give either --n/--k or --j, not both")
        return _weight_from_j(level, args.j, "--j")
    if args.n is None or args.k is None:
        raise InputError("a weight needs --n and --k together, or --j")
    return AdmissibleWeight(level, args.n, args.k)


def _weight_from_pair(level, text: str, flag: str) -> AdmissibleWeight:
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise InputError(f'{flag}: expected "n,k", got {text!r}')
        try:
            n, k = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f'{flag}: expected integers in "n,k", got {text!r}') from exc
        return AdmissibleWeight(level, n, k)
    return _weight_from_j(level, text, flag)


def _weight_from_j(level, text: str, flag: str) -> AdmissibleWeight:
    if (w := weight_from_j(level, _rational(text, flag))) is None:
        raise InputError(
            f"{flag}: j={text} is not an admissible weight at p={level.p}, q={level.q}"
        )
    return w


def _tau(text: str) -> mp.mpc:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError('--tau expects "re,im"')
    re, im = (_rational(part, "--tau") for part in parts)
    if im <= 0:
        raise InputError("--tau needs a positive imaginary part")
    with mp.workprec(256):
        return mp.mpc(
            mp.mpf(re.numerator) / re.denominator,
            mp.mpf(im.numerator) / im.denominator,
        )


def _tolerance(text: str) -> mp.mpf:
    try:
        tol = mp.mpf(text)
    except ValueError as exc:
        raise InputError(f"--tol: {exc}") from exc
    if not tol > 0 or not mp.isfinite(tol):
        raise InputError(f"--tol must be a positive finite number, got {text}")
    return tol


# -- subcommands -------------------------------------------------------------


def cmd_weights(args) -> tuple[dict, list[dict]]:
    level = Level(args.p, args.q)
    weights = enumerate_admissible(level)
    results = {
        "level": level,
        "c_ell": level.c_ell,
        "count": len(weights),
        "weights": [
            {"n": w.n, "k": w.k, "j": w.j, "delta": conformal_weight(level, w.j)}
            for w in weights
        ],
    }
    checks = [
        report.check(
            "weight_count",
            len(weights) == level.n_weights,
            f"(p-1)q = {level.n_weights}",
        ),
        report.check(
            "weights_distinct", len({w.j for w in weights}) == len(weights), ""
        ),
        report.check(
            "vacuum_conformal_weight_zero",
            conformal_weight(level, Fraction(0)) == 0,
            "",
        ),
    ]
    return results, checks


def cmd_zhu(args) -> tuple[dict, list[dict]]:
    level = Level(args.p, args.q)
    relation = vacuum_polynomial(level)
    squarefree = poly_gcd(relation, relation.derivative()).degree == 0
    const, labels = hw_annihilation_polynomial(level)
    results = {
        "level": level,
        "dimension": relation.degree,
        "relation": relation,
        "annihilation_constant": const,
    }
    checks = [
        report.check(
            "dimension",
            relation.degree == level.n_weights,
            f"(p-1)q = {level.n_weights}",
        ),
        report.check("relation_squarefree", squarefree, ""),
        report.check(
            "annihilation_proportional",
            verify.annihilation_proportional(level, const, labels),
            f"constant {rat_str(const)}",
        ),
    ]
    return results, checks


def cmd_bimodule(args) -> tuple[dict, list[dict]]:
    level = Level(args.p, args.q)
    w = _weight_from_flags(level, args)
    pres = bimodule_presentation(w)
    oracle = bimodule_from_mff(w)
    results = {
        "level": level,
        "weight": w,
        "n_primed": w.n_primed,
        "k_primed": w.k_primed,
        "dimension": pres.dimension,
        "y_truncation": pres.y_truncation,
        "mff_dimensions_by_degree": oracle.dims,
        "mff_dimension": oracle.dimension,
    }
    return results, verify.bimodule_oracle_checks(oracle, pres)


def cmd_fusion(args) -> tuple[dict, list[dict]]:
    level = Level(args.p, args.q)
    w1 = _weight_from_pair(level, args.j1, "--j1")
    w2 = _weight_from_pair(level, args.j2, "--j2")
    record = fusion(w1, w2, oracle=args.oracle)
    results = {
        "level": level,
        "j1": w1,
        "j2": w2,
        "oracle": args.oracle,
        "gate_passed": record.gate_passed,
        "outputs": {w.j: m for w, m in record.outputs},
        "outputs_detail": [
            {"n": w.n, "k": w.k, "j": w.j, "multiplicity": m}
            for w, m in record.outputs
        ],
        "oracles_agree": record.oracles_agree,
    }
    checks = []
    if args.oracle == "all":
        checks.append(
            report.check(
                "oracles_agree",
                record.oracles_agree is True,
                "closed form, bimodule presentation, projection oracle",
            )
        )
    return results, checks


def cmd_fusion_table(args) -> tuple[dict, list[dict]]:
    level = Level(args.p, args.q)
    ring = FusionRing.build(level)
    basis = ring.basis
    table = []
    for a, w1 in enumerate(basis):
        for b, w2 in enumerate(basis):
            outs = {basis[c].j: n for c, n in sorted(ring.table[a][b].items())}
            table.append({"j1": w1.j, "j2": w2.j, "outputs": outs})
    axioms = ring.axioms()
    checks = [
        report.check("unit", axioms["unit"], "vacuum weight is a two-sided identity"),
        report.check("commutativity", axioms["commutativity"], ""),
        report.check("associativity", axioms["associativity"], ""),
    ]
    if args.oracle == "all":
        checks.append(
            report.check(
                "oracles_agree",
                verify.three_routes_agree(verify.level_oracles(level)),
                f"{len(basis) ** 2} ordered pairs along all three routes",
            )
        )
    results = {
        "level": level,
        "basis": basis,
        "table": table,
    }
    return results, checks


def cmd_mff_verify(args) -> tuple[dict, list[dict]]:
    if not 1 <= args.mmax <= 8:
        raise InputError(f"--mmax must lie in 1..8, got {args.mmax}")
    rep = verify_operator_identities(m_max=args.mmax)
    by_name: dict[str, dict[str, int]] = {}
    for c in rep.checks:
        row = by_name.setdefault(c.name, {"total": 0, "passed": 0})
        row["total"] += 1
        row["passed"] += 1 if c.passed else 0
    results = {
        "m_max": args.mmax,
        "n_samples": rep.n_samples,
        "identities_total": len(rep.checks),
        "by_identity": by_name,
        "failures": [f"{c.name}[{c.params}]" for c in rep.failures()],
    }
    checks = [
        report.check(
            "operator_identities",
            rep.all_pass,
            f"{len(rep.checks)} exact identities at m_max={args.mmax}",
        )
    ]
    return results, checks


def cmd_character(args) -> tuple[dict, list[dict]]:
    level = Level(args.p, args.q)
    w = _weight_from_flags(level, args)
    z = _rational(args.z, "--z")
    spec = CharacterSpec(w, z)
    order = _rational(args.trunc, "--trunc")
    predicted = chibar_lowest_exponent(spec) + spec.shift(args.kind)
    if order <= predicted:
        raise InputError(
            f"--trunc {args.trunc} must exceed the lowest exponent {rat_str(predicted)}"
        )
    series = character_qseries(spec, order, kind=args.kind)
    results = {
        "level": level,
        "weight": w,
        "z": z,
        "kind": args.kind,
        "a": level.a,
        "b_plus": w.b_plus,
        "b_minus": w.b_minus,
        "predicted_lowest_exponent": predicted,
        "series": series,
    }
    checks = verify.character_series_checks(series, predicted)
    if args.tau is not None:
        tau = _tau(args.tau)
        numeric, series_value, diff, agree = verify.series_numeric_agreement(
            spec, series, tau, _tolerance(args.tol), kind=args.kind
        )
        results["tau"] = tau
        results["numeric"] = numeric
        results["series_value"] = series_value
        results["difference"] = diff
        checks.append(
            report.check(
                "series_numeric_agreement",
                agree,
                f"|series - numeric| = {mp.nstr(diff, 6)} (tolerance {args.tol})",
            )
        )
    return results, checks


def cmd_stransform(args) -> tuple[dict, list[dict]]:
    level = Level(args.p, args.q)
    z = _rational(args.z, "--z")
    tau = _tau(args.tau)
    tol = _tolerance(args.tol)
    rep = s_transform_residual(level, z, tau, variant=args.variant, tol=tol)
    # the fields in report order, copied shallowly: dataclasses.asdict would
    # turn the Level and the weights into dicts
    results = dict(vars(rep))
    finals = rep.final_residuals
    final_errors = [row[-1] for row in rep.residual_errors]
    checks = [
        report.check(
            "theta_error_bounds",
            rep.theta_error_max <= tol,
            f"max certified theta error {mp.nstr(rep.theta_error_max, 6)}",
        ),
        report.check(
            "transformation_law",
            all(f <= tol + e for f, e in zip(finals, final_errors)),
            f"max residual {mp.nstr(max(finals), 6)} at tolerance {args.tol}",
        ),
    ]
    return results, checks


def cmd_verify(args) -> tuple[dict, list[dict]]:
    return verify.run_suites(args.suite, args.pmax, args.qmax)


# -- parser ------------------------------------------------------------------


def _weight_flags(sp) -> None:
    sp.add_argument("--n", type=int, default=None, help="box coordinate 0..p-2")
    sp.add_argument("--k", type=int, default=None, help="box coordinate 0..q-1")
    sp.add_argument("--j", default=None, help='weight as a rational "a/b"')


def _fusion_flags(sp) -> None:
    sp.add_argument("--j1", required=True, help='first weight, "n,k" or rational "a/b"')
    sp.add_argument("--j2", required=True, help='second weight, "n,k" or rational "a/b"')
    sp.add_argument(
        "--oracle", choices=("closed", "bimodule", "mff", "all"), default="closed"
    )


def _fusion_table_flags(sp) -> None:
    sp.add_argument("--oracle", choices=("closed", "all"), default="closed")


def _mff_verify_flags(sp) -> None:
    sp.add_argument("--mmax", type=int, default=5, help="largest power in the identities")


def _character_flags(sp) -> None:
    _weight_flags(sp)
    sp.add_argument("--z", required=True, help='flavour parameter, rational in (0,1)')
    sp.add_argument("--kind", choices=("chi", "chibar"), default="chi")
    sp.add_argument("--trunc", default="30", help="truncation order (rational)")
    sp.add_argument("--tau", default=None, help='numeric cross-check point "re,im"')
    sp.add_argument("--tol", default="1e-8", help="agreement tolerance for --tau")


def _stransform_flags(sp) -> None:
    sp.add_argument("--z", required=True, help='flavour parameter, rational in (0,1)')
    sp.add_argument("--tau", required=True, help='upper-half-plane point "re,im"')
    sp.add_argument("--variant", choices=("KW1", "KW2"), default="KW2")
    sp.add_argument("--tol", default="1e-10", help="certification tolerance")


def _verify_flags(sp) -> None:
    sp.add_argument("--suite", choices=("all",) + verify.SUITES, default="all")
    sp.add_argument("--pmax", type=int, default=6)
    sp.add_argument("--qmax", type=int, default=5)


# name, handler, help text, whether it takes --p/--q, its own flags
_SUBCOMMANDS = (
    ("weights", cmd_weights, "enumerate admissible weights with conformal weights",
     True, None),
    ("zhu", cmd_zhu, "vacuum Zhu algebra: dimension, relation, annihilation constant",
     True, None),
    ("bimodule", cmd_bimodule, "bimodule dimensions: presentation vs. projection oracle",
     True, _weight_flags),
    ("fusion", cmd_fusion, "fusion rule for one ordered pair of weights",
     True, _fusion_flags),
    ("fusion-table", cmd_fusion_table, "full fusion table and ring axioms",
     True, _fusion_table_flags),
    ("mff-verify", cmd_mff_verify, "exact operator-calculus identity sweep",
     False, _mff_verify_flags),
    ("character", cmd_character, "exact character q-expansion for one weight",
     True, _character_flags),
    ("stransform", cmd_stransform, "certified S-transformation residual report",
     True, _stransform_flags),
    ("verify", cmd_verify, "invariant suites over a (p, q) box",
     False, _verify_flags),
)
_SUBCOMMAND_NAMES = tuple(entry[0] for entry in _SUBCOMMANDS)


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given ``name``, of that one alone.

    Both parse that subcommand's argv to the same namespace.  The narrow
    parser shows the full subcommand list as its usage metavar, so that an
    error the top level reports (an unrecognized flag) prints the same usage
    line as the full parser.
    """
    if name is not None and name not in _SUBCOMMAND_NAMES:
        raise ValueError(f"unknown subcommand {name!r}")
    parser = argparse.ArgumentParser(
        prog="admsl2",
        description="Exact invariants of admissible-level sl2 vacuum vertex algebras.",
    )
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        metavar=None if name is None else "{" + ",".join(_SUBCOMMAND_NAMES) + "}",
    )
    for sub_name, handler, help_text, pq, add_flags in _SUBCOMMANDS:
        if name is not None and sub_name != name:
            continue
        sp = sub.add_parser(sub_name, help=help_text, description=help_text)
        if pq:
            sp.add_argument("--p", type=int, required=True, help="numerator of t = p/q")
            sp.add_argument("--q", type=int, required=True, help="denominator of t = p/q")
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.set_defaults(handler=handler)
        if add_flags is not None:
            add_flags(sp)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # one subparser when argv names a subcommand; the full parser for help,
    # an empty argv and unknown names, so their text is the full one
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMAND_NAMES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        results, checks = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        results, checks = {}, [report.failed(args.subcommand, exc)]
    # the report's parameters are the parsed flags, ``format`` last
    parameters = {
        k: v for k, v in vars(args).items() if k not in ("handler", "subcommand", "format")
    }
    parameters["format"] = args.format
    doc = report.document(args.subcommand, parameters, results, checks)
    text = report.dumps(doc) if args.format == "json" else report.render_text(doc)
    sys.stdout.write(text)
    return 0 if report.all_checks_pass(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
