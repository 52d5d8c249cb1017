"""What the benchmark keeps of each op's report, and the check against the reference.

An op fails when it raises, exits non-zero, returns a report that lacks or
garbles a field the check reads, has a failed report check, or misses its
stored reference:

- exact results (``verify``, ``character``, and the closed-form fields of
  ``stransform`` named in ``STRANSFORM_EXACT``) must be byte-identical to the
  reference, compared through a SHA-256 digest of the payload serialised in
  its own key order;
- the certified values of ``stransform`` (``chibar`` and ``lhs``) must agree
  with the reference within the sum of the two certified ``err`` bounds, plus
  the rounding of the 30-digit rendering the report uses;
- the derived fields of ``stransform`` (every residual partial sum and its
  error bound, the final residuals, and the as-printed and alternative-factor
  residuals) are recomputed from the report's own chibar, lhs, factors and
  S-matrices and must match them up to the rounding of the rendering.  Those
  inputs are checked against the reference above, so the derived fields are
  too, without being stored.  ``theta_error_max``, every certified ``err``
  and every final residual (less its error bound) must be at most the op's
  ``--tol``.

References live in ``reference/<workload>.json``, keyed by the op's argv, and
cover every op a seed can select (see ``workloads``).  ``make_reference.py``
rewrites them.
"""

from __future__ import annotations

import hashlib
import json
import os
from decimal import Decimal, InvalidOperation, localcontext

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
STRANSFORM_EXACT = (
    "level", "z", "tau", "variant", "weights",
    "factor", "alt_factor", "s_matrix", "as_printed_s_matrix",
)
CERTIFIED = ("chibar", "lhs")
RENDER_DIGITS = 30  # significant digits of a value in a report (report._VALUE_DIGITS)
ERR_DIGITS = 8  # significant digits of an err bound in a report (report._ERR_DIGITS)
RECOMPUTE_DIGITS = 50  # decimal digits used to recompute the derived stransform fields
# A recomputed field may differ from the reported one by this share of the
# magnitudes it is built from: each rendered input and the reported value
# carry a relative rounding of at most 5e-30.
RECOMPUTE_REL = "1e-28"
# ... and a recomputed error bound by this share of itself, since the err
# bounds it sums are rendered to ERR_DIGITS digits.
RECOMPUTE_ERR_REL = "1e-6"


def digest(obj) -> str:
    text = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def extract(argv: list[str], rc: int | None, stdout: str, error: str | None) -> dict:
    """The parts of one op's outcome that the correctness check needs."""
    rec: dict = {"rc": rc, "error": error}
    if error is not None or rc != 0:
        return rec
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        rec["error"] = f"report is not JSON: {exc}"
        return rec
    try:
        kept: dict = {"checks_failed": [c["name"] for c in doc["checks"] if c["status"] != "pass"]}
        results = doc["results"]
        if argv[0] == "stransform":
            kept["digest"] = digest({k: results[k] for k in STRANSFORM_EXACT})
            kept["values"] = [
                [v["value"][0], v["value"][1], v["err"]] for key in CERTIFIED for v in results[key]
            ]
            kept["derived_failed"] = stransform_derived_failures(argv, results)
        else:
            kept["digest"] = digest(results)
    except (KeyError, TypeError, IndexError, ValueError, InvalidOperation) as exc:
        rec["error"] = f"report lacks or garbles a checked field: {type(exc).__name__}: {exc}"
        return rec
    rec.update(kept)
    return rec


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cabs(x):
    return (x[0] * x[0] + x[1] * x[1]).sqrt()


def stransform_derived_failures(argv: list[str], results: dict) -> list[str]:
    """Names of the derived stransform fields that do not follow from the report's own values."""
    with localcontext() as ctx:
        ctx.prec = RECOMPUTE_DIGITS
        num, zero = Decimal, Decimal(0)

        def cplx(pair):
            return (num(pair[0]), num(pair[1]))

        rel, err_rel = num(RECOMPUTE_REL), num(RECOMPUTE_ERR_REL)
        tol = num(argv[argv.index("--tol") + 1])
        chibar = [(cplx(v["value"]), num(v["err"])) for v in results["chibar"]]
        lhs = [(cplx(v["value"]), num(v["err"])) for v in results["lhs"]]
        s_matrix = [[cplx(x) for x in row] for row in results["s_matrix"]]
        printed = [[cplx(x) for x in row] for row in results["as_printed_s_matrix"]]
        factor = cplx(results["factor"])
        alt = None if results["alt_factor"] is None else cplx(results["alt_factor"])
        partial, partial_err = results["residual_partial_sums"], results["residual_errors"]
        finals = results["final_residuals"]
        printed_finals, alt_finals = results["as_printed_final_residuals"], results["alt_final_residuals"]
        n = len(chibar)
        shapes = [len(lhs), len(s_matrix), len(printed), len(partial), len(partial_err),
                  len(finals), len(printed_finals)] + [len(row) for row in s_matrix + printed + partial + partial_err]
        if shapes != [n] * len(shapes) or (alt_finals is None) != (alt is None) or (
            alt_finals is not None and len(alt_finals) != n
        ):
            return ["shape"]

        def close(text: str, want, scale) -> bool:
            return abs(num(text) - want) <= rel * scale

        def residual(lv, f, total):
            fx = _cmul(f, total)
            return _cabs((lv[0] - fx[0], lv[1] - fx[1]))

        abs_factor = _cabs(factor)
        abs_chibar = [_cabs(cv) for cv, _ in chibar]
        bad = set()
        for i, (lv, l_err) in enumerate(lhs):
            running, running_abs, running_err = (zero, zero), zero, zero
            for j, (cv, c_err) in enumerate(chibar):
                term = _cmul(s_matrix[i][j], cv)
                running = (running[0] + term[0], running[1] + term[1])
                abs_s = _cabs(s_matrix[i][j])
                running_abs += abs_s * abs_chibar[j]
                running_err += abs_s * c_err
                scale = _cabs(lv) + abs_factor * running_abs
                if not close(partial[i][j], residual(lv, factor, running), scale):
                    bad.add("residual_partial_sums")
                err = l_err + abs_factor * running_err
                if abs(num(partial_err[i][j]) - err) > err_rel * err + rel * scale:
                    bad.add("residual_errors")
            if not close(finals[i], residual(lv, factor, running), scale):
                bad.add("final_residuals")
            if num(finals[i]) > tol + num(partial_err[i][-1]):
                bad.add("transformation_law")
            printed_terms = [_cmul(printed[i][j], cv) for j, (cv, _) in enumerate(chibar)]
            printed_sum = (sum(t[0] for t in printed_terms), sum(t[1] for t in printed_terms))
            printed_scale = _cabs(lv) + abs_factor * sum(_cabs(t) for t in printed_terms)
            if not close(printed_finals[i], residual(lv, factor, printed_sum), printed_scale):
                bad.add("as_printed_final_residuals")
            if alt is not None and not close(
                alt_finals[i], residual(lv, alt, running), _cabs(lv) + _cabs(alt) * running_abs
            ):
                bad.add("alt_final_residuals")
        if not zero <= num(results["theta_error_max"]) <= tol:
            bad.add("theta_error_max")
        if any(e > tol for _, e in chibar + lhs):
            bad.add("certified_err")
        return sorted(bad)


def reference_entry(rec: dict) -> dict:
    return {k: rec[k] for k in ("digest", "values") if k in rec}


def load(workload: str) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _render_slack(text: str) -> Decimal:
    """Largest error of a decimal rendering of RENDER_DIGITS significant digits."""
    x = Decimal(text)
    if x == 0:
        return Decimal(0)
    return Decimal(5).scaleb(x.adjusted() - RENDER_DIGITS)


def values_agree(got: list[str], ref: list[str]) -> bool:
    """|got - ref| <= err_got + err_ref + rendering slack, for [re, im, err] triples."""
    with localcontext() as ctx:
        ctx.prec = 80
        dre = Decimal(got[0]) - Decimal(ref[0])
        dim = Decimal(got[1]) - Decimal(ref[1])
        dist = (dre * dre + dim * dim).sqrt()
        err_scale = 1 + Decimal(10) ** (1 - ERR_DIGITS)
        bound = (Decimal(got[2]) + Decimal(ref[2])) * err_scale
        for text in (got[0], got[1], ref[0], ref[1]):
            bound += _render_slack(text)
        return dist <= bound


def failure(rec: dict, ref: dict | None) -> str | None:
    """Why the op failed, or None when it passed every check."""
    if rec.get("error"):
        return rec["error"]
    if rec["rc"] != 0:
        return f"exit status {rec['rc']}"
    if rec["checks_failed"]:
        return f"failed report checks {rec['checks_failed']}"
    if rec.get("derived_failed"):
        return f"fields that disagree with the report's own values {rec['derived_failed']}"
    if ref is None:
        return "no reference output for this op"
    if rec["digest"] != ref["digest"]:
        return "exact results differ from the reference"
    if "values" in ref:
        if len(rec["values"]) != len(ref["values"]):
            return "certified value count differs from the reference"
        for i, (got, want) in enumerate(zip(rec["values"], ref["values"])):
            if not values_agree(got, want):
                return f"certified value {i} outside the err bounds of the reference"
    return None
