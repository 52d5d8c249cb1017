"""One-line mutants of the certified bounds, each with the test that must kill it.

Usage, from the root of a checkout::

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME [NAME]  # only these

A bound is only as safe as the test that fails when it is weakened.  Each
entry of ``MUTANTS`` names one margin of a bound, the exact string of the
package that holds it, a weaker replacement, and the one test that must fail
on the weakened tree.  For each mutant the script copies the checkout to a
temporary directory, applies the one replacement, runs only that test, and
prints whether it failed (``killed``) or passed (``survived``).

Most entries expect ``killed``.  An entry that expects ``survived`` records
a margin no test in the tree defends yet, with the reason; it stays listed
so that the gap is visible and a later referee can close it.  The script
exits 1 when any mutant's outcome differs from what its entry expects, so a
referee that stops defending its margin shows here.

Tier-1 does not collect this file; ``tests/test_hygiene.py`` checks that
each mutant's old string occurs exactly once in the package, so the list
cannot go stale.  A full run takes a few minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMERIC_TESTS = "tests/test_numeric.py::"
SIDE_PASS_TESTS = "tests/test_side_pass.py::"
POINT_BOUND = SIDE_PASS_TESTS + "test_point_bound_bounds_the_exact_geometric_tail"
WORST_POINT = "test_quotient_bound_covers_the_worst_point_of_the_error_disks"
S_UNITS = "test_phase_classes_give_the_direct_s_matrices_bit_for_bit"
ROUNDING_64 = (
    "one 64-bit rounding the wrong way lowers the bound by under 2^-64 of itself, and the "
    "final sum, rounded up past the rounding term, raises it by about that much; the worst "
    "point's closest draw leaves 2^-62"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a file of src/admissible_sl2
    old: str
    new: str
    test: str  # a pytest node id
    expect: str = "killed"
    why: str = ""


MUTANTS = [
    # -- the side pass's fixed-point walk (numeric._fixed_walk) --
    Mutant(
        "walk: the ratios' per-step drift",
        "numeric.py",
        "d += ((ratio * d_c) >> f) + 3",
        "d += 0",
        SIDE_PASS_TESTS + "test_fixed_walk_is_the_brute_force_sum_within_its_count",
    ),
    Mutant(
        "walk: the seeds' error",
        "numeric.py",
        "delta = int(mp.ceil(mp.ldexp(abs(value) * r, f))) + 2",
        "delta = 2",
        SIDE_PASS_TESTS + "test_fixed_walk_is_the_brute_force_sum_within_its_count",
    ),
    Mutant(
        "walk: a term's floor units per step",
        "numeric.py",
        "e = ((e * min(ratio + d, one) + (abs(x_re) + abs(x_im)) * d) >> f) + 3",
        "e = (e * min(ratio + d, one) + (abs(x_re) + abs(x_im)) * d) >> f",
        SIDE_PASS_TESTS + "test_fixed_walk_is_the_brute_force_sum_within_its_count",
    ),
    # -- the float bound at one lattice point, of the direct evaluator and of
    #    the side pass's window (numeric._point_bound) --
    Mutant(
        "point bound: the float margin on the log modulus",
        "numeric.py",
        "l = _FLOAT_MARGIN * (p + abs(q) + 1) - p - q",
        "l = -p - q",
        POINT_BOUND,
    ),
    Mutant(
        "point bound: the float margin on the slope",
        "numeric.py",
        " - _FLOAT_MARGIN * (size + 1) - y",
        " - y",
        POINT_BOUND,
    ),
    Mutant(
        "point bound: the argument rounding y in the tail",
        "numeric.py",
        "_up(l, y, -math.log(-math.expm1(-s)))",
        "_up(l, -math.log(-math.expm1(-s)))",
        POINT_BOUND,
    ),
    # -- the residual table (numeric.s_transform_residual) --
    Mutant(
        "table: the rounding count",
        "numeric.py",
        "[v.err + count for v in lhs_vals]",
        "[v.err for v in lhs_vals]",
        SIDE_PASS_TESTS + "test_the_residual_table_is_exact_arithmetic_within_its_count",
    ),
    Mutant(
        "table: the S entries' error",
        "numeric.py",
        "delta_s = mp.ldexp(mp.mpf(data.phase_reach) / level.a + 4, 1 - prec)",
        "delta_s = 0",
        SIDE_PASS_TESTS + "test_the_residual_table_is_exact_arithmetic_within_its_count",
    ),
    Mutant(
        "table: the factor's error",
        "numeric.py",
        'r_f = _q_power_error(anomaly, tau_v) if variant == "KW2" else 0',
        "r_f = 0",
        SIDE_PASS_TESTS + "test_the_residual_table_is_exact_arithmetic_within_its_count",
        "survived",
        "the S entries' term eps (X + 4) sum |y_j| of the count exceeds the factor's error "
        "r_f |y_j| wherever the draws reach",
    ),
    Mutant(
        "table: the 2 units on c_i and w_j",
        "numeric.py",
        "[to_fixed(v._mpf_, g) + 2 for v in vs]",
        "[to_fixed(v._mpf_, g) for v in vs]",
        NUMERIC_TESTS + "test_residual_bound_outside_the_double_range",
    ),
    # -- the |S_ij| units of the S build (numeric.modular_data) --
    Mutant(
        "S units: the parts' floor units",
        "numeric.py",
        "(abs(re_units) + 1) ** 2 + (abs(im_units) + 1) ** 2",
        "abs(re_units) ** 2 + abs(im_units) ** 2",
        NUMERIC_TESTS + S_UNITS,
        "survived",
        "a unit of 2^-(prec + 8) inside the root moves |S_ij| 2^62 by 2^-138, so it only counts "
        "where |S_ij| 2^62 lies that close above an integer, and no entry of the (12,8) box does",
    ),
    Mutant(
        "S units: the unit of the shift's floor",
        "numeric.py",
        "(root >> cut) + 1",
        "root >> cut",
        NUMERIC_TESTS + S_UNITS,
    ),
    # -- the direct evaluators (ROADMAP item 15) --
    Mutant(
        "theta: the per-term rounding count",
        "numeric.py",
        "log_n = math.log(count + 16)",
        "log_n = math.log(count + 1)",
        NUMERIC_TESTS + "test_theta_recurrence_matches_direct_evaluator",
    ),
    Mutant(
        "quotient: the numerators' errors summed",
        "numeric.py",
        "e_num = mpf_add(th_p.err._mpf_, th_m.err._mpf_, 64, round_ceiling)",
        "e_num = max(th_p.err, th_m.err)._mpf_",
        NUMERIC_TESTS + "test_quotient_bound_encloses_interval_referee",
    ),
    Mutant(
        "quotient: the factor 1/(1 - rho)",
        "numeric.py",
        "mpf_sub(abs_den, e_den, 64, round_floor)",
        "abs_den",
        NUMERIC_TESTS + WORST_POINT,
    ),
    Mutant(
        "quotient: e_den rounded up",
        "numeric.py",
        "e_den = mpf_add(th_1.err._mpf_, th_m1.err._mpf_, 64, round_ceiling)",
        "e_den = mpf_add(th_1.err._mpf_, th_m1.err._mpf_, 64, round_floor)",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        ROUNDING_64,
    ),
    Mutant(
        "quotient: |den| rounded down",
        "numeric.py",
        "abs_den = mp.make_mpf(_modulus(den, round_floor))",
        "abs_den = mp.make_mpf(_modulus(den, round_ceiling))",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        ROUNDING_64,
    ),
    Mutant(
        "quotient: |quot| rounded up",
        "numeric.py",
        "abs_quot = _modulus(quot, round_ceiling)",
        "abs_quot = _modulus(quot, round_floor)",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        ROUNDING_64,
    ),
    Mutant(
        "quotient: e_num + |quot| e_den rounded up",
        "numeric.py",
        "top = mpf_add(e_num, mpf_mul(abs_quot, e_den, 64, round_ceiling), 64, round_ceiling)",
        "top = mpf_add(e_num, mpf_mul(abs_quot, e_den, 64, round_floor), 64, round_floor)",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        ROUNDING_64,
    ),
    Mutant(
        "quotient: |den| - e_den rounded down",
        "numeric.py",
        "mpf_sub(abs_den, e_den, 64, round_floor)",
        "mpf_sub(abs_den, e_den, 64, round_ceiling)",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        ROUNDING_64,
    ),
    Mutant(
        "quotient: M rounded up",
        "numeric.py",
        "e_den, 64, round_floor), 64, round_ceiling)",
        "e_den, 64, round_floor), 64, round_floor)",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        ROUNDING_64,
    ),
    Mutant(
        "quotient: the rounding term 8 eps (|quot| + M)",
        "numeric.py",
        "e_quot = mpf_add(main, slack, 64, round_ceiling)",
        "e_quot = main",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        "8 eps (|quot| + M) is at most 2^-60 of one 64-bit step of the bound, which the outward "
        "roundings add on all but exact draws, and the quotient's own rounding is smaller still",
    ),
    Mutant(
        "quotient: the bound rounded up",
        "numeric.py",
        "e_quot = mpf_add(main, slack, 64, round_ceiling)",
        "e_quot = mpf_add(main, slack, 64, round_floor)",
        NUMERIC_TESTS + WORST_POINT,
        "survived",
        ROUNDING_64,
    ),
    # -- q^e times a certified value: the series close and chi
    #    (numeric._times_q_power) --
    Mutant(
        "q^e product: the lead's relative error",
        "numeric.py",
        "r * (abs_x + x.err)",
        "0",
        NUMERIC_TESTS + "test_chi_bound_counts_its_prefactors_error",
    ),
    Mutant(
        "q^e product: the product's rounding",
        "numeric.py",
        " + 4 * eps * abs_x",
        "",
        NUMERIC_TESTS + "test_chi_bound_encloses_interval_referee",
        "survived",
        "chi's bound carries q^shift's own error r |quot|, r >= eps, and the quotient's "
        "8 eps |quot|, each beyond the product's actual rounding",
    ),
    # -- the series walk's units (numeric.qseries_eval_numeric) --
    Mutant(
        "series walk: the floor units per step",
        "numeric.py",
        "drift = ((drift * z_abs + (abs(wr) + abs(wi)) * delta) >> frac_bits) + 3",
        "drift = ((drift * z_abs + (abs(wr) + abs(wi)) * delta) >> frac_bits) + 0",
        NUMERIC_TESTS + "test_series_walk_within_bounds_of_reference_and_per_term_sum",
        "survived",
        "at prec + 8 + bitlength(weight) fraction bits the floors are far below the walk's slack",
    ),
    Mutant(
        "series walk: the gap power's floor units",
        "numeric.py",
        "delta = int(mp.ceil((z_abs + 2) * _q_power_error(e, tau_v))) + 3",
        "delta = int(mp.ceil((z_abs + 2) * _q_power_error(e, tau_v))) + 0",
        NUMERIC_TESTS + "test_series_walk_within_bounds_of_reference_and_per_term_sum",
        "survived",
        "as for the floor units per step",
    ),
    # -- the S-law predicate (verify.transformation_law_checks) --
    Mutant(
        "S-law: the conjugate-phase S taken as the primary",
        "verify.py",
        'finals = results["final_residuals"]',
        'finals = results["as_printed_final_residuals"]',
        "tests/test_verify.py::"
        "test_the_s_law_fails_when_the_conjugate_phase_s_is_taken_as_the_primary",
    ),
    # -- the report's decimal kernel (report._decimal) --
    Mutant(
        "decimal: the half-up carry digit 5",
        "report.py",
        'text[dps] in "56789"',
        'text[dps] in "6789"',
        "tests/test_report.py::test_decimal_kernel_is_to_str",
    ),
    # -- fusion --
    Mutant(
        "fusion: the gate k1' + k2' <= q + 1",
        "fusion.py",
        "if w1.k_primed + w2.k_primed > level.q + 1:",
        "if w1.k_primed + w2.k_primed > level.q + 2:",
        "tests/test_fusion.py::test_fixture_table_3_2",
    ),
]


def _ignore(directory: str, names: list[str]) -> list[str]:
    skip = {".git", "__pycache__", ".hypothesis", ".pytest_cache", "results"}
    return [name for name in names if name in skip]


def run(mutant: Mutant) -> str:
    """'killed' or 'survived': the named test on a copy of the tree with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_ignore)
        path = tree / "src" / "admissible_sl2" / mutant.module
        text = path.read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.test],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
        return "killed" if proc.returncode == 1 else "survived"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unexpected = 0
    start = time.monotonic()
    for mutant in chosen:
        began = time.monotonic()
        outcome = run(mutant)
        mark = "" if outcome == mutant.expect else "  <-- expected " + mutant.expect
        unexpected += bool(mark)
        print(f"{outcome:8} {time.monotonic() - began:6.1f}s  {mutant.name}{mark}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} unexpected, {time.monotonic() - start:.0f}s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
