"""
Characters, theta quotients, and the S-transformation
=====================================================

Expand the characters of admissible modules as exact q-series through a
quotient of theta functions, cross-check the series against certified
floating-point evaluation, and measure the residual of the modular
S-transformation law with and without its anomaly factor.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, nstr

from admissible_sl2 import (
    CharacterSpec,
    Level,
    character_eval_numeric,
    character_qseries,
    chibar_lowest_exponent,
    qseries_eval_numeric,
    s_transform_residual,
    theta_ratio_identity_check,
    weight_from_j,
)

level = Level(3, 2)
z = Fraction(1, 2)

# the character of L(1) specialized along z, as an exact q-series; the
# lowest exponent Delta - z j/2 - c/24 = 7/24 comes from the Sugawara
# construction, and all coefficients are nonnegative integers
spec = CharacterSpec(weight_from_j(level, Fraction(1)), z)
series = character_qseries(spec, Fraction(4), kind="chibar")
print(f"chibar(L(1)) lowest exponent: {chibar_lowest_exponent(spec)}")
print(f"chibar(L(1)) = {series}")

# the one-variable rewriting as a ratio of two-index theta functions agrees
# coefficient-by-coefficient with the character chi it is given, to that
# series' order, and its prefactor exponent cancels exactly
report = theta_ratio_identity_check(spec, character_qseries(spec, Fraction(12)))
print(f"\ntheta-ratio identity to order 12: agree = {report.agree}, "
      f"prefactor exponent zero = {report.prefactor_zero}")

# certified numerics: evaluate the same character adaptively at tau = i and
# compare with the truncated exact series at q = e^{-2 pi}
tau = mp.mpc(0, 1)
direct = character_eval_numeric(spec, tau, tol=mp.mpf("1e-12"), kind="chibar")
via_series = qseries_eval_numeric(character_qseries(spec, Fraction(30), kind="chibar"), tau)
print(f"\nadaptive evaluation:  {nstr(direct.value, 20)} (err <= {nstr(direct.err, 3)})")
print(f"series evaluation:    {nstr(via_series.value, 20)}")
print(f"difference:           {nstr(abs(direct.value - via_series.value), 3)}")

# the S-transformation: chibar(-1/tau, tau z) against the S-matrix sum.
# KW2 includes the anomaly factor e^{(1/2) ell z^2 pi i tau}; KW1 omits it.
tau = mp.mpc(0, "1.5")
for variant in ("KW2", "KW1"):
    rep = s_transform_residual(level, z, tau, variant=variant)
    finals = [nstr(rep["residual_partial_sums"][i][-1], 3) for i in range(len(rep["weights"]))]
    print(f"\n{variant} final residuals per weight: {finals}")
print("(the anomaly factor is what makes the law close)")

# the residual report also tabulates the conjugate-phase S-matrix spelling;
# on rows whose phases are complex the conjugate spelling breaks the law
rep = s_transform_residual(level, z, tau, variant="KW2")
for w, r in zip(rep["weights"], rep["as_printed_final_residuals"]):
    print(f"conjugate-phase residual at j = {str(w.j):>4}: {nstr(r, 3)}")
