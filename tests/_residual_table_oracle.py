"""Independent residual-table oracle: the loop on mpmath number objects.

This is the residual table of ``numeric.s_transform_residual`` as it was
first written: every cell an ``mpc`` or ``mpf`` operator, the printed sum an
``mp.fsum`` of ``mpc`` products, each error cell an ``mp.ldexp`` of a float.
``numeric`` now makes the same roundings on raw tuples, by its
round-to-nearest kernels, with one set of exact products per cell for both
S spellings, so given one report's S matrices, quotients and factors the two
must give bitwise equal tables; ``tests/test_numeric.py`` checks that.  The
moduli |S_ij| are taken here as ``float(abs(S_ij))``, their definition, and
``numeric._split`` is given the raw tuple of each ``mpf`` here.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

from admissible_sl2.numeric import (
    _FLOAT_MARGIN,
    _S_TRANSFORM_PREC,
    STransformReport,
    _aligned,
    _split,
)


def residual_table(
    report: STransformReport,
) -> tuple[list[list[mpmath.mpf]], list[list[mpmath.mpf]], list[mpmath.mpf] | None, list[mpmath.mpf]]:
    """(partial sums, their errors, alt finals, as-printed finals) from ``report``'s inputs."""
    prec = _S_TRANSFORM_PREC
    with mp.workprec(prec):
        eps = mp.mpf(2) ** (1 - prec)
        lhs_vals, chibar_vals = report.lhs, report.chibar
        s_matrix, printed_matrix = report.s_matrix, report.as_printed_s_matrix
        s_abs = [[float(abs(s_ij)) for s_ij in row] for row in s_matrix]
        factor, alt_factor = report.factor, report.alt_factor
        abs_factor = abs(factor)
        n_w = len(report.weights)

        # bound (i, j) = c_i + sum_{j' <= j} |S_ij'| w_j' in floats, over one 2^g
        c_w = [v.err + 16 * eps * abs(v.value) for v in lhs_vals]
        c_w += [abs_factor * (v.err + 16 * eps * abs(v.value)) for v in chibar_vals]
        scaled, g = _aligned([_split(v._mpf_) for v in c_w])
        c_rows, w_cols = scaled[:n_w], scaled[n_w:]
        up = 1 + _FLOAT_MARGIN * (n_w + 2)
        chi = [v.value for v in chibar_vals]

        residuals: list[list[mpmath.mpf]] = []
        residual_errors: list[list[mpmath.mpf]] = []
        printed_residuals: list[mpmath.mpf] = []
        alt_residuals: list[mpmath.mpf] | None = [] if report.variant == "KW2" else None
        for i in range(n_w):
            lhs = lhs_vals[i].value
            running = mp.mpc(0)
            bound = c_rows[i]
            row_res = []
            row_err = []
            for s_ij, s_ij_abs, chi_j, w_j in zip(s_matrix[i], s_abs[i], chi, w_cols):
                running += s_ij * chi_j
                bound += s_ij_abs * w_j
                row_res.append(abs(lhs - factor * running))
                row_err.append(mp.ldexp(bound * up, g))
            residuals.append(row_res)
            residual_errors.append(row_err)
            if alt_residuals is not None:
                alt_residuals.append(abs(lhs - alt_factor * running))
            printed_sum = mp.fsum([p_ij * chi_j for p_ij, chi_j in zip(printed_matrix[i], chi)])
            printed_residuals.append(abs(lhs - factor * printed_sum))
        return residuals, residual_errors, alt_residuals, printed_residuals
