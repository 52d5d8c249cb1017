"""Zhu algebra, Frenkel-Zhu bimodules and fusion rules at an admissible level.

Fusion multiplicities are computed along three independent routes:

  * a closed form: the gate k1' + k2' <= q + 1 and the window
    max(0, n1'+n2'-p) <= i <= min(n1'-1, n2'-1), output j1 + j2 - 2i;
  * the bimodule presentation: generator f_{j1,i} survives at j2 iff
    f_{j1,i}(j2, 1) = 0;
  * the bimodule oracle of bimodule_from_mff, which reads per-degree gcds
    off the singular-vector projections: gcd_i(j2) = 0.

Generators and gcds are products of linear factors, held as their roots, so
routes 2 and 3 test j2 for membership in a root list and expand no
polynomial.  Route 2 takes its roots from the presentation's own formula and
route 3 from the projections, so the routes stay independent.  All three
must agree; the table they induce is a commutative, associative unital ring
on the admissible weights, which :class:`FusionRing` holds as sparse dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantError
from .exact import UniPoly, rat_str
from .mff import BimoduleOracle, bimodule_from_mff
from .weights import (
    AdmissibleWeight,
    Level,
    enumerate_admissible,
    vacuum_polynomial,
    weight_from_j,
)


@dataclass(frozen=True)
class ZhuAlgebra:
    """The commutative quotient C[x] / (vacuum polynomial)."""

    level: Level
    relation: UniPoly

    @property
    def dimension(self) -> int:
        return self.relation.degree


def zhu_algebra(level: Level) -> ZhuAlgebra:
    return ZhuAlgebra(level=level, relation=vacuum_polynomial(level))


def zhu_multiply(algebra: ZhuAlgebra, g1: UniPoly, g2: UniPoly) -> UniPoly:
    """Product in the Zhu algebra: polynomial product reduced mod the relation."""
    return (g1 * g2) % algebra.relation


@dataclass(frozen=True)
class BimodulePresentation:
    """Frenkel-Zhu bimodule of L(ell, j) as a C[x]-C[y] quotient.

    generators[i] = (i, roots_i) stands for the generator y^i g_i(x), with
    g_i = prod_{r=0}^{p-n'-1} prod_{s=0}^{q-k'} (x - r - i + st)
    for i = 0..n'-1 held as its roots r + i - st; together with y^{n'} they
    present a quotient to which degree i contributes deg g_i.  The dimension
    is counted from the roots; :func:`admissible_sl2.verify.bimodule_oracle_checks`
    judges it against Frenkel-Zhu's closed form.
    """

    weight: AdmissibleWeight
    generators: tuple[tuple[int, tuple[Fraction, ...]], ...]
    y_truncation: int

    @property
    def dimension(self) -> int:
        return sum(len(roots) for _, roots in self.generators)


def bimodule_presentation(level: Level, weight: AdmissibleWeight) -> BimodulePresentation:
    p, q, t = level.p, level.q, level.t
    np_, kp = weight.n_primed, weight.k_primed
    gens = tuple(
        (i, tuple(r + i - s * t for r in range(p - np_) for s in range(q - kp + 1)))
        for i in range(np_)
    )
    return BimodulePresentation(
        weight=weight,
        generators=gens,
        y_truncation=np_,
    )


def _resolve_output(level: Level, j: Fraction) -> AdmissibleWeight:
    w = weight_from_j(level, j)
    if w is None:
        raise InvariantError(f"fusion output j={rat_str(j)} is not admissible")
    return w


def fusion_closed_form(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight
) -> tuple[bool, list[tuple[AdmissibleWeight, int]]]:
    """Gate and output list from the closed form; multiplicities are all 1."""
    p, q = level.p, level.q
    gate = w1.k_primed + w2.k_primed <= q + 1
    if not gate:
        return False, []
    lo = max(0, w1.n_primed + w2.n_primed - p)
    hi = min(w1.n_primed - 1, w2.n_primed - 1)
    outputs = [
        (_resolve_output(level, w1.j + w2.j - 2 * i), 1)
        for i in range(lo, hi + 1)
    ]
    return True, outputs


def surviving_outputs(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight, root_lists
) -> list[tuple[AdmissibleWeight, int]]:
    """Output j1 + j2 - 2i, multiplicity 1, for each (i, roots) with j2 in roots."""
    return [
        (_resolve_output(level, w1.j + w2.j - 2 * i), 1)
        for i, roots in root_lists
        if w2.j in roots
    ]


def fusion_via_bimodule(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight
) -> list[tuple[AdmissibleWeight, int]]:
    """Outputs from the bimodule presentation: i survives iff f_{j1,i}(j2,1) = 0.

    f_{j1,i} = y^i g_i(x), so f_{j1,i}(j2, 1) = g_i(j2), which vanishes iff
    j2 is a root of g_i.
    """
    return surviving_outputs(level, w1, w2, bimodule_presentation(level, w1).generators)


def fusion_via_mff(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight, oracle: BimoduleOracle
) -> list[tuple[AdmissibleWeight, int]]:
    """Outputs from w1's bimodule oracle: i survives iff j2 is a root of gcd_i."""
    return surviving_outputs(level, w1, w2, enumerate(oracle.gcds))


@dataclass
class FusionRecord:
    level: Level
    w1: AdmissibleWeight
    w2: AdmissibleWeight
    gate_passed: bool
    outputs: list[tuple[AdmissibleWeight, int]]
    oracle: str
    oracles_agree: bool | None = None


def fusion(
    level: Level,
    w1: AdmissibleWeight,
    w2: AdmissibleWeight,
    oracle: str = "closed",
) -> FusionRecord:
    """Fusion rule for L(ell,j1) x L(ell,j2) along the requested oracle.

    oracle = "all" runs the closed form, the bimodule presentation and w1's
    bimodule oracle and records whether the three output lists agree.
    """
    gate, closed = fusion_closed_form(level, w1, w2)
    if oracle == "closed":
        return FusionRecord(level, w1, w2, gate, closed, oracle)
    if oracle == "bimodule":
        outs = fusion_via_bimodule(level, w1, w2)
        return FusionRecord(level, w1, w2, gate, outs, oracle)
    if oracle == "mff":
        built = bimodule_from_mff(level, w1.n_primed, w1.k_primed)
        outs = fusion_via_mff(level, w1, w2, built)
        return FusionRecord(level, w1, w2, gate, outs, oracle)
    if oracle == "all":
        bim = fusion_via_bimodule(level, w1, w2)
        built = bimodule_from_mff(level, w1.n_primed, w1.k_primed)
        mff_outs = fusion_via_mff(level, w1, w2, built)
        agree = closed == bim == mff_outs
        return FusionRecord(level, w1, w2, gate, closed, oracle, oracles_agree=agree)
    raise InputError(f"unknown oracle {oracle!r}")


@dataclass
class FusionRing:
    """Fusion coefficients: ``table[a][b]`` maps each c with N_ab^c != 0 to N_ab^c."""

    level: Level
    basis: list[AdmissibleWeight]
    table: list[list[dict[int, int]]]
    index: dict[tuple[int, int], int]

    @classmethod
    def build(cls, level: Level) -> FusionRing:
        basis = enumerate_admissible(level)
        index = {(w.n, w.k): i for i, w in enumerate(basis)}
        table: list[list[dict[int, int]]] = [[{} for _ in basis] for _ in basis]
        for a, w1 in enumerate(basis):
            for b, w2 in enumerate(basis):
                for w3, mult in fusion_closed_form(level, w1, w2)[1]:
                    c = index[(w3.n, w3.k)]
                    table[a][b][c] = table[a][b].get(c, 0) + mult
        return cls(level=level, basis=basis, table=table, index=index)

    def axioms(self) -> dict[str, bool]:
        """The ring axioms, on the nonzero coefficients.

        unit: the vacuum weight (n,k) = (0,0) is a two-sided identity;
        associativity: sum_m N_ab^m N_mc^d == sum_m N_bc^m N_am^d, with zero
        sums dropped, in n^3 k^2 steps for k outputs per product.
        """
        t = self.table
        v = self.index[(0, 0)]
        span = range(len(t))
        cols = list(zip(*t))  # cols[c][m] = t[m][c]
        return {
            "unit": all(t[v][b] == {b: 1} == t[b][v] for b in span),
            "commutativity": all(t[a][b] == t[b][a] for a in span for b in span),
            "associativity": all(
                _combine(t[a][b], cols[c]) == _combine(t[b][c], t[a])
                for a in span for b in span for c in span
            ),
        }


def _combine(coeffs: dict[int, int], cells) -> dict[int, int]:
    """sum_m coeffs[m] * cells[m], with zero sums dropped."""
    out: dict[int, int] = {}
    for m, n in coeffs.items():
        for d, k in cells[m].items():
            out[d] = out.get(d, 0) + n * k
    return {d: s for d, s in out.items() if s}


def classical_su2_fusion(ell: int, j1: int, j2: int) -> dict[int, int]:
    """Level-ell su(2) fusion for integer weights (the q = 1 specialization).

    Outputs j = |j1-j2|, |j1-j2|+2, ..., min(j1+j2, 2*ell-j1-j2), each with
    multiplicity 1.
    """
    if ell < 0:
        raise InputError(f"ell={ell} must be >= 0")
    for j in (j1, j2):
        if not 0 <= j <= ell:
            raise InputError(f"j={j} outside 0..{ell}")
    top = min(j1 + j2, 2 * ell - j1 - j2)
    return {j: 1 for j in range(abs(j1 - j2), top + 1, 2)}
