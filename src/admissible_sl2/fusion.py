"""Frenkel-Zhu bimodules and fusion rules at an admissible level.

Fusion keeps the output j1 + j2 - 2i, multiplicity 1, for each surviving
degree i.  Three independent routes decide which degrees survive:

  * the closed form: the gate k1' + k2' <= q + 1 and the window
    max(0, n1'+n2'-p) <= i <= min(n1'-1, n2'-1);
  * the bimodule presentation: f_{j1,i} = y^i g_i(x) survives at j2 iff
    f_{j1,i}(j2, 1) = g_i(j2) = 0;
  * the bimodule oracle of bimodule_from_mff, which reads per-degree gcds
    off the singular-vector projections: gcd_i(j2) = 0.

Generators and gcds hold their roots r as integer labels q*r, so routes 2 and 3
test q*j2 among ints and expand no polynomial; route 2 takes its labels from
the presentation's own formula and route 3 from the projections.  The routes
must give the same degrees, and :func:`fusion_outputs` is the one resolver
of degrees to weights, or to basis indices, by the output's label J1 + J2 - 2qi.
The outputs form a commutative, associative unital ring on the admissible
weights, which :class:`FusionRing` builds from labels and holds as sparse dicts;
it is su(2)_{p-2} ⊗ Z[x]/(x^q), and its associativity is judged on the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvariantError
from .exact import rat, rat_str
from .mff import bimodule_from_mff
from .weights import AdmissibleWeight, Level, enumerate_admissible, weight_from_label


@dataclass(frozen=True)
class BimodulePresentation:
    """Frenkel-Zhu bimodule of L(ell, j) as a C[x]-C[y] quotient.

    generators[i], like the oracle's gcds[i], holds the labels q(r + i) - sp
    of the roots of g_i = prod_{r=0}^{p-n'-1} prod_{s=0}^{q-k'} (x - r - i + st),
    i = 0..n'-1, and stands for the generator y^i g_i(x); with y^{n'} they
    present a quotient to which degree i contributes deg g_i.  The dimension
    is counted from the roots; :func:`admissible_sl2.verify.bimodule_oracle_checks`
    judges it against Frenkel-Zhu's closed form.
    """

    weight: AdmissibleWeight
    generators: tuple[tuple[int, ...], ...]

    @property
    def y_truncation(self) -> int:
        return len(self.generators)

    @property
    def dimension(self) -> int:
        return sum(len(roots) for roots in self.generators)


def bimodule_presentation(weight: AdmissibleWeight) -> BimodulePresentation:
    p, q = weight.level.p, weight.level.q
    np_, kp = weight.n_primed, weight.k_primed
    gens = tuple(
        tuple(q * (r + i) - s * p for r in range(p - np_) for s in range(q - kp + 1))
        for i in range(np_)
    )
    return BimodulePresentation(weight=weight, generators=gens)


def _pair_level(w1: AdmissibleWeight, w2: AdmissibleWeight) -> Level:
    """The level both weights belong to; weights of two levels have no fusion product."""
    if w1.level != w2.level:
        raise InputError(f"weights of two levels: {w1.level!r} and {w2.level!r}")
    return w1.level


def fusion_degrees(w1: AdmissibleWeight, w2: AdmissibleWeight) -> list[int]:
    """Route 1's degrees.  The window is never empty (n' <= p - 1) once the gate is passed."""
    level = _pair_level(w1, w2)
    if w1.k_primed + w2.k_primed > level.q + 1:
        return []
    n1, n2 = w1.n_primed, w2.n_primed
    return list(range(max(0, n1 + n2 - level.p), min(n1, n2)))


def surviving_degrees(label2: int, roots_by_degree) -> list[int]:
    """Routes 2 and 3: each degree i whose root labels, of g_i or of gcd_i, contain q*j2."""
    return [i for i, roots in enumerate(roots_by_degree) if label2 in roots]


def fusion_outputs(
    w1: AdmissibleWeight, w2: AdmissibleWeight, degrees, resolve=None
) -> list[tuple]:
    """The one resolver: output J1 + J2 - 2qi (j1 + j2 - 2i), multiplicity 1, per degree i.

    ``resolve`` maps a label to its weight (the default) or basis index; None raises.
    """
    level = _pair_level(w1, w2)
    if resolve is None:
        resolve = lambda label: weight_from_label(level, label)  # noqa: E731
    outputs = []
    for i in degrees:
        label = w1.J + w2.J - 2 * level.q * i
        if (out := resolve(label)) is None:
            j = rat_str(rat(label) / level.q)
            raise InvariantError(f"fusion output j={j} is not admissible")
        outputs.append((out, 1))
    return outputs


@dataclass
class FusionRecord:
    gate_passed: bool
    outputs: list[tuple[AdmissibleWeight, int]]
    oracles_agree: bool | None = None


def fusion(w1: AdmissibleWeight, w2: AdmissibleWeight, oracle: str = "closed") -> FusionRecord:
    """Fusion rule for L(ell,j1) x L(ell,j2) at the weights' common level, along ``oracle``.

    The gate is the closed form's.  oracle = "all" runs all three routes and
    records whether their degree lists agree.
    """
    closed = fusion_degrees(w1, w2)
    routes = {
        "closed": lambda: closed,
        "bimodule": lambda: surviving_degrees(w2.J, bimodule_presentation(w1).generators),
        "mff": lambda: surviving_degrees(w2.J, bimodule_from_mff(w1).gcds),
    }
    agree = None
    if oracle == "all":
        via_bim, via_mff = routes["bimodule"](), routes["mff"]()
        agree = closed == via_bim == via_mff
        degrees = closed
    elif oracle in routes:
        degrees = routes[oracle]()
    else:
        raise InputError(f"unknown oracle {oracle!r}")
    outputs = fusion_outputs(w1, w2, degrees)
    return FusionRecord(bool(closed), outputs, oracles_agree=agree)


@dataclass
class FusionRing:
    """``table[a][b]`` maps each c with N_ab^c != 0 to N_ab^c; ``index`` maps J to position."""

    level: Level
    basis: list[AdmissibleWeight]
    table: list[list[dict[int, int]]]
    index: dict[int, int]

    @classmethod
    def build(cls, level: Level) -> FusionRing:
        basis = enumerate_admissible(level)
        index = {w.J: i for i, w in enumerate(basis)}
        table: list[list[dict[int, int]]] = [[{} for _ in basis] for _ in basis]
        for a, w1 in enumerate(basis):
            for b, w2 in enumerate(basis):
                for c, mult in fusion_outputs(w1, w2, fusion_degrees(w1, w2), index.get):
                    table[a][b][c] = table[a][b].get(c, 0) + mult
        return cls(level=level, basis=basis, table=table, index=index)

    def axioms(self) -> dict[str, bool]:
        """The ring axioms, on the nonzero coefficients.

        unit: the vacuum, ``index[0]`` (gcd(p, q) = 1 and 0 <= k < q make J = 0
        force n = k = 0), is a two-sided identity.  associativity is judged on
        the factors of su(2)_{p-2} ⊗ Z[x]/(x^q) on the position n q + k, A the
        k = 0 slice indexed by n and B the n = 0 slice, when the vacuum is a
        two-sided unit at 0, B's outputs are below q and the table is A ⊗ B
        entry by entry; otherwise on the whole table.  The verdicts agree: ⇐ a
        tensor product of associative rings is associative; ⇒ with the unit,
        A ⊗ 1 and 1 ⊗ B are subrings.
        """
        t, q, ns = self.table, self.level.q, range(self.level.p - 1)
        v = self.index[0]
        span = range(len(t))
        unit = all(t[v][b] == {b: 1} == t[b][v] for b in span)
        commutative = all(t[a][b] == t[b][a] for a in span for b in range(a))
        A = [[{c // q: m for c, m in t[a * q][b * q].items()} for b in ns] for a in ns]
        B = [row[:q] for row in t[:q]]
        product = unit and v == 0 and all(c < q for row in B for cell in row for c in cell)
        product = product and all(
            t[a * q + i][b * q + j]
            == {c * q + d: m * n for c, m in A[a][b].items() for d, n in B[i][j].items()}
            for a in ns for b in ns for i in range(q) for j in range(q)
        )
        factors = (A, B) if product else (t,)
        return {
            "unit": unit,
            "commutativity": commutative,
            "associativity": all(_associative(f, commutative) for f in factors),
        }


def _associative(t: list[list[dict[int, int]]], commutative: bool) -> bool:
    """Whether sum_m N_ab^m N_mc^d == sum_m N_bc^m N_am^d, zero sums dropped.

    It is checked for every a and, on a commutative table, only b <= c.  That
    suffices: for c < b, if b <= a then (ab)c = c(ba) = (cb)a = a(bc) by
    the triple (c, b, a); if a < b then (ab)c = c(ab) = (ca)b = (ac)b = a(cb) =
    a(bc) by (c, a, b) and (a, c, b).
    """
    span = range(len(t))
    cols = list(zip(*t))  # cols[c][m] = t[m][c]
    return all(
        _combine(t[a][b], cols[c]) == _combine(t[b][c], t[a])
        for a in span for b in span
        for c in (range(b, len(t)) if commutative else span)
    )


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
