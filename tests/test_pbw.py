"""PBW normal ordering checked against exact module actions.

The independent oracle is the action on highest-weight modules: for sl2 (and
its relabelled copy acting through T+, T0, T-) the weight-mu Verma module
with basis v_0, v_1, ... and

    f v_m = v_{m+1},  h v_m = (mu - 2m) v_m,  e v_m = m (mu - m + 1) v_{m-1},

and for the Heisenberg algebra the polynomial module with eb = multiplication
by u, fb = -lambda d/du, hb = lambda.  A PBW monomial acts factor by factor
(rightmost first), so the action never consults the normal-ordering code;
agreement of apply(X*Y) with apply(X) after apply(Y) across random elements
and several module parameters pins the product.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible_sl2.exact import rat
from admissible_sl2.pbw import (
    HEIS,
    L0,
    SL2,
    PBWElement,
    factor_product,
    quadratic_factor,
    sigma_antihom,
    verify_operator_identities,
)

RNG_SEED = 77001

Vec = dict[int, Fraction]


def _vadd(dst: Vec, m: int, c: Fraction) -> None:
    c = dst.get(m, Fraction(0)) + c
    if c:
        dst[m] = c
    else:
        dst.pop(m, None)


def _verma_step(gen: str, vec: Vec, mu: Fraction) -> Vec:
    out: Vec = {}
    for m, c in vec.items():
        if gen == "f":
            _vadd(out, m + 1, c)
        elif gen == "h":
            _vadd(out, m, (mu - 2 * m) * c)
        elif gen == "e":
            if m > 0:
                _vadd(out, m - 1, m * (mu - m + 1) * c)
        else:
            raise AssertionError(gen)
    return out


def _heis_step(gen: str, vec: Vec, lam: Fraction) -> Vec:
    out: Vec = {}
    for m, c in vec.items():
        if gen == "eb":
            _vadd(out, m + 1, c)
        elif gen == "hb":
            _vadd(out, m, lam * c)
        elif gen == "fb":
            if m > 0:
                _vadd(out, m - 1, -lam * m * c)
        else:
            raise AssertionError(gen)
    return out


# generator order of each algebra, with the module action of one power of it;
# L0 realizes T+ = e, T0 = -h, T- = -f on the same Verma module.
_ACTIONS = {
    "sl2": (("f", 1), ("h", 1), ("e", 1)),
    "l0": (("e", 1), ("h", -1), ("f", -1)),
    "heis": (("eb", 1), ("hb", 1), ("fb", 1)),
}


def _apply(elem: PBWElement, vec: Vec, param: Fraction) -> Vec:
    alg = elem.algebra
    gens = _ACTIONS[alg.name]
    step = _heis_step if alg.name == "heis" else _verma_step
    out: Vec = {}
    for mono, coeff in elem.terms.items():
        cur = dict(vec)
        for slot in (2, 1, 0):  # rightmost PBW factor acts first
            gen, sign = gens[slot]
            for _ in range(mono[slot]):
                cur = step(gen, cur, param)
                if sign < 0:
                    cur = {m: -c for m, c in cur.items()}
        for m, c in cur.items():
            _vadd(out, m, coeff * c)
    return out


def _random_element(rng: random.Random, alg, max_pow: int = 2, n_terms: int = 3):
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randint(0, max_pow) for _ in range(3))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return PBWElement(alg, terms)


@pytest.mark.parametrize("alg", [SL2, L0, HEIS], ids=lambda a: a.name)
def test_product_matches_module_action(alg):
    rng = random.Random(RNG_SEED)
    params = [Fraction(7, 2), Fraction(-3), Fraction(11, 3)]
    vec0: Vec = {0: Fraction(1), 2: Fraction(-1, 2), 5: Fraction(3)}
    for _ in range(12):
        x = _random_element(rng, alg)
        y = _random_element(rng, alg)
        xy = x * y
        for mu in params:
            direct = _apply(xy, vec0, mu)
            staged = _apply(x, _apply(y, vec0, mu), mu)
            assert direct == staged


def _elements(alg):
    """Up to five terms with exponents up to 4 and small rational coefficients."""
    monos = st.tuples(*[st.integers(0, 4)] * 3)
    coeffs = st.fractions(-9, 9, max_denominator=5)
    return st.dictionaries(monos, coeffs, max_size=5).map(lambda t: PBWElement(alg, t))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_product_is_associative_and_matches_module_action(data):
    alg = data.draw(st.sampled_from([SL2, L0, HEIS]), label="algebra")
    x, y, z = (data.draw(_elements(alg)) for _ in range(3))
    xy = x * y
    assert xy * z == x * (y * z)
    param = data.draw(st.fractions(-5, 5, max_denominator=3), label="module parameter")
    vec: Vec = {0: Fraction(1), 2: Fraction(-1, 2), 5: Fraction(3)}
    assert _apply(xy, vec, param) == _apply(x, _apply(y, vec, param), param)


def test_defining_relations():
    e = PBWElement.generator(SL2, "e")
    f = PBWElement.generator(SL2, "f")
    h = PBWElement.generator(SL2, "h")
    assert e * f - f * e == h
    assert h * e - e * h == 2 * e
    assert h * f - f * h == (-2) * f

    tp = PBWElement.generator(L0, "T+")
    t0 = PBWElement.generator(L0, "T0")
    tm = PBWElement.generator(L0, "T-")
    assert tp * tm - tm * tp == t0
    assert t0 * tp - tp * t0 == (-2) * tp
    assert t0 * tm - tm * t0 == 2 * tm

    eb = PBWElement.generator(HEIS, "eb")
    fb = PBWElement.generator(HEIS, "fb")
    hb = PBWElement.generator(HEIS, "hb")
    assert eb * fb - fb * eb == hb
    assert hb * eb == eb * hb and hb * fb == fb * hb


def test_product_associativity_random():
    rng = random.Random(RNG_SEED + 1)
    for alg in (SL2, L0, HEIS):
        for _ in range(6):
            x, y, z = (_random_element(rng, alg) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_sigma_antihomomorphism():
    rng = random.Random(RNG_SEED + 2)
    for alg in (SL2, L0, HEIS):
        for gen in alg.gens:
            g = PBWElement.generator(alg, gen)
            assert sigma_antihom(g) == -g
        for _ in range(8):
            x = _random_element(rng, alg)
            y = _random_element(rng, alg)
            assert sigma_antihom(x * y) == sigma_antihom(y) * sigma_antihom(x)
            assert sigma_antihom(sigma_antihom(x)) == x


def test_weight_shift_identities_small():
    e = PBWElement.generator(SL2, "e")
    f = PBWElement.generator(SL2, "f")
    h = PBWElement.generator(SL2, "h")
    unit = PBWElement.unit(SL2)
    for m in (1, 2, 3):
        for n in (1, 2):
            assert (h**m) * (e**n) == (e**n) * ((h + (2 * n) * unit) ** m)
            assert (h**m) * (f**n) == (f**n) * ((h - (2 * n) * unit) ** m)


# lower^m raise^m = X_s X_{s+1} ... X_{s+m-1} and raise^m lower^m = X_{s-1} ... X_{s-m},
# with s = 0 for H and G and s = 1 for Hbar (fb eb = eb fb - hb = Hbar_1).
@pytest.mark.parametrize("alg, start", [(SL2, 0), (L0, 0), (HEIS, 1)], ids=["sl2", "l0", "heis"])
def test_quadratic_factor_shift_and_product(alg, start):
    down = PBWElement.generator(alg, alg.lowering)
    up = PBWElement.generator(alg, alg.raising)
    for m in (1, 2, 3):
        downm, upm = down**m, up**m
        for a in (rat("1/2"), rat(-2), rat("5/3")):
            xa = quadratic_factor(alg, a)
            assert downm * xa == quadratic_factor(alg, a + m) * downm
            assert upm * xa == quadratic_factor(alg, a - m) * upm
        assert downm * upm == factor_product(alg, [start + i for i in range(m)])
        assert upm * downm == factor_product(alg, [start - 1 - i for i in range(m)])


def test_factor_product_matches_direct_multiplication():
    alphas = [rat("1/2"), rat(-1)]
    tail = PBWElement.generator(SL2, "e") * PBWElement.generator(SL2, "f")
    via_helper = factor_product(SL2, alphas) * tail
    direct = quadratic_factor(SL2, alphas[0]) * (quadratic_factor(SL2, alphas[1]) * tail)
    assert via_helper == direct
    # the empty factor list is the unit, so times a tail it is the tail itself
    assert factor_product(SL2, []) * tail == tail


def test_operator_identities_quick():
    rep = verify_operator_identities(m_max=2)
    assert rep.all_pass
    assert rep.n_samples == 7
    names = {c.name for c in rep.checks}
    assert {"H_commute", "G_commute"} <= names
