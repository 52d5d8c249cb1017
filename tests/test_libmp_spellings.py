"""The raw ``mpmath.libmp`` spellings and kernels in ``numeric`` against what they stand for.

``numeric`` writes the arithmetic ``stransform`` repeats most on raw tuples,
so that every value keeps the operators' bits (see its module docstring).
The package asks only for ``mpmath>=1.3``, so the chain is held here link by
link, on random draws: each libmp spelling against its operator at 128 and
192 bits, the working precisions of the theta walks and of the S-law, and
each round-to-nearest kernel (``_add``, ``_sub``, ``_mul``, ``_xmul``,
``_abs``) against the libmp call it replaces, at 128, 192 and 1200 bits and
on the edges of its proof: zero operands, cancellation, exponent offsets
around 100, carries to a power of two, exact ties of both parities, exact
double-length products and moduli whose x^2 + y^2 rounds differently down
and to nearest.  An mpmath that dispatches an operator to other calls, in
another operand order, or rounds on another branch, fails here by the
spelling's or the kernel's name before any golden report moves.
"""

from __future__ import annotations

import random

import pytest
from mpmath import mp
from mpmath.libmp import (
    from_float,
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_mul,
    mpc_mul_int,
    mpc_mul_mpf,
    mpc_sub,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    mpf_sum,
    round_ceiling,
    round_down,
    round_nearest,
    to_float,
    to_int,
)

from admissible_sl2.numeric import _abs, _add, _mul, _residual, _sub, _xmul

DRAWS = 300


def _real(rng: random.Random) -> mp.mpf:
    """A signed value of up to prec + 20 random bits (rounded to prec) times 2^[-80, 40]."""
    if rng.random() < 0.05:
        return mp.mpf(0)
    bits = rng.getrandbits(rng.randint(1, mp.prec + 20)) or 1
    return mp.ldexp(mp.mpf(rng.choice((-1, 1)) * bits), rng.randint(-80, 40))


def _complex(rng: random.Random) -> mp.mpc:
    """An mpc; a quarter of them real, as a rational z is, and a tenth imaginary."""
    u = rng.random()
    if u < 0.25:
        return mp.mpc(_real(rng))
    if u < 0.35:
        return mp.mpc(0, _real(rng))
    return mp.mpc(_real(rng), _real(rng))


def _spellings(rng: random.Random, prec: int) -> list[tuple[str, object, object]]:
    """(name, the operator's result, the raw spelling's) for one draw at ``prec``."""
    rnd = round_nearest
    m = rng.randint(1, 60)
    i = rng.randint(-10**6, 10**6)
    n = rng.randint(-2 * m, 2 * m)
    off = mp.mpf(n) / (2 * m)
    x = i + off
    vertex = _real(rng)
    z, tau, total, term = (_complex(rng) for _ in range(4))
    w = x * x + x * z
    a = rng.randint(2, 400)
    pref = mp.mpc(0, -mp.mpf(1) / 2) * mp.sqrt(mp.mpf(2) / a)
    h = mpf_shift(mp.sqrt(mp.mpf(2) / a)._mpf_, -1)
    d, entry, chi, lhs, factor, running = (_complex(rng) for _ in range(6))
    row_abs = abs(_real(rng))
    bound, g = rng.random() * 4, rng.randint(-1100, 1100)
    products = [_complex(rng) for _ in range(rng.randint(1, 40))]
    return [
        # theta terms (``_theta_walk``)
        ("n / (2*m)", off._mpf_, mpf_div(from_int(n), from_int(2 * m), prec, rnd)),
        ("i + off", x._mpf_, mpf_add(off._mpf_, from_int(i), prec, rnd)),
        ("float(x)", float(x), to_float(x._mpf_, rnd=rnd)),
        (
            "int(mp.ceil(vertex - off))",
            int(mp.ceil(vertex - off)),
            to_int(mpf_sub(vertex._mpf_, off._mpf_, prec, rnd), round_ceiling),
        ),
        ("x*z", (x * z)._mpc_, mpc_mul_mpf(z._mpc_, x._mpf_, prec, rnd)),
        (
            "x*x + x*z",
            w._mpc_,
            mpc_add_mpf(
                mpc_mul_mpf(z._mpc_, x._mpf_, prec, rnd), mpf_mul(x._mpf_, x._mpf_, prec, rnd),
                prec, rnd,
            ),
        ),
        ("2*m*w", (2 * m * w)._mpc_, mpc_mul_int(w._mpc_, 2 * m, prec, rnd)),
        ("w*tau", (w * tau)._mpc_, mpc_mul(w._mpc_, tau._mpc_, prec, rnd)),
        ("total + term", (total + term)._mpc_, mpc_add(total._mpc_, term._mpc_, prec, rnd)),
        # S entries (``_s_matrices``)
        ("pref = -i h", pref._mpc_, (mp.mpf(0)._mpf_, mpf_neg(h))),
        ("u - v", (entry - d)._mpc_, mpc_sub(entry._mpc_, d._mpc_, prec, rnd)),
        (
            "pref*d",
            (pref * d)._mpc_,
            (mpf_mul(h, d._mpc_[1], prec, rnd), mpf_neg(mpf_mul(h, d._mpc_[0], prec, rnd))),
        ),
        ("-e", (-entry)._mpc_, tuple(map(mpf_neg, entry._mpc_))),
        ("mp.conj(e)", mp.conj(entry)._mpc_, (entry._mpc_[0], mpf_neg(entry._mpc_[1]))),
        ("abs(e)", abs(entry)._mpf_, mpc_abs(entry._mpc_, prec, rnd)),
        ("float(abs(e))", float(abs(entry)), to_float(mpc_abs(entry._mpc_, prec, rnd), rnd=rnd)),
        (
            "row_abs + abs(e)",
            (row_abs + abs(entry))._mpf_,
            mpf_add(row_abs._mpf_, abs(entry)._mpf_, prec, rnd),
        ),
        # the residual table (``s_transform_residual``)
        (
            "running + s*chi",
            (running + entry * chi)._mpc_,
            mpc_add(running._mpc_, mpc_mul(entry._mpc_, chi._mpc_, prec, rnd), prec, rnd),
        ),
        (
            "abs(lhs - factor*running)",
            abs(lhs - factor * running)._mpf_,
            _residual(lhs._mpc_, factor._mpc_, running._mpc_, prec),
        ),
        ("mp.ldexp(bound, g)", mp.ldexp(bound, g)._mpf_, mpf_shift(from_float(bound), g)),
        (
            "mp.fsum of mpc values",
            mp.fsum(products)._mpc_,
            tuple(mpf_sum(part, prec, rnd) for part in zip(*(v._mpc_ for v in products))),
        ),
    ]


@pytest.mark.parametrize("prec", [128, 192])
def test_each_raw_spelling_is_its_operator_bit_for_bit(prec):
    rng = random.Random(f"libmp-spellings/{prec}")
    with mp.workprec(prec):
        for _ in range(DRAWS):
            for name, by_operator, by_libmp in _spellings(rng, prec):
                assert by_libmp == by_operator, (name, prec)


def _odd(rng: random.Random, bits: int) -> int:
    """A random odd int of exactly ``bits`` bits."""
    return rng.getrandbits(bits - 1) | 1 | (1 << (bits - 1)) if bits > 1 else 1


def _raw(rng: random.Random, bits: int, exp: int, sign: int | None = None) -> tuple:
    """A canonical raw mpf: an odd mantissa of ``bits`` bits times 2^exp."""
    man = _odd(rng, bits)
    return (rng.getrandbits(1) if sign is None else sign), man, exp, bits


def _canonical(sign: int, man: int, exp: int) -> tuple:
    zeros = (man & -man).bit_length() - 1
    return sign, man >> zeros, exp + zeros, man.bit_length() - zeros


def _kernel_pairs(rng: random.Random, prec: int) -> list[tuple[str, tuple, tuple]]:
    """(kind, s, t) operand pairs at ``prec``: each edge of the kernels' proof, then random."""
    out = []
    x = _raw(rng, prec, -prec)
    out += [("zero", fzero, x), ("zero", x, fzero), ("zero", fzero, fzero)]
    out += [("x + (-x)", x, mpf_neg(x)), ("x - x", x, x)]
    for offset in (0, 1, -1, 100, -100, 101, -101, 500, -500):
        for _ in range(8):
            s = _raw(rng, rng.randint(1, prec), rng.randint(-prec, prec))
            out.append((f"offset {offset}", s, _raw(rng, rng.randint(1, prec), s[2] - offset)))
    for _ in range(8):
        # 2^prec - 1 ulps plus between 1/2 and 1 ulp, the same sign: carries to 2^prec
        sign, exp, bits = rng.getrandbits(1), rng.randint(-prec, prec), rng.randint(1, 60)
        ones = (sign, (1 << prec) - 1, exp, prec)
        out.append(("carry", ones, _raw(rng, bits, exp - bits, sign)))
        out.append(("carry", ones, (sign, 1, exp - 1, 1)))  # a tie, to even: up
    for parity in (0, 1):
        for _ in range(8):
            # K + 1/2 and K - 1/2 with K of prec bits: exact ties, kept part K or K - 1
            k = rng.getrandbits(prec - 1) | (1 << (prec - 1))
            k += parity - (k & 1)
            sign, exp = rng.getrandbits(1), rng.randint(-prec, prec)
            s = _canonical(sign, k, exp)
            out += [(f"tie {parity}", s, (sign, 1, exp - 1, 1))]
            out += [(f"tie {parity}", s, (sign ^ 1, 1, exp - 1, 1))]
    ties = {0: 0, 1: 0}
    while min(ties.values()) < 8:
        # odd mantissas whose product has prec + 1 bits: one dropped bit, always a tie
        ka = rng.randint(2, prec)
        a, b = _odd(rng, ka), _odd(rng, prec + rng.randint(1, 2) - ka)
        kept_parity = (a * b >> 1) & 1
        if (a * b).bit_length() == prec + 1 and ties[kept_parity] < 8:
            ties[kept_parity] += 1
            s, t = (rng.getrandbits(1), a, 0, ka), (rng.getrandbits(1), b, 0, b.bit_length())
            out.append((f"product tie {kept_parity}", s, t))
    for _ in range(40):
        # exact double-length products, as mpc_mul adds them
        s = mpf_mul(_raw(rng, prec, 0), _raw(rng, prec, rng.randint(-60, 60)))
        t = mpf_mul(_raw(rng, prec, 0), _raw(rng, prec, rng.randint(-60, 60)))
        out.append(("2prec products", s, t))
    for sign in (0, 1):
        for _ in range(4):
            # past an offset of 100 mpf_add adds a perturbed mantissa, not the exact sum:
            # s of 2 prec bits whose dropped part is 2^g - 1 below (or 2^g + 1 above) half,
            # t above 2^g, gives another rounding than the exact sum's
            half, g = 1 << (prec - 1), prec - 25
            dropped = half - (1 << g) + 1 if sign == 0 else half + (1 << g) + 1
            s = (0, (_odd(rng, prec) << prec) + dropped, 0, 2 * prec)
            t = _raw(rng, 2 * prec - 8, -(prec + 10), sign)
            assert mpf_pos(mpf_add(s, t), prec, round_nearest) != mpf_add(s, t, prec, round_nearest)
            out.append(("perturbed offset", s, t))
    for _ in range(DRAWS):
        s = _raw(rng, rng.randint(1, 2 * prec), rng.randint(-prec, prec))
        t = _raw(rng, rng.randint(1, 2 * prec), s[2] + rng.randint(-150, 150))
        out.append(("random", s, t))
    return out


def _hypot_rounding_pairs(rng: random.Random, prec: int, count: int) -> list[tuple]:
    """(x, y) whose modulus differs as x^2 + y^2 is rounded down (mpmath's way) or to nearest."""
    out = []
    while len(out) < count:
        x = _raw(rng, rng.randint(prec // 2, prec), 0)
        y = _raw(rng, rng.randint(prec // 2, prec), rng.randint(-8, 8))
        squares = mpf_mul(x, x), mpf_mul(y, y)
        down = mpf_sqrt(mpf_add(*squares, prec + 4, round_down), prec, round_nearest)
        nearest = mpf_sqrt(mpf_add(*squares, prec + 4, round_nearest), prec, round_nearest)
        if down != nearest:
            out.append((x, y))
    return out


@pytest.mark.parametrize("prec", [128, 192, 1200])
def test_each_kernel_is_the_libmp_call_bit_for_bit(prec):
    rng = random.Random(f"libmp-kernels/{prec}")
    rnd = round_nearest
    for kind, s, t in _kernel_pairs(rng, prec):
        n = rng.randint(2, 800)
        for name, by_kernel, by_libmp in [
            ("_add", _add(s, t, prec), mpf_add(s, t, prec, rnd)),
            ("_sub", _sub(s, t, prec), mpf_sub(s, t, prec, rnd)),
            ("_mul", _mul(s, t, prec), mpf_mul(s, t, prec, rnd)),
            ("_mul by from_int", _mul(s, from_int(n), prec), mpf_mul_int(s, n, prec, rnd)),
            ("_xmul", _xmul(s, t), mpf_mul(s, t)),
            ("_abs", _abs((s, t), prec), mpc_abs((s, t), prec, rnd)),
        ]:
            assert by_kernel == by_libmp, (name, kind, prec)
    for x, y in _hypot_rounding_pairs(rng, prec, 12):
        assert _abs((x, y), prec) == mpc_abs((x, y), prec, rnd), ("_abs", "hypot rounding", prec)
