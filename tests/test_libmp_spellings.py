"""The raw ``mpmath.libmp`` spellings in ``numeric`` against the operators they stand for.

``numeric`` writes the theta walk of ``theta_eval_numeric``, its quotients
and the S build on raw tuples, by the libmp calls the operators make, so that
every value keeps the operators' bits (see its module docstring); the side
pass and the residual table of ``stransform`` are in fixed point and
refereed in ``tests/test_side_pass.py``.  The package asks only for
``mpmath>=1.3``, so each spelling is held here to its operator on random
draws, at 128 and 192 bits, the working precisions of the theta walks and of
the S-law.  An mpmath that dispatches an operator to other calls, in another
operand order, or rounds otherwise, fails here by the spelling's name before
any golden report moves.
"""

from __future__ import annotations

import random

import pytest
from mpmath import mp
from mpmath.libmp import (
    from_float,
    from_int,
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
    mpf_neg,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_nearest,
    to_float,
    to_int,
)

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
    d, entry = _complex(rng), _complex(rng)
    row_abs = abs(_real(rng))
    bound, g = rng.random() * 4, rng.randint(-1100, 1100)
    return [
        # theta terms (``theta_eval_numeric``)
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
        # the residual table's bounds (``s_transform_residual``)
        ("mp.ldexp(bound, g)", mp.ldexp(bound, g)._mpf_, mpf_shift(from_float(bound), g)),
    ]


@pytest.mark.parametrize("prec", [128, 192])
def test_each_raw_spelling_is_its_operator_bit_for_bit(prec):
    rng = random.Random(f"libmp-spellings/{prec}")
    with mp.workprec(prec):
        for _ in range(DRAWS):
            for name, by_operator, by_libmp in _spellings(rng, prec):
                assert by_libmp == by_operator, (name, prec)
