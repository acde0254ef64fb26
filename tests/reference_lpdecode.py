"""The Fraction decode pipeline that lpdecode's integer one replaced, kept
as a test oracle.

rationalize is rationalize_llr as it was: one Fraction per LLR,
Fraction(x).limit_denominator(10^6).  fraction_lp_decode is lp_decode as
it was: the hard-decision certificate read off the signs of those
Fractions, else the compiled LP solved on their dd.integerize, and the
result built from Fractions (each x_j as Fraction(core[j][-1], d), the
objective summed against the rationalized LLRs, the status from the
denominators and a parity check by mat_vec_mod2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from conedec import BinaryMatrix, DecodeResult, dd, mat_vec_mod2
from conedec.lpdecode import _record

LLR_DENOMINATOR_CAP = 10**6


def rationalize(gamma: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(x).limit_denominator(LLR_DENOMINATOR_CAP) for x in gamma)


def dot(gr: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    """gr . x as a Fraction sum."""
    return sum((g * v for g, v in zip(gr, x)), Fraction(0))


def fraction_lp_decode(H: BinaryMatrix, gamma: Sequence, certify: bool = True) -> DecodeResult:
    """lp_decode by the Fraction pipeline; certify=False solves the LP
    whatever the hard decision."""
    gr = rationalize(gamma)
    n = H.cols
    system = _record(H).lp
    y = tuple(int(g < 0) for g in gr)
    if certify and all(gr) and not any(mat_vec_mod2(H, y)):
        x = tuple(Fraction(b) for b in y)
        return DecodeResult(optimum=x, objective=dot(gr, x), integral=True, status="codeword")
    sx = system.with_objective(dd.integerize(gr))
    res = sx.solve()
    x = tuple(Fraction(sx.core[j][-1], sx.d) if j in sx.core else Fraction(0) for j in range(n))
    integral = all(v.denominator == 1 for v in x)
    if not res.unique:
        status = "tie"
    elif integral:
        assert not any(mat_vec_mod2(H, [int(v) for v in x]))
        status = "codeword"
    else:
        status = "fractional"
    return DecodeResult(optimum=x, objective=dot(gr, x), integral=integral, status=status)
