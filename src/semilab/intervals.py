"""Outward-rounded arbitrary-precision intervals and certified comparisons.

Thin layer over mpmath's interval context.  An exact rational embeds as the
tightest interval around it (its exact quotient rounded down and up by
``libmp``); every arithmetic result is an interval guaranteed to contain the
true real value, so a comparison between two interval endpoints is a proof,
not an estimate.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

import mpmath
from mpmath.libmp import (
    fone, fzero, mpf_exp, mpf_ge, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_neg,
    round_ceiling, round_floor, to_rational,
)

iv = mpmath.iv

DEFAULT_PRECISION = 128

RationalLike = Union[Fraction, int]


@contextlib.contextmanager
def precision(bits: int):
    """Temporarily set the working interval precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


# ------------------------------------------------------------ integer kernels
#
# A real m * 2**e is carried as the integer pair (m, e).  Each function below
# rounds its exact result down, or up when ``up``, to prec significant bits,
# as the ``libmpf`` function named in its docstring does with round_floor or
# round_ceiling.  Those round correctly, so both give the same value, and
# ``to_mpf`` turns the pair into the very tuple ``libmpf`` returns.

def round_pair(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """m * 2**e rounded to prec bits (``normalize``); m may be negative."""
    s = m.bit_length() - prec
    if s > 0:
        m = -(-m >> s) if up else m >> s
        e += s
    return m, e


def quotient_pairs(num: int, den: int, prec: int) -> tuple[tuple, tuple]:
    """num / den rounded down and up (``mpf_div``), num >= 0 and den > 0,
    from one integer division: a quotient not in lowest terms rounds to the
    bits of the reduced one."""
    if not num:
        return (0, 0), (0, 0)
    # scaled so that the floor q has prec + 1 or prec + 2 bits
    k = prec + 1 + den.bit_length() - num.bit_length()
    q, r = divmod(num << k, den) if k >= 0 else divmod(num, den << -k)
    s = q.bit_length() - prec
    lo = q >> s
    return (lo, s - k), (lo + 1 if r or q & ((1 << s) - 1) else lo, s - k)


def sqrt_pair(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """sqrt(m * 2**e) rounded (``mpf_sqrt``), m >= 0."""
    if not m:
        return 0, 0
    if e & 1:
        m, e = m << 1, e - 1
    # scaled so that the integer square root has at least prec + 1 bits
    j = prec + 1 - (m.bit_length() >> 1)
    if j > 0:
        m, e = m << 2 * j, e - 2 * j
    r = isqrt(m)
    if up and r * r != m:
        r += 1
    return round_pair(r, e >> 1, prec, up)


def add_pairs(x: tuple, y: tuple, prec: int, up: bool) -> tuple[int, int]:
    """x + y rounded (``mpf_add``)."""
    (a, ea), (b, eb) = x, y
    if not b:
        return round_pair(a, ea, prec, up)
    if not a:
        return round_pair(b, eb, prec, up)
    if ea > eb:
        return round_pair((a << ea - eb) + b, eb, prec, up)
    return round_pair(a + (b << eb - ea), ea, prec, up)


def mul_pairs(x: tuple, y: tuple, prec: int, up: bool) -> tuple[int, int]:
    """x * y rounded (``mpf_mul``)."""
    return round_pair(x[0] * y[0], x[1] + y[1], prec, up)


def canonical_pair(x: tuple) -> tuple[int, int]:
    """The pair of x's value with an odd mantissa, or (0, 0): equal values
    give equal pairs, as equal values give equal mpf tuples."""
    m, e = x
    if not m:
        return 0, 0
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, e + zeros


def pair_ge(x: tuple, y: tuple) -> bool:
    """x >= y, compared exactly."""
    (a, ea), (b, eb) = x, y
    return (a << ea - eb) >= b if ea >= eb else a >= (b << eb - ea)


def to_mpf(x: tuple) -> tuple:
    """The raw mpf tuple of a pair: sign, odd mantissa, exponent, bit count."""
    m, e = x
    if not m:
        return fzero
    sign = 0
    if m < 0:
        sign, m = 1, -m
    zeros = (m & -m).bit_length() - 1
    m >>= zeros
    return sign, m, e + zeros, m.bit_length()


def from_mpf(x: tuple) -> tuple[int, int]:
    """The pair of a finite raw mpf tuple."""
    sign, m, e, _ = x
    return -m if sign else m, e


def quotient_bounds(num: int, den: int, prec: int) -> tuple:
    """Raw ``(lo, hi)`` mpf endpoints of num / den (den > 0) rounded down and
    up to prec bits."""
    if num < 0:
        lo, hi = quotient_pairs(-num, den, prec)
        return to_mpf((-hi[0], hi[1])), to_mpf((-lo[0], lo[1]))
    lo, hi = quotient_pairs(num, den, prec)
    return to_mpf(lo), to_mpf(hi)


def fraction_bounds(q: Fraction, prec: int) -> tuple:
    """Raw ``(lo, hi)`` mpf endpoints of q rounded down and up to prec bits."""
    return quotient_bounds(q.numerator, q.denominator, prec)


def from_fraction(q: RationalLike):
    """Embed an exact rational as the tightest enclosing interval."""
    return iv.make_mpf(fraction_bounds(Fraction(q), iv.prec))


def endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact rational values of an interval's endpoints."""
    lo_raw, hi_raw = x._mpi_
    return _mpf_to_fraction(lo_raw), _mpf_to_fraction(hi_raw)


def _mpf_to_fraction(raw) -> Fraction:
    p, q = to_rational(raw)
    return Fraction(int(p), int(q))


def abs_bounds(x: tuple) -> tuple:
    """Raw ``(lo, hi)`` enclosure of |x| for a raw interval x."""
    lo, hi = x
    if mpf_ge(lo, fzero):
        return x
    if mpf_le(hi, fzero):
        return mpf_neg(hi), mpf_neg(lo)
    return fzero, hi if mpf_gt(hi, mpf_neg(lo)) else mpf_neg(lo)


def pow_nonneg_bounds(x: tuple, e: Fraction, prec: int) -> tuple:
    """Raw ``(lo, hi)`` enclosure of x**e at prec bits, for a nonnegative
    raw interval x and a positive rational exponent e: exp(e log x) at each
    endpoint, an endpoint at or below 0 giving 0.

    Each end is the end of ``mpi_exp(mpi_mul(e, mpi_log((v, v))))`` that it
    keeps, formed from one logarithm and one exponential: log v has the sign
    of v - 1, so ``mpi_mul`` pairs the lower end of log v with the lower end
    of e when v > 1 and with the upper end when v < 1, and the upper end of
    log v the other way round; at v = 1 the product is 0 either way."""
    e = Fraction(e)
    if e <= 0:
        raise ValueError("exponent must be positive")
    lo, hi = x
    if mpf_le(hi, fzero):
        return fzero, fzero
    e_lo, e_hi = fraction_bounds(e, prec)
    top = mpf_exp(mpf_mul(e_lo if mpf_lt(hi, fone) else e_hi,
                          mpf_log(hi, prec, round_ceiling), prec, round_ceiling),
                  prec, round_ceiling)
    if mpf_le(lo, fzero):
        return fzero, top
    return mpf_exp(mpf_mul(e_hi if mpf_lt(lo, fone) else e_lo,
                           mpf_log(lo, prec, round_floor), prec, round_floor),
                   prec, round_floor), top


def pow_nonneg(x, e: Fraction):
    """x**e for a nonnegative interval x and positive rational exponent e."""
    return iv.make_mpf(pow_nonneg_bounds(x._mpi_, e, iv.prec))


def interval_str(x) -> tuple[str, str]:
    """The endpoints of x printed to 30 significant digits."""
    lo, hi = x._mpi_
    return mpmath.libmp.to_str(lo, 30), mpmath.libmp.to_str(hi, 30)


CERTIFIED_HOLDS = "certified-holds"
CERTIFIED_FAILS = "certified-fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certified comparison lhs <= rhs."""

    outcome: str
    lhs_lo: str
    lhs_hi: str
    rhs_lo: str
    rhs_hi: str
    precision_bits: int

    @property
    def holds(self) -> bool:
        return self.outcome == CERTIFIED_HOLDS

    @property
    def fails(self) -> bool:
        return self.outcome == CERTIFIED_FAILS

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "lhs": [self.lhs_lo, self.lhs_hi],
            "rhs": [self.rhs_lo, self.rhs_hi],
            "precision": self.precision_bits,
        }


def compare_le(lhs, rhs, precision_bits: int) -> Verdict:
    """Certify lhs <= rhs from two intervals already computed."""
    if lhs.b <= rhs.a:
        outcome = CERTIFIED_HOLDS
    elif lhs.a > rhs.b:
        outcome = CERTIFIED_FAILS
    else:
        outcome = INCONCLUSIVE
    llo, lhi = interval_str(lhs)
    rlo, rhi = interval_str(rhs)
    return Verdict(outcome, llo, lhi, rlo, rhi, precision_bits)

