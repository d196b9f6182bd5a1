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
from typing import Callable, Union

import mpmath
from mpmath.libmp import (
    from_man_exp, fzero, mpf_div, mpf_ge, mpf_gt, mpf_le, mpf_neg, mpi_exp, mpi_log, mpi_mul,
    round_ceiling, round_floor, to_rational,
)

iv = mpmath.iv

DEFAULT_PRECISION = 128
MAX_PRECISION = 1024

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


def _exact(n: int) -> tuple:
    """The integer n as an exact raw mpf, its trailing zero bits shifted out
    at once (``from_int`` strips them a byte at a time)."""
    zeros = (n & -n).bit_length() - 1 if n else 0
    return from_man_exp(n >> zeros, zeros)


def quotient_bounds(num: int, den: int, prec: int) -> tuple:
    """Raw ``(lo, hi)`` mpf endpoints of num / den (den > 0) rounded down and
    up to prec bits.  ``mpf_div`` rounds correctly, so a quotient not in
    lowest terms rounds to the bits of the reduced one."""
    n, d = _exact(num), _exact(den)
    return mpf_div(n, d, prec, round_floor), mpf_div(n, d, prec, round_ceiling)


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
    endpoint, an endpoint at or below 0 giving 0."""
    e = Fraction(e)
    if e <= 0:
        raise ValueError("exponent must be positive")
    lo, hi = x
    if mpf_le(hi, fzero):
        return fzero, fzero
    e_bounds = fraction_bounds(e, prec)

    def power(v):
        return mpi_exp(mpi_mul(e_bounds, mpi_log((v, v), prec), prec), prec)

    top = power(hi)[1]
    if mpf_le(lo, fzero):
        return fzero, top
    return power(lo)[0], top


def pow_nonneg(x, e: Fraction):
    """x**e for a nonnegative interval x and positive rational exponent e."""
    return iv.make_mpf(pow_nonneg_bounds(x._mpi_, e, iv.prec))


def interval_str(x, digits: int = 30) -> tuple[str, str]:
    lo, hi = x._mpi_
    return (
        mpmath.libmp.to_str(lo, digits),
        mpmath.libmp.to_str(hi, digits),
    )


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


def certify_le(
    make_sides: Callable[[], tuple[object, object]],
    start_bits: int = DEFAULT_PRECISION,
    max_bits: int = MAX_PRECISION,
) -> Verdict:
    """Certify lhs <= rhs, doubling precision while inconclusive.

    ``make_sides`` recomputes both intervals under the active precision.
    An inconclusive verdict at ``max_bits`` is reported, never coerced.
    """
    bits = start_bits
    while True:
        with precision(bits):
            lhs, rhs = make_sides()
            verdict = compare_le(lhs, rhs, bits)
        if verdict.outcome != INCONCLUSIVE or bits >= max_bits:
            return verdict
        bits = min(bits * 2, max_bits)
