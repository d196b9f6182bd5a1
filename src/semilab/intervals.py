"""Outward-rounded arbitrary-precision enclosures and certified comparisons.

An enclosure is carried on integer (mantissa, exponent) pairs: a rational
is its exact quotient rounded down and up, and each sum, product, quotient,
power, logarithm and exponential rounds its lower end down and its upper
end up, to the bits mpmath's ``libmp`` gives.  The walks, the Hellinger
step, ``mass_interval`` and the deficiency's logarithms run on these
kernels; ``box`` turns a finished enclosure into an mpmath interval object
for a verdict's last steps.  Every enclosure contains the true real value,
so a comparison between two endpoints is a proof, not an estimate.  No
other module calls ``libmp`` or reads an interval object's raw ends.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath.libmp import fzero, mpf_exp, mpf_log, round_ceiling, round_floor, to_rational, to_str

iv = mpmath.iv

DEFAULT_PRECISION = 128


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


def fraction_pairs(num: int, den: int, prec: int) -> tuple[tuple, tuple]:
    """num / den rounded down and up (``mpf_div``), den > 0 and num of
    either sign."""
    if num < 0:
        (lo, lo_exp), (hi, hi_exp) = quotient_pairs(-num, den, prec)
        return (-hi, hi_exp), (-lo, lo_exp)
    return quotient_pairs(num, den, prec)


def _div_pair(x: tuple, y: tuple, prec: int, up: bool) -> tuple[int, int]:
    """x / y rounded (``mpf_div``), y > 0: the mantissas' quotient, scaled."""
    m, e = fraction_pairs(x[0], y[0], prec)[up]
    return m, e + x[1] - y[1]


def _libmpf(f, x: tuple, prec: int, up: bool) -> tuple[int, int]:
    """f(x) rounded, f ``mpf_log`` or ``mpf_exp``."""
    return from_mpf(f(to_mpf(x), prec, round_ceiling if up else round_floor))


# ------------------------------------------------------------ enclosure kernels
#
# An enclosure is a ``(lo, hi)`` tuple of integer pairs.  Each function below
# rounds as the ``libmpi`` function named in its docstring rounds raw ends.

def add_bounds(x: tuple, y: tuple, prec: int) -> tuple:
    """x + y (``mpi_add``)."""
    return add_pairs(x[0], y[0], prec, False), add_pairs(x[1], y[1], prec, True)


def mul_bounds(x: tuple, y: tuple, prec: int) -> tuple:
    """x * y for nonnegative x and y (``mpi_mul``, which pairs lower end
    with lower end and upper with upper when neither factor is negative)."""
    return mul_pairs(x[0], y[0], prec, False), mul_pairs(x[1], y[1], prec, True)


def div_bounds(x: tuple, y: tuple, prec: int) -> tuple:
    """x / y for positive y (``mpi_div``): each end of x over the end of y
    that ``mpi_div`` pairs it with, y's upper end for a lower end at or
    above 0 and for an upper end below 0, else y's lower end."""
    (lo, hi), (y_lo, y_hi) = x, y
    return (_div_pair(lo, y_hi if lo[0] >= 0 else y_lo, prec, False),
            _div_pair(hi, y_hi if hi[0] < 0 else y_lo, prec, True))


def abs_bounds(x: tuple) -> tuple:
    """|x|, exactly: negating a pair rounds nothing."""
    lo, hi = x
    if lo[0] >= 0:
        return x
    neg_lo = (-lo[0], lo[1])
    if hi[0] <= 0:
        return (-hi[0], hi[1]), neg_lo
    return (0, 0), neg_lo if pair_ge(neg_lo, hi) else hi


def log_bounds(x: tuple, prec: int) -> tuple:
    """log x for positive x (``mpi_log``)."""
    return _libmpf(mpf_log, x[0], prec, False), _libmpf(mpf_log, x[1], prec, True)


def exp_half_bounds(g: tuple, prec: int) -> tuple:
    """exp(g / 2) (``mpi_exp`` of the halved enclosure): halving a pair is
    exact, and each end is one ``mpf_exp``."""
    (lo, lo_exp), (hi, hi_exp) = g
    return (_libmpf(mpf_exp, (lo, lo_exp - 1), prec, False),
            _libmpf(mpf_exp, (hi, hi_exp - 1), prec, True))


def pow_nonneg_bounds(x: tuple, e: tuple, prec: int) -> tuple:
    """x**e for nonnegative x and the enclosure e of a positive exponent:
    exp(e log x) at each end of x, an end at or below 0 giving 0.

    Each end is the end of ``mpi_exp(mpi_mul(e, mpi_log((v, v))))`` that it
    keeps, formed from one logarithm and one exponential: log v has the sign
    of v - 1, so ``mpi_mul`` pairs the lower end of log v with the lower end
    of e when v > 1 and with the upper end when v < 1, and the upper end of
    log v the other way round; at v = 1 the product is 0 either way."""
    lo, hi = x
    if hi[0] <= 0:
        return (0, 0), (0, 0)
    e_lo, e_hi = e
    top = _libmpf(mpf_exp, mul_pairs(e_hi if pair_ge(hi, (1, 0)) else e_lo,
                                     _libmpf(mpf_log, hi, prec, True), prec, True), prec, True)
    if lo[0] <= 0:
        return (0, 0), top
    return _libmpf(mpf_exp, mul_pairs(e_lo if pair_ge(lo, (1, 0)) else e_hi,
                                      _libmpf(mpf_log, lo, prec, False), prec, False),
                   prec, False), top


# ------------------------------------------------------------ interval objects

def box(x: tuple):
    """The interval object of an enclosure."""
    return iv.make_mpf((to_mpf(x[0]), to_mpf(x[1])))


def unbox(x) -> tuple:
    """The enclosure of an interval object; ValueError if an end is not
    finite (a raw infinity has mantissa 0 but is not ``fzero``)."""
    lo, hi = x._mpi_
    if not (lo[1] or lo == fzero) or not (hi[1] or hi == fzero):
        raise ValueError("interval end is not finite")
    return from_mpf(lo), from_mpf(hi)


def from_fraction(q: Fraction | int):
    """Embed an exact rational as the tightest enclosing interval."""
    q = Fraction(q)
    return box(fraction_pairs(q.numerator, q.denominator, iv.prec))


def endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact rational values of an interval's endpoints."""
    return tuple(Fraction(*map(int, to_rational(raw))) for raw in x._mpi_)


def pow_nonneg(x, e: Fraction):
    """x**e for a nonnegative interval x and positive rational exponent e."""
    e = Fraction(e)
    if e <= 0:
        raise ValueError("exponent must be positive")
    e_bounds = quotient_pairs(e.numerator, e.denominator, iv.prec)
    return box(pow_nonneg_bounds(unbox(x), e_bounds, iv.prec))


def interval_str(x) -> tuple[str, str]:
    """The endpoints of x printed to 30 significant digits."""
    lo, hi = x._mpi_
    return to_str(lo, 30), to_str(hi, 30)


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

