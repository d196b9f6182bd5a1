from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.intervals import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    INCONCLUSIVE,
    Verdict,
    abs_bounds,
    compare_le,
    endpoints,
    from_fraction,
    interval_str,
    iv,
    pow_nonneg,
    precision,
)

import oracles

rationals = st.fractions(min_value=-100, max_value=100)
positive_rationals = st.fractions(min_value=Fraction(1, 1000), max_value=100)


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_embedding_encloses_the_rational(q):
    with precision(64):
        lo, hi = endpoints(from_fraction(q))
    assert lo <= q <= hi


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([64, 128, 256]),
       st.one_of(st.integers(-2 ** 40, 2 ** 40), st.integers(-2 ** 600, 2 ** 600)),
       st.one_of(st.integers(1, 2 ** 40), st.integers(1, 2 ** 600)))
def test_embedding_is_tightest_and_inside_interval_object_oracle(bits, n, d):
    """Rounding n/d directly brackets it exactly, never exceeds the quotient
    of the boxed integers, and equals it when both fit in the precision."""
    import oracles
    q = Fraction(n, d)
    with precision(bits):
        lo, hi = endpoints(from_fraction(q))
        o_lo, o_hi = endpoints(oracles.from_fraction_iv(q))
    assert o_lo <= lo <= q <= hi <= o_hi
    if max(q.numerator.bit_length(), q.denominator.bit_length()) <= bits:
        assert (lo, hi) == (o_lo, o_hi)


def test_dyadic_rationals_embed_exactly():
    with precision(64):
        lo, hi = endpoints(from_fraction(Fraction(3, 8)))
    assert lo == hi == Fraction(3, 8)


@settings(max_examples=60, deadline=None)
@given(positive_rationals, positive_rationals)
def test_arithmetic_intervals_contain_exact_results(a, b):
    with precision(64):
        s = from_fraction(a) * from_fraction(b) + from_fraction(a) / from_fraction(b)
        lo, hi = endpoints(s)
    exact = a * b + a / b
    assert lo <= exact <= hi


def test_precision_context_restores_previous_setting():
    base = iv.prec
    with precision(256):
        assert iv.prec == 256
        with precision(64):
            assert iv.prec == 64
        assert iv.prec == 256
    assert iv.prec == base


def test_abs_interval_covers_sign_cases():
    with precision(64):
        pos = from_fraction(Fraction(1, 3))
        neg = -pos
        straddle = from_fraction(Fraction(-1, 4)) + from_fraction(Fraction(1, 8))
        assert endpoints(iv.make_mpf(abs_bounds(pos._mpi_)))[0] >= 0
        assert endpoints(iv.make_mpf(abs_bounds(neg._mpi_)))[0] >= 0
        lo, hi = endpoints(iv.make_mpf(abs_bounds(straddle._mpi_)))
        assert lo >= 0
        assert hi >= Fraction(1, 8)
        for a, b in ((Fraction(-1, 4), Fraction(1, 8)), (Fraction(-1, 8), Fraction(1, 4))):
            x = iv.mpf([from_fraction(a).a, from_fraction(b).b])
            assert endpoints(iv.make_mpf(abs_bounds(x._mpi_))) == (0, Fraction(1, 4))


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(1, 50), max_value=4),
       st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3)]))
def test_power_interval_contains_true_value(base, exponent):
    import mpmath
    with precision(96):
        result = pow_nonneg(from_fraction(base), exponent)
        lo, hi = endpoints(result)
    with mpmath.mp.workdps(50):
        truth = mpmath.power(
            mpmath.mpf(base.numerator) / mpmath.mpf(base.denominator),
            mpmath.mpf(exponent.numerator) / mpmath.mpf(exponent.denominator))
        assert mpmath.mpf(lo.numerator) / mpmath.mpf(lo.denominator) <= truth
        assert mpmath.mpf(hi.numerator) / mpmath.mpf(hi.denominator) >= truth


def test_power_of_zero_touching_interval_is_clamped():
    with precision(64):
        x = iv.mpf([0, 1])
        lo, hi = endpoints(pow_nonneg(x, Fraction(1, 2)))
    assert lo == 0
    assert hi >= 1


def test_comparison_outcomes():
    with precision(64):
        third = from_fraction(Fraction(1, 3))
        half = from_fraction(Fraction(1, 2))
        assert compare_le(third, half, 64).outcome == CERTIFIED_HOLDS
        assert compare_le(half, third, 64).outcome == CERTIFIED_FAILS
        assert compare_le(third, third, 64).outcome == INCONCLUSIVE


def test_verdict_serialization_shape():
    with precision(64):
        v = compare_le(from_fraction(1), from_fraction(2), 64)
    d = v.as_dict()
    assert set(d) == {"outcome", "lhs", "rhs", "precision"}
    assert d["precision"] == 64
    assert v.holds and not v.fails


def test_interval_str_returns_lo_hi_pair():
    with precision(64):
        lo, hi = interval_str(from_fraction(Fraction(1, 3)))
    assert isinstance(lo, str) and isinstance(hi, str)
