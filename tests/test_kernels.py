"""The integer Hellinger kernel against the ``libmpf`` chain it replaces.

Every step of ``divergence._hellinger_bounds`` rounds on integer
(mantissa, exponent) pairs, and every endpoint must be the very mpf tuple
that the chain of ``mpf_div``, ``mpf_sqrt``, ``mpf_add`` and ``mpf_sub``
(``oracles.hellinger_bounds_mpf``) gives, at every precision, for rows
with zeros, all-zero rows, substochastic rows and numerators of hundreds of
bits, whether the rows come reduced or unreduced, over one denominator or
two.  So do the primitives one by one, and the adder the markov-tail
``Counter`` sums its enclosures with.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    fzero, from_man_exp, mpf_add, mpf_sqrt, round_ceiling, round_floor,
)

from semilab import divergence
from semilab.envcore import row_ratio_of
from semilab.intervals import (
    add_pairs, from_mpf, precision, quotient_bounds, quotient_pairs, sqrt_pair, to_mpf,
)

import oracles

F = Fraction
PRECISIONS = st.sampled_from([64, 128, 256])
SIZES = st.one_of(st.integers(0, 8), st.integers(0, 2 ** 64), st.integers(0, 2 ** 600))


@st.composite
def substochastic_row(draw, size):
    """Nonnegative integers over their total plus a slack: zeros, all-zero
    rows (every draw 0) and rows summing to 1 (no slack) all occur."""
    cells = draw(st.lists(SIZES, min_size=size, max_size=size))
    total = sum(cells) + draw(SIZES)
    return [F(c, total or 1) for c in cells]


@st.composite
def unchecked_row(draw, size):
    """Entries with numerators and denominators of up to 600 bits each,
    not bound to sum to at most 1: the kernel does not check its rows."""
    return [F(draw(SIZES), draw(SIZES) + 1) for _ in range(size)]


@st.composite
def row_pairs(draw):
    size = draw(st.sampled_from([2, 3]))
    row = st.one_of(substochastic_row(size), unchecked_row(size))
    return draw(row), draw(row)


ZERO_ROW, HALVES = [F(0), F(0)], [F(1, 2), F(1, 2)]
SCALES = st.one_of(st.integers(1, 8), st.integers(1, 2 ** 300))


def _scaled(row, k):
    """A row's ``row_ratio_of`` pair with numerators and denominator times k."""
    nums, den = row_ratio_of(row)
    return tuple(num * k for num in nums), den * k


@settings(max_examples=200, deadline=None)
@given(PRECISIONS, row_pairs(), SCALES, SCALES)
@example(128, (ZERO_ROW, ZERO_ROW), 1, 1)
@example(128, (ZERO_ROW, HALVES), 3, 1)
@example(64, (HALVES, HALVES), 1, 6)
@example(64, ([F(1), F(0), F(0)], [F(0), F(0), F(1)]), 2, 5)
@example(256, ([F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]), 7, 7)
@example(128, ([F(1, 2 ** 600), F(0)], [F(1), F(0)]), 1, 2 ** 300)
def test_hellinger_kernel_returns_the_mpf_chain_tuples(prec, rows, k_p, k_q):
    """Each drawn row enters reduced (``row_ratio_of``) and unreduced, times
    a drawn k, with the two rows over different denominators."""
    p, q = rows
    want = oracles.hellinger_bounds_mpf(p, q, prec)
    want_sqrt = oracles.sqrt_prod_sum_mpf(p, q, prec)
    with precision(prec):
        want_kappa = oracles.kappa_row_iv(p, q, F(1, 4), range(len(p)))._mpi_
    p_pair, q_pair = _scaled(p, k_p), _scaled(q, k_q)
    if p_pair[1] == q_pair[1]:
        q_pair = _scaled(q, 2 * k_q)
    for pair in ((row_ratio_of(p), row_ratio_of(q)), (p_pair, q_pair)):
        assert divergence._hellinger_bounds(*pair, prec) == want
        assert tuple(map(to_mpf, divergence._sqrt_prod_sum(*pair, prec))) == want_sqrt
        assert divergence._kappa_row(*pair, F(1, 4), range(len(p)), prec) == want_kappa


@settings(max_examples=150, deadline=None)
@given(PRECISIONS, st.integers(-2 ** 600, 2 ** 600), st.integers(1, 2 ** 600))
@example(64, 0, 7)
@example(64, 3, 8)
@example(128, -1, 3)
def test_quotients_round_as_mpf_div(prec, num, den):
    assert quotient_bounds(num, den, prec) == oracles.quotient_bounds_mpf(num, den, prec)
    # and an unreduced quotient rounds to the reduced one's bits
    assert quotient_bounds(num * 12, den * 12, prec) == quotient_bounds(num, den, prec)


def _mpf(man, exp, prec):
    """A raw mpf value of at most prec bits, as every kernel input is."""
    return from_man_exp(man, exp, prec, round_floor)


MANTISSAS = st.one_of(st.integers(-2 ** 300, 2 ** 300), st.integers(0, 2 ** 20))
EXPONENTS = st.integers(-1200, 60)


@settings(max_examples=150, deadline=None)
@given(PRECISIONS, st.integers(0, 2 ** 600), EXPONENTS)
@example(64, 0, 0)
@example(64, 1, 0)
@example(64, 4, -3)
@example(128, 9, 7)
def test_square_roots_round_as_mpf_sqrt(prec, man, exp):
    x = _mpf(man, exp, prec)
    for up, rnd in ((False, round_floor), (True, round_ceiling)):
        assert to_mpf(sqrt_pair(*from_mpf(x), prec, up)) == mpf_sqrt(x, prec, rnd)


@settings(max_examples=200, deadline=None)
@given(PRECISIONS, MANTISSAS, EXPONENTS, MANTISSAS, EXPONENTS)
@example(64, 0, 0, 5, -3)
@example(64, 1, 0, -1, 0)  # an exact zero difference
@example(128, 1, 0, 1, -1000)  # far apart, past mpf_add's shortcut
@example(128, 1, 0, -1, -1000)
def test_sums_round_as_mpf_add(prec, a, ea, b, eb):
    x, y = _mpf(a, ea, prec), _mpf(b, eb, prec)
    for up, rnd in ((False, round_floor), (True, round_ceiling)):
        assert to_mpf(add_pairs(from_mpf(x), from_mpf(y), prec, up)) == mpf_add(x, y, prec, rnd)


@settings(max_examples=60, deadline=None)
@given(PRECISIONS, row_pairs(), st.lists(st.tuples(st.integers(0, 2 ** 200), EXPONENTS),
                                         max_size=4))
@example(128, (HALVES, HALVES), [(0, 0)])
def test_tail_sums_add_as_mpf_add(prec, rows, starts):
    """The markov-tail carry adds each cumulative enclosure and one step's
    enclosure on integer pairs, into canonical tuples, as ``mpf_add`` did."""
    h_lo, h_hi = divergence._hellinger_bounds(*map(row_ratio_of, rows), prec)
    for man, exp in starts:
        lo = _mpf(man, exp, prec)
        hi = mpf_add(lo, _mpf(1, exp, prec), prec, round_ceiling)
        assert (to_mpf(add_pairs(from_mpf(lo), from_mpf(h_lo), prec, False)),
                to_mpf(add_pairs(from_mpf(hi), from_mpf(h_hi), prec, True))) == (
            mpf_add(lo, h_lo, prec, round_floor), mpf_add(hi, h_hi, prec, round_ceiling))


def test_zero_numerators_give_exact_zeros():
    assert quotient_pairs(0, 5, 64) == ((0, 0), (0, 0))
    assert to_mpf((0, 17)) == fzero
    assert sqrt_pair(0, 0, 64, True) == (0, 0)
    zero_row = row_ratio_of(ZERO_ROW)
    assert divergence._hellinger_bounds(zero_row, zero_row, 64) == (fzero, fzero)
