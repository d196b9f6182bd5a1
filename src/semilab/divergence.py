"""Hellinger distances and certified expected-bound inequalities.

Rational parts of every quantity stay exact; square roots, exponentials and
logarithms are carried as outward-rounded intervals, so every reported
comparison is certified, never estimated.  Expected values are exact sums
over the true measure's support, taken on the merged-state walk
(``envcore.walk_states``): strings whose joint cursor keys agree share
their posterior rows, so each row is computed once per state, not once per
path.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath.libmp import (
    fone, fzero, mpf_ge, mpf_lt, mpf_shift, mpi_add, mpi_exp, mpi_mul, mpi_sub,
)

from . import intervals
from .intervals import (
    DEFAULT_PRECISION,
    Verdict,
    abs_bounds,
    add_pairs,
    compare_le,
    fraction_bounds,
    from_fraction,
    from_mpf,
    interval_str,
    iv,
    pow_nonneg_bounds,
    precision,
    quotient_bounds,
    quotient_pairs,
    sqrt_pair,
    to_mpf,
)
from .envcore import HALF, Environment, FiniteString, ZERO, row_ratio_of, walk_states, walk_string
from .errors import NotAMeasureRowError, NotDominatedError, UndefinedPosteriorError


def _sqrt_prod_sum(p: tuple, q: tuple, prec: int) -> tuple:
    """``(lo, hi)`` integer pairs enclosing sum_i sqrt(p_i q_i) at prec bits
    from ``row_ratio()`` pairs: each p_num q_num / (p_den q_den) rounded
    outward, its square root rounded outward again, and each sum outward."""
    (p_nums, p_den), (q_nums, q_den) = p, q
    den = p_den * q_den
    lo = hi = (0, 0)
    for pi, qi in zip(p_nums, q_nums):
        if pi and qi:
            a, b = quotient_pairs(pi * qi, den, prec)
            lo = add_pairs(lo, sqrt_pair(*a, prec, False), prec, False)
            hi = add_pairs(hi, sqrt_pair(*b, prec, True), prec, True)
    return lo, hi


def _hellinger_bounds(p: tuple, q: tuple, prec: int) -> tuple:
    """Raw ``(lo, hi)`` enclosure of h(p, q) at prec bits, p and q unchecked
    rows as ``row_ratio()`` pairs.

    h = (sum p + sum q) - 2 sum_i sqrt(p_i q_i): the exact rational part is
    the one quotient (sum p_num q_den + sum q_num p_den) / (p_den q_den),
    and every step is rounded on integer pairs exactly as the ``mpf_div``,
    ``mpf_sqrt``, ``mpf_add`` and ``mpf_sub`` chain would round it, so the
    endpoints are that chain's, boxed into mpf tuples once.
    """
    (p_nums, p_den), (q_nums, q_den) = p, q
    r_lo, r_hi = quotient_pairs(sum(p_nums) * q_den + sum(q_nums) * p_den, p_den * q_den, prec)
    s_lo, s_hi = _sqrt_prod_sum(p, q, prec)
    lo = add_pairs(r_lo, (-s_hi[0], s_hi[1] + 1), prec, False)
    hi = add_pairs(r_hi, (-s_lo[0], s_lo[1] + 1), prec, True)
    # h >= 0 holds exactly, so the lower end is clipped at 0; the upper end
    # never passes r_hi, since r_hi lies on the prec-bit grid and s_lo >= 0
    return fzero if lo[0] < 0 else to_mpf(lo), to_mpf(hi)


def hellinger_step(p: Sequence[Fraction], q: Sequence[Fraction]):
    """Interval for h(p, q) = sum_i (sqrt(p_i) - sqrt(q_i))^2.

    Computed as (sum p + sum q) - 2 sum sqrt(p_i q_i): the rational part is
    exact and only the Bhattacharyya term is interval-bounded.
    """
    if len(p) != len(q):
        raise ValueError("length mismatch")
    if any(v < 0 for v in p) or any(v < 0 for v in q):
        raise ValueError("entries must be nonnegative")
    return iv.make_mpf(_hellinger_bounds(row_ratio_of(p), row_ratio_of(q), iv.prec))


def bhattacharyya_step(p: Sequence[Fraction], q: Sequence[Fraction]):
    """Interval for N = sum_i sqrt(p_i q_i); p must be a measure row."""
    if len(p) != len(q):
        raise ValueError("length mismatch")
    if sum(p, ZERO) != 1:
        raise NotAMeasureRowError("first row must sum to exactly 1")
    if sum(q, ZERO) > 1:
        raise ValueError("second row exceeds total mass 1")
    return iv.make_mpf(tuple(map(to_mpf, _sqrt_prod_sum(row_ratio_of(p), row_ratio_of(q),
                                                        iv.prec))))


def row_inequality_verdicts(p: Sequence[Fraction], q: Sequence[Fraction],
                            precision_bits: int = DEFAULT_PRECISION) -> tuple[Verdict, Verdict]:
    """Certify sum sqrt(pq) <= 1 - h/2 <= exp(-h/2) for one row pair."""
    with precision(precision_bits):
        n = bhattacharyya_step(p, q)
        h = hellinger_step(p, q)
        mid = from_fraction(1) - h / 2
        rhs = iv.exp(-h / 2)
        v1 = compare_le(n, mid, precision_bits)
        v2 = compare_le(mid, rhs, precision_bits)
    return v1, v2


@dataclass
class HellingerTrace:
    """Per-step Hellinger diagnostics along a fixed sequence."""

    steps: list[int]
    h_intervals: list
    cumulative: list
    on_ratio: list[Fraction]
    off_maxdiff: list[Fraction]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("t,h_lo,h_hi,cum_lo,cum_hi,ratio_num,ratio_den,maxdiff_num,maxdiff_den\n")
        for i, t in enumerate(self.steps):
            h_lo, h_hi = interval_str(self.h_intervals[i])
            c_lo, c_hi = interval_str(self.cumulative[i])
            r = self.on_ratio[i]
            d = self.off_maxdiff[i]
            out.write(f"{t},{h_lo},{h_hi},{c_lo},{c_hi},"
                      f"{r.numerator},{r.denominator},{d.numerator},{d.denominator}\n")
        return out.getvalue()


def hellinger_trace(nu: Environment, mu: Environment, omega: FiniteString, n: int,
                    precision_bits: int = DEFAULT_PRECISION) -> HellingerTrace:
    """Per-step h_t(nu, mu | omega_{<t}) plus on/off-sequence diagnostics,
    each computed on the cursors' ``row_ratio()`` pairs as in the walks (h by
    ``_hellinger_bounds``) and stored as one value: a ``Fraction`` or an interval."""
    hs, cums, ratios, diffs = [], [], [], []
    with precision(precision_bits):
        cum = iv.mpf(0)
        # the symbols come first, so the walk takes no step past the last row
        walk = zip(omega.symbols[:n], walk_string([nu, mu], omega.prefix(n)))
        for t, (a, (nu_cur, mu_cur)) in enumerate(walk, start=1):
            if not mu_cur.mass_ratio()[0]:
                raise UndefinedPosteriorError(f"mu has zero mass at step {t}")
            if not nu_cur.mass_ratio()[0]:
                raise UndefinedPosteriorError(f"nu has zero mass at step {t}")
            nu_row, mu_row = nu_cur.row_ratio(), mu_cur.row_ratio()
            h = iv.make_mpf(_hellinger_bounds(nu_row, mu_row, iv.prec))
            cum = cum + h
            (nu_nums, nu_den), (mu_nums, mu_den) = nu_row, mu_row
            if not mu_nums[a]:
                raise UndefinedPosteriorError(f"mu posterior zero on-sequence at step {t}")
            off = max((abs(nu_nums[b] * mu_den - mu_nums[b] * nu_den)
                       for b in nu.alphabet.symbols if b != a), default=0)
            hs.append(h)
            cums.append(cum)
            ratios.append(Fraction(nu_nums[a] * mu_den, nu_den * mu_nums[a]))
            diffs.append(Fraction(off, nu_den * mu_den))
    return HellingerTrace(list(range(1, n + 1)), hs, cums, ratios, diffs)


def _dominated(nu_cur, mu_cur, w: Fraction) -> bool:
    """nu >= w mu exactly at the cursors' string, from their unreduced
    integer masses."""
    nu_num, nu_den = nu_cur.mass_ratio()
    mu_num, mu_den = mu_cur.mass_ratio()
    return nu_num * w.denominator * mu_den >= w.numerator * mu_num * nu_den


def _carry(nu: Environment, mu: Environment, n: int, w: Fraction, root, advance, join):
    """Carry one value per state of ``walk_states([nu, mu], n)`` over mu's
    support, checking nu >= w mu exactly at every state.

    Strings of mu-mass 0 are neither visited nor expanded: every expectation
    skips them, their extensions have mu-mass 0 too, and nu >= w * 0 holds
    there.  Raises NotDominatedError at the first state that fails.  The
    root holds ``root``.  A state above depth n hands ``advance(nu_row,
    mu_row, mass, value)`` to each of its children: the cursors'
    ``row_ratio()`` pairs, and the mu-mass of all the strings in the state
    as an unreduced integer pair.  A child reached from several states holds
    the ``join`` of what they hand it, in the walker's fixed state order.
    Yields ``(count, mu_mass, value)`` for each state at depth n: its number
    of strings, the mu-mass of each, and its value.
    """
    level, carried, nxt = 0, {}, {}
    states = walk_states([nu, mu], n, support=1)
    for symbols, (nu_cur, mu_cur), count, key, children in states:
        if w and not _dominated(nu_cur, mu_cur, w):
            raise NotDominatedError("nu >= w*mu fails on the enumerated support")
        if len(symbols) > level:
            level, carried, nxt = len(symbols), nxt, {}
        value = carried[key] if symbols else root
        if children is None:
            yield count, mu_cur.mass, value
            continue
        if not nu_cur.mass_ratio()[0]:
            raise UndefinedPosteriorError("nu vanishes on a mu-support prefix")
        num, den = mu_cur.mass_ratio()
        out = advance(nu_cur.row_ratio(), mu_cur.row_ratio(), (count * num, den), value)
        for child_key, _ in children:
            nxt[child_key] = join(nxt[child_key], out) if child_key in nxt else out


def _half(x: tuple) -> tuple:
    """x / 2 for a raw interval: exact, so no rounding."""
    return mpf_shift(x[0], -1), mpf_shift(x[1], -1)


def _checked_beta(beta) -> Fraction:
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    return beta


def _checked_kappa(kappa) -> Fraction:
    kappa = Fraction(kappa)
    if not 0 < kappa <= HALF:
        raise ValueError("kappa must lie in (0, 1/2]")
    return kappa


def _exp_half_sum(nu: Environment, mu: Environment, n: int, w: Fraction, prec: int,
                  term) -> dict:
    """``exp_half_sum``, ``support_size`` and ``support_mass`` of one
    ``_carry``: each state carries E_S and hands each child
    E_S * exp(g / 2), g the raw enclosure ``term(nu_row, mu_row, mass)``
    (the arguments ``_carry`` hands ``advance``).  ``term`` may fold other
    sums on the way."""

    def advance(nu_row, mu_row, mass, e):
        return mpi_mul(e, mpi_exp(_half(term(nu_row, mu_row, mass)), prec), prec)

    def join(x, y):
        return mpi_add(x, y, prec)

    total, size, support_mass = (fzero, fzero), 0, ZERO
    for count, mass, e in _carry(nu, mu, n, w, (fone, fone), advance, join):
        total = mpi_add(total, mpi_mul(fraction_bounds(mass, prec), e, prec), prec)
        size += count
        support_mass += count * mass
    return {"exp_half_sum": iv.make_mpf(total), "support_size": size,
            "support_mass": support_mass}


def hellinger_expectations(nu: Environment, mu: Environment, n: int,
                           kappa: Fraction = HALF, w: Fraction = ZERO,
                           precision_bits: int = DEFAULT_PRECISION) -> dict:
    """Every expectation over the mu-support paths of length n, from one walk
    that also checks nu >= w mu exactly (NotDominatedError if it fails).

    ``exp_half_sum`` is an interval for E_mu[exp(half * sum_{t<=n} g_t)]:
    kappa = 1/2 gives the Hellinger case; smaller kappa uses the
    |nu^kappa - mu^kappa|^{1/kappa} per-step rows.  Each merged state S
    carries E_S, the sum of exp(half * sum g) over the paths into S; a child
    receives E_S * exp(g_S / 2), and a state at depth n adds mu(S) * E_S.

    For kappa = 1/2 the result also holds intervals for the on-support
    sqrt-ratio sum (part (i) left side) and for sum_t E[h_t], plus the
    verdict sqrt_ratio_sum <= hellinger_sum.  The two sides differ exactly by
    the off-support excess sum_t E[sum_{a: mu_a=0} nu_a] (each off-support
    square root collapses to the raw mass), so the verdict is certified
    through that exact rational difference, which stays decisive even when
    the two sides coincide.  Each merged state adds its row terms once,
    weighted by its mu-mass, from the one Hellinger step it also carries.

    ``support_size`` is the number of mu-support strings of length n and
    ``support_mass`` their exact total mu-mass: when both are 1, mu is a
    point mass on one path and every expectation is a point evaluation.

    The folds run on raw ``(lo, hi)`` endpoint tuples with the ``libmpi``
    kernels mpmath's interval objects call, so each enclosure is the one
    those objects would give; the sums are boxed only in the result.
    """
    kappa = _checked_kappa(kappa)
    symbols = mu.alphabet.symbols
    prec = precision_bits
    w = Fraction(w)
    if kappa != HALF:
        return _exp_half_sum(nu, mu, n, w, prec, lambda nu_row, mu_row, _:
                             _kappa_row(nu_row, mu_row, kappa, symbols, prec))
    zero = (fzero, fzero)
    sums = [zero, zero, ZERO]  # sqrt-ratio sum, Hellinger sum, excess

    def term(nu_row, mu_row, mass):
        h = _hellinger_bounds(nu_row, mu_row, prec)
        weight = quotient_bounds(*mass, prec)
        weighted = restricted = mpi_mul(weight, h, prec)
        # restrict to mu-support symbols: E[(sqrt(nu_t/mu_t)-1)^2 | prefix]
        (nu_nums, nu_den), (mu_nums, mu_den) = nu_row, mu_row
        on = [a for a in symbols if mu_nums[a]]
        if len(on) < len(symbols):
            restricted = mpi_mul(weight, _hellinger_bounds(
                (tuple(nu_nums[a] for a in on), nu_den),
                (tuple(mu_nums[a] for a in on), mu_den), prec), prec)
            off = sum(nu_nums[a] for a in symbols if not mu_nums[a])
            sums[2] += Fraction(mass[0] * off, mass[1] * nu_den)
        sums[0] = mpi_add(sums[0], restricted, prec)
        sums[1] = mpi_add(sums[1], weighted, prec)
        return h

    found = _exp_half_sum(nu, mu, n, w, prec, term)
    sqrt_sum, hell_sum, excess = iv.make_mpf(sums[0]), iv.make_mpf(sums[1]), sums[2]
    # excess sums nonnegative terms, so no input tells ">= 0" from ">= -1" here
    outcome = intervals.CERTIFIED_HOLDS if excess >= 0 else intervals.CERTIFIED_FAILS
    found.update({
        "sqrt_ratio_sum": sqrt_sum,
        "hellinger_sum": hell_sum,
        "off_support_excess": excess,
        "part_i": Verdict(outcome, *interval_str(sqrt_sum), *interval_str(hell_sum),
                          precision_bits),
    })
    return found


def expected_hellinger_sums(nu: Environment, mu: Environment, n: int,
                            precision_bits: int = DEFAULT_PRECISION) -> dict:
    """``hellinger_expectations`` at kappa = 1/2, with no dominance check."""
    return hellinger_expectations(nu, mu, n, precision_bits=precision_bits)


def _kappa_row(nu_row, mu_row, kappa: Fraction, symbols, prec: int) -> tuple:
    """Raw ``(lo, hi)`` enclosure of sum_a |nu_a^kappa - mu_a^kappa|^{1/kappa}
    at prec bits, the rows as ``row_ratio()`` pairs."""
    if kappa == HALF:
        return _hellinger_bounds(nu_row, mu_row, prec)
    zero = (fzero, fzero)
    total = zero
    inv = 1 / kappa
    for a in symbols:
        na, ma = (pow_nonneg_bounds(quotient_bounds(nums[a], den, prec), kappa, prec)
                  if nums[a] else zero for nums, den in (nu_row, mu_row))
        diff = abs_bounds(mpi_sub(na, ma, prec))
        total = mpi_add(total, pow_nonneg_bounds(diff, inv, prec), prec)
    return total


def expected_exp_half_sum(nu: Environment, mu: Environment, n: int,
                          kappa: Fraction = HALF,
                          precision_bits: int = DEFAULT_PRECISION):
    """Interval for E_mu[exp(half * sum_{t<=n} g_t)] over all mu-support
    paths: ``hellinger_expectations``' ``exp_half_sum``, from a walk that
    forms no other sum."""
    kappa, symbols = _checked_kappa(kappa), mu.alphabet.symbols
    found = _exp_half_sum(nu, mu, n, ZERO, precision_bits, lambda nu_row, mu_row, _:
                          _kappa_row(nu_row, mu_row, kappa, symbols, precision_bits))
    return found["exp_half_sum"]


def verify_dominance(nu: Environment, mu: Environment, w: Fraction, depth: int) -> bool:
    """Exact check nu(x) >= w mu(x) on every string of mu's support to depth."""
    w = Fraction(w)
    return all(_dominated(nu_cur, mu_cur, w) for _, (nu_cur, mu_cur), _, _, _
               in walk_states([nu, mu], depth, support=1))


@dataclass
class TailCheckReport:
    verdict: Verdict
    exceed_mass: Fraction
    inconclusive_mass: Fraction
    threshold_lo: str
    threshold_hi: str


def markov_tail_check(nu: Environment, mu: Environment, n: int,
                      w: Fraction, c: Fraction,
                      precision_bits: int = DEFAULT_PRECISION) -> TailCheckReport:
    """Certify P[sum_t h_t >= ln(1/w) + c] <= exp(-c/2) over all mu-support
    paths; ``markov_tail_checks`` with the one threshold c."""
    return markov_tail_checks(nu, mu, n, w, [c], precision_bits)[0]


def markov_tail_checks(nu: Environment, mu: Environment, n: int,
                       w: Fraction, cs: Sequence[Fraction],
                       precision_bits: int = DEFAULT_PRECISION) -> list[TailCheckReport]:
    """``markov_tail_check`` for every c in cs, from one walk that also checks
    nu >= w mu exactly (NotDominatedError if it fails).

    For each c, the certified exceed mass plus the mass of paths whose
    enclosure straddles the threshold is compared against the lower bound of
    exp(-c/2).  Each merged state carries the multiplicity of every
    cumulative-sum enclosure among the paths into it, keyed by the
    enclosure's exact raw endpoints, so each path's sum is formed by the same
    outward-rounded additions as along the path itself.
    """
    if not cs:
        return []
    w, cs = Fraction(w), [Fraction(c) for c in cs]

    def advance(nu_row, mu_row, mass, cums):
        h_lo, h_hi = map(from_mpf, _hellinger_bounds(nu_row, mu_row, prec))
        out = Counter()
        for (lo, hi), k in cums.items():
            out[(to_mpf(add_pairs(from_mpf(lo), h_lo, prec, False)),
                 to_mpf(add_pairs(from_mpf(hi), h_hi, prec, True)))] += k
        return out

    with precision(precision_bits):
        prec = iv.prec
        log_inv_w = iv.log(1 / from_fraction(w))
        thresholds = [(log_inv_w + from_fraction(c))._mpi_ for c in cs]
        exceed = [ZERO] * len(cs)
        unknown = [ZERO] * len(cs)
        for _, mass, cums in _carry(nu, mu, n, w, Counter({(fzero, fzero): 1}), advance,
                                    Counter.__add__):
            for (lo, hi), k in cums.items():
                for i, (t_lo, t_hi) in enumerate(thresholds):
                    if mpf_ge(lo, t_hi):
                        exceed[i] += k * mass
                    elif not mpf_lt(hi, t_lo):
                        unknown[i] += k * mass
        reports = []
        for c, threshold, ex, un in zip(cs, thresholds, exceed, unknown):
            bound = iv.exp(-from_fraction(c) / 2)
            verdict = compare_le(from_fraction(ex + un), bound, precision_bits)
            reports.append(TailCheckReport(verdict, ex, un,
                                           *interval_str(iv.make_mpf(threshold))))
    return reports


def chain_inequality(vectors: Sequence[Sequence[Fraction]],
                     beta: Optional[Fraction] = None,
                     precision_bits: int = DEFAULT_PRECISION,
                     rhs_scale: Fraction = Fraction(1)) -> Verdict:
    """Certify the Hellinger chain bound.

    With beta (and 3 vectors p, r, q): h(p,q) <= (1+beta) h(p,r) +
    (1+1/beta) h(r,q).  Without beta (m >= 2 vectors): h(p^1,p^m) <=
    3 sum_{k=2}^m k^2 h(p^{k-1},p^k).  rhs_scale deliberately rescales the
    right side so falsified bounds exercise the certified-fails path.
    """
    if beta is not None:
        beta = _checked_beta(beta)
        if len(vectors) != 3:
            raise ValueError("part (i) takes exactly three vectors p, r, q")
    elif len(vectors) < 2:
        raise ValueError("part (ii) needs at least two vectors")
    if len({len(v) for v in vectors}) != 1:
        raise ValueError("dimension mismatch")
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    with precision(precision_bits):
        if beta is not None:
            p, r, q = vectors
            lhs = hellinger_step(p, q)
            rhs = (from_fraction(1 + beta) * hellinger_step(p, r)
                   + from_fraction(1 + 1 / beta) * hellinger_step(r, q))
        else:
            lhs = hellinger_step(vectors[0], vectors[-1])
            rhs = iv.mpf(0)
            for k in range(2, len(vectors) + 1):
                rhs += from_fraction(3 * k ** 2) * hellinger_step(
                    vectors[k - 2], vectors[k - 1])
        rhs_scale = Fraction(rhs_scale)
        if rhs_scale != 1:
            rhs = from_fraction(rhs_scale) * rhs
        return compare_le(lhs, rhs, precision_bits)
