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
    fzero, mpf_add, mpf_ge, mpf_lt, mpf_shift, mpf_sqrt, mpf_sub, round_ceiling, round_floor,
)

from . import intervals
from .intervals import (
    DEFAULT_PRECISION,
    Verdict,
    abs_interval,
    compare_le,
    fraction_bounds,
    from_fraction,
    interval_str,
    iv,
    pow_nonneg,
    precision,
)
from .envcore import Environment, FiniteString, ZERO, walk_states
from .errors import NotAMeasureRowError, NotDominatedError, UndefinedPosteriorError

HALF = Fraction(1, 2)


def _sqrt_prod_sum(p: Sequence[Fraction], q: Sequence[Fraction], prec: int) -> tuple:
    """Raw ``(lo, hi)`` enclosure of sum_i sqrt(p_i q_i) at prec bits."""
    lo = hi = fzero
    for pi, qi in zip(p, q):
        prod = pi * qi
        if prod != 0:
            a, b = fraction_bounds(prod, prec)
            lo = mpf_add(lo, mpf_sqrt(a, prec, round_floor), prec, round_floor)
            hi = mpf_add(hi, mpf_sqrt(b, prec, round_ceiling), prec, round_ceiling)
    return lo, hi


def hellinger_step(p: Sequence[Fraction], q: Sequence[Fraction]):
    """Interval for h(p, q) = sum_i (sqrt(p_i) - sqrt(q_i))^2.

    Computed as (sum p + sum q) - 2 sum sqrt(p_i q_i): the rational part is
    exact and only the Bhattacharyya term is interval-bounded.
    """
    if len(p) != len(q):
        raise ValueError("length mismatch")
    if any(v < 0 for v in p) or any(v < 0 for v in q):
        raise ValueError("entries must be nonnegative")
    prec = iv.prec
    r_lo, r_hi = fraction_bounds(sum(p, ZERO) + sum(q, ZERO), prec)
    s_lo, s_hi = _sqrt_prod_sum(p, q, prec)
    lo = mpf_sub(r_lo, mpf_shift(s_hi, 1), prec, round_floor)
    hi = mpf_sub(r_hi, mpf_shift(s_lo, 1), prec, round_ceiling)
    # h >= 0 and h <= sum p + sum q hold exactly; clip the enclosure
    return iv.make_mpf((fzero if mpf_lt(lo, fzero) else lo,
                        r_hi if mpf_lt(r_hi, hi) else hi))


def bhattacharyya_step(p: Sequence[Fraction], q: Sequence[Fraction]):
    """Interval for N = sum_i sqrt(p_i q_i); p must be a measure row."""
    if len(p) != len(q):
        raise ValueError("length mismatch")
    if sum(p, ZERO) != 1:
        raise NotAMeasureRowError("first row must sum to exactly 1")
    if sum(q, ZERO) > 1:
        raise ValueError("second row exceeds total mass 1")
    return iv.make_mpf(_sqrt_prod_sum(p, q, iv.prec))


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
    """Per-step h_t(nu, mu | omega_{<t}) plus on/off-sequence diagnostics."""
    if n > len(omega):
        raise ValueError("n exceeds the provided sequence length")
    steps, hs, cums, ratios, diffs = [], [], [], [], []
    with precision(precision_bits):
        cum = iv.mpf(0)
        nu_cur, mu_cur = nu.cursor(), mu.cursor()
        for t in range(1, n + 1):
            a = omega.symbols[t - 1]
            if mu_cur.mass == 0:
                raise UndefinedPosteriorError(f"mu has zero mass at step {t}")
            if nu_cur.mass == 0:
                raise UndefinedPosteriorError(f"nu has zero mass at step {t}")
            mu_row = mu_cur.row()
            nu_row = nu_cur.row()
            h = hellinger_step(nu_row, mu_row)
            cum = cum + h
            if mu_row[a] == 0:
                raise UndefinedPosteriorError(f"mu posterior zero on-sequence at step {t}")
            ratio = nu_row[a] / mu_row[a]
            off = max(
                (abs(nu_row[b] - mu_row[b]) for b in nu.alphabet.symbols if b != a),
                default=ZERO,
            )
            steps.append(t)
            hs.append(h)
            cums.append(cum)
            ratios.append(ratio)
            diffs.append(off)
            nu_cur.step(a)
            mu_cur.step(a)
    return HellingerTrace(steps, hs, cums, ratios, diffs)


def _support_states(nu: Environment, mu: Environment, n: int, w: Fraction):
    """``walk_states([nu, mu], n)`` over mu's support, checking nu >= w mu
    exactly at every state.

    Strings of mu-mass 0 are neither yielded nor expanded: every expectation
    skips them, their extensions have mu-mass 0 too, and nu >= w * 0 holds
    there.  Raises NotDominatedError at the first state that fails.
    """
    for state in walk_states([nu, mu], n, support=1):
        nu_cur, mu_cur = state[1]
        if nu_cur.mass < w * mu_cur.mass:
            raise NotDominatedError("nu >= w*mu fails on the enumerated support")
        yield state


def _carry(states, root, advance):
    """Carry one value per state of ``_support_states``.

    The root holds ``root``.  A state above depth n hands ``advance(nu_row,
    mu_row, mass, value)`` to each of its children, ``mass`` being the mu-mass
    of all the strings in the state, and a child reached from several states
    holds the ``+`` of what they hand it, taken in the walker's fixed state
    order.  Yields ``(count, mu_mass, value)`` for each state at depth n: its
    number of strings, the mu-mass of each, and its value.
    """
    level, carried, nxt = 0, {}, {}
    for symbols, (nu_cur, mu_cur), count, key, children in states:
        if len(symbols) > level:
            level, carried, nxt = len(symbols), nxt, {}
        value = carried[key] if symbols else root
        if children is None:
            yield count, mu_cur.mass, value
            continue
        if nu_cur.mass == 0:
            raise UndefinedPosteriorError("nu vanishes on a mu-support prefix")
        out = advance(nu_cur.row(), mu_cur.row(), count * mu_cur.mass, value)
        for child_key, _ in children:
            nxt[child_key] = nxt[child_key] + out if child_key in nxt else out


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
    """
    kappa = Fraction(kappa)
    if not 0 < kappa <= HALF:
        raise ValueError("kappa must lie in (0, 1/2]")
    symbols = mu.alphabet.symbols
    sums = [iv.mpf(0), iv.mpf(0), ZERO]  # sqrt-ratio sum, Hellinger sum, excess

    def advance(nu_row, mu_row, mass, e):
        if kappa != HALF:
            return e * iv.exp(_kappa_row(nu_row, mu_row, kappa, symbols) / 2)
        h = hellinger_step(nu_row, mu_row)
        weight = from_fraction(mass)
        # restrict to mu-support symbols: E[(sqrt(nu_t/mu_t)-1)^2 | prefix]
        on = [a for a in symbols if mu_row[a] != 0]
        restricted = h if len(on) == len(symbols) else hellinger_step(
            [nu_row[a] for a in on], [mu_row[a] for a in on])
        sums[0] += weight * restricted
        sums[1] += weight * h
        sums[2] += mass * sum((nu_row[a] for a in symbols if mu_row[a] == 0), ZERO)
        return e * iv.exp(h / 2)

    with precision(precision_bits):
        total, size, support_mass = iv.mpf(0), 0, ZERO
        for count, mass, e in _carry(_support_states(nu, mu, n, Fraction(w)),
                                     iv.mpf(1), advance):
            total += from_fraction(mass) * e
            size += count
            support_mass += count * mass
        found = {"exp_half_sum": total, "support_size": size, "support_mass": support_mass}
        if kappa != HALF:
            return found
        sqrt_sum, hell_sum, excess = sums
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


def _kappa_row(nu_row, mu_row, kappa: Fraction, symbols):
    """Interval for sum_a |nu_a^kappa - mu_a^kappa|^{1/kappa}."""
    if kappa == HALF:
        return hellinger_step(nu_row, mu_row)
    total = iv.mpf(0)
    inv = 1 / kappa
    for a in symbols:
        na = pow_nonneg(from_fraction(nu_row[a]), kappa) if nu_row[a] != 0 else iv.mpf(0)
        ma = pow_nonneg(from_fraction(mu_row[a]), kappa) if mu_row[a] != 0 else iv.mpf(0)
        diff = abs_interval(na - ma)
        total += pow_nonneg(diff, inv)
    return total


def expected_exp_half_sum(nu: Environment, mu: Environment, n: int,
                          kappa: Fraction = HALF,
                          precision_bits: int = DEFAULT_PRECISION):
    """Interval for E_mu[exp(half * sum_{t<=n} g_t)] over all mu-support
    paths: ``hellinger_expectations``' ``exp_half_sum``."""
    return hellinger_expectations(nu, mu, n, kappa,
                                  precision_bits=precision_bits)["exp_half_sum"]


def verify_dominance(nu: Environment, mu: Environment, w: Fraction, depth: int) -> bool:
    """Exact check nu(x) >= w mu(x) on every string of mu's support to depth."""
    return all(nu_cur.mass >= w * mu_cur.mass for _, (nu_cur, mu_cur), _, _, _
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
        h_lo, h_hi = hellinger_step(nu_row, mu_row)._mpi_
        out = Counter()
        for (lo, hi), k in cums.items():
            out[(mpf_add(lo, h_lo, prec, round_floor),
                 mpf_add(hi, h_hi, prec, round_ceiling))] += k
        return out

    with precision(precision_bits):
        prec = iv.prec
        log_inv_w = iv.log(1 / from_fraction(w))
        thresholds = [(log_inv_w + from_fraction(c))._mpi_ for c in cs]
        exceed = [ZERO] * len(cs)
        unknown = [ZERO] * len(cs)
        for _, mass, cums in _carry(_support_states(nu, mu, n, w),
                                    Counter({(fzero, fzero): 1}), advance):
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
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ValueError("dimension mismatch")
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    with precision(precision_bits):
        if beta is not None:
            beta = Fraction(beta)
            if beta <= 0:
                raise ValueError("beta must be positive")
            if len(vectors) != 3:
                raise ValueError("part (i) takes exactly three vectors p, r, q")
            p, r, q = vectors
            lhs = hellinger_step(p, q)
            rhs = (from_fraction(1 + beta) * hellinger_step(p, r)
                   + from_fraction(1 + 1 / beta) * hellinger_step(r, q))
        else:
            if len(vectors) < 2:
                raise ValueError("part (ii) needs at least two vectors")
            lhs = hellinger_step(vectors[0], vectors[-1])
            rhs = iv.mpf(0)
            for k in range(2, len(vectors) + 1):
                rhs += from_fraction(3 * k ** 2) * hellinger_step(
                    vectors[k - 2], vectors[k - 1])
        rhs_scale = Fraction(rhs_scale)
        if rhs_scale != 1:
            rhs = from_fraction(rhs_scale) * rhs
        return compare_le(lhs, rhs, precision_bits)
