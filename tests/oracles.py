"""Independent reference implementations used as test oracles.

These recompute quantities from their definitions using high-precision
floating point (mpmath.mp) and direct enumeration over env.eval, avoiding the
cursor/interval machinery under test.
"""

from fractions import Fraction
from itertools import product

import mpmath

mp = mpmath.mp

ORACLE_DPS = 60


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def hellinger(p, q):
    with mp.workdps(ORACLE_DPS):
        return sum((mp.sqrt(_mpf(a)) - mp.sqrt(_mpf(b))) ** 2 for a, b in zip(p, q))


def bhattacharyya(p, q):
    with mp.workdps(ORACLE_DPS):
        return sum(mp.sqrt(_mpf(a) * _mpf(b)) for a, b in zip(p, q))


def all_strings(alphabet_size, length):
    return product(range(alphabet_size), repeat=length)


def posterior_row(env, symbols):
    from semilab import FiniteString
    x = FiniteString(env.alphabet, symbols)
    m = env.eval(x)
    return tuple(env.eval(x.append(a)) / m for a in env.alphabet.symbols)


def expected_hellinger_sum(nu, mu, n):
    """sum_{t<=n} E_mu[h_t(nu, mu)] by direct enumeration over prefixes."""
    from semilab import FiniteString
    total = mp.mpf(0)
    with mp.workdps(ORACLE_DPS):
        for t in range(n):
            for symbols in all_strings(mu.alphabet.size, t):
                mass = mu.eval(FiniteString(mu.alphabet, symbols))
                if mass == 0:
                    continue
                total += _mpf(mass) * hellinger(
                    posterior_row(nu, symbols), posterior_row(mu, symbols))
    return total


def expected_exp_half_hellinger(nu, mu, n):
    """E_mu[exp(half sum_{t<=n} h_t)] by direct path enumeration."""
    from semilab import FiniteString
    total = mp.mpf(0)
    with mp.workdps(ORACLE_DPS):
        for symbols in all_strings(mu.alphabet.size, n):
            x = FiniteString(mu.alphabet, symbols)
            mass = mu.eval(x)
            if mass == 0:
                continue
            cum = mp.mpf(0)
            for t in range(n):
                cum += hellinger(posterior_row(nu, symbols[:t]),
                                 posterior_row(mu, symbols[:t]))
            total += _mpf(mass) * mp.exp(cum / 2)
    return total


def deficiency_sup_ratio(m_ref, mu, omega, n):
    from semilab import FiniteString
    best = None
    for k in range(n + 1):
        prefix = FiniteString(mu.alphabet, omega.symbols[:k])
        r = m_ref.eval(prefix) / mu.eval(prefix)
        best = r if best is None else max(best, r)
    return best


def nu_stage_value(pivot_symbols, t, symbols):
    """Direct leaf count for the stage construction: number of length-t
    strings extending `symbols` that are lexicographically below the pivot,
    divided by 2^t (binary only)."""
    count = 0
    for tail in all_strings(2, t - len(symbols)):
        if symbols + tail < tuple(pivot_symbols):
            count += 1
    return Fraction(count, 2 ** t)


def interval_contains(x, value, slack="1e-40") -> bool:
    """Whether an interval encloses a high-precision reference value.

    The reference itself carries ~10^-60 rounding error, so a tiny slack is
    allowed on both exact rational endpoints.
    """
    from semilab.intervals import endpoints
    lo, hi = endpoints(x)
    with mp.workdps(ORACLE_DPS):
        eps = mp.mpf(slack)
        return _mpf(lo) - eps <= value <= _mpf(hi) + eps


# ------------------------------------- interval kernels through ctx_iv
#
# The enclosures as they were built before the kernels rounded raw libmp
# endpoints directly: rationals as the quotient of two boxed integers, square
# roots and sums through mpmath's interval objects.  Both are outward
# rounded, so every enclosure here contains the exact value.

def from_fraction_iv(q):
    """iv.mpf(numerator) / iv.mpf(denominator) at the working precision."""
    from semilab.intervals import iv
    q = Fraction(q)
    if q.denominator == 1:
        return iv.mpf(q.numerator)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def hellinger_step_iv(p, q):
    """(sum p + sum q) - 2 sum sqrt(p_i q_i) in interval objects, clipped to
    [0, sum p + sum q]."""
    from semilab.intervals import iv
    total = iv.mpf(0)
    for pi, qi in zip(p, q):
        if pi * qi != 0:
            total += iv.sqrt(from_fraction_iv(pi * qi))
    rational = from_fraction_iv(sum(p, Fraction(0)) + sum(q, Fraction(0)))
    h = rational - 2 * total
    return iv.mpf([max(h.a, iv.mpf(0).a), min(h.b, rational.b)])


# ------------------------------------- the Hellinger kernel as an mpf chain
#
# The kernel as it was written before it ran on integer pairs: every
# quotient, square root, sum and difference one ``libmpf`` call on raw mpf
# tuples, each rounded down for the lower end and up for the upper end.
# The integer kernel must return the very same tuples.

def quotient_bounds_mpf(num, den, prec):
    """num / den by ``mpf_div`` of the two exact integers."""
    from mpmath.libmp import from_int, mpf_div, round_ceiling, round_floor
    n, d = from_int(num), from_int(den)
    return mpf_div(n, d, prec, round_floor), mpf_div(n, d, prec, round_ceiling)


def sqrt_prod_sum_mpf(p, q, prec):
    """Raw (lo, hi) of sum_i sqrt(p_i q_i), each product's unreduced
    integer quotient rounded, never reduced."""
    from mpmath.libmp import fzero, mpf_add, mpf_sqrt, round_ceiling, round_floor
    lo = hi = fzero
    for pi, qi in zip(p, q):
        if pi and qi:
            a, b = quotient_bounds_mpf(pi.numerator * qi.numerator,
                                       pi.denominator * qi.denominator, prec)
            lo = mpf_add(lo, mpf_sqrt(a, prec, round_floor), prec, round_floor)
            hi = mpf_add(hi, mpf_sqrt(b, prec, round_ceiling), prec, round_ceiling)
    return lo, hi


def hellinger_bounds_mpf(p, q, prec):
    """Raw (lo, hi) of h(p, q) = (sum p + sum q) - 2 sum sqrt(p_i q_i),
    clipped to [0, sum p + sum q]."""
    from mpmath.libmp import fzero, mpf_lt, mpf_shift, mpf_sub, round_ceiling, round_floor
    r = sum(p, Fraction(0)) + sum(q, Fraction(0))
    r_lo, r_hi = quotient_bounds_mpf(r.numerator, r.denominator, prec)
    s_lo, s_hi = sqrt_prod_sum_mpf(p, q, prec)
    lo = mpf_sub(r_lo, mpf_shift(s_hi, 1), prec, round_floor)
    hi = mpf_sub(r_hi, mpf_shift(s_lo, 1), prec, round_ceiling)
    return (fzero if mpf_lt(lo, fzero) else lo,
            r_hi if mpf_lt(r_hi, hi) else hi)


# ------------------------------------- expectation folds through ctx_iv
#
# The merged-walk folds as they were written before they ran on raw libmpi
# tuples: interval objects added and multiplied through mpmath's operators,
# each product p_i q_i formed as a Fraction and then rounded, powers and
# absolute values taken on interval objects.  Same walk, same order, so the
# endpoints must agree bit for bit.

def from_fraction_mpq(q):
    """q boxed as mpmath boxes a rational: ``from_rational`` rounded down and up."""
    from mpmath.libmp import from_rational, round_ceiling, round_floor
    from semilab.intervals import iv
    q = Fraction(q)
    n, d, prec = q.numerator, q.denominator, iv.prec
    return iv.make_mpf((from_rational(n, d, prec, round_floor),
                        from_rational(n, d, prec, round_ceiling)))


def hellinger_step_fractions(p, q):
    """h(p, q) with each product p_i q_i reduced as a Fraction, then rounded."""
    from mpmath.libmp import (fzero, mpf_add, mpf_lt, mpf_shift, mpf_sqrt, mpf_sub,
                              round_ceiling, round_floor)
    from semilab.intervals import iv
    prec = iv.prec
    s_lo = s_hi = fzero
    for pi, qi in zip(p, q):
        prod = pi * qi
        if prod != 0:
            a, b = from_fraction_mpq(prod)._mpi_
            s_lo = mpf_add(s_lo, mpf_sqrt(a, prec, round_floor), prec, round_floor)
            s_hi = mpf_add(s_hi, mpf_sqrt(b, prec, round_ceiling), prec, round_ceiling)
    r_lo, r_hi = from_fraction_mpq(sum(p, Fraction(0)) + sum(q, Fraction(0)))._mpi_
    lo = mpf_sub(r_lo, mpf_shift(s_hi, 1), prec, round_floor)
    hi = mpf_sub(r_hi, mpf_shift(s_lo, 1), prec, round_ceiling)
    return iv.make_mpf((fzero if mpf_lt(lo, fzero) else lo,
                        r_hi if mpf_lt(r_hi, hi) else hi))


def pow_nonneg_iv(x, e):
    from semilab.intervals import iv
    if x.b <= 0:
        return iv.mpf(0)
    hi = iv.exp(from_fraction_mpq(e) * iv.log(iv.mpf([x.b, x.b])))
    if x.a <= 0:
        return iv.mpf([0, hi.b])
    lo = iv.exp(from_fraction_mpq(e) * iv.log(iv.mpf([x.a, x.a])))
    return iv.mpf([lo.a, hi.b])


def abs_interval_iv(x):
    from semilab.intervals import iv
    if x.a >= 0:
        return x
    if x.b <= 0:
        return -x
    return iv.mpf([0, max(-x.a, x.b).b])


def kappa_row_iv(nu_row, mu_row, kappa, symbols):
    """sum_a |nu_a^kappa - mu_a^kappa|^{1/kappa} in interval objects."""
    from semilab.intervals import iv
    total = iv.mpf(0)
    for a in symbols:
        na, ma = (pow_nonneg_iv(from_fraction_mpq(row[a]), kappa) if row[a] != 0
                  else iv.mpf(0) for row in (nu_row, mu_row))
        total += pow_nonneg_iv(abs_interval_iv(na - ma), 1 / kappa)
    return total


def _carry_states(nu, mu, n, root, advance):
    """(count, mu_mass, value) of every depth-n state of the merged walk over
    mu's support: each state hands ``advance(nu_row, mu_row, mass, value)``
    to its children, and a child holds the ``+`` of what it is handed."""
    from semilab.envcore import walk_states
    values, leaves = {}, []
    for symbols, (nu_cur, mu_cur), count, key, children in walk_states([nu, mu], n, support=1):
        value = values.pop((len(symbols), key)) if symbols else root
        if children is None:
            leaves.append((count, mu_cur.mass, value))
            continue
        out = advance(nu_cur.row(), mu_cur.row(), count * mu_cur.mass, value)
        for child_key, _ in children:
            slot = (len(symbols) + 1, child_key)
            values[slot] = values[slot] + out if slot in values else out
    return leaves


def hellinger_expectations_iv(nu, mu, n, kappa, precision_bits):
    """Raw endpoints of the sums, and the (count, mu_mass, raw value) of every
    depth-n state, from the fold on interval objects."""
    from semilab.divergence import HALF
    from semilab.intervals import iv, precision
    symbols = mu.alphabet.symbols
    kappa = Fraction(kappa)
    with precision(precision_bits):
        sums = [iv.mpf(0), iv.mpf(0)]

        def advance(nu_row, mu_row, mass, e):
            if kappa != HALF:
                return e * iv.exp(kappa_row_iv(nu_row, mu_row, kappa, symbols) / 2)
            h = hellinger_step_fractions(nu_row, mu_row)
            weight = from_fraction_mpq(mass)
            on = [a for a in symbols if mu_row[a] != 0]
            restricted = h if len(on) == len(symbols) else hellinger_step_fractions(
                [nu_row[a] for a in on], [mu_row[a] for a in on])
            sums[0] += weight * restricted
            sums[1] += weight * h
            return e * iv.exp(h / 2)

        total, leaves = iv.mpf(0), []
        for count, mass, e in _carry_states(nu, mu, n, iv.mpf(1), advance):
            total += from_fraction_mpq(mass) * e
            leaves.append((count, mass, e._mpi_))
        found = {"exp_half_sum": total._mpi_, "leaves": leaves}
        if kappa == HALF:
            found["sqrt_ratio_sum"], found["hellinger_sum"] = sums[0]._mpi_, sums[1]._mpi_
    return found


def tail_states_iv(nu, mu, n, precision_bits):
    """(count, mu_mass, enclosure counts) of every depth-n state, each path's
    cumulative sum added as interval objects."""
    from collections import Counter
    from semilab.intervals import iv, precision
    with precision(precision_bits):
        def advance(nu_row, mu_row, mass, cums):
            h = hellinger_step_fractions(nu_row, mu_row)
            out = Counter()
            for raw, k in cums.items():
                out[(iv.make_mpf(raw) + h)._mpi_] += k
            return out

        root = Counter({iv.mpf(0)._mpi_: 1})
        return _carry_states(nu, mu, n, root, advance)


# ------------------------------------------------- tree references for walks
#
# The exact node checks as they were written before the state-merging
# walker: every string to the depth, every mass recomputed from scratch by
# _mass.  Exponential in depth; kept only to check the merged walks.

def validate_tree(env, depth):
    """(is_semimeasure, is_measure_to_depth, first defect symbols or None);
    every node is checked, and the defect is the shortest failing node,
    lexicographically first among those."""
    if env.max_depth is not None:
        depth = min(depth, env.max_depth)
    root = env._mass(())
    if root > 1:
        return False, False, ()
    is_measure = root == 1
    for n in range(depth):
        for symbols in all_strings(env.alphabet.size, n):
            mass = env._mass(symbols)
            total = sum(env._mass(symbols + (a,)) for a in env.alphabet.symbols)
            if total > mass:
                return False, False, symbols
            if total != mass:
                is_measure = False
    return True, is_measure, None


def first_string_at_a_missing_row(order, transitions):
    """Brute force over binary strings, shortest first: the first string of
    positive mass under a Markov transitions dict whose context, its last
    ``order`` symbols, has no row; None if there is none.  The contexts are
    the chain's states, so a reachable one is reached by a string shorter
    than their number, 2^(order + 1) - 1."""
    for n in range(2 ** (order + 1) - 1):
        for x in all_strings(2, n):
            rows = [transitions.get(x[:t][-order:]) for t in range(n + 1)]
            if rows[n] is None and all(rows[t] and rows[t][x[t]] for t in range(n)):
                return x
    return None


def dominates_tree(nu, mu, w, depth):
    """nu(x) >= w mu(x) on every string to depth, by recursion."""
    def rec(symbols):
        if nu._mass(symbols) < w * mu._mass(symbols):
            return False
        if len(symbols) == depth:
            return True
        return all(rec(symbols + (a,)) for a in mu.alphabet.symbols)

    return rec(())


def worst_ratio_tree(prev, curr, depth):
    """max prev(x)/curr(x) over strings to depth where curr(x) != 0."""
    worst = Fraction(0)

    def rec(symbols):
        nonlocal worst
        c = curr._mass(symbols)
        if c != 0:
            worst = max(worst, prev._mass(symbols) / c)
        if len(symbols) == depth:
            return
        for a in curr.alphabet.symbols:
            rec(symbols + (a,))

    rec(())
    return worst


def first_mismatch_tree(w_mix, d_mix, equal_from, depth):
    """First string in depth-first order, of length equal_from..depth, at
    which the two environments differ; None when they agree."""
    mismatch = None

    def rec(symbols):
        nonlocal mismatch
        if mismatch is not None:
            return
        if len(symbols) >= equal_from and w_mix._mass(symbols) != d_mix._mass(symbols):
            mismatch = "".join(map(str, symbols))
            return
        if len(symbols) < depth:
            for a in w_mix.alphabet.symbols:
                rec(symbols + (a,))

    rec(())
    return mismatch


# ------------------------------------------ tree references for expectations
#
# The expectation walks as they were written before they moved onto the
# state-merging walker: one cursor pair per mu-support path, cloned at every
# branch, with the same interval operations per path.  Exponential in depth;
# kept only to check the merged walks.  Call them inside a precision context.

def _walk_expectation_tree(nu, mu, n, visit):
    """DFS over mu-support prefixes; calls visit(mu_mass, nu_row, mu_row)."""
    from semilab.errors import UndefinedPosteriorError

    def rec(nu_cur, mu_cur, depth, mu_mass):
        if depth == n:
            return
        if nu_cur.mass == 0:
            raise UndefinedPosteriorError("nu vanishes on a mu-support prefix")
        mu_row = mu_cur.row()
        visit(mu_mass, nu_cur.row(), mu_row)
        for a in mu.alphabet.symbols:
            if mu_row[a] == 0:
                continue
            nu_child, mu_child = nu_cur.clone(), mu_cur.clone()
            nu_child.step(a)
            mu_child.step(a)
            rec(nu_child, mu_child, depth + 1, mu_mass * mu_row[a])

    mu_cur = mu.cursor()
    if mu_cur.mass != 0:
        rec(nu.cursor(), mu_cur, 0, mu_cur.mass)


def expected_hellinger_sums_tree(nu, mu, n):
    """(sqrt_ratio_sum, hellinger_sum, off_support_excess), one term per
    mu-support prefix shorter than n."""
    from semilab.divergence import hellinger_step
    from semilab.intervals import from_fraction, iv
    sums = [iv.mpf(0), iv.mpf(0), Fraction(0)]

    def visit(mu_mass, nu_row, mu_row):
        on = [a for a in mu.alphabet.symbols if mu_row[a] != 0]
        w = from_fraction(mu_mass)
        sums[0] += w * hellinger_step([nu_row[a] for a in on], [mu_row[a] for a in on])
        sums[1] += w * hellinger_step(nu_row, mu_row)
        sums[2] += mu_mass * sum((nu_row[a] for a in mu.alphabet.symbols
                                  if mu_row[a] == 0), Fraction(0))

    _walk_expectation_tree(nu, mu, n, visit)
    return tuple(sums)


def paths_tree(nu, mu, n, step_term):
    """(mu_mass, cum) for every mu-support path of length n, cum the sum of
    step_term(nu_row, mu_row) along the path, added in path order."""
    from semilab.intervals import iv
    leaves = []

    def rec(nu_cur, mu_cur, depth, mu_mass, cum):
        if depth == n:
            leaves.append((mu_mass, cum))
            return
        mu_row = mu_cur.row()
        g = step_term(nu_cur.row(), mu_row)
        for a in mu.alphabet.symbols:
            if mu_row[a] == 0:
                continue
            nu_child, mu_child = nu_cur.clone(), mu_cur.clone()
            nu_child.step(a)
            mu_child.step(a)
            rec(nu_child, mu_child, depth + 1, mu_mass * mu_row[a], cum + g)

    mu_cur = mu.cursor()
    if mu_cur.mass != 0:
        rec(nu.cursor(), mu_cur, 0, mu_cur.mass, iv.mpf(0))
    return leaves


def expected_exp_half_sum_tree(nu, mu, n, kappa):
    """sum over mu-support paths of mu(path) * exp(half * sum_t g_t)."""
    from semilab.intervals import from_fraction, iv
    total = iv.mpf(0)
    for mu_mass, cum in paths_tree(
            nu, mu, n, lambda p, q: kappa_row_iv(p, q, kappa, mu.alphabet.symbols)):
        total += from_fraction(mu_mass) * iv.exp(cum / 2)
    return total


def tail_masses_tree(nu, mu, n, threshold):
    """(exceed, inconclusive): the mu-mass of paths whose cumulative
    Hellinger enclosure lies at or above the threshold, and of those whose
    enclosure straddles it."""
    from semilab.divergence import hellinger_step
    exceed = unknown = Fraction(0)
    for mu_mass, cum in paths_tree(nu, mu, n, hellinger_step):
        if cum.a >= threshold.b:
            exceed += mu_mass
        elif not (cum.b < threshold.a):
            unknown += mu_mass
    return exceed, unknown


# ------------------------------------- references for single-string walks
#
# The checks along one string as they were written before they walked one
# cursor along it: every prefix evaluated from the root by eval or _mass, so
# a length-n string costs O(n^2) products.  Kept only to check the walks.

def deficiency_trace_prefixes(m_ref, mu, omega, n, precision_bits=128):
    """(ratios, log2 bound strings, sup ratio, d bounds), each prefix
    re-evaluated."""
    from semilab.errors import UndefinedPosteriorError
    from semilab.intervals import interval_str, precision
    from semilab.intervals import from_fraction, iv

    def _log2_interval(q):
        return iv.log(from_fraction(q)) / iv.log(iv.mpf(2))

    ratios, logs = [], []
    with precision(precision_bits):
        for k in range(n + 1):
            prefix = omega.prefix(k)
            mu_mass = mu.eval(prefix)
            if mu_mass == 0:
                raise UndefinedPosteriorError(f"mu vanishes on prefix of length {k}")
            ratio = m_ref.eval(prefix) / mu_mass
            ratios.append(ratio)
            logs.append(interval_str(_log2_interval(ratio)) if ratio > 0 else ("-inf", "-inf"))
        sup_ratio = max(ratios)
        d_bounds = (interval_str(_log2_interval(sup_ratio))
                    if sup_ratio > 0 else ("-inf", "-inf"))
    return ratios, logs, sup_ratio, d_bounds


def leftmost_random_prefixes(m, n):
    """The leftmost alpha's symbols, each candidate evaluated by _mass."""
    from semilab.errors import SemilabError
    symbols = ()
    for k in range(1, n + 1):
        bound = Fraction(1, 2 ** k)
        if m._mass(symbols + (0,)) <= bound:
            symbols = symbols + (0,)
        else:
            symbols = symbols + (1,)
        if m._mass(symbols) > bound:
            raise SemilabError("postcondition failed")
    return symbols


def envelope_violations_prefixes(m, x):
    """Every k >= 1 with m(x_{1:k}) > 2^-k, each prefix re-evaluated."""
    return [k for k in range(1, len(x) + 1)
            if m.eval(x.prefix(k)) > Fraction(1, 2 ** k)]


def mass_interval_per_step(env, x, precision_bits):
    """eval(env, x) enclosed as the root mass times one outward-rounded
    factor per symbol, each row probability boxed on its own (the blocked
    product's predecessor, with the root mass that one left out)."""
    from semilab.intervals import from_fraction, iv, precision
    with precision(precision_bits):
        cursor = env.cursor()
        if cursor.mass == 0:
            return iv.mpf(0)
        acc = from_fraction(cursor.mass)
        for a in x.symbols:
            p = cursor.row()[a]
            if p == 0:
                return iv.mpf(0)
            acc *= from_fraction(p)
            cursor.step(a)
        return acc


def mass_interval_blocked(env, x, precision_bits):
    """eval(env, x) enclosed by the per-symbol loop that ``run_ratio``
    replaced: each symbol's ``cursor.row_ratio()`` entry multiplied into the
    root mass one symbol at a time, and a block boxed with mpmath's interval
    division each time its denominator passes ``envcore._BLOCK_BITS`` bits."""
    from semilab import envcore
    from semilab.intervals import iv, precision
    with precision(precision_bits):
        cursor = env.cursor()
        root = cursor.mass
        if root == 0:
            return iv.mpf(0)
        num, den = root.numerator, root.denominator
        acc = iv.mpf(1)
        for a in x.symbols:
            nums, p_den = cursor.row_ratio()
            p_num = nums[a]
            if p_num == 0:
                return iv.mpf(0)
            num *= p_num
            den *= p_den
            if den.bit_length() > envcore._BLOCK_BITS:
                acc *= iv.mpf(num) / iv.mpf(den)
                num = den = 1
            cursor.step(a)
        return acc * (iv.mpf(num) / iv.mpf(den))


def draw_symbol_fractions(stream, row):
    """The dyadic-bisection draw compared in Fractions times 2^k."""
    bounds = [Fraction(0)]
    for p in row:
        bounds.append(bounds[-1] + p)
    num, k = 0, 0
    while True:
        for i in range(len(row)):
            if bounds[i] * 2 ** k <= num and (num + 1) <= bounds[i + 1] * 2 ** k:
                return i
        num = num * 2 + stream.next_bit()
        k += 1


def sample_prefixes(env, length, seed):
    """(symbols, likelihood): the Fraction draw at each prefix's posterior,
    the likelihood a running product of the drawn probabilities."""
    from semilab import BitStream, FiniteString
    stream = BitStream(seed)
    symbols, likelihood = (), Fraction(1)
    for _ in range(length):
        row = env.posterior(FiniteString(env.alphabet, symbols))
        a = draw_symbol_fractions(stream, row)
        likelihood *= row[a]
        symbols = symbols + (a,)
    return symbols, likelihood


def stage_eval(m, t, x):
    """The stage-t partial sum M^t(x) of a mixture: its weighted components
    of the first t class members, each evaluated from the root."""
    if t < 1:
        raise ValueError("stage index starts at 1")
    return sum((w * m.component(i).eval(x)
                for w, i in zip(m._weights, m.membership()) if i <= t), Fraction(0))


def e2i_mubar_prefixes(mu, f, n):
    """(values, E_mu F_n): the stage-n mubar table's nonzero entries, with
    every mu-support string evaluated from the root by ``_mass``."""
    eps_n = f.eps(n)
    values, expectation = {}, Fraction(0)

    def rec(symbols, mass):
        nonlocal expectation
        if len(symbols) == n:
            term = mass * f.value(n, symbols)
            expectation += term
            v = term / eps_n
        else:
            v = Fraction(0)
            for a in mu.alphabet.symbols:
                child = mu._mass(symbols + (a,))
                if child != 0:
                    v += rec(symbols + (a,), child)
        if v != 0:
            values[symbols] = v
        return v

    rec((), mu._mass(()))
    return values, expectation
