"""Randomness-deficiency traces, the leftmost-random construction, and the
expected-to-individual bound machinery, all relative to an explicit finite
reference mixture.  Nothing here claims absolute algorithmic randomness: the
deficiency is always measured against the configured mixture, whose explicit
weights stand in for the incomputable complexity-based ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from mpmath.libmp import mpi_div, mpi_log, to_str

from . import divergence
from .envcore import (
    EnvCursor,
    Environment,
    FiniteString,
    MEASURE,
    STRICT_SEMIMEASURE,
    TableEnv,
    ZERO,
    _frac_str,
    check_depth,
    walk_states,
    walk_string,
)
from .errors import (
    HypothesisFailedError,
    InvalidK0Error,
    NotDominatedError,
    SemilabError,
    UndefinedPosteriorError,
)
from .intervals import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    DEFAULT_PRECISION,
    Verdict,
    compare_le,
    from_fraction,
    iv,
    precision,
    quotient_bounds,
)
from .mixtures import (
    NORMALIZED_MEASURES_ONLY,
    EnvClass,
    MixtureEnv,
    WeightScheme,
)

DEFAULT_CEILING = Fraction(2 ** 64)


@dataclass
class DeficiencyTrace:
    """Exact prefix ratios M_ref/mu with their running supremum; the ratios
    are kept as unreduced integer pairs and reduced only when read."""

    prefix_lengths: list[int]
    ratio_pairs: list[tuple[int, int]]
    log2_bounds: list[tuple[str, str]]
    sup_ratio: Fraction
    d_bounds: tuple[str, str]
    diverging: bool

    @property
    def ratios(self) -> list[Fraction]:
        return [Fraction(*pair) for pair in self.ratio_pairs]

    def to_csv(self) -> str:
        lines = ["n,ratio_num,ratio_den,log2_lo,log2_hi"]
        for n, r, (lo, hi) in zip(self.prefix_lengths, self.ratios, self.log2_bounds):
            lines.append(f"{n},{r.numerator},{r.denominator},{lo},{hi}")
        return "\n".join(lines) + "\n"


def _mass_ratios(m_ref: Environment, mu: Environment, omega: FiniteString,
                 n: int) -> Iterator[tuple[int, int]]:
    """M_ref(omega_{1:k}) / mu(omega_{1:k}) for k = 0..n, each an integer
    numerator and a positive denominator, not necessarily in lowest terms,
    from the cursors' ``mass_ratio()`` pairs along one ``walk_string``."""
    for k, (mu_cur, m_cur) in enumerate(walk_string([mu, m_ref], omega.prefix(n))):
        mu_num, mu_den = mu_cur.mass_ratio()
        if not mu_num:
            raise UndefinedPosteriorError(f"mu vanishes on prefix of length {k}")
        m_num, m_den = m_cur.mass_ratio()
        num, den = m_num * mu_den, m_den * mu_num
        yield (num, den) if den > 0 else (-num, -den)


def _first_max(pairs: list[tuple[int, int]]) -> int:
    """The index of the first largest of the quotients of ``pairs``, each
    over a positive denominator, compared by cross-multiplying."""
    best, (best_num, best_den) = 0, pairs[0]
    for i, (num, den) in enumerate(pairs):
        if num * best_den > best_num * den:
            best, best_num, best_den = i, num, den
    return best


def deficiency_trace(m_ref: Environment, mu: Environment, omega: FiniteString,
                     n: int, precision_bits: int = DEFAULT_PRECISION) -> DeficiencyTrace:
    """Ratios M_ref(omega_{1:k}) / mu(omega_{1:k}) for k = 0..n, exactly.

    The supremum d is reported as a log2 enclosure of the exact maximal
    ratio; the diverging flag marks ratios beyond ``DEFAULT_CEILING``.
    The ratios come from one walk along omega (``_mass_ratios``) as integer
    pairs: each is boxed as its quotient, and only the supremum is reduced.
    """
    pairs = list(_mass_ratios(m_ref, mu, omega, n))
    prec = precision_bits
    ln2 = mpi_log(quotient_bounds(2, 1, prec), prec)
    logs = []
    for num, den in pairs:
        if num > 0:
            lo, hi = mpi_div(mpi_log(quotient_bounds(num, den, prec), prec), ln2, prec)
            logs.append((to_str(lo, 30), to_str(hi, 30)))
        else:
            logs.append(("-inf", "-inf"))
    best = _first_max(pairs)
    sup_ratio = Fraction(*pairs[best])
    return DeficiencyTrace(
        prefix_lengths=list(range(n + 1)),
        ratio_pairs=pairs,
        log2_bounds=logs,
        sup_ratio=sup_ratio,
        d_bounds=logs[best],
        diverging=sup_ratio > DEFAULT_CEILING,
    )


def leftmost_symbols(cursor: EnvCursor) -> Iterator[tuple[int, EnvCursor]]:
    """Yield (alpha_k, cursor at alpha_{1:k}) for k = 1, 2, ... along the
    leftmost sequence alpha with M(alpha_{1:k}) <= 2^{-k} at every k, M the
    binary semimeasure whose mass the root cursor given reads, one
    symbol per step asked for.

    alpha_k = 0 when M(alpha_{<k} 0) <= 2^{-k} (ties take the 0-branch),
    else alpha_k = 1; each comparison is exact, num 2^k <= den on the
    cursor's ``mass_ratio()``.  One cursor walks alpha: its child by 0 is
    the candidate.  The cursor yielded is the walk's own, valid until the
    next symbol is asked for.
    """
    k = 0
    while True:
        k += 1
        candidate = cursor.child(0)
        num, den = candidate.mass_ratio()
        if num << k <= den:
            cursor, a = candidate, 0
        else:
            cursor.step(1)
            a = 1
            num, den = cursor.mass_ratio()
        if num << k > den:
            raise SemilabError(
                f"postcondition M(alpha_{{1:{k}}}) <= 2^-{k} failed; "
                "input is not a semimeasure")
        yield a, cursor


def leftmost_random(m: Environment, n: int) -> FiniteString:
    """The first n symbols of the leftmost sequence alpha with
    M(alpha_{1:k}) <= 2^{-k} at every k (see ``leftmost_symbols``)."""
    if m.alphabet.size != 2:
        raise SemilabError("leftmost-random construction requires binary alphabet")
    check_depth(m, n)
    symbols = islice(leftmost_symbols(m.cursor()), n)
    return FiniteString(m.alphabet, tuple(a for a, _ in symbols))


def _exact_verdict(lhs: Fraction, rhs: Fraction) -> Verdict:
    outcome = CERTIFIED_HOLDS if lhs <= rhs else CERTIFIED_FAILS
    return Verdict(outcome, _frac_str(lhs), _frac_str(lhs),
                   _frac_str(rhs), _frac_str(rhs), 0)


class EnumerableFunctional:
    """Stagewise nonnegative functional F_n(omega_{1:n}) with tolerances
    eps_n decreasing to a limit eps."""

    eps_limit: Fraction

    def value(self, n: int, symbols: tuple[int, ...]) -> Fraction:
        raise NotImplementedError

    def eps(self, n: int) -> Fraction:
        raise NotImplementedError


class ConstantFunctional(EnumerableFunctional):
    """F_n identically equal to eps_n."""

    def __init__(self, eps_limit: Fraction):
        self.eps_limit = Fraction(eps_limit)

    def eps(self, n: int) -> Fraction:
        return self.eps_limit

    def value(self, n: int, symbols: tuple[int, ...]) -> Fraction:
        return self.eps_limit


class IndicatorFunctional(EnumerableFunctional):
    """F_n(x) = 2^n eps_n [x = 0^n] over a binary base measure."""

    def __init__(self, eps_limit: Fraction):
        self.eps_limit = Fraction(eps_limit)

    def eps(self, n: int) -> Fraction:
        if n == 0:
            return 2 * self.eps_limit
        return self.eps_limit * (1 + Fraction(1, n))

    def value(self, n: int, symbols: tuple[int, ...]) -> Fraction:
        if any(s != 0 for s in symbols):
            return ZERO
        return Fraction(2 ** n) * self.eps(n)


class MuBarEnv(TableEnv):
    """The stage-n semimeasure produced by the expected-to-individual
    construction: an explicit prefix table to depth n, zero beyond."""

    def __init__(self, values: dict[tuple[int, ...], Fraction], depth: int,
                 alphabet, stage: int):
        super().__init__(depth, values, alphabet, STRICT_SEMIMEASURE)
        self.max_depth = None  # unlike a table's, its read is 0 past its depth
        self.stage = stage

    def spec(self) -> dict:
        return {
            "kind": "derived",
            "derived": "mubar",
            "stage": self.stage,
            "depth": self.depth,
            "alphabet_size": self.alphabet.size,
            "values": super().spec()["values"],
        }


def e2i_build_mubar(mu: Environment, f: EnumerableFunctional, n: int) -> MuBarEnv:
    """mubar_n(x_{1:k}) = eps_n^{-1} sum over extensions of mu * F_n.

    The hypothesis E_mu[F_n] <= eps_n is checked exactly by enumeration
    before the table is built.  Each mu-support string is reached by a child
    of its parent's cursor, not evaluated from the root.
    """
    if mu.declared_class != MEASURE:
        raise SemilabError("the construction requires a measure")
    eps_n = f.eps(n)
    if eps_n <= 0:
        raise ValueError("eps_n must be positive")
    values: dict[tuple[int, ...], Fraction] = {}
    expectation = ZERO
    # a depth-first walk without recursion: one frame per string on the
    # current path, [symbols, cursor, next symbol to expand, value so far]
    stack = [[(), mu.cursor(), 0, ZERO]]
    while stack:
        frame = stack[-1]
        symbols, cursor, a, v = frame
        if len(symbols) == n:
            term = cursor.mass * f.value(n, symbols)
            expectation += term
            v = term / eps_n
        elif a < mu.alphabet.size:
            frame[2] = a + 1
            child = cursor.child(a)
            if child.mass_ratio()[0]:
                stack.append([symbols + (a,), child, 0, ZERO])
            continue
        stack.pop()
        if v != 0:
            values[symbols] = v
            if stack:
                stack[-1][3] += v
    if expectation > eps_n:
        raise HypothesisFailedError(
            f"E_mu[F_n] = {expectation} exceeds eps_n = {eps_n}")
    return MuBarEnv(values, n, mu.alphabet, n)


@dataclass
class E2IBoundReport:
    ratio_verdict: Verdict
    deficiency_verdict: Verdict
    f_value: Fraction
    eps_n: Fraction
    weight: Fraction
    ratio: Fraction
    sup_ratio: Fraction


def e2i_individual_bound(m_ref_ext: MixtureEnv, f: EnumerableFunctional,
                         mu: Environment, omega: FiniteString,
                         n: int) -> E2IBoundReport:
    """Certify F_n(omega) <= eps_n w^{-1} M_ref(omega_{1:n}) / mu(omega_{1:n}).

    w is the explicit weight of the registered stage-n table environment in
    the extended reference mixture (the stand-in for its complexity weight);
    the supremum-ratio form of the bound is certified alongside.
    """
    index = None
    for i in range(1, len(m_ref_ext.env_class) + 1):
        env = m_ref_ext.env_class.env(i)
        if isinstance(env, MuBarEnv) and env.stage == n:
            index = i
            break
    if index is None or index not in m_ref_ext.membership():
        raise NotDominatedError("stage-n table environment not registered in the mixture")
    w = m_ref_ext.weights.weight(index)
    pairs = list(_mass_ratios(m_ref_ext, mu, omega, n))
    f_val = f.value(n, omega.prefix(n).symbols)
    eps_n = f.eps(n)
    ratio = Fraction(*pairs[-1])
    sup_ratio = Fraction(*pairs[_first_max(pairs)])
    return E2IBoundReport(
        ratio_verdict=_exact_verdict(f_val, eps_n / w * ratio),
        deficiency_verdict=_exact_verdict(f_val, eps_n / w * sup_ratio),
        f_value=f_val,
        eps_n=eps_n,
        weight=w,
        ratio=ratio,
        sup_ratio=sup_ratio,
    )


def prop8_expected_bound(env_class: EnvClass, weights: WeightScheme, k0: int,
                         n: int, precision_bits: int = DEFAULT_PRECISION) -> Verdict:
    """Certify E_mu[exp(half sum_{t<=n} h_t(delta_hat_k0, mu))] <= eps_k0^{-1/2}."""
    if not env_class.is_measure(k0):
        raise InvalidK0Error(f"index {k0} is not a validated measure")
    mu = env_class.env(k0)
    delta_hat = MixtureEnv(env_class, weights, NORMALIZED_MEASURES_ONLY, k=k0)
    eps_k0 = weights.weight(k0)
    with precision(precision_bits):
        lhs = divergence.expected_exp_half_sum(delta_hat, mu, n,
                                               precision_bits=precision_bits)
        rhs = iv.sqrt(1 / from_fraction(eps_k0))
        return compare_le(lhs, rhs, precision_bits)


def delta_hat_ratio_check(env_class: EnvClass, weights: WeightScheme, k: int,
                          depth: int) -> Verdict:
    """Exact check of delta_hat_{k-1}(x)/delta_hat_k(x) <= 1 + eps_k/eps_O
    on every string to the given depth, O the minimal measure index."""
    if k < 2:
        raise ValueError("k must be >= 2")
    members_prev = env_class.measure_indices(k - 1)
    if not members_prev:
        raise SemilabError("J_{k-1} is empty")
    o = members_prev[0]
    bound = 1 + weights.weight(k) / weights.weight(o)
    prev = MixtureEnv(env_class, weights, NORMALIZED_MEASURES_ONLY, k=k - 1)
    curr = MixtureEnv(env_class, weights, NORMALIZED_MEASURES_ONLY, k=k)
    worst = 0, 1  # the largest p/c, compared on the unreduced mass pairs
    for _, (p, c), _, _, _ in walk_states([prev, curr], depth):
        (p_num, p_den), (c_num, c_den) = p.mass_ratio(), c.mass_ratio()
        if c_num and p_num * c_den * worst[1] > worst[0] * p_den * c_num:
            worst = p_num * c_den, p_den * c_num
    return _exact_verdict(Fraction(*worst), bound)
