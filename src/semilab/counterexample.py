"""Non-convergence counterexample: a mixture whose posterior provably stays
away from the true uniform posterior on a uniformly random sequence.

alpha is the leftmost sequence kept below the uniform envelope by the
mixture M; nu piles mass 2^{-t} on every length-t string lexicographically
below alpha; the contaminated mixture (1-gamma) nu + gamma M, a raw mixture
of the two, still dominates every class member yet its posterior exceeds
2/3 at each 01-position of alpha.  A run to horizon N takes nu_N, the nu of
alpha_{1:N} followed by zeros, in exact rational arithmetic; the posteriors
it reports are lower ends of the limit's (``verify_nonconvergence``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from .envcore import (
    EnvCursor,
    Environment,
    FiniteString,
    HALF,
    STRICT_SEMIMEASURE,
    ZERO,
    _frac_str,
)
from .errors import (
    InconclusiveConfigurationError,
    SemilabError,
    UndefinedPosteriorError,
)
from .mixtures import RAW, EnvClass, MixtureEnv, WeightScheme, stage_cursor
from .divergence import verify_dominance
from .randomness import leftmost_random, leftmost_symbols

GAMMA_UPPER = Fraction(1, 5)
DOMINANCE_DEPTH = 4


def alpha_stage(m: MixtureEnv, t: int) -> FiniteString:
    """The stage-t pivot: the length-t leftmost string kept below the 2^{-k}
    envelope by the stage-t partial sum M^t of the mixture, symbol k 0 when
    M^t of the 0-extension is at most 2^{-k}, else 1.  Nondecreasing in t
    because the partial sums increase pointwise.  One stage cursor walks the
    string (``stage_cursor``, ``leftmost_symbols``)."""
    if m.alphabet.size != 2:
        raise SemilabError("construction requires binary alphabet")
    symbols = islice(leftmost_symbols(stage_cursor(m, max(t, 1))), t)
    return FiniteString(m.alphabet, tuple(a for a, _ in symbols))


class NuLimitEnv(Environment):
    """The counterexample semimeasure in closed form, exact at every depth.

    alpha is ``alpha_prefix`` followed by zeros: the limit nu when the
    leftmost alpha is 0 past the prefix, else the limit with the tail of
    alpha past the prefix dropped (``nu_limit``).  A length-k string
    strictly below alpha_{1:k} has mass 2^{-k}, one strictly above has mass
    0, and alpha_{1:k} itself carries the dyadic tail
    sum_{j>k, alpha_j=1} 2^{-j}.  Node sums are exact equalities, so the
    normalization by the root mass is a proper measure whenever the root
    mass is positive.  With ``horizon`` t every depth past t has mass 0: this
    is the stage-t semimeasure, mass 2^{-t} on each length-t string below
    the pivot ``alpha_prefix`` (of length t).
    """

    def __init__(self, alpha_prefix: FiniteString, horizon: Optional[int] = None):
        if horizon is not None and len(alpha_prefix) != horizon:
            raise ValueError("pivot length must equal the stage index")
        self.alpha_prefix = alpha_prefix
        self.horizon = horizon
        self.alphabet = alpha_prefix.alphabet
        self.declared_class = STRICT_SEMIMEASURE

    def alpha_symbol(self, j: int) -> int:
        """j-th symbol (1-based) of the full alpha, zero past the prefix."""
        return self.alpha_prefix.symbols[j - 1] if j <= len(self.alpha_prefix) else 0

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        k = len(symbols)
        if self.horizon is not None and k > self.horizon:
            return ZERO
        prefix = self.alpha_prefix.symbols
        head = (prefix + (0,) * k)[:k]
        if symbols != head:
            return Fraction(1, 2 ** k) if symbols < head else ZERO
        return sum((Fraction(1, 2 ** j) for j in range(k + 1, len(prefix) + 1)
                    if prefix[j - 1]), ZERO)

    def cursor(self) -> EnvCursor:
        return _SpineCursor(self)

    def spec(self) -> dict:
        prefix = str(self.alpha_prefix) if len(self.alpha_prefix) else ""
        if self.horizon is not None:
            return {"kind": "derived", "derived": "nu-stage", "t": self.horizon,
                    "pivot": prefix}
        return {"kind": "derived", "derived": "nu-limit", "alpha_prefix": prefix,
                "tail_zero_from": len(self.alpha_prefix)}


class _SpineCursor(EnvCursor):
    """Position k and where the string stands against the spine alpha_{1:k}.

    Every string below the spine at one depth has mass 2^{-k} and the same
    future, so all of them share the key "below"; the spine itself, whose
    mass is the running dyadic tail, has the key "spine".  A string above
    the spine, past the horizon, or at mass 0 is dead: key None.
    """

    def __init__(self, env: NuLimitEnv):
        self._env = env
        self._k = 0
        # every spine mass is a multiple of 2^-len(alpha_prefix)
        den = 2 ** len(env.alpha_prefix)
        self._ratio = int(env._mass(()) * den), den
        self._key = "spine" if self._ratio[0] else None

    def row_ratio(self) -> tuple[tuple[int, ...], int]:
        if self._key is None:
            raise UndefinedPosteriorError("zero mass at cursor position")
        if self._k == self._env.horizon:
            return (0, 0), 1
        if self._key == "below":
            return (1, 1), 2
        if self._env.alpha_symbol(self._k + 1) == 0:
            return (1, 0), 1
        # the child below the spine has mass 2^-(k+1), the spine num / den
        num, den = self._ratio
        spine = 2 ** (self._k + 1) * num
        return (den, spine - den), spine

    def step(self, a: int) -> None:
        k = self._k = self._k + 1
        if self._key is None:
            return
        spine = self._env.alpha_symbol(k)
        if k - 1 == self._env.horizon or (self._key == "spine" and a > spine):
            self._key, self._ratio = None, (0, 1)  # past the horizon, or above
        elif self._key == "below" or a < spine:
            self._key, self._ratio = "below", (1, 2 ** k)
        elif spine:  # along a 1 of alpha: the string below it leaves the tail
            num, den = self._ratio
            self._ratio = num - (den >> k), den
            if not self._ratio[0]:
                self._key = None

    def state_key(self):
        return self._key


def nu_limit(m: MixtureEnv, n: int) -> NuLimitEnv:
    """nu_n: the counterexample semimeasure of the first n symbols of M's
    leftmost alpha (``leftmost_random``), which is the limit nu with the tail
    of alpha past n dropped, and the limit itself when alpha is 0 past n."""
    return NuLimitEnv(leftmost_random(m, n))


def contaminate(nu: Environment, m: MixtureEnv, gamma: Fraction) -> MixtureEnv:
    """M' = (1-gamma) nu + gamma M, exactly: the raw mixture of nu and M with
    weights 1-gamma and gamma, so gamma must lie in (0, 1)."""
    return MixtureEnv(EnvClass([nu, m]), WeightScheme((1 - gamma, gamma)), RAW)


def build_mprime(nu: Environment, m: MixtureEnv, gamma: Fraction) -> MixtureEnv:
    """M' = (1-gamma) nu + gamma M: contaminate the mixture with the
    counterexample semimeasure.

    gamma must lie strictly inside (0, 1/5); the result is checked (to
    ``DOMINANCE_DEPTH``, exactly) to dominate every class member with
    constant gamma * weight_i, so it inherits the mixture's universality role.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < GAMMA_UPPER:
        raise ValueError(f"gamma must lie strictly in (0, {GAMMA_UPPER})")
    env = contaminate(nu, m, gamma)
    depth = DOMINANCE_DEPTH
    if env.max_depth is not None:
        depth = min(depth, env.max_depth)
    for i in m.membership():
        w = gamma * m.weights.weight(i)
        if not verify_dominance(env, m.component(i), w, depth):
            raise SemilabError(
                f"dominance with constant gamma*eps_{i} fails to depth {depth}")
    return env


def _exact_str(q: Fraction, field: str) -> str:
    """q as "num/den", refused by the report field's name past Python's
    int-to-text limit (``sys.get_int_max_str_digits``), which stays as it is."""
    try:
        return _frac_str(q)
    except ValueError:
        raise SemilabError(f"{field}: exact value past Python's limit of "
                           f"{sys.get_int_max_str_digits()} digits per integer") from None


@dataclass(frozen=True)
class PositionReport:
    n: int
    nu_before: Fraction
    nu_at: Fraction
    mprime_posterior: Fraction
    bound: Fraction
    gap: Fraction
    certified: bool

    def as_dict(self, path: str) -> dict:
        before, at, post, bound, gap = (_exact_str(q, f"{path}.{field}") for q, field in (
            (self.nu_before, "nu_values.before"), (self.nu_at, "nu_values.at"),
            (self.mprime_posterior, "mprime_posterior"), (self.bound, "bound"), (self.gap, "gap")))
        return {"n": self.n, "nu_values": {"before": before, "at": at},
                "mprime_posterior": post, "bound": bound, "gap": gap,
                "certified": self.certified}


@dataclass(frozen=True)
class NonconvergenceReport:
    gamma: Fraction
    class_spec: list
    alpha_prefix: str
    positions: tuple[PositionReport, ...]
    horizon: int

    @property
    def all_certified(self) -> bool:
        return all(p.certified for p in self.positions)

    def as_dict(self) -> dict:
        return {
            "gamma": _frac_str(self.gamma),
            "class": self.class_spec,
            "alpha_prefix": self.alpha_prefix,
            "positions": [p.as_dict(f"$.positions[{i}]")
                          for i, p in enumerate(self.positions)],
            "counts": {"positions": len(self.positions), "horizon": self.horizon},
        }


def verify_nonconvergence(m: MixtureEnv, gamma: Fraction,
                          n_max: int) -> NonconvergenceReport:
    """Certify the posterior gap of M' = (1-gamma) nu_N + gamma M at every
    01-position n < N = n_max of M's leftmost alpha, read off one walk
    (``leftmost_symbols``, whose postcondition is the 2^{-k} envelope).

    nu_N = ``NuLimitEnv(alpha_{1:N})`` in closed form: its spine value at
    alpha_{1:k} is the sum of 2^{-j} over the 1s alpha_j, k < j <= N.  M' is
    formed from the walk's own ``mass_ratio()`` pairs; it dominates each
    member, M' >= gamma w_i nu_i, as an identity of raw mixtures with
    nonnegative masses, so no dominance walk runs.  At each n the chain
    is checked exactly: nu is flat across the step, its value is at least
    2^{-n-1}, and the posterior of alpha_n is at least (1-gamma)/(1+3gamma)
    > 1/2.  The limit nu adds one unknown t in [0, 2^{-N}] to both spine
    values; the first two checks hold for every t, and the posterior never
    decreases in t as M(alpha_{1:n}) <= M(alpha_{<n}), so the reported
    values, at t = 0, are lower ends for the limit.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < GAMMA_UPPER:
        raise ValueError(f"gamma must lie strictly in (0, {GAMMA_UPPER})")
    if m.alphabet.size != 2:
        raise SemilabError("construction requires binary alphabet")
    # (n, M(alpha_{<n}), M(alpha_{1:n})) at each 01-position n
    cursor = m.cursor()
    alpha, last, flagged = [], (None, cursor.mass_ratio()), []
    for a, cursor in islice(leftmost_symbols(cursor), n_max):
        if a and alpha and not alpha[-1]:
            flagged.append((len(alpha), *last))
        alpha.append(a)
        last = last[1], cursor.mass_ratio()
    if not flagged:
        raise InconclusiveConfigurationError(
            f"no 01-position in alpha up to horizon {n_max}")
    # 2^N nu_N(alpha_{1:k}) is alpha_{k+1..N} read as a binary number
    digits, scale = int("".join(map(str, alpha)), 2), 1 << n_max
    g, h = gamma.as_integer_ratio()
    bound = (1 - gamma) / (1 + 3 * gamma)
    positions = []
    for n, (before_num, before_den), (at_num, at_den) in flagged:
        nu_before, nu_at = (digits & ((1 << (n_max - k)) - 1) for k in (n - 1, n))
        # h M' = (h - g) nu + g M, and h cancels from the posterior
        post = Fraction(((h - g) * nu_at * at_den + g * at_num * scale) * before_den,
                        ((h - g) * nu_before * before_den + g * before_num * scale) * at_den)
        positions.append(PositionReport(
            n, Fraction(nu_before, scale), Fraction(nu_at, scale), post, bound, post - HALF,
            nu_before == nu_at and nu_at << (n + 1) >= scale and post >= bound and post > HALF))
    return NonconvergenceReport(gamma, m.env_class.spec(), "".join(map(str, alpha)),
                                tuple(positions), n_max)
