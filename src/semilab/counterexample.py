"""Non-convergence counterexample: a mixture whose posterior provably stays
away from the true uniform posterior on a uniformly random sequence.

The ingredients: alpha is the leftmost sequence kept below the uniform
envelope by the mixture M; nu piles mass 2^{-t} on every length-t string
lexicographically below alpha; the contaminated mixture (1-gamma) nu + gamma M,
a raw mixture of the two, still dominates every class member yet its posterior
exceeds 2/3 at each 01-position of alpha.  Everything is exact rational
arithmetic, including the limit values of nu on the alpha-spine, which are
certified via an all-zero tail of alpha.
"""

from __future__ import annotations

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
    walk_string,
)
from .errors import (
    InconclusiveConfigurationError,
    NeedsLargerTMaxError,
    SemilabError,
    UndefinedPosteriorError,
)
from .mixtures import RAW, EnvClass, MixtureEnv, WeightScheme, stage_cursor
from .divergence import verify_dominance
from .randomness import envelope_violations, leftmost_symbols

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

    alpha is ``alpha_prefix`` followed by zeros (the limit's certified
    all-zero tail).  A length-k string strictly below alpha_{1:k} has mass
    2^{-k}, one strictly above has mass 0, and alpha_{1:k} itself carries
    the dyadic tail sum_{j>k, alpha_j=1} 2^{-j}.  Node sums are exact
    equalities, so the normalization by the root mass is a proper measure
    whenever the root mass is positive.  With ``horizon`` t every depth past
    t has mass 0: this is the stage-t semimeasure, mass 2^{-t} on each
    length-t string below the pivot ``alpha_prefix`` (of length t).
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
        if j <= len(self.alpha_prefix):
            return self.alpha_prefix.symbols[j - 1]
        return 0

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


def nu_limit(m: MixtureEnv, t_max: int) -> NuLimitEnv:
    """The limiting counterexample semimeasure of the mixture, certified exact.

    Walks alpha step by step (``leftmost_symbols``); once the walk's mixture
    cursor certifies that every further append-0 step at most halves the
    mass, the envelope inequality forces all remaining alpha symbols to 0,
    making every limit value a finite sum.
    """
    if m.alphabet.size != 2:
        raise SemilabError("construction requires binary alphabet")
    alpha = leftmost_symbols(m.cursor())
    symbols, cursor = [], m.cursor()
    while True:
        bound = cursor.zero_step_factor_bound()
        if bound is not None and bound <= HALF:
            return NuLimitEnv(FiniteString(m.alphabet, tuple(symbols)))
        if len(symbols) == t_max:
            raise NeedsLargerTMaxError(
                f"no all-zero tail certificate found within horizon {t_max}")
        a, cursor = next(alpha)
        symbols.append(a)


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


@dataclass(frozen=True)
class PositionReport:
    n: int
    nu_before: Fraction
    nu_at: Fraction
    mprime_posterior: Fraction
    bound: Fraction
    gap: Fraction
    certified: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "nu_values": {"before": _frac_str(self.nu_before),
                          "at": _frac_str(self.nu_at)},
            "mprime_posterior": _frac_str(self.mprime_posterior),
            "bound": _frac_str(self.bound),
            "gap": _frac_str(self.gap),
            "certified": self.certified,
        }


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
            "positions": [p.as_dict() for p in self.positions],
            "counts": {"positions": len(self.positions), "horizon": self.horizon},
        }


def verify_nonconvergence(mprime: MixtureEnv, alpha: FiniteString,
                          n_max: int) -> NonconvergenceReport:
    """Certify the posterior gap at every 01-position of alpha up to n_max.

    M' = (1-gamma) nu + gamma M is read as ``contaminate`` builds it: a raw
    mixture of nu and the mixture M with weights 1-gamma and gamma.  At
    each n with alpha_n = 0, alpha_{n+1} = 1 the exact chain is checked: nu
    is flat across the step (nu(alpha_{<n}) = nu(alpha_{1:n})), the spine
    value is at least 2^{-n-1}, and the contaminated posterior of the next
    symbol is at least (1-gamma)/(1+3gamma) > 1/2, the uniform posterior.
    One nu cursor and one M' cursor walk alpha up to the last such n.
    """
    if not (isinstance(mprime, MixtureEnv) and mprime.mode == RAW
            and len(mprime.env_class) == 2
            and isinstance(mprime.env_class.env(2), MixtureEnv)
            and sum(mprime.weights.weights) == 1):
        raise SemilabError("expected M' = (1-gamma) nu + gamma M: a raw mixture of nu "
                           "and a mixture M with weights summing to 1")
    (nu_env, m), gamma = mprime.env_class.envs, mprime.weights.weight(2)
    if mprime.alphabet.size != 2:
        raise SemilabError("verification requires binary alphabet")
    if len(alpha) < min(n_max + 1, 2):
        raise ValueError("alpha too short for the requested horizon")
    # envelope invariant of the construction, checked up front
    violations = envelope_violations(m, alpha.prefix(min(n_max, len(alpha))))
    if violations:
        raise SemilabError(f"alpha violates the 2^-k envelope at k={violations[0]}")
    bound = (1 - gamma) / (1 + 3 * gamma)
    positions = []
    flagged = [n for n in range(1, min(n_max, len(alpha) - 1) + 1)
               if alpha.symbols[n - 1] == 0 and alpha.symbols[n] == 1]
    if not flagged:
        raise InconclusiveConfigurationError(
            f"no 01-position in alpha up to horizon {n_max}")
    # the masses of nu and M' at alpha_{<n} and alpha_{1:n}, n flagged
    wanted = {k for n in flagged for k in (n - 1, n)}
    masses = {k: (nu.mass, env.mass) for k, (nu, env)
              in enumerate(walk_string([nu_env, mprime], alpha.prefix(flagged[-1])))
              if k in wanted}
    for n in flagged:
        (nu_before, denom), (nu_at, mass) = masses[n - 1], masses[n]
        if denom == 0:
            raise SemilabError(f"contaminated mixture vanishes at alpha_{{<{n}}}")
        post = mass / denom
        certified = (
            nu_before == nu_at
            and nu_at >= Fraction(1, 2 ** (n + 1))
            and post >= bound
            and post > HALF
        )
        positions.append(PositionReport(
            n=n,
            nu_before=nu_before,
            nu_at=nu_at,
            mprime_posterior=post,
            bound=bound,
            gap=post - HALF,
            certified=certified,
        ))
    return NonconvergenceReport(
        gamma=gamma,
        class_spec=m.env_class.spec(),
        alpha_prefix=str(alpha) if len(alpha) else "",
        positions=tuple(positions),
        horizon=n_max,
    )
