"""Non-convergence counterexample: a mixture whose posterior provably stays
away from the true uniform posterior on a uniformly random sequence.

The ingredients: alpha is the leftmost sequence kept below the uniform
envelope by the mixture M; nu piles mass 2^{-t} on every length-t string
lexicographically below alpha; the contaminated mixture (1-gamma) nu + gamma M
still dominates every class member yet its posterior exceeds 2/3 at each
01-position of alpha.  Everything is exact rational arithmetic, including the
limit values of nu on the alpha-spine, which are certified via an all-zero
tail of alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .envcore import (
    Environment,
    FiniteString,
    HALF,
    STRICT_SEMIMEASURE,
    MEASURE,
    ZERO,
    _frac_str,
    walk_states,
)
from .errors import (
    InconclusiveConfigurationError,
    NeedsLargerTMaxError,
    SemilabError,
)
from .mixtures import PARTIAL_SUM, MixtureEnv, StageApproximation
from .divergence import verify_dominance
from .randomness import envelope_violations, leftmost_symbols

GAMMA_UPPER = Fraction(1, 5)
DOMINANCE_DEPTH = 4


def alpha_stage(stages: StageApproximation, t: int) -> FiniteString:
    """Length-t leftmost string kept below the 2^{-k} envelope by the stage-t
    evaluation: symbol k is 0 when stage value of the 0-extension is at most
    2^{-k}, else 1.  Nondecreasing in t because stages increase pointwise."""
    if stages.target.alphabet.size != 2:
        raise SemilabError("construction requires binary alphabet")
    alphabet = stages.target.alphabet
    symbols: tuple[int, ...] = ()
    stage = max(t, 1)
    for k in range(1, t + 1):
        candidate = FiniteString(alphabet, symbols + (0,))
        if stages.stage_eval(stage, candidate) <= Fraction(1, 2 ** k):
            symbols = symbols + (0,)
        else:
            symbols = symbols + (1,)
    return FiniteString(alphabet, symbols)


class NuStageEnv(Environment):
    """The stage-t counterexample semimeasure in closed form.

    At depth t the mass is 2^{-t} on strings lexicographically below the
    stage pivot and 0 at or above it; internal nodes are exact children sums,
    which reduce to 2^{-k} strictly below the pivot prefix, 0 strictly above,
    and a dyadic remainder on the pivot prefix itself.  Depths beyond t are 0.
    """

    def __init__(self, pivot: FiniteString, t: int):
        if len(pivot) != t:
            raise ValueError("pivot length must equal the stage index")
        self.pivot = pivot
        self.t = t
        self.alphabet = pivot.alphabet
        self.declared_class = STRICT_SEMIMEASURE

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        k = len(symbols)
        if k > self.t:
            return ZERO
        head = self.pivot.symbols[:k]
        if symbols < head:
            return Fraction(1, 2 ** k)
        if symbols > head:
            return ZERO
        # on the pivot prefix: count of length-t extensions below the pivot
        count = sum(
            2 ** (self.t - j)
            for j in range(k + 1, self.t + 1)
            if self.pivot.symbols[j - 1] == 1
        )
        return Fraction(count, 2 ** self.t)

    def spec(self) -> dict:
        return {"kind": "derived", "derived": "nu-stage", "t": self.t,
                "pivot": str(self.pivot) if len(self.pivot) else ""}


@dataclass(frozen=True)
class NuStage:
    """Stage-t table: the pivot string and its closed-form environment."""

    t: int
    alpha: FiniteString
    env: NuStageEnv

    def value(self, x: FiniteString) -> Fraction:
        return self.env.eval(x)

    def table(self) -> dict[str, Fraction]:
        """All nonzero values to depth t, keyed by the string's digits.  The
        generic cursor never merges, so each nonzero string comes once."""
        return {"".join(map(str, symbols)): cursor.mass for symbols, (cursor,), _, _, _
                in walk_states([self.env], self.t, support=0)}


def nu_stage(alpha_t: FiniteString, t: int) -> NuStage:
    if len(alpha_t) != t:
        raise ValueError("pivot must have length t")
    return NuStage(t, alpha_t, NuStageEnv(alpha_t, t))


class NuLimitEnv(Environment):
    """Exact limit of the stage semimeasures, valid at all depths.

    Requires a certified all-zero tail of alpha past the stored prefix: the
    limit value on the alpha-spine is then the finite dyadic sum of the
    remaining 1-digits, and off-spine values are the usual 2^{-k} / 0 split.
    Node sums are exact equalities, so the normalization by the root mass is
    a proper measure whenever the root mass is positive.
    """

    def __init__(self, alpha_prefix: FiniteString, certified_tail_zero_from: int):
        self.alpha_prefix = alpha_prefix
        self.tail_start = certified_tail_zero_from
        self.alphabet = alpha_prefix.alphabet
        self.declared_class = STRICT_SEMIMEASURE

    def alpha_symbol(self, j: int) -> int:
        """j-th symbol (1-based) of the full alpha, zero past the prefix."""
        if j <= len(self.alpha_prefix):
            return self.alpha_prefix.symbols[j - 1]
        return 0

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        k = len(symbols)
        head = tuple(self.alpha_symbol(j) for j in range(1, k + 1))
        if symbols < head:
            return Fraction(1, 2 ** k)
        if symbols > head:
            return ZERO
        total = ZERO
        for j in range(k + 1, len(self.alpha_prefix) + 1):
            if self.alpha_prefix.symbols[j - 1] == 1:
                total += Fraction(1, 2 ** j)
        return total

    def spec(self) -> dict:
        return {"kind": "derived", "derived": "nu-limit",
                "alpha_prefix": str(self.alpha_prefix) if len(self.alpha_prefix) else "",
                "tail_zero_from": self.tail_start}


def nu_limit(stages: StageApproximation, t_max: int) -> NuLimitEnv:
    """The limiting counterexample semimeasure, certified exact.

    Walks alpha step by step (``leftmost_symbols``); once the walk's mixture
    cursor certifies that every further append-0 step at most halves the
    mass, the envelope inequality forces all remaining alpha symbols to 0,
    making every limit value a finite sum.
    """
    m = stages.target
    if m.alphabet.size != 2:
        raise SemilabError("construction requires binary alphabet")
    if stages.rule == PARTIAL_SUM and t_max < stages.final_stage:
        raise NeedsLargerTMaxError(
            f"partial-sum stages only stabilize from stage {stages.final_stage}")
    alpha = leftmost_symbols(m)
    symbols, cursor = [], m.cursor()
    while True:
        bound = cursor.zero_step_factor_bound()
        if bound is not None and bound <= HALF:
            return NuLimitEnv(FiniteString(m.alphabet, tuple(symbols)), len(symbols))
        if len(symbols) == t_max:
            raise NeedsLargerTMaxError(
                f"no all-zero tail certificate found within horizon {t_max}")
        a, cursor = next(alpha)
        symbols.append(a)


class MPrimeEnv(Environment):
    """(1-gamma) nu + gamma M, exactly."""

    def __init__(self, nu: Environment, m: Environment, gamma: Fraction):
        self.nu = nu
        self.m = m
        self.gamma = gamma
        self.alphabet = nu.alphabet
        self.declared_class = (
            MEASURE
            if nu.declared_class == MEASURE and m.declared_class == MEASURE
            else STRICT_SEMIMEASURE
        )
        self.max_depth = None
        for d in (nu.max_depth, m.max_depth):
            if d is not None:
                self.max_depth = d if self.max_depth is None else min(self.max_depth, d)

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        return ((1 - self.gamma) * self.nu._mass(symbols)
                + self.gamma * self.m._mass(symbols))

    def spec(self) -> dict:
        return {"kind": "derived", "derived": "contaminated",
                "gamma": _frac_str(self.gamma),
                "nu": self.nu.spec(), "m": self.m.spec()}


@dataclass(frozen=True)
class ContaminatedMixture:
    gamma: Fraction
    nu: Environment
    m: MixtureEnv
    env: MPrimeEnv

    @property
    def posterior_bound(self) -> Fraction:
        return (1 - self.gamma) / (1 + 3 * self.gamma)


def build_mprime(nu: Environment, m: MixtureEnv, gamma: Fraction) -> ContaminatedMixture:
    """Contaminate the mixture with the counterexample semimeasure.

    gamma must lie strictly inside (0, 1/5); the result is checked (to
    ``DOMINANCE_DEPTH``, exactly) to dominate every class member with
    constant gamma * weight_i, so it inherits the mixture's universality role.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < GAMMA_UPPER:
        raise ValueError(f"gamma must lie strictly in (0, {GAMMA_UPPER})")
    if nu.alphabet.size != m.alphabet.size:
        raise SemilabError("component alphabets differ")
    env = MPrimeEnv(nu, m, gamma)
    depth = DOMINANCE_DEPTH
    if env.max_depth is not None:
        depth = min(depth, env.max_depth)
    for i in m.membership():
        w = gamma * m.weights.weight(i)
        if not verify_dominance(env, m.component(i), w, depth):
            raise SemilabError(
                f"dominance with constant gamma*eps_{i} fails to depth {depth}")
    return ContaminatedMixture(gamma, nu, m, env)


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


def verify_nonconvergence(cm: ContaminatedMixture, mu: Environment,
                          alpha: FiniteString, n_max: int) -> NonconvergenceReport:
    """Certify the posterior gap at every 01-position of alpha up to n_max.

    At each n with alpha_n = 0, alpha_{n+1} = 1 the exact chain is checked:
    nu is flat across the step (nu(alpha_{<n}) = nu(alpha_{1:n})), the spine
    value is at least 2^{-n-1}, and the contaminated posterior of the next
    symbol is at least (1-gamma)/(1+3gamma) > 1/2, the uniform posterior.
    """
    if mu.alphabet.size != 2 or cm.env.alphabet.size != 2:
        raise SemilabError("verification requires binary alphabet")
    if len(alpha) < min(n_max + 1, 2):
        raise ValueError("alpha too short for the requested horizon")
    # envelope invariant of the construction, checked up front
    violations = envelope_violations(cm.m, alpha.prefix(min(n_max, len(alpha))))
    if violations:
        raise SemilabError(f"alpha violates the 2^-k envelope at k={violations[0]}")
    bound = cm.posterior_bound
    positions = []
    for n in range(1, n_max + 1):
        if n + 1 > len(alpha):
            break
        if alpha.symbols[n - 1] != 0 or alpha.symbols[n] != 1:
            continue
        before = alpha.prefix(n - 1)
        at = alpha.prefix(n)
        nu_before = cm.nu.eval(before)
        nu_at = cm.nu.eval(at)
        denom = cm.env.eval(before)
        if denom == 0:
            raise SemilabError(f"contaminated mixture vanishes at alpha_{{<{n}}}")
        post = cm.env.eval(at) / denom
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
    if not positions:
        raise InconclusiveConfigurationError(
            f"no 01-position in alpha up to horizon {n_max}")
    return NonconvergenceReport(
        gamma=cm.gamma,
        class_spec=cm.m.env_class.spec(),
        alpha_prefix=str(alpha) if len(alpha) else "",
        positions=tuple(positions),
        horizon=n_max,
    )
