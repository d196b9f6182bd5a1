"""Weighted mixtures over finite ordered environment classes.

Covers the raw reference mixture, measures-only mixtures (delta_k and their
full-class limit), the quasimeasure mixture, normalization, stagewise
approximations, and the quasimeasure transform itself.  All evaluation is
exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .envcore import (
    MEASURE,
    STRICT_SEMIMEASURE,
    Environment,
    EnvCursor,
    FiniteString,
    ZERO,
    ONE,
    _frac_str,
    check_depth,
    validate,
    walk_states,
)
from .errors import (
    ApproximableNotMeasureError,
    NormalizationError,
    NotDominatedError,
    SemilabError,
    UndefinedPosteriorError,
)

RAW = "raw"
QUASI = "quasi"
MEASURES_ONLY = "measures-only"
NORMALIZED_MEASURES_ONLY = "normalized-measures-only"

CERTIFICATION_DEPTH = 10
DEFAULT_QUASI_DEPTH_CAP = 24


@dataclass(frozen=True)
class WeightScheme:
    """Positive weights indexed from 1, summing to at most 1."""

    weights: tuple[Fraction, ...]
    mode: str = "explicit"

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if sum(self.weights) > 1:
            raise ValueError("weights must sum to at most 1")

    def weight(self, i: int) -> Fraction:
        if not 1 <= i <= len(self.weights):
            raise IndexError(f"weight index {i} out of range")
        return self.weights[i - 1]

    def __len__(self) -> int:
        return len(self.weights)


def default_weights(count: int) -> WeightScheme:
    """The canonical rapidly decreasing scheme eps_i = i^-6 * 2^-i."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return WeightScheme(
        tuple(Fraction(1, i ** 6 * 2 ** i) for i in range(1, count + 1)),
        mode="paper-default",
    )


class EnvClass:
    """Ordered, 1-indexed list of environments with certified class tags.

    Measure membership is established by exact validation to
    ``CERTIFICATION_DEPTH``, never taken from the declared tag alone, and
    only for the members asked about.
    """

    def __init__(self, envs: Sequence[Environment]):
        if not envs:
            raise ValueError("class must be nonempty")
        sizes = {e.alphabet.size for e in envs}
        if len(sizes) != 1:
            raise SemilabError("all class members must share one alphabet")
        self.envs = list(envs)
        self.alphabet = envs[0].alphabet
        self._measure_flags: list[Optional[bool]] = [None] * len(envs)

    def __len__(self) -> int:
        return len(self.envs)

    def env(self, i: int) -> Environment:
        if not 1 <= i <= len(self.envs):
            raise SemilabError(f"class index {i} outside 1..{len(self.envs)}")
        return self.envs[i - 1]

    def is_measure(self, i: int) -> bool:
        env = self.env(i)
        flag = self._measure_flags[i - 1]
        if flag is None:
            # a member not declared a measure is never one; only a declared
            # measure needs the exact check
            flag = env.declared_class == MEASURE
            if flag:
                report = validate(env, CERTIFICATION_DEPTH)
                flag = report.is_semimeasure and report.is_measure_to_depth
            self._measure_flags[i - 1] = flag
        return flag

    def measure_indices(self, k: Optional[int] = None) -> tuple[int, ...]:
        k = len(self.envs) if k is None else min(k, len(self.envs))
        return tuple(i for i in range(1, k + 1) if self.is_measure(i))

    def spec(self) -> list:
        return [e.spec() for e in self.envs]


class QuasimeasureEnv(Environment):
    """Truncation of a semimeasure: depth-n values survive only while the
    total depth-n mass exceeds 1 - 1/n (strictly); zero afterwards."""

    def __init__(self, base: Environment, depth_cap: int = DEFAULT_QUASI_DEPTH_CAP):
        self.base = base
        self.depth_cap = depth_cap
        self.alphabet = base.alphabet
        self.declared_class = base.declared_class
        self.max_depth = depth_cap if base.max_depth is None else min(depth_cap, base.max_depth)
        # per level n: (total depth-n mass of the base, alive at n)
        self._totals: list[tuple[Fraction, bool]] = []
        self._walk = None

    def total_mass(self, n: int) -> Fraction:
        """Total depth-n mass of the base, n up to ``max_depth``.

        One walk of the base serves every call: it advances only as far as
        the deepest level asked for, and records each level's total, and
        whether the level is alive, as the level completes (after its
        states have counted all |A|^n strings).
        """
        check_depth(self, n)
        if self._walk is None:
            self._walk = walk_states([self.base], self.max_depth)
        while len(self._totals) <= n:
            level = len(self._totals)
            strings = self.alphabet.size ** level
            total = ZERO
            while strings:
                _, (cursor,), count, _, _ = next(self._walk)
                total += count * cursor.mass
                strings -= count
            self._totals.append((total, level == 0 or total > 1 - Fraction(1, level)))
        return self._totals[n][0]

    def alive_at(self, n: int) -> bool:
        """Whether depth-n values survive the quasimeasure condition.

        n = 0 is defined alive (the threshold 1 - 1/n is undefined
        there), preserving nu~ <= nu and the measure fixed point."""
        if n == 0:
            return True
        if n >= len(self._totals):
            self.total_mass(n)
        return self._totals[n][1]

    def cutoff_depth(self) -> Optional[int]:
        """First depth at which values are zeroed, up to the cap; the base
        is walked only down to that depth."""
        for n in range(1, self.max_depth + 1):
            if not self.alive_at(n):
                return n
        return None

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        n = len(symbols)
        check_depth(self, n)
        if not self.alive_at(n):
            return ZERO
        return self.base._mass(symbols)

    def cursor(self) -> EnvCursor:
        return _QuasimeasureCursor(self)

    def spec(self) -> dict:
        return {"kind": "derived", "derived": "quasimeasure",
                "base": self.base.spec(), "depth_cap": self.depth_cap}


class _QuasimeasureCursor(EnvCursor):
    """Wraps the base cursor; whether a depth survives depends on the depth
    alone, so the base key is the key."""

    def __init__(self, env: QuasimeasureEnv):
        self._env = env
        self._inner = env.base.cursor()
        self._depth = 0
        self._mass = self._inner.mass

    def row(self) -> tuple[Fraction, ...]:
        if self._mass == 0:
            raise UndefinedPosteriorError("zero mass at cursor position")
        check_depth(self._env, self._depth + 1)
        if not self._env.alive_at(self._depth + 1):
            return (ZERO,) * self._env.alphabet.size
        return self._inner.row()

    def step(self, a: int) -> None:
        check_depth(self._env, self._depth + 1)
        self._inner.step(a)
        self._depth += 1
        self._mass = self._inner.mass if self._env.alive_at(self._depth) else ZERO

    def clone(self) -> "_QuasimeasureCursor":
        new = super().clone()
        new._inner = self._inner.clone()
        return new

    def state_key(self):
        return self._inner.state_key()

    def zero_step_factor_bound(self):
        return ZERO if self._mass == 0 else self._inner.zero_step_factor_bound()


class MixtureEnv(Environment):
    """Weighted mixture over an EnvClass in one of four evaluation modes.

    ``k`` (mix only the measures among the first k members) is read by the
    two measures-only modes and ``quasi_depth_cap`` by QUASI alone; passing
    either to a mode that does not read it is an error.
    """

    def __init__(self, env_class: EnvClass, weights: WeightScheme,
                 mode: str = RAW, k: Optional[int] = None,
                 quasi_depth_cap: Optional[int] = None):
        if len(weights) != len(env_class):
            raise ValueError("one weight per class member required")
        if mode not in (RAW, QUASI, MEASURES_ONLY, NORMALIZED_MEASURES_ONLY):
            raise ValueError(f"unknown mode {mode!r}")
        measures_only = mode in (MEASURES_ONLY, NORMALIZED_MEASURES_ONLY)
        if k is not None and not measures_only:
            raise ValueError(f"k is read only by measures-only modes, not {mode!r}")
        if quasi_depth_cap is not None and mode != QUASI:
            raise ValueError(f"quasi_depth_cap is read only by mode {QUASI!r}, not {mode!r}")
        self.env_class = env_class
        self.weights = weights
        self.mode = mode
        self.alphabet = env_class.alphabet
        self._membership = tuple(range(1, len(env_class) + 1))
        depths = []
        if mode == QUASI:
            if quasi_depth_cap is None:
                quasi_depth_cap = DEFAULT_QUASI_DEPTH_CAP
            self.quasi_depth_cap = quasi_depth_cap
            self._quasi = [QuasimeasureEnv(e, quasi_depth_cap) for e in env_class.envs]
            depths.append(quasi_depth_cap)
        if measures_only:
            self.k = len(env_class) if k is None else k
            self._membership = env_class.measure_indices(self.k)
            if not self._membership:
                raise SemilabError("measures-only mixture with empty membership set")
        all_measures = all(env_class.is_measure(i) for i in self._membership)
        if mode == NORMALIZED_MEASURES_ONLY:
            self.declared_class = MEASURE if all_measures else STRICT_SEMIMEASURE
        else:
            total_one = sum(weights.weight(i) for i in self._membership) == 1
            self.declared_class = MEASURE if (all_measures and total_one) else STRICT_SEMIMEASURE
        depths += [env_class.env(i).max_depth for i in self._membership
                   if env_class.env(i).max_depth is not None]
        if depths:
            self.max_depth = min(depths)
        # the normalizer: _mass and every cursor divide by this one total
        self._norm = ONE
        if mode == NORMALIZED_MEASURES_ONLY:
            self._norm = sum(weights.weight(i) * self.component(i)._mass(())
                             for i in self._membership)

    def membership(self) -> tuple[int, ...]:
        """J_k for measures-only modes; all indices otherwise."""
        return self._membership

    def component(self, i: int) -> Environment:
        """The environment the mode actually mixes at index i."""
        if self.mode == QUASI:
            return self._quasi[i - 1]
        return self.env_class.env(i)

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        total = ZERO
        for i in self._membership:
            total += self.weights.weight(i) * self.component(i)._mass(symbols)
        if self.mode == NORMALIZED_MEASURES_ONLY:
            return total / self._norm
        return total

    def spec(self) -> dict:
        spec = {
            "kind": "derived",
            "derived": "mixture",
            "mode": self.mode,
            "environments": self.env_class.spec(),
            "weights": [_frac_str(w) for w in self.weights.weights],
        }
        if self.mode == QUASI:
            spec["quasi_depth_cap"] = self.quasi_depth_cap
        elif self.mode != RAW:
            spec["k"] = self.k
        return spec

    def cursor(self) -> EnvCursor:
        return _MixtureCursor(self)


class _MixtureCursor(EnvCursor):
    """Tracks per-component masses so each posterior row costs O(components).

    Components are semimeasures, so one at mass 0 stays there: it is no
    longer stepped, and its part of the key is None.
    """

    def __init__(self, mix: MixtureEnv):
        self._env = mix
        indices = mix.membership()
        self._weights = tuple(mix.weights.weight(i) for i in indices)
        self._cursors = [mix.component(i).cursor() for i in indices]
        self._masses = [c.mass for c in self._cursors]
        self._norm = mix._norm
        self._mass = sum(w * m for w, m in zip(self._weights, self._masses)) / self._norm

    def row(self) -> tuple[Fraction, ...]:
        if self._mass == 0:
            raise UndefinedPosteriorError("zero mass at cursor position")
        child_totals = [ZERO] * self._env.alphabet.size
        for w, m, cursor in zip(self._weights, self._masses, self._cursors):
            if m == 0:
                continue
            wm = w * m
            for a, p in enumerate(cursor.row()):
                child_totals[a] += wm * p
        denom = self._mass * self._norm
        return tuple(c / denom for c in child_totals)

    def step(self, a: int) -> None:
        masses = self._masses
        for j, cursor in enumerate(self._cursors):
            if masses[j] != 0:
                cursor.step(a)
                masses[j] = cursor.mass
        self._mass = sum(w * m for w, m in zip(self._weights, masses)) / self._norm

    def clone(self):
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new._cursors = [c.clone() if m != 0 else c
                        for c, m in zip(self._cursors, self._masses)]
        new._masses = list(self._masses)
        return new

    def state_key(self):
        return tuple(c.state_key() if m != 0 else None
                     for c, m in zip(self._cursors, self._masses))

    def zero_step_factor_bound(self):
        # a weighted sum's per-step ratio is bounded by the max component
        # ratio; a component at mass 0 stays there and adds nothing
        bound = ZERO
        for cursor, m in zip(self._cursors, self._masses):
            if m != 0:
                b = cursor.zero_step_factor_bound()
                if b is None:
                    return None
                bound = max(bound, b)
        return bound


class NormalizedEnv(Environment):
    """base(x) / base(empty); a measure when the base has measure nodes."""

    def __init__(self, base: Environment, declared_class: str):
        total = base._mass(())
        if total == 0:
            raise NormalizationError("cannot normalize zero total mass")
        self.base = base
        self.total = total
        self.alphabet = base.alphabet
        self.declared_class = declared_class
        self.max_depth = base.max_depth

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        return self.base._mass(symbols) / self.total

    def spec(self) -> dict:
        return {"kind": "derived", "derived": "normalized",
                "base": self.base.spec(), "declared_class": self.declared_class}

    def cursor(self) -> EnvCursor:
        return _NormalizedCursor(self)


class _NormalizedCursor(EnvCursor):
    def __init__(self, env: NormalizedEnv):
        self._env = env
        self._inner = env.base.cursor()

    @property
    def mass(self):
        return self._inner.mass / self._env.total

    def row(self):
        return self._inner.row()

    def step(self, a: int) -> None:
        self._inner.step(a)

    def clone(self):
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new._inner = self._inner.clone()
        return new

    def state_key(self):
        return self._inner.state_key()

    def zero_step_factor_bound(self):
        return self._inner.zero_step_factor_bound()


def normalize(mix: MixtureEnv) -> Environment:
    """Return the mixture scaled to total mass 1.

    Quasi-mode mixtures that still retain a strict quasimeasure component are
    refused: the normalized object would only be approximable, not an
    evaluable measure.
    """
    if mix.mode == QUASI:
        for i in mix.membership():
            if not mix.env_class.is_measure(i) and mix.component(i)._mass(()) > 0:
                raise ApproximableNotMeasureError(
                    f"component {i} is a strict quasimeasure with positive mass")
    all_measures = all(mix.env_class.is_measure(i) for i in mix.membership())
    declared = MEASURE if all_measures else STRICT_SEMIMEASURE
    return NormalizedEnv(mix, declared)


def dominance_constant(mix: MixtureEnv, component_index: int) -> Fraction:
    """The weight by which the mixture lower-bounds the indexed component."""
    if not 1 <= component_index <= len(mix.env_class):
        raise NotDominatedError(f"index {component_index} not in class")
    if component_index not in mix.membership():
        raise NotDominatedError(
            f"component {component_index} excluded by mode {mix.mode!r}")
    # normalization divides by a total <= 1, so the raw weight works in
    # every mode
    return mix.weights.weight(component_index)


def k_x(mix: MixtureEnv, x: FiniteString) -> Optional[int]:
    """Minimal non-measure index whose quasimeasure is still alive at x."""
    if mix.mode != QUASI:
        raise SemilabError("k_x is defined for quasi-mode mixtures")
    for i in range(1, len(mix.env_class) + 1):
        if mix.env_class.is_measure(i):
            continue
        if mix.component(i).eval(x) != 0:
            return i
    return None


PARTIAL_SUM = "partial-sum"
EXACT = "exact"


@dataclass(frozen=True)
class StageApproximation:
    """Stagewise lower approximations M^t increasing to the target mixture."""

    target: MixtureEnv
    rule: str = EXACT

    def __post_init__(self):
        if self.rule not in (PARTIAL_SUM, EXACT):
            raise ValueError(f"unknown stage rule {self.rule!r}")

    def stage_eval(self, t: int, x: FiniteString) -> Fraction:
        if t < 1:
            raise ValueError("stage index starts at 1")
        if self.rule == EXACT:
            return self.target.eval(x)
        total = ZERO
        indices = [i for i in self.target.membership() if i <= t]
        for i in indices:
            total += self.target.weights.weight(i) * self.target.component(i).eval(x)
        return total

    @property
    def final_stage(self) -> int:
        return len(self.target.env_class)
