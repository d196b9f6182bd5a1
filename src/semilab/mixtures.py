"""Weighted mixtures over finite ordered environment classes.

Covers the raw reference mixture, measures-only mixtures (delta_k and their
full-class limit), the quasimeasure mixture, normalization, the cursor of a
mixture's stagewise partial sums, and the quasimeasure transform itself.  Every mode is one
weighted sum: a normalized mixture divides its weights once, when built.
All evaluation is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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
    _ScaledEnv,
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
MODES = (RAW, QUASI, MEASURES_ONLY, NORMALIZED_MEASURES_ONLY)

CERTIFICATION_DEPTH = 10
DEFAULT_QUASI_DEPTH_CAP = 24


@dataclass(frozen=True)
class WeightScheme:
    """Positive weights indexed from 1, summing to at most 1."""

    weights: tuple[Fraction, ...]

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
        tuple(Fraction(1, i ** 6 * 2 ** i) for i in range(1, count + 1)))


class EnvClass:
    """Ordered, 1-indexed list of environments with certified class tags.

    Measure membership is never taken from the declared tag alone, and only
    established for the members asked about: by the exact row check made in
    the constructor (``rows_sum_to_one``), else by exact validation to
    ``CERTIFICATION_DEPTH``, as for a table declared a measure.  The spec
    parser refuses a declared measure through ``is_measure``, so a member
    it accepts as a measure is one this class counts as a measure, and is
    walked once.
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

    def extended(self, env: Environment) -> "EnvClass":
        """This class with env appended as its last member, keeping what is
        known of the other members, so none is certified twice."""
        new = EnvClass(self.envs + [env])
        new._measure_flags[:-1] = self._measure_flags
        return new

    def measure_indices(self, k: Optional[int] = None) -> tuple[int, ...]:
        k = len(self.envs) if k is None else min(k, len(self.envs))
        return tuple(i for i in range(1, k + 1) if self.is_measure(i))

    def spec(self) -> list:
        return [e.spec() for e in self.envs]


class QuasimeasureEnv(_ScaledEnv):
    """Truncation of a semimeasure: depth-n values survive only while the
    total depth-n mass exceeds 1 - 1/n (strictly); zero afterwards."""

    def __init__(self, base: Environment, depth_cap: int = DEFAULT_QUASI_DEPTH_CAP):
        super().__init__(base, base.declared_class)
        self.depth_cap = depth_cap
        self.max_depth = depth_cap if base.max_depth is None else min(depth_cap, base.max_depth)
        # per level n: (total depth-n mass of the base, alive at n)
        self._totals: list[tuple[Fraction, bool]] = [(base._mass(()), True)]
        self._walk = None

    def total_mass(self, n: int) -> Fraction:
        """Total depth-n mass of the base, n up to ``max_depth``.

        A base with ``rows_sum_to_one`` totals 1 and is not walked.  Else
        one walk of the base serves every call: it advances only as far as
        the deepest level asked for, and totals level n from the children
        of level n - 1's states (after they have counted all |A|^(n-1)
        strings), so no row below level n - 1 is read.  A walk that raised
        is dropped, and the next call walks again from the root.
        """
        check_depth(self, n)
        if self.base.rows_sum_to_one:
            return ONE
        if self._walk is None:
            self._walk = walk_states([self.base], self.max_depth)
        try:
            while len(self._totals) <= n:
                level = len(self._totals)
                strings, total = self.alphabet.size ** (level - 1), ZERO
                while strings:
                    symbols, _, count, _, children = next(self._walk)
                    if len(symbols) == level - 1:  # else a level totalled before
                        total += count * sum(child.mass for _, (child,) in children)
                        strings -= count
                self._totals.append((total, total > 1 - Fraction(1, level)))
        except BaseException:
            self._walk = None
            raise
        return self._totals[n][0]

    def alive_at(self, n: int) -> bool:
        """Whether depth-n values survive the quasimeasure condition.

        n = 0 is defined alive (the threshold 1 - 1/n is undefined
        there), preserving nu~ <= nu and the measure fixed point."""
        if n == 0:
            return True
        if n >= len(self._totals):
            self.total_mass(n)
        return self.base.rows_sum_to_one or self._totals[n][1]

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

    def depth_factor(self, n: int) -> tuple[int, int]:
        return (1, 1) if self.alive_at(n) else (0, 1)

    def row_factor(self, n: int) -> tuple[int, int]:
        return self.depth_factor(n + 1)

    def spec(self) -> dict:
        return {"kind": "derived", "derived": "quasimeasure",
                "base": self.base.spec(), "depth_cap": self.depth_cap}


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
        if mode not in MODES:
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
        # the environments the mode mixes, formed once
        self._components = env_class.envs
        if mode == QUASI:
            if quasi_depth_cap is None:
                quasi_depth_cap = DEFAULT_QUASI_DEPTH_CAP
            self.quasi_depth_cap = quasi_depth_cap
            self._components = [QuasimeasureEnv(e, quasi_depth_cap) for e in env_class.envs]
        if measures_only:
            self.k = len(env_class) if k is None else k
            self._membership = env_class.measure_indices(self.k)
            if not self._membership:
                raise SemilabError("measures-only mixture with empty membership set")
        # the weights actually mixed, formed once: a normalized mixture
        # divides them by its unnormalized root mass
        self._weights = tuple(weights.weight(i) for i in self._membership)
        if mode == NORMALIZED_MEASURES_ONLY:
            root = sum(w * self.component(i)._mass(())
                       for w, i in zip(self._weights, self._membership))
            self._weights = tuple(w / root for w in self._weights)
        self.declared_class = (
            MEASURE if all(env_class.is_measure(i) for i in self._membership)
            and sum(self._weights) == 1 else STRICT_SEMIMEASURE)
        # a quasimeasure component's depth is the least of its cap and its base's
        depths = [self.component(i).max_depth for i in self._membership]
        self.max_depth = min((d for d in depths if d is not None), default=None)

    def membership(self) -> tuple[int, ...]:
        """J_k for measures-only modes; all indices otherwise."""
        return self._membership

    def component(self, i: int) -> Environment:
        """The environment the mode actually mixes at index i."""
        self.env_class.env(i)  # refuses an index outside the class
        return self._components[i - 1]

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        total = ZERO
        for w, i in zip(self._weights, self._membership):
            total += w * self.component(i)._mass(symbols)
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


def _common_denominator(den: int, term_den: int) -> tuple[int, int, int]:
    """(lcm, lcm // den, lcm // term_den): the running denominator of an
    integer sum and the factors that bring it and a new term onto it."""
    g = gcd(den, term_den)
    scale, term_scale = term_den // g, den // g
    return den * scale, scale, term_scale


class _MixtureCursor(EnvCursor):
    """Tracks per-component masses so each posterior row costs O(components).

    Each live component's cursor is held, and its mass read as the cursor's
    unreduced integer pair (``mass_ratio``); a component at mass 0 is held
    as None.  Components are semimeasures, so one at mass 0 stays there: it
    is no longer stepped, and its part of the key is None.  The weighted sum
    is formed only when read: the walker builds many children only for their
    keys.
    """

    def __init__(self, mix: MixtureEnv):
        self._env = mix
        self._weights = mix._weights
        cursors = [mix.component(i).cursor() for i in mix.membership()]
        self._cursors = [c if c.mass_ratio()[0] else None for c in cursors]
        self._ratio = None  # sum_j w_j m_j, once read

    def mass_ratio(self) -> tuple[int, int]:
        if self._ratio is None:
            num, den = 0, 1
            for w, cursor in zip(self._weights, self._cursors):
                if cursor:
                    m = cursor.mass_ratio()
                    den, scale, term_scale = _common_denominator(den, w.denominator * m[1])
                    num = num * scale + w.numerator * m[0] * term_scale
            self._ratio = num, den
        return self._ratio

    # kept by name on the class, where a layer tracer patches it
    row = EnvCursor.row

    def row_ratio(self) -> tuple[tuple[int, ...], int]:
        """sum_j w_j m_j p_j / sum_j w_j m_j in integers: each live term
        enters as its row's numerators over w_j's, m_j's and its row's
        denominators, and the numerators of the row and of the mass share
        one running denominator, which cancels."""
        nums, mass_num, den = [0] * self._env.alphabet.size, 0, 1
        for w, cursor in zip(self._weights, self._cursors):
            if not cursor:
                continue
            m = cursor.mass_ratio()
            row_nums, row_den = cursor.row_ratio()
            den, scale, term_scale = _common_denominator(
                den, w.denominator * m[1] * row_den)
            term_num = w.numerator * m[0] * term_scale
            nums = [n * scale + term_num * p for n, p in zip(nums, row_nums)]
            mass_num = mass_num * scale + term_num * row_den
        if not mass_num:
            raise UndefinedPosteriorError("zero mass at cursor position")
        return tuple(nums), mass_num

    def step(self, a: int) -> None:
        cursors = self._cursors
        for j, cursor in enumerate(cursors):
            if cursor:
                cursor.step(a)
                if not cursor.mass_ratio()[0]:
                    cursors[j] = None
        self._ratio = None

    def child(self, a: int) -> "_MixtureCursor":
        new = EnvCursor.clone(self)
        children = [c and c.child(a) for c in self._cursors]
        new._cursors = [c if c and c.mass_ratio()[0] else None for c in children]
        new._ratio = None
        return new

    def clone(self):
        new = super().clone()
        new._cursors = [c and c.clone() for c in self._cursors]
        return new

    def state_key(self):
        return tuple(c and c.state_key() for c in self._cursors)


class NormalizedEnv(_ScaledEnv):
    """base(x) / base(empty); a measure when the base has measure nodes."""

    def __init__(self, base: Environment, declared_class: str):
        total = base._mass(())
        if total == 0:
            raise NormalizationError("cannot normalize zero total mass")
        super().__init__(base, declared_class)
        self.total = total

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        return self.base._mass(symbols) / self.total

    def spec(self) -> dict:
        return {"kind": "derived", "derived": "normalized",
                "base": self.base.spec(), "declared_class": self.declared_class}

    def depth_factor(self, n: int) -> tuple[int, int]:
        return self.total.denominator, self.total.numerator


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


def stage_cursor(mix: MixtureEnv, t: int) -> EnvCursor:
    """A root cursor on the stage-t partial sum M^t, the weighted components
    of the first t class members: the mixture's own cursor with every
    component past stage t dropped, as a component at mass 0 is.  M^t
    increases pointwise in t and equals the mixture from t = len(class)."""
    if t < 1:
        raise ValueError("stage index starts at 1")
    cursor = mix.cursor()
    for j, i in enumerate(mix.membership()):
        if i > t:
            cursor._cursors[j] = None
    return cursor
