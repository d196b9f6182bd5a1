"""Finite-alphabet strings and exactly evaluable semimeasure environments.

Everything here is exact rational arithmetic: an environment maps finite
strings to Fractions in [0, 1], satisfying the node inequality
nu(x) >= sum_a nu(xa), with equality at every node for proper measures.
No floating point enters evaluation, validation, enumeration or sampling.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import (
    DepthExceededError,
    NotAMeasureError,
    SemilabError,
    UndefinedPosteriorError,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Alphabet:
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("alphabet size must be >= 2")

    @property
    def symbols(self) -> range:
        return range(self.size)


BINARY = Alphabet(2)


@dataclass(frozen=True, order=False)
class FiniteString:
    """A string of symbol indices over a fixed alphabet.

    Lexicographic order is symbol-wise tuple order; for equal-length strings
    this is the "<" used by the leftmost-random construction.
    """

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self):
        for s in self.symbols:
            if not 0 <= s < self.alphabet.size:
                raise ValueError(f"symbol {s} outside alphabet of size {self.alphabet.size}")

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet = BINARY) -> "FiniteString":
        return cls(alphabet, tuple(int(c) for c in text))

    @classmethod
    def empty(cls, alphabet: Alphabet = BINARY) -> "FiniteString":
        return cls(alphabet, ())

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __lt__(self, other: "FiniteString") -> bool:
        return self.symbols < other.symbols

    def __le__(self, other: "FiniteString") -> bool:
        return self.symbols <= other.symbols

    def append(self, a: int) -> "FiniteString":
        return FiniteString(self.alphabet, self.symbols + (a,))

    def prefix(self, n: int) -> "FiniteString":
        return FiniteString(self.alphabet, self.symbols[:n])

    def __str__(self) -> str:
        return "".join(str(s) for s in self.symbols) if self.symbols else "<empty>"


MEASURE = "measure"
STRICT_SEMIMEASURE = "strict-semimeasure"


class Environment:
    """An exactly evaluable semimeasure over a finite alphabet."""

    alphabet: Alphabet
    declared_class: str

    #: depth beyond which evaluation raises DepthExceededError; None = unbounded
    max_depth: Optional[int] = None

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        raise NotImplementedError

    def eval(self, x: FiniteString) -> Fraction:
        if x.alphabet.size != self.alphabet.size:
            raise SemilabError("string alphabet does not match environment alphabet")
        return self._mass(x.symbols)

    def posterior(self, x: FiniteString) -> tuple[Fraction, ...]:
        m = self.eval(x)
        if m == 0:
            raise UndefinedPosteriorError(f"zero mass at {x}")
        return tuple(self._mass(x.symbols + (a,)) / m for a in self.alphabet.symbols)

    def cursor(self) -> "EnvCursor":
        return EnvCursor(self)

    def spec(self) -> dict:
        """JSON-able description that round-trips through the spec parser."""
        raise NotImplementedError


class EnvCursor:
    """Stateful walker exposing one posterior row at a time.

    The contract every cursor keeps: ``mass`` equals ``_mass`` of the string
    walked so far, ``row()`` equals ``posterior`` there (where the mass is
    positive), ``factor(a)`` gives ``row()[a]`` as two integers, ``step(a)``
    appends one symbol, ``clone()`` returns an
    independent copy, and ``state_key()`` is a hashable sufficient statistic:
    two strings of equal length with equal keys have equal masses on every
    common extension.  The generic implementation re-evaluates masses and
    keys by the whole string, so it never merges; product-form environments
    override for O(1) steps and keys that merge.
    """

    def __init__(self, env: Environment):
        self._env = env
        self._symbols: tuple[int, ...] = ()
        self._mass = env._mass(())

    @property
    def mass(self) -> Fraction:
        return self._mass

    def row(self) -> tuple[Fraction, ...]:
        if self._mass == 0:
            raise UndefinedPosteriorError("zero mass at cursor position")
        return tuple(
            self._env._mass(self._symbols + (a,)) / self._mass
            for a in self._env.alphabet.symbols
        )

    def factor(self, a: int) -> tuple[int, int]:
        """``row()[a]`` as an integer numerator and denominator, not
        necessarily in lowest terms."""
        p = self.row()[a]
        return p.numerator, p.denominator

    def step(self, a: int) -> None:
        self._symbols = self._symbols + (a,)
        self._mass = self._env._mass(self._symbols)

    def clone(self) -> "EnvCursor":
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new

    def state_key(self):
        return self._symbols

    def zero_step_factor_bound(self) -> Optional[Fraction]:
        """Upper bound on sup_k nu(x 0^{k+1}) / nu(x 0^k), x the string
        walked so far, or None.

        Returns None when no bound below 1 can be certified.  A dead
        environment (zero mass at x) stays dead, bound 0.  The kinds without
        an override (decaying, whose append-0 factor tends to 1, table and
        the generic derived kinds) certify nothing at positive mass.
        """
        return ZERO if self.mass == 0 else None


class _IIDCursor(EnvCursor):
    """Keyed by the symbol counts; every dead string shares the key None.

    The mass is a function of the counts, so it is formed only when asked
    for, from the counts added since it was last formed: one power per
    symbol instead of one growing product per step."""

    def __init__(self, env: Environment, row: tuple[Fraction, ...]):
        self._env = env
        self._row = row
        self._zero = tuple(p == 0 for p in row)
        self._dead = False
        self._counts = (0,) * len(row)
        self._mass = ONE  # the mass at the counts _mass_counts
        self._mass_counts = self._counts

    @property
    def mass(self) -> Fraction:
        if self._mass_counts is not self._counts:
            m = ZERO if self._dead else self._mass
            if m:
                for p, c, c0 in zip(self._row, self._counts, self._mass_counts):
                    if c != c0:
                        m = m * (p if c - c0 == 1 else p ** (c - c0))
            self._mass, self._mass_counts = m, self._counts
        return self._mass

    def row(self) -> tuple[Fraction, ...]:
        if self._dead:
            raise UndefinedPosteriorError("zero mass at cursor position")
        return self._row

    def step(self, a: int) -> None:
        if self._zero[a]:
            self._dead = True
        counts = self._counts
        self._counts = counts[:a] + (counts[a] + 1,) + counts[a + 1:]

    def clone(self) -> "_IIDCursor":
        self.mass  # form the mass once here rather than once in every clone
        return super().clone()

    def state_key(self):
        return None if self._dead else self._counts

    def zero_step_factor_bound(self):
        return ZERO if self._dead else self._row[0]


class CategoricalIIDEnv(Environment):
    """I.i.d. draws from a fixed categorical distribution."""

    def __init__(self, probs: Sequence[Fraction]):
        probs = tuple(Fraction(p) for p in probs)
        if len(probs) < 2:
            raise ValueError("need at least two symbols")
        if any(p < 0 or p > 1 for p in probs) or sum(probs) != 1:
            raise ValueError("probabilities must be in [0,1] and sum to 1")
        self.probs = probs
        self.alphabet = Alphabet(len(probs))
        self.declared_class = MEASURE

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        m = ONE
        for s in symbols:
            m *= self.probs[s]
            if m == 0:
                return ZERO
        return m

    def cursor(self) -> EnvCursor:
        return _IIDCursor(self, self.probs)

    def spec(self) -> dict:
        return {"kind": "categorical", "probs": [_frac_str(p) for p in self.probs]}


class BernoulliEnv(CategoricalIIDEnv):
    """Binary i.i.d. environment; p is the probability of symbol 1."""

    def __init__(self, p: Fraction):
        p = Fraction(p)
        super().__init__((1 - p, p))
        self.p = p

    def spec(self) -> dict:
        return {"kind": "bernoulli", "p": _frac_str(self.p)}


def uniform_measure(alphabet: Alphabet = BINARY) -> CategoricalIIDEnv:
    """The uniform measure lambda, lambda(x) = |X|^{-len(x)}."""
    return CategoricalIIDEnv([Fraction(1, alphabet.size)] * alphabet.size)


class MarkovEnv(Environment):
    """Finite-order Markov chain with exact rational transition rows.

    ``transitions`` maps a context tuple (the last ``order`` symbols, shorter
    near the start of the string) to a probability row.
    """

    def __init__(self, order: int, transitions: dict[tuple[int, ...], Sequence[Fraction]],
                 alphabet: Alphabet = BINARY):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.alphabet = alphabet
        self.transitions = {
            tuple(k): tuple(Fraction(p) for p in v) for k, v in transitions.items()
        }
        for ctx, row in self.transitions.items():
            if len(row) != alphabet.size or any(p < 0 for p in row) or sum(row) != 1:
                raise ValueError(f"invalid transition row at context {ctx}")
        self.declared_class = MEASURE

    def _row(self, past: tuple[int, ...]) -> tuple[Fraction, ...]:
        ctx = past[-self.order:] if len(past) >= self.order else past
        try:
            return self.transitions[ctx]
        except KeyError:
            raise SemilabError(f"missing transition row for context {ctx}") from None

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        m = ONE
        for t, s in enumerate(symbols):
            m *= self._row(symbols[:t])[s]
            if m == 0:
                return ZERO
        return m

    def cursor(self) -> EnvCursor:
        return _MarkovCursor(self)

    def spec(self) -> dict:
        return {
            "kind": "markov",
            "order": self.order,
            "alphabet_size": self.alphabet.size,
            "transitions": {
                "".join(map(str, k)): [_frac_str(p) for p in v]
                for k, v in self.transitions.items()
            },
        }


class _MarkovCursor(EnvCursor):
    """Keyed by the transition counts plus the current context."""

    def __init__(self, env: MarkovEnv):
        self._env = env
        self._ctx: tuple[int, ...] = ()
        self._mass = ONE
        # one count per (context, symbol), in the order of env.transitions
        self._offsets = {ctx: i * env.alphabet.size
                         for i, ctx in enumerate(env.transitions)}
        self._counts = (0,) * (len(env.transitions) * env.alphabet.size)

    def _transition_row(self) -> tuple[Fraction, ...]:
        # the context is already cut to the order; _row raises when missing
        row = self._env.transitions.get(self._ctx)
        return row if row is not None else self._env._row(self._ctx)

    def row(self) -> tuple[Fraction, ...]:
        if self._mass == 0:
            raise UndefinedPosteriorError("zero mass at cursor position")
        return self._transition_row()

    def step(self, a: int) -> None:
        ctx = self._ctx
        if self._mass != 0:
            self._mass = self._mass * self._transition_row()[a]
            i = self._offsets[ctx] + a
            counts = self._counts
            self._counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
        ctx = ctx + (a,)
        self._ctx = ctx[1:] if len(ctx) > self._env.order else ctx

    def state_key(self):
        return (self._counts, self._ctx) if self._mass != 0 else None

    def zero_step_factor_bound(self):
        if self._mass == 0:
            return ZERO
        # contexts on the all-zeros continuation stabilize at 0^order after
        # ``order`` steps; take the max zero-transition over the whole walk
        bound, ctx, order = ZERO, self._ctx, self._env.order
        for _ in range(order + 1):
            bound = max(bound, self._env._row(ctx)[0])
            ctx = (ctx + (0,))[-order:]
        return bound


class DeterministicEnv(Environment):
    """Point mass on an eventually periodic infinite target sequence."""

    def __init__(self, prefix: Sequence[int], period: Sequence[int],
                 alphabet: Alphabet = BINARY):
        self.target_prefix = tuple(prefix)
        self.target_period = tuple(period)
        if not self.target_period:
            raise ValueError("period must be nonempty")
        self.alphabet = alphabet
        for s in self.target_prefix + self.target_period:
            if not 0 <= s < alphabet.size:
                raise ValueError("target symbol outside alphabet")
        self.declared_class = MEASURE

    def target_symbol(self, i: int) -> int:
        if i < len(self.target_prefix):
            return self.target_prefix[i]
        return self.target_period[(i - len(self.target_prefix)) % len(self.target_period)]

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        for i, s in enumerate(symbols):
            if s != self.target_symbol(i):
                return ZERO
        return ONE

    def cursor(self) -> EnvCursor:
        return _DeterministicCursor(self)

    def spec(self) -> dict:
        return {
            "kind": "deterministic",
            "prefix": "".join(map(str, self.target_prefix)),
            "period": "".join(map(str, self.target_period)),
        }


class _DeterministicCursor(EnvCursor):
    """At most one string per length is alive; every dead one has key None."""

    def __init__(self, env: DeterministicEnv):
        self._env = env
        self._t = 0
        self._mass = ONE

    def row(self) -> tuple[Fraction, ...]:
        if self._mass == 0:
            raise UndefinedPosteriorError("zero mass at cursor position")
        target = self._env.target_symbol(self._t)
        return tuple(ONE if a == target else ZERO for a in self._env.alphabet.symbols)

    def step(self, a: int) -> None:
        if self._mass != 0 and a != self._env.target_symbol(self._t):
            self._mass = ZERO
        self._t += 1

    def state_key(self):
        return self._t if self._mass != 0 else None

    def zero_step_factor_bound(self):
        # appending 0 where the target demands 1 kills the mass immediately;
        # a target continuing with 0 keeps ratio 1, never certifiable below 1
        if self._mass == 0 or self._env.target_symbol(self._t) != 0:
            return ZERO
        return None


class LeakyEnv(Environment):
    """Scales a base environment by leak**len(x): a strict semimeasure."""

    def __init__(self, base: Environment, leak: Fraction):
        leak = Fraction(leak)
        if not 0 < leak < 1:
            raise ValueError("leak must be in (0,1)")
        self.base = base
        self.leak = leak
        self.alphabet = base.alphabet
        self.declared_class = STRICT_SEMIMEASURE
        self.max_depth = base.max_depth

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        b = self.base._mass(symbols)
        if b == 0:
            return ZERO
        return b * self.leak ** len(symbols)

    def cursor(self) -> EnvCursor:
        return _LeakyCursor(self)

    def spec(self) -> dict:
        return {"kind": "leaky", "base": self.base.spec(), "leak": _frac_str(self.leak)}


class _LeakyCursor(EnvCursor):
    """Wraps the base cursor; the leak factor depends on the length only, so
    the mass is formed only when asked for."""

    def __init__(self, env: LeakyEnv):
        self._env = env
        self._inner = env.base.cursor()
        self._depth = 0
        self._base_row = self._row = None

    @property
    def mass(self) -> Fraction:
        return self._inner.mass * self._env.leak ** self._depth

    def row(self) -> tuple[Fraction, ...]:
        if self._inner.mass == 0:
            raise UndefinedPosteriorError("zero mass at cursor position")
        base_row = self._inner.row()
        if base_row is not self._base_row:  # product-form bases repeat rows
            self._base_row = base_row
            self._row = tuple(p * self._env.leak for p in base_row)
        return self._row

    def step(self, a: int) -> None:
        self._inner.step(a)
        self._depth += 1

    def clone(self) -> "_LeakyCursor":
        new = super().clone()
        new._inner = self._inner.clone()
        return new

    def state_key(self):
        return self._inner.state_key()

    def zero_step_factor_bound(self):
        inner = self._inner.zero_step_factor_bound()
        if inner is None:
            return self._env.leak if self._env.leak <= HALF else None
        return inner * self._env.leak


class DecayingEnv(Environment):
    """Binary measure with mu(1 | x_{<t}) = (1/2) t^{-beta}."""

    def __init__(self, beta: int):
        if beta < 2:
            raise ValueError("beta must be an integer >= 2")
        self.beta = int(beta)
        self.alphabet = BINARY
        self.declared_class = MEASURE

    def one_prob(self, t: int) -> Fraction:
        return Fraction(1, 2 * t ** self.beta)

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        m = ONE
        for t, s in enumerate(symbols, start=1):
            p1 = self.one_prob(t)
            m *= p1 if s == 1 else 1 - p1
        return m

    def cursor(self) -> EnvCursor:
        return _DecayingCursor(self)

    def spec(self) -> dict:
        return {"kind": "decaying", "beta": self.beta}


class _DecayingCursor(EnvCursor):
    """Steps in O(1) without forming the exact mass, which at large depths
    is astronomically sized: the mass is multiplied out only when asked for
    (``mass_interval`` never asks).  The string is kept one byte per symbol."""

    def __init__(self, env: DecayingEnv):
        self._env = env
        self._symbols = bytearray()
        self._mass = ONE  # the mass of the first _mass_t symbols
        self._mass_t = 0

    @property
    def mass(self) -> Fraction:
        if self._mass_t < len(self._symbols):
            m = self._mass
            for t in range(self._mass_t + 1, len(self._symbols) + 1):
                p1 = self._env.one_prob(t)
                m = m * (p1 if self._symbols[t - 1] == 1 else 1 - p1)
            self._mass, self._mass_t = m, len(self._symbols)
        return self._mass

    def row(self) -> tuple[Fraction, ...]:
        p1 = self._env.one_prob(len(self._symbols) + 1)
        return (1 - p1, p1)

    def factor(self, a: int) -> tuple[int, int]:
        den = 2 * (len(self._symbols) + 1) ** self._env.beta
        return (1, den) if a == 1 else (den - 1, den)

    def step(self, a: int) -> None:
        self._symbols.append(a)

    def clone(self) -> "_DecayingCursor":
        self.mass  # multiply out once here rather than once in every clone
        new = super().clone()
        new._symbols = bytearray(self._symbols)
        return new

    def state_key(self):
        return bytes(self._symbols)


class TableEnv(Environment):
    """Explicit prefix-tree values to a finite depth."""

    def __init__(self, depth: int, values: dict[tuple[int, ...], Fraction],
                 alphabet: Alphabet = BINARY,
                 declared_class: str = STRICT_SEMIMEASURE):
        self.depth = depth
        self.alphabet = alphabet
        self.values = {tuple(k): Fraction(v) for k, v in values.items()}
        self.declared_class = declared_class
        self.max_depth = depth

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        if len(symbols) > self.depth:
            raise DepthExceededError(
                f"table stores depth <= {self.depth}, queried at {len(symbols)}")
        return self.values.get(symbols, ZERO)

    def first_defect(self) -> Optional[FiniteString]:
        """The node ``validate(self, self.depth)`` reports, found from the
        stored entries alone: only the root, a parent of a stored entry, or
        a stored entry below zero can fail the node inequality, so the cost
        is linear in the number of entries, not exponential in the depth."""
        if self.values.get((), ZERO) > 1:
            return FiniteString.empty(self.alphabet)
        size = self.alphabet.size
        nodes = set()
        for key, value in self.values.items():
            if len(key) > self.depth or any(not 0 <= s < size for s in key):
                continue  # never queried
            if key:
                nodes.add(key[:-1])
            if value < 0 and len(key) < self.depth:
                nodes.add(key)
        failing = [x for x in nodes
                   if sum(self.values.get(x + (a,), ZERO) for a in range(size))
                   > self.values.get(x, ZERO)]
        if not failing:
            return None
        return FiniteString(self.alphabet, min(failing, key=lambda x: (len(x), x)))

    def spec(self) -> dict:
        return {
            "kind": "table",
            "depth": self.depth,
            "alphabet_size": self.alphabet.size,
            "declared_class": self.declared_class,
            "values": {
                "".join(map(str, k)): _frac_str(v)
                for k, v in sorted(self.values.items()) if v != 0
            },
        }


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class ValidationReport:
    is_semimeasure: bool
    is_measure_to_depth: bool
    first_defect_node: Optional[FiniteString]
    depth: int


def walk_states(envs: Sequence[Environment], depth: int,
                support: Optional[int] = None) -> Iterator[tuple]:
    """Walk every string to ``depth`` level by level, merging strings whose
    joint cursor keys are equal.

    Yields one ``(symbols, cursors, count, key, children)`` per merged state:
    ``symbols`` is the state's lexicographically smallest string, ``cursors``
    holds one cursor per environment positioned there, ``count`` is the
    number of strings in the state, ``key`` is the joint key (the tuple of
    the cursors' ``state_key()``), and ``children`` holds one ``(key,
    cursors)`` pair for ``symbols + (a,)`` per symbol a (None at the last
    level).  A child's key is the key its state is yielded under on the next
    level, so a consumer can carry a value from each state to its children.
    States come level by level and in ascending order of ``symbols`` within
    a level: parents expand in that order, symbols ascending, and the first
    string with a new key becomes its representative.  Each level is
    released as it is consumed.  With ``support`` = i, strings where
    ``envs[i]`` has mass 0 are neither yielded, expanded nor listed among
    ``children``; a semimeasure's extensions of such a string have mass 0
    too, so this drops whole subtrees.
    """
    symbols_range = envs[0].alphabet.symbols
    root = tuple(env.cursor() for env in envs)
    if support is not None and root[support].mass == 0:
        return
    level = [((), root, 1, tuple(c.state_key() for c in root))]
    for n in range(depth + 1):
        merged: dict = {}
        level.reverse()
        while level:
            symbols, cursors, count, key = level.pop()
            if n == depth:
                yield symbols, cursors, count, key, None
                continue
            children = []
            for a in symbols_range:
                child = tuple(c.clone() for c in cursors)
                for c in child:
                    c.step(a)
                if support is not None and child[support].mass == 0:
                    continue
                child_key = tuple(c.state_key() for c in child)
                children.append((child_key, child))
                state = merged.get(child_key)
                if state is None:
                    merged[child_key] = [symbols + (a,), child, count]
                else:
                    state[2] += count
            yield symbols, cursors, count, key, children
        level = [(symbols, child, count, key)
                 for key, (symbols, child, count) in merged.items()]


def validate(env: Environment, depth: int) -> ValidationReport:
    """Exact check of the node inequality/equality on all nodes to depth,
    zero-mass nodes included.  The defect reported is the shortest failing
    node, and among those the lexicographically first."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if env.max_depth is not None:
        depth = min(depth, env.max_depth)
    root = env._mass(())
    if root > 1:
        return ValidationReport(False, False, FiniteString.empty(env.alphabet), depth)
    is_measure = root == 1
    for symbols, (cursor,), _, _, children in walk_states([env], depth):
        if children is None:
            break
        total = sum(child.mass for _, (child,) in children)
        if total > cursor.mass:
            return ValidationReport(False, False,
                                    FiniteString(env.alphabet, symbols), depth)
        if total != cursor.mass:
            is_measure = False
    return ValidationReport(True, is_measure, None, depth)


def check_depth(env: Environment, n: int) -> None:
    """Raise DepthExceededError, as evaluation would, for strings of length
    n beyond the environment's stored depth."""
    if env.max_depth is not None and n > env.max_depth:
        raise DepthExceededError(
            f"environment stores depth <= {env.max_depth}, queried at {n}")


def prefix_masses(env: Environment, x: FiniteString) -> Iterator[Fraction]:
    """Yield eval(env, x_{1:k}) for k = 0..len(x), stepping one cursor once
    per symbol instead of evaluating every prefix from the root."""
    if x.alphabet.size != env.alphabet.size:
        raise SemilabError("string alphabet does not match environment alphabet")
    check_depth(env, len(x))
    cursor = env.cursor()
    yield cursor.mass
    for a in x.symbols:
        cursor.step(a)
        yield cursor.mass


def enumerate_support(env: Environment, depth: int) -> Iterator[tuple[FiniteString, Fraction]]:
    """Yield the nonzero-mass strings of exactly the given length, in order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if env.max_depth is not None and depth > env.max_depth:
        raise DepthExceededError(f"depth {depth} beyond stored depth {env.max_depth}")

    def rec(symbols: tuple[int, ...], mass: Fraction):
        if len(symbols) == depth:
            yield FiniteString(env.alphabet, symbols), mass
            return
        for a in env.alphabet.symbols:
            child = env._mass(symbols + (a,))
            if child != 0:
                yield from rec(symbols + (a,), child)

    root = env._mass(())
    if root != 0:
        yield from rec((), root)


class BitStream:
    """Deterministic counter-based pseudorandom bit stream (SHA-256 blocks)."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed {seed} outside 0..2^64-1")
        self._seed = seed
        self._counter = 0
        self._bits: list[int] = []

    def next_bit(self) -> int:
        if not self._bits:
            block = hashlib.sha256(
                self._seed.to_bytes(8, "big") + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            n = int.from_bytes(block, "big")
            self._bits = [(n >> i) & 1 for i in range(255, -1, -1)]
            self._bits.reverse()  # pop() consumes in natural order
        return self._bits.pop()


def _draw_symbol(stream: BitStream, row: Sequence[Fraction]) -> int:
    """Exact draw from a probability row by dyadic bisection against the CDF,
    compared in integers scaled to the row's common denominator d."""
    d = math.lcm(*(p.denominator for p in row))
    bounds = [0]
    for p in row:
        bounds.append(bounds[-1] + p.numerator * (d // p.denominator))
    num, k = 0, 0
    while True:
        # current dyadic interval [num/2^k, (num+1)/2^k), times d 2^k
        lo, hi = num * d, (num + 1) * d
        for j in range(len(row)):
            if bounds[j] << k <= lo and hi <= bounds[j + 1] << k:
                if row[j] == 0:  # boundary cell of zero width cannot be drawn
                    raise SemilabError("drew zero-probability cell")
                return j
        num = num * 2 + stream.next_bit()
        k += 1


def sample(env: Environment, length: int, seed: int,
           with_likelihood: bool = True) -> tuple[FiniteString, Optional[Fraction]]:
    """Draw a string of the given length from a measure, reproducibly.

    The pseudorandom stream is a pure function of the seed; the draw compares
    exact dyadic randomness against exact posterior CDFs, so no rounding
    enters symbol selection.  The returned likelihood is the cursor's mass,
    which by the cursor contract equals eval(env, draw).
    """
    if env.declared_class != MEASURE:
        raise NotAMeasureError("sampling requires a declared (and valid) measure")
    stream = BitStream(seed)
    cursor = env.cursor()
    symbols = []
    checked = None
    for _ in range(length):
        row = cursor.row()
        if row is not checked:  # product-form cursors repeat their rows
            if sum(row) != 1:
                raise NotAMeasureError("posterior row does not sum to 1")
            checked = row
        a = _draw_symbol(stream, row)
        symbols.append(a)
        cursor.step(a)
    return (FiniteString(env.alphabet, tuple(symbols)),
            cursor.mass if with_likelihood else None)


#: a block's exact product enters the interval once its denominator has
#: this many bits; rows of mixtures, already larger, each make one block
_BLOCK_BITS = 4096


def mass_interval(env: Environment, x: FiniteString, precision_bits: int = 64):
    """Certified interval for eval(env, x), usable at depths where the exact
    rational would be astronomically large (e.g. decaying environments at
    depth 10^6).  Returns an mpmath interval under the active precision.

    The integer numerators and denominators of the steps' probabilities
    (``cursor.factor``) are multiplied exactly over blocks of symbols, and
    each block enters the interval as one outward-rounded quotient; the
    cursor never needs its exact mass.
    """
    from . import intervals

    if x.alphabet.size != env.alphabet.size:
        raise SemilabError("string alphabet does not match environment alphabet")
    check_depth(env, len(x))
    iv = intervals.iv
    with intervals.precision(precision_bits):
        cursor = env.cursor()
        root = cursor.mass
        if root == 0:
            return iv.mpf(0)
        num, den = root.numerator, root.denominator
        acc = iv.mpf(1)
        for a in x.symbols:
            p_num, p_den = cursor.factor(a)
            if p_num == 0:
                return iv.mpf(0)
            num *= p_num
            den *= p_den
            if den.bit_length() > _BLOCK_BITS:
                acc *= iv.mpf(num) / iv.mpf(den)
                num = den = 1
            cursor.step(a)
        return acc * (iv.mpf(num) / iv.mpf(den))
