"""Finite-alphabet strings and exactly evaluable semimeasure environments.

Everything here is exact rational arithmetic: an environment maps finite
strings to Fractions in [0, 1], satisfying the node inequality
nu(x) >= sum_a nu(xa), with equality at every node for proper measures.
No floating point enters evaluation, validation, enumeration or sampling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import not_
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


def row_ratio_of(row: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """A row of Fractions as integer numerators over their least common
    denominator: the form of ``EnvCursor.row_ratio()``."""
    den = math.lcm(*[p.denominator for p in row])
    return tuple([p.numerator * (den // p.denominator) for p in row]), den


def _value_cells(rows) -> tuple[tuple[tuple[int, int], ...], list[tuple[int, ...]]]:
    """The distinct entries of ``rows`` as reduced integer pairs, 0 first
    whether or not a row holds it and the rest in order of appearance, and
    each row as the indices of its entries among them: the probability
    values a ``_CountCursor`` counts."""
    index = {(0, 1): 0}
    cells = [tuple([index.setdefault(p.as_integer_ratio(), len(index)) for p in row])
             for row in rows]
    return tuple(index), cells


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
        # the set test runs in C; the loop runs only to name the symbol refused
        if not frozenset(range(self.alphabet.size)).issuperset(self.symbols):
            for s in self.symbols:
                if not 0 <= s < self.alphabet.size:
                    raise ValueError(
                        f"symbol {s} outside alphabet of size {self.alphabet.size}")

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
        if n < 0:
            raise ValueError(f"prefix length {n} is negative")
        if n > len(self.symbols):
            raise ValueError("n exceeds the provided sequence length")
        return FiniteString(self.alphabet, self.symbols[:n])

    def __str__(self) -> str:
        return "".join(str(s) for s in self.symbols) if self.symbols else "<empty>"


MEASURE = "measure"
STRICT_SEMIMEASURE = "strict-semimeasure"


def _check_keys(keys, what: str, limit: str, longest: int, alphabet: Alphabet) -> None:
    """Refuse a key that no string reaches: one longer than ``longest`` (the
    ``limit``) or holding a symbol outside the alphabet."""
    for key in keys:
        if len(key) > longest:
            raise ValueError(f"{what} {''.join(map(str, key))} is longer than the "
                             f"{limit} {longest}")
        if key and not 0 <= min(key) <= max(key) < alphabet.size:
            raise ValueError(f"{what} {''.join(map(str, key))} holds a symbol outside "
                             f"alphabet of size {alphabet.size}")


class Environment:
    """An exactly evaluable semimeasure over a finite alphabet."""

    alphabet: Alphabet
    declared_class: str

    #: depth beyond which evaluation raises DepthExceededError; None = unbounded
    max_depth: Optional[int] = None

    #: the constructor checked exactly that every row reachable at positive
    #: mass sums to 1, so every node is a measure node and every level totals 1
    rows_sum_to_one: bool = False

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

    The contract every cursor keeps: ``mass_ratio()`` is the mass, ``_mass``
    of the string walked so far, as two integers, and ``row_ratio()`` the
    next-symbol row, ``posterior`` there, as integer numerators over one
    positive denominator (UndefinedPosteriorError at mass 0); only this
    class reduces them, as ``mass`` and ``row()``.  ``step(a)`` appends one
    symbol, ``child(a)`` returns a new cursor one symbol further and leaves
    this one as it is, ``run_ratio(run)`` steps over a run and returns the
    product of its row entries as two integers, ``clone()`` returns an
    independent copy, and ``state_key()`` is a hashable sufficient
    statistic: two strings of equal length with equal keys have equal
    masses on every common extension.

    A kind states only ``mass_ratio()``, ``step(a)`` and ``state_key()``:
    this class reads the row and the runs off the masses, mu(a | x) =
    mu(xa) / mu(x), and its own kind re-evaluates masses and keys by the
    whole string, so it never merges.  A kind overrides ``row_ratio``,
    ``run_ratio`` or ``child`` only for a faster closed form: the i.i.d.,
    Markov, decaying, scaled and mixture rows, the count, decaying and
    scaled runs, and the children the path-tree walks build.
    """

    def __new__(cls, *args):
        # ``mass``'s cache (the reduced mass and the pair it came from)
        # exists on every cursor from construction on: set later, on some
        # instances of a kind only, it slowed CPython 3.11's reads of the
        # kind's other attributes
        self = super().__new__(cls)
        self._mass = self._mass_of = None
        return self

    def __init__(self, env: Environment):
        self._env = env
        self._symbols: tuple[int, ...] = ()
        self._ratio = env._mass(()).as_integer_ratio()

    @property
    def mass(self) -> Fraction:
        """``mass_ratio()`` reduced, once per pair: a kind's pair stays the
        same object until the mass changes."""
        ratio = self.mass_ratio()
        if ratio is not self._mass_of:
            self._mass, self._mass_of = Fraction(*ratio), ratio
        return self._mass

    def mass_ratio(self) -> tuple[int, int]:
        """The mass as an integer numerator and a positive denominator, not
        necessarily in lowest terms."""
        return self._ratio

    def row(self) -> tuple[Fraction, ...]:
        """``row_ratio()`` reduced."""
        nums, den = self.row_ratio()
        return tuple(Fraction(num, den) for num in nums)

    def row_ratio(self) -> tuple[tuple[int, ...], int]:
        """The next-symbol row as integer numerators over one positive
        denominator, not necessarily in lowest terms: each child's
        ``mass_ratio()`` over this cursor's, on one lcm of the children's
        denominators."""
        num, den = self.mass_ratio()
        if not num:
            raise UndefinedPosteriorError("zero mass at cursor position")
        masses = [self.child(a).mass_ratio() for a in self._env.alphabet.symbols]
        common = math.lcm(*[d for _, d in masses])
        return tuple([m * (common // d) * den for m, d in masses]), common * num

    def step(self, a: int) -> None:
        self._symbols = self._symbols + (a,)
        self._ratio = self._env._mass(self._symbols).as_integer_ratio()

    def child(self, a: int) -> "EnvCursor":
        """A new cursor at the string walked so far plus a, raising what
        ``step(a)`` raises; this cursor is left unchanged."""
        new = self.clone()
        new.step(a)
        return new

    def run_ratio(self, run: Sequence[int]) -> tuple[int, int]:
        """Step over ``run`` from a position of positive mass and return
        the product of the row entries of the run's symbols, the mass after
        the run over the mass before it, not necessarily in lowest terms,
        or (0, 1) when the mass after is 0."""
        before_num, before_den = self.mass_ratio()
        for a in run:
            self.step(a)
        num, den = self.mass_ratio()
        return (num * before_den, den * before_num) if num else (0, 1)

    def clone(self) -> "EnvCursor":
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new

    def state_key(self):
        return self._symbols


class _CountCursor(EnvCursor):
    """A cursor whose mass is prod_v v^c_v over the distinct probability
    values v its environment's rows hold: ``_values`` holds them as integer
    pairs, 0 first, and ``_counts`` how often a step drew each, so the
    string is dead (mass 0) exactly when ``_counts[0]`` is nonzero.  A kind
    maps each of its cells (a symbol, or a context and a symbol) to the
    index of its value once, in its environment's constructor
    (``_value_cells``).  Strings whose draws multiply to the same mass have
    the same counts, however many cells share a value, so keys built on the
    counts merge them.

    ``step`` only counts: the mass is formed when asked for, from the counts
    drawn since it was last formed (``_ratio_counts``), one power per value
    instead of one growing product per step.  ``child`` forms its child's
    mass at once, the parent's times the value drawn.  ``mass_ratio`` is the
    integers prod_v n_v^c_v over prod_v d_v^c_v (v = n_v / d_v), formed with
    no gcd at all, and the same object until a step draws again."""

    def _start(self, values: tuple[tuple[int, int], ...]) -> None:
        self._values = values
        self._counts = self._ratio_counts = (0,) * len(values)
        self._ratio = (1, 1)  # the mass at _ratio_counts

    def _drawn(self, before: tuple[int, ...]) -> tuple[int, int]:
        """The product of the values drawn since the counts were ``before``."""
        num = den = 1
        for (v_num, v_den), old, new in zip(self._values, before, self._counts):
            if new != old:
                num *= v_num ** (new - old)
                den *= v_den ** (new - old)
        return num, den

    def mass_ratio(self) -> tuple[int, int]:
        counts = self._counts
        if counts is not self._ratio_counts:
            if counts[0]:
                self._ratio = 0, 1
            else:
                num, den = self._drawn(self._ratio_counts)
                self._ratio = self._ratio[0] * num, self._ratio[1] * den
            self._ratio_counts = counts
        return self._ratio

    def run_ratio(self, run: Sequence[int]) -> tuple[int, int]:
        """One power per value the run drew: its count after the run less
        its count before."""
        before = self._counts
        for a in run:
            self.step(a)
        return (0, 1) if self._counts[0] else self._drawn(before)

    def _child(self, i: int) -> "_CountCursor":
        """A copy that drew value i once more, its mass formed."""
        new = EnvCursor.clone(self)
        counts = self._counts
        new._counts = new._ratio_counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
        if counts[0] or not i:
            new._ratio = 0, 1
        else:
            num, den = self.mass_ratio()
            v_num, v_den = self._values[i]
            new._ratio = num * v_num, den * v_den
        return new


class _IIDCursor(_CountCursor):
    """Keyed by the value counts; every dead string shares the key None."""

    def __init__(self, env: "CategoricalIIDEnv"):
        self._env = env
        self._row_ratio = env._row_ratio
        self._cells = env._cells
        self._start(env._values)

    def row_ratio(self) -> tuple[tuple[int, ...], int]:
        if self._counts[0]:
            raise UndefinedPosteriorError("zero mass at cursor position")
        return self._row_ratio

    def step(self, a: int) -> None:
        i, counts = self._cells[a], self._counts
        self._counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]

    def child(self, a: int) -> "_IIDCursor":
        return self._child(self._cells[a])

    def state_key(self):
        return None if self._counts[0] else self._counts


class CategoricalIIDEnv(Environment):
    """I.i.d. draws from a fixed categorical distribution."""

    rows_sum_to_one = True

    def __init__(self, probs: Sequence[Fraction]):
        probs = tuple(Fraction(p) for p in probs)
        if len(probs) < 2:
            raise ValueError("need at least two symbols")
        # every cursor's row; nonnegative numerators summing to the
        # denominator put each probability in [0, 1]
        self._row_ratio = nums, den = row_ratio_of(probs)
        if min(nums) < 0 or sum(nums) != den:
            raise ValueError("probabilities must be in [0,1] and sum to 1")
        self.probs = probs
        self._values, (self._cells,) = _value_cells([probs])
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
        return _IIDCursor(self)

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
    near the start of the string) to a probability row.  Every context that
    a string of positive mass reaches must have a row: the constructor
    refuses the first one its search finds without one.
    """

    rows_sum_to_one = True

    def __init__(self, order: int, transitions: dict[tuple[int, ...], Sequence[Fraction]],
                 alphabet: Alphabet = BINARY):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.alphabet = alphabet
        self.transitions = {
            tuple(k): tuple(Fraction(p) for p in v) for k, v in transitions.items()
        }
        _check_keys(self.transitions, "transition context", "order", order, alphabet)
        self._row_ratios = {}  # one row pair per context
        for ctx, row in self.transitions.items():
            self._row_ratios[ctx] = nums, den = row_ratio_of(row)
            if len(row) != alphabet.size or min(nums) < 0 or sum(nums) != den:
                raise ValueError(f"invalid transition row at context {ctx}")
        values, cells = _value_cells(self.transitions.values())
        self._values, self._cells = values, dict(zip(self.transitions, cells))
        self.declared_class = MEASURE
        # contexts reachable at positive mass, cut as _MarkovCursor.step cuts them
        seen, todo = {()}, [()]
        while todo:
            ctx = todo.pop()
            if ctx not in self._cells:
                raise ValueError(f"reachable transition context {''.join(map(str, ctx))} "
                                 "has no row")
            new = {(ctx + (a,))[-order:] for a, i in enumerate(self._cells[ctx]) if i}
            todo += new - seen
            seen |= new

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        m = ONE
        for t, s in enumerate(symbols):
            m *= self.transitions[symbols[:t][-self.order:]][s]
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


class _MarkovCursor(_CountCursor):
    """Keyed by the value counts plus the current context; every dead
    string shares the key None."""

    def __init__(self, env: MarkovEnv):
        self._env = env
        self._ctx: tuple[int, ...] = ()
        self._cells = env._cells  # per context, the value index of each symbol
        self._start(env._values)

    def row_ratio(self) -> tuple[tuple[int, ...], int]:
        if self._counts[0]:
            raise UndefinedPosteriorError("zero mass at cursor position")
        return self._env._row_ratios[self._ctx]

    def step(self, a: int) -> None:
        ctx, counts = self._ctx, self._counts
        if not counts[0]:  # a dead string's context may have no row
            i = self._cells[ctx][a]
            self._counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
        ctx = ctx + (a,)
        self._ctx = ctx[1:] if len(ctx) > self._env.order else ctx

    def child(self, a: int) -> "_MarkovCursor":
        ctx = self._ctx
        new = EnvCursor.clone(self) if self._counts[0] else self._child(self._cells[ctx][a])
        ctx = ctx + (a,)
        new._ctx = ctx[1:] if len(ctx) > self._env.order else ctx
        return new

    def state_key(self):
        return None if self._counts[0] else (self._counts, self._ctx)


class DeterministicEnv(Environment):
    """Point mass on an eventually periodic infinite target sequence."""

    rows_sum_to_one = True

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
        self._ratio = (1, 1)

    def step(self, a: int) -> None:
        if self.mass_ratio()[0] and a != self._env.target_symbol(self._t):
            self._ratio = (0, 1)
        self._t += 1

    def state_key(self):
        return self._t if self.mass_ratio()[0] else None


class _ScaledEnv(Environment):
    """A base environment (``base``) times a factor of the string's length
    alone, stepped by one ``_ScaledCursor``: the leaky, normalized and
    quasimeasure kinds.  Each states ``depth_factor(n)``, the factor at
    depth n, as an integer pair.  ``row_factor(n)``, the factor of the step
    from depth n, which is 0 exactly where ``depth_factor(n + 1)`` is, is 1
    unless the kind states it."""

    def __init__(self, base: Environment, declared_class: str):
        self.base = base
        self.alphabet = base.alphabet
        self.declared_class = declared_class
        self.max_depth = base.max_depth

    def row_factor(self, n: int) -> tuple[int, int]:
        return 1, 1

    def cursor(self) -> EnvCursor:
        return _ScaledCursor(self)


class LeakyEnv(_ScaledEnv):
    """Scales a base environment by leak**len(x): a strict semimeasure."""

    def __init__(self, base: Environment, leak: Fraction):
        leak = Fraction(leak)
        if not 0 < leak < 1:
            raise ValueError("leak must be in (0,1)")
        super().__init__(base, STRICT_SEMIMEASURE)
        self.leak = leak

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        b = self.base._mass(symbols)
        if b == 0:
            return ZERO
        return b * self.leak ** len(symbols)

    def depth_factor(self, n: int) -> tuple[int, int]:
        return self.leak.numerator ** n, self.leak.denominator ** n

    def row_factor(self, n: int) -> tuple[int, int]:
        return self.leak.as_integer_ratio()

    def spec(self) -> dict:
        return {"kind": "leaky", "base": self.base.spec(), "leak": _frac_str(self.leak)}


class _ScaledCursor(EnvCursor):
    """The cursor of a ``_ScaledEnv``: its base's cursor, scaled by the
    kind's depth and row factors.

    Besides the mass, the step and the key it states the row and the run
    in closed form: the base's row times the row factor, which passes
    through where the factor is 1, so product-form rows keep their
    identity, and the base's run times the run's row factors, where a run
    read off a leaky mass would carry the whole mass.  The base's key is
    the key; the mass is formed once per position, when read.
    """

    def __init__(self, env: _ScaledEnv):
        self._env = env
        self._inner = env.base.cursor()
        self._depth = 0
        self._ratio = None

    def mass_ratio(self) -> tuple[int, int]:
        if self._ratio is None:
            num, den = self._env.depth_factor(self._depth)
            ratio = self._inner.mass_ratio() if num else (0, 1)
            self._ratio = ratio if num == den else (ratio[0] * num, ratio[1] * den)
        return self._ratio

    def row_ratio(self) -> tuple[tuple[int, ...], int]:
        if not self.mass_ratio()[0]:
            raise UndefinedPosteriorError("zero mass at cursor position")
        n, env = self._depth, self._env
        row = self._inner.row_ratio()
        check_depth(env, n + 1)
        num, den = env.row_factor(n)
        return row if num == den else (tuple(p * num for p in row[0]), row[1] * den)

    def step(self, a: int) -> None:
        check_depth(self._env, self._depth + 1)
        self._inner.step(a)
        self._depth += 1
        self._ratio = None

    def run_ratio(self, run: Sequence[int]) -> tuple[int, int]:
        n, env = self._depth, self._env
        check_depth(env, n + len(run))
        num, den = self._inner.run_ratio(run)
        self._depth += len(run)
        self._ratio = None
        for j in range(n, n + len(run)):
            f_num, f_den = env.row_factor(j)
            num, den = num * f_num, den * f_den
        return (num, den) if num else (0, 1)

    def child(self, a: int) -> "_ScaledCursor":
        check_depth(self._env, self._depth + 1)
        new = EnvCursor.clone(self)
        new._inner = self._inner.child(a)
        new._depth = self._depth + 1
        new._ratio = None
        return new

    def clone(self) -> "_ScaledCursor":
        new = super().clone()
        new._inner = self._inner.clone()
        return new

    def state_key(self):
        return self._inner.state_key()


class DecayingEnv(Environment):
    """Binary measure with mu(1 | x_{<t}) = (1/2) t^{-beta}."""

    rows_sum_to_one = True

    def __init__(self, beta: int):
        if beta < 2 or beta != int(beta):
            raise ValueError("beta must be an integer >= 2")
        self.beta = int(beta)
        self.alphabet = BINARY
        self.declared_class = MEASURE

    def row_ratio(self, t: int) -> tuple[tuple[int, ...], int]:
        """mu(. | x_{<t}) as integer numerators over one denominator:
        (2 t^beta - 1, 1) over 2 t^beta."""
        den = 2 * t ** self.beta
        return (den - 1, 1), den

    def run_factor(self, t: int, run: Sequence[int]) -> tuple[int, int]:
        """The product of the ``row_ratio`` entries of ``run`` placed after
        t symbols, as the same integers: (prod s)^beta 2^k over the run's k
        positions s, and prod (2 s^beta - 1) over the positions of its 0s."""
        beta, k = self.beta, len(run)
        zeros = compress(range(t + 1, t + k + 1), map(not_, run))
        num = math.prod([2 * s ** beta - 1 for s in zeros])
        return num, math.perm(t + k, k) ** beta << k

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        m = ONE
        for t, s in enumerate(symbols, start=1):
            nums, den = self.row_ratio(t)
            m *= Fraction(nums[s], den)
        return m

    def cursor(self) -> EnvCursor:
        return _DecayingCursor(self)

    def spec(self) -> dict:
        return {"kind": "decaying", "beta": self.beta}


class _DecayingCursor(EnvCursor):
    """Steps in O(1) without forming the exact mass, which at large depths
    is astronomically sized: the mass is multiplied out only when asked for
    (``mass_interval`` never asks), as the unreduced integers ``mass_ratio``
    from the symbols added since it was last formed.  Both it and
    ``run_ratio`` multiply a run out with one ``DecayingEnv.run_factor``.
    ``child`` forms its child's mass at once, the parent's times one row
    entry: the path-tree walks read the masses of the short strings they
    build.  The string is kept one byte per symbol."""

    def __init__(self, env: DecayingEnv):
        self._env = env
        self._symbols = bytearray()
        self._ratio = (1, 1)  # the mass of the first _ratio_t symbols
        self._ratio_t = 0

    def mass_ratio(self) -> tuple[int, int]:
        t = self._ratio_t
        if t < len(self._symbols):
            num, den = self._env.run_factor(t, self._symbols[t:])
            self._ratio = self._ratio[0] * num, self._ratio[1] * den
            self._ratio_t = len(self._symbols)
        return self._ratio

    def run_ratio(self, run: Sequence[int]) -> tuple[int, int]:
        ratio = self._env.run_factor(len(self._symbols), run)
        self._symbols.extend(run)
        return ratio

    def row_ratio(self) -> tuple[tuple[int, ...], int]:
        return self._env.row_ratio(len(self._symbols) + 1)

    def step(self, a: int) -> None:
        self._symbols.append(a)

    def child(self, a: int) -> "_DecayingCursor":
        t = len(self._symbols)
        num, den = self.mass_ratio()
        nums, row_den = self._env.row_ratio(t + 1)
        new = EnvCursor.clone(self)
        new._symbols = self._symbols + bytes((a,))
        new._ratio, new._ratio_t = (num * nums[a], den * row_den), t + 1
        return new

    def clone(self) -> "_DecayingCursor":
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
        _check_keys(self.values, "table key", "depth", depth, alphabet)
        self.declared_class = declared_class
        self.max_depth = depth

    def _mass(self, symbols: tuple[int, ...]) -> Fraction:
        check_depth(self, len(symbols))
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
    if len({env.alphabet.size for env in envs}) > 1:
        raise SemilabError("cannot walk environments over different alphabets (sizes "
                           + ", ".join(str(env.alphabet.size) for env in envs) + ")")
    symbols_range = envs[0].alphabet.symbols
    root = tuple(env.cursor() for env in envs)
    if support is not None and not root[support].mass_ratio()[0]:
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
                child = tuple([c.child(a) for c in cursors])
                if support is not None and not child[support].mass_ratio()[0]:
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
    node, and among those the lexicographically first.  An environment with
    ``rows_sum_to_one`` is a measure by its constructor's row check: no walk."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if env.max_depth is not None:
        depth = min(depth, env.max_depth)
    if env.rows_sum_to_one:
        return ValidationReport(True, True, None, depth)
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


def walk_string(envs: Sequence[Environment], x: FiniteString) -> Iterator[tuple]:
    """The string twin of ``walk_states``: yield one cursor per environment
    at x_{1:k}, k = 0..len(x), each stepped once per symbol, after checking
    x's alphabet and length (``check_depth``) against every environment.
    The tuple yielded belongs to the walk and is valid until the next one."""
    for env in envs:
        if x.alphabet.size != env.alphabet.size:
            raise SemilabError("string alphabet does not match environment alphabet")
        check_depth(env, len(x))
    cursors = tuple(env.cursor() for env in envs)
    yield cursors
    for a in x.symbols:
        for c in cursors:
            c.step(a)
        yield cursors


def enumerate_support(env: Environment, depth: int) -> Iterator[tuple[FiniteString, Fraction]]:
    """Yield the nonzero-mass strings of exactly the given length, in order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    check_depth(env, depth)

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


def _draw_table(row: tuple[tuple[int, ...], int]) -> tuple[int, list[tuple[int, int, int]]]:
    """A ``row_ratio()`` pair's denominator d and its cells: (j, left,
    right) with [left, right) the CDF interval of symbol j times d, for each
    symbol of positive probability.  A cell of width 0 can hold no dyadic
    interval, so a zero-probability symbol is never drawn."""
    nums, d = row
    cells, left = [], 0
    for j, num in enumerate(nums):
        if num:
            cells.append((j, left, left + num))
        left += num
    return d, cells


def _draw_symbol(stream: BitStream, table: tuple[int, list]) -> int:
    """Exact draw from a probability row by dyadic bisection against the
    CDF (a Knuth-Yao sampler), compared in the integers of the row's
    ``_draw_table``."""
    d, cells = table
    num, k = 0, 0
    while True:
        # current dyadic interval [num/2^k, (num+1)/2^k), times d 2^k
        lo = num * d
        hi = lo + d
        for j, left, right in cells:
            if left << k <= lo and hi <= right << k:
                return j
        num = num * 2 + stream.next_bit()
        k += 1


def sample(env: Environment, length: int, seed: int) -> tuple[FiniteString, Fraction]:
    """Draw a string of the given length from a measure, reproducibly.

    The pseudorandom stream is a pure function of the seed; the draw compares
    exact dyadic randomness against exact posterior CDFs, so no rounding
    enters symbol selection.  A ``row_ratio()`` pair is checked and tabled
    once per pair object, and product-form cursors repeat their pairs.  The
    returned likelihood is the cursor's mass, which by the cursor contract
    equals eval(env, draw).
    """
    if env.declared_class != MEASURE:
        raise NotAMeasureError("sampling requires a declared (and valid) measure")
    stream = BitStream(seed)
    cursor = env.cursor()
    symbols = []
    checked = table = None
    for _ in range(length):
        row = cursor.row_ratio()
        if row is not checked:
            if sum(row[0]) != row[1]:
                raise NotAMeasureError("posterior row does not sum to 1")
            checked, table = row, _draw_table(row)
        a = _draw_symbol(stream, table)
        symbols.append(a)
        cursor.step(a)
    return FiniteString(env.alphabet, tuple(symbols)), cursor.mass


#: the denominator size, in bits, that ``mass_interval`` sizes its runs to;
#: a run read off a larger mass (a mixture's) is one symbol long
_BLOCK_BITS = 4096


def _next_run(length: int, bits: int) -> int:
    """The length of the run after one of ``length`` symbols whose
    denominator had ``bits`` bits: as many symbols as fill _BLOCK_BITS at
    that rate, at most twice as many, at least one."""
    return max(1, min(2 * length, length * _BLOCK_BITS // bits))


def mass_interval(env: Environment, x: FiniteString, precision_bits: int = 64):
    """Certified interval for eval(env, x), usable at depths where the exact
    rational would be astronomically large (e.g. decaying environments at
    depth 10^6).  Returns an mpmath interval of ``precision_bits`` bits.

    The mass of ``walk_string``'s root cursor, then each run of symbols
    (``cursor.run_ratio``), enters the interval as one outward-rounded
    quotient of integers, and the quotients are multiplied outward-rounded;
    a cursor with a run kernel (count, decaying, or scaled over those)
    never forms its exact mass, the others form it at each run's end.  Runs
    start at one symbol and are sized by ``_next_run``.
    """
    from mpmath.libmp import mpi_mul

    from .intervals import iv, quotient_bounds

    (cursor,) = next(walk_string([env], x))
    num, den = cursor.mass_ratio()
    if not num:
        return iv.mpf(0)
    box = quotient_bounds(num, den, precision_bits)
    symbols, start, length = x.symbols, 0, 1
    while start < len(symbols):
        num, den = cursor.run_ratio(symbols[start:start + length])
        if not num:
            return iv.mpf(0)
        box = mpi_mul(box, quotient_bounds(num, den, precision_bits), precision_bits)
        start += length
        length = _next_run(length, den.bit_length())
    return iv.make_mpf(box)
