"""The cursor contract, state-key sufficiency, the merged walks (exact node
checks and interval expectations) against the tree references in
oracles.py, and the walks along one string against the prefix-re-evaluating
references there.

Merging strings by ``state_key()`` is sound only if equal keys mean equal
masses on every common extension; the property tests below check exactly
that, for every environment kind, on every string to a fixed depth.
"""

import json
import random
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab as sl
from semilab import divergence, envcore, mixtures
from semilab.cli import (
    RUNNERS, _mu_from, parse_class, parse_environment, run_experiment, run_markov_tail,
    run_quasimeasure, run_verify_hellinger_bounds,
)
from semilab.envcore import walk_states, walk_string
from semilab.errors import DepthExceededError, SemilabError, UndefinedPosteriorError
from semilab.intervals import endpoints, from_fraction, iv, precision, to_mpf
from semilab.randomness import delta_hat_ratio_check

import oracles
from conftest import FIXTURES

F = Fraction


def _markov():
    return sl.MarkovEnv(1, {
        (): [F(1, 3), F(2, 3)],
        (0,): [F(2, 5), F(3, 5)],
        (1,): [F(1, 2), F(1, 2)],
    })


def _markov_two_values():
    """Order 1, every row after the first drawn from the values 3/8 and 5/8:
    the chain whose key must keep its context, since the first symbol is
    free and the counts say nothing of it."""
    return sl.MarkovEnv(1, {
        (): [F(1, 2), F(1, 2)],
        (0,): [F(3, 8), F(5, 8)],
        (1,): [F(5, 8), F(3, 8)],
    })


def _markov_order2_with_zeros():
    rows = {(): [F(1, 2), F(1, 2)], (0,): [F(1), F(0)], (1,): [F(1, 4), F(3, 4)]}
    for ctx in product((0, 1), repeat=2):
        rows[ctx] = [F(0), F(1)] if ctx == (1, 1) else [F(2, 3), F(1, 3)]
    return sl.MarkovEnv(2, rows)


def _table():
    """A strict semimeasure with dead subtrees, stored to depth 5."""
    values = {(): F(1), (0,): F(1, 2), (1,): F(1, 4), (0, 0): F(1, 4),
              (0, 1): F(1, 8), (1, 1): F(1, 4), (0, 0, 1): F(1, 8),
              (1, 1, 0): F(1, 8), (1, 1, 1): F(1, 16), (0, 0, 1, 1): F(1, 16),
              (1, 1, 0, 0): F(1, 8), (0, 0, 1, 1, 0): F(1, 32),
              (1, 1, 0, 0, 1): F(1, 16)}
    return sl.TableEnv(5, values)


def _product_class():
    return sl.EnvClass([sl.BernoulliEnv(F(1, 3)), _markov(),
                        sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2)),
                        sl.DeterministicEnv([1], [0])])


def _table_class():
    return sl.EnvClass([sl.BernoulliEnv(F(1, 2)), _table()])


def _mixture(env_class, mode):
    weights = sl.WeightScheme((F(1, 2 * len(env_class)),) * len(env_class))
    if mode == sl.QUASI:
        return sl.MixtureEnv(env_class, weights, mode, quasi_depth_cap=8)
    return sl.MixtureEnv(env_class, weights, mode)


KINDS = {
    "bernoulli": lambda: sl.BernoulliEnv(F(1, 3)),
    "bernoulli-dead-branch": lambda: sl.BernoulliEnv(F(0)),
    "categorical": lambda: sl.CategoricalIIDEnv([F(1, 6), F(1, 3), F(1, 2)]),
    "uniform": lambda: sl.uniform_measure(sl.Alphabet(3)),
    "markov": _markov,
    "markov-two-values": _markov_two_values,
    "markov-order2-zeros": _markov_order2_with_zeros,
    "leaky": lambda: sl.LeakyEnv(sl.BernoulliEnv(F(1, 4)), F(2, 3)),
    "leaky-markov": lambda: sl.LeakyEnv(_markov(), F(1, 2)),
    "decaying": lambda: sl.DecayingEnv(2),
    "table": _table,
    "deterministic": lambda: sl.DeterministicEnv([1], [0, 1]),
    "mixture-raw": lambda: _mixture(_product_class(), sl.RAW),
    "mixture-quasi": lambda: _mixture(_product_class(), sl.QUASI),
    "mixture-measures-only": lambda: _mixture(_product_class(), sl.MEASURES_ONLY),
    "mixture-normalized": lambda: _mixture(_product_class(), sl.NORMALIZED_MEASURES_ONLY),
    "mixture-table-raw": lambda: _mixture(_table_class(), sl.RAW),
    "mixture-table-quasi": lambda: _mixture(_table_class(), sl.QUASI),
    "normalized": lambda: sl.NormalizedEnv(
        sl.LeakyEnv(_markov(), F(3, 4)), sl.STRICT_SEMIMEASURE),
    "quasimeasure": lambda: sl.QuasimeasureEnv(
        sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(3, 4)), 8),
    "quasimeasure-table": lambda: sl.QuasimeasureEnv(_table(), 8),
    "nu-limit": lambda: sl.NuLimitEnv(sl.FiniteString.parse("0101")),
    "nu-limit-dead": lambda: sl.NuLimitEnv(sl.FiniteString.empty()),
    "nu-stage": lambda: sl.NuLimitEnv(sl.FiniteString.parse("0110"), horizon=4),
    "contaminated": lambda: sl.contaminate(
        sl.NuLimitEnv(sl.FiniteString.parse("0101")), _mixture(_product_class(), sl.RAW),
        F(1, 9)),
}


def _depth(env, depth):
    # ternary trees grow fast; the table stops at its stored depth
    depth = min(depth, 4) if env.alphabet.size > 2 else depth
    return depth if env.max_depth is None else min(depth, env.max_depth)


def _cursors(env, depth):
    """Every string to depth with its cursor, each child cloned from its
    parent's cursor (so a clone that shared state would corrupt them)."""
    cursors = {(): env.cursor()}
    level = [()]
    for _ in range(depth):
        nxt = []
        for symbols in level:
            for a in env.alphabet.symbols:
                child = cursors[symbols].clone()
                child.step(a)
                cursors[symbols + (a,)] = child
                nxt.append(symbols + (a,))
        level = nxt
    return cursors


def _has_row(env, symbols):
    return env.max_depth is None or len(symbols) < env.max_depth


# ----------------------------------------------------------- cursor contract

@pytest.mark.parametrize("kind", KINDS)
def test_cursor_mass_and_row_match_direct_evaluation(kind):
    env = KINDS[kind]()
    for symbols, cursor in _cursors(env, _depth(env, 6)).items():
        assert cursor.mass == env._mass(symbols), symbols
        if cursor.mass > 0 and _has_row(env, symbols):
            x = sl.FiniteString(env.alphabet, symbols)
            assert cursor.row() == env.posterior(x), symbols


@pytest.mark.parametrize("kind", KINDS)
def test_cursor_mass_ratio_is_the_mass(kind):
    env = KINDS[kind]()
    for symbols, cursor in _cursors(env, _depth(env, 6)).items():
        num, den = cursor.mass_ratio()
        assert den > 0 and F(num, den) == env._mass(symbols), symbols


def _cursor_subclasses(cls=envcore.EnvCursor):
    """The package's cursor classes below cls (not the tests' own kinds)."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("semilab."):
            yield sub
            yield from _cursor_subclasses(sub)


def test_only_the_base_cursor_defines_mass():
    """Every kind states ``mass_ratio()``; only the base reduces it and the
    row.  The mixture cursor keeps the base's ``row`` under its own name,
    ``factor`` is gone, and only the closed forms state a row or a run."""
    classes = set(_cursor_subclasses())
    assert {"_CountCursor", "_MixtureCursor", "_SpineCursor"} <= {c.__name__ for c in classes}
    assert [c.__name__ for c in classes if "mass" in vars(c)] == []
    assert [c.__name__ for c in classes
            if "row" in vars(c) and c is not mixtures._MixtureCursor] == []
    assert mixtures._MixtureCursor.row is envcore.EnvCursor.row
    assert [c.__name__ for c in {envcore.EnvCursor, *classes} if "factor" in vars(c)] == []
    assert {c.__name__ for c in classes if "row_ratio" in vars(c)} == {
        "_IIDCursor", "_MarkovCursor", "_DecayingCursor", "_ScaledCursor", "_MixtureCursor"}
    assert {c.__name__ for c in classes if "run_ratio" in vars(c)} == {
        "_CountCursor", "_DecayingCursor", "_ScaledCursor"}


class _MinimalEnv(sl.Environment):
    """A strict semimeasure with dead subtrees: (1/3)^#0 (1/2)^#1, and 0
    on every string holding 11."""

    alphabet = sl.BINARY
    declared_class = sl.STRICT_SEMIMEASURE

    def _mass(self, symbols):
        if (1, 1) in zip(symbols, symbols[1:]):
            return F(0)
        return F(1, 3) ** symbols.count(0) * F(1, 2) ** symbols.count(1)

    def cursor(self):
        return _MinimalCursor(self)


class _MinimalCursor(envcore.EnvCursor):
    """States only what every kind must: the mass, the step and the key."""

    def __init__(self, env):
        self._env, self._text = env, ""

    def mass_ratio(self):
        return self._env._mass(tuple(map(int, self._text))).as_integer_ratio()

    def step(self, a):
        self._text += str(a)

    def state_key(self):
        return self._text


def test_a_kind_stating_only_mass_step_and_key_keeps_the_contract():
    """The base cursor derives the row, the runs and the children from the
    masses alone, on every string to depth 6."""
    env = _MinimalEnv()
    level = [((), env.cursor())]
    for _ in range(7):
        children = []
        for symbols, cursor in level:
            assert cursor.mass == env._mass(symbols), symbols
            if cursor.mass:
                assert cursor.row() == env.posterior(sl.FiniteString(sl.BINARY, symbols))
            else:
                with pytest.raises(UndefinedPosteriorError):
                    cursor.row_ratio()
            for i in range(len(symbols)):
                if env._mass(symbols[:i]):
                    ran = _walked(env, symbols[:i])
                    num, den = ran.run_ratio(symbols[i:])
                    assert F(num, den) == env._mass(symbols) / env._mass(symbols[:i])
                    assert ran.state_key() == cursor.state_key()
            for a in env.alphabet.symbols:
                _check_child_is_clone_then_step(cursor, a)
                children.append((symbols + (a,), cursor.child(a)))
        level = children


def test_kinds_cover_every_cursor_class():
    """A cursor class with no subclass of its own is a kind's cursor, and
    KINDS holds an environment of that kind, so the contract tests above
    reach its ``row_ratio``."""
    leaves = {c for c in _cursor_subclasses() if not c.__subclasses__()}
    assert leaves | {envcore.EnvCursor} <= {type(make().cursor()) for make in KINDS.values()}


def test_scaled_kinds_share_one_cursor():
    kinds = ("leaky", "leaky-markov", "normalized", "quasimeasure", "quasimeasure-table")
    assert len({type(KINDS[kind]().cursor()) for kind in kinds}) == 1
    # the kinds subclass one base below Environment, and only it defines cursor
    mros = [type(KINDS[kind]()).__mro__ for kind in kinds]
    (base,) = set.intersection(*map(set, mros)) - set(sl.Environment.__mro__)
    for kind, mro in zip(kinds, mros):
        assert [c for c in mro[:mro.index(base) + 1] if "cursor" in vars(c)] == [base], kind


def test_walk_refuses_environments_over_different_alphabets():
    envs = [sl.BernoulliEnv(F(1, 2)), sl.CategoricalIIDEnv([F(1, 3)] * 3)]
    with pytest.raises(SemilabError, match="different alphabets"):
        next(walk_states(envs, 2))


@pytest.mark.parametrize("kind", KINDS)
def test_walk_string_cursors_are_fresh_cursors_stepped_there(kind):
    """At each prefix of x the walk's cursors have the mass pairs and state
    keys of fresh cursors stepped to it, one tuple per prefix."""
    env = KINDS[kind]()
    envs = [env, sl.uniform_measure(env.alphabet)]
    for x in _strings(env, _depth(env, 6)):
        prefixes = 0
        for k, cursors in enumerate(walk_string(envs, x)):
            for e, cursor in zip(envs, cursors):
                fresh = e.cursor()
                for a in x.symbols[:k]:
                    fresh.step(a)
                assert cursor.mass_ratio() == fresh.mass_ratio(), (x, k)
                assert cursor.state_key() == fresh.state_key(), (x, k)
            prefixes += 1
        assert prefixes == len(x) + 1


def test_walk_string_checks_the_string_at_the_first_next():
    bernoulli, table = sl.BernoulliEnv(F(1, 2)), _table()
    walk = walk_string([bernoulli], sl.FiniteString(sl.Alphabet(3), (2,)))
    with pytest.raises(SemilabError, match="alphabet"):
        next(walk)
    walk = walk_string([bernoulli, table],
                       sl.FiniteString(sl.BINARY, (0,) * (table.max_depth + 1)))
    with pytest.raises(DepthExceededError):
        next(walk)


def test_hellinger_trace_refuses_environments_over_different_alphabets(monkeypatch):
    def row_read(*rows):
        raise AssertionError("a row was read")

    monkeypatch.setattr(divergence, "_hellinger_bounds", row_read)
    nu, mu = sl.BernoulliEnv(F(1, 2)), sl.CategoricalIIDEnv([F(1, 3)] * 3)
    with pytest.raises(SemilabError, match="alphabet"):
        divergence.hellinger_trace(nu, mu, sl.FiniteString.parse("0101"), 4)


def test_hellinger_trace_takes_no_step_past_its_last_row(monkeypatch):
    steps = []
    step = envcore._IIDCursor.step

    def counting_step(cursor, a):
        steps.append(a)
        step(cursor, a)

    monkeypatch.setattr(envcore._IIDCursor, "step", counting_step)
    nu, mu = sl.BernoulliEnv(F(1, 3)), sl.BernoulliEnv(F(1, 2))
    trace = divergence.hellinger_trace(nu, mu, sl.FiniteString.parse("011010"), 4)
    assert trace.steps == [1, 2, 3, 4]
    assert steps == [0, 0, 1, 1, 1, 1]  # each cursor, symbol by symbol, to the 4th row


@pytest.mark.parametrize("kind", KINDS)
def test_mass_is_reduced_once_per_position(kind):
    """Two reads of ``mass`` at one position give one object, and after a
    step the new position's mass."""
    env = KINDS[kind]()
    for x in _strings(env, _depth(env, 6)):
        cursor = env.cursor()
        for k in range(len(x) + 1):
            mass = cursor.mass
            assert mass == env._mass(x.symbols[:k]) and cursor.mass is mass, (x, k)
            if k < len(x):
                cursor.step(x.symbols[k])


@pytest.mark.parametrize("kind", KINDS)
def test_equal_state_keys_have_equal_futures(kind):
    env = KINDS[kind]()
    depth = _depth(env, 6)
    groups = defaultdict(list)
    for symbols, cursor in _cursors(env, depth).items():
        groups[len(symbols), cursor.state_key()].append(symbols)
    merged = 0
    for (n, _), members in groups.items():
        first = members[0]
        for other in members[1:]:
            merged += 1
            for k in range(depth - n + 1):
                for z in product(env.alphabet.symbols, repeat=k):
                    assert env._mass(first + z) == env._mass(other + z), (first, other, z)
    if kind not in ("decaying", "table", "mixture-table-raw", "quasimeasure-table"):
        assert merged > 0  # product-form kinds really merge


@pytest.mark.parametrize("kind", KINDS)
def test_clone_is_independent(kind):
    env = KINDS[kind]()
    cursor = env.cursor()
    cursor.step(0)
    twin = cursor.clone()
    twin.step(1)
    cursor.step(0)
    for symbols, c in (((0, 0), cursor), ((0, 1), twin)):
        fresh = env.cursor()
        for a in symbols:
            fresh.step(a)
        assert c.mass == env._mass(symbols)
        assert c.state_key() == fresh.state_key()


def _cursor_state(cursor):
    """What a reader sees of a cursor: its mass, its key and its row, or
    the error its row raises."""
    num, den = cursor.mass_ratio()
    try:
        row = cursor.row()
    except SemilabError as exc:
        row = type(exc), str(exc)
    return F(num, den), cursor.state_key(), row


def _check_child_is_clone_then_step(cursor, a):
    """``cursor.child(a)`` raises what a clone stepped by a raises, or
    reads as it does; either way ``cursor`` reads as before, also after the
    child is stepped on."""
    before = _cursor_state(cursor)
    twin = cursor.clone()
    try:
        twin.step(a)
    except SemilabError as exc:
        with pytest.raises(type(exc)) as raised:
            cursor.child(a)
        assert str(raised.value) == str(exc)
    else:
        child = cursor.child(a)
        assert _cursor_state(child) == _cursor_state(twin)
        try:
            child.step(0)
        except SemilabError:
            pass
    assert _cursor_state(cursor) == before


@pytest.mark.parametrize("kind", KINDS)
def test_child_is_a_clone_stepped_once(kind):
    """On every string to depth 6, and for tables one symbol past their
    stored depth, where both raise."""
    env = KINDS[kind]()
    for symbols, cursor in _cursors(env, _depth(env, 6)).items():
        for a in env.alphabet.symbols:
            _check_child_is_clone_then_step(cursor, a)


@pytest.mark.parametrize("make, path, error", [
    (_table, (0, 0, 1, 1, 0), DepthExceededError),
    (lambda: sl.QuasimeasureEnv(_table(), 8), (1, 1, 0, 0, 1), DepthExceededError),
    (lambda: _mixture(_table_class(), sl.RAW), (0, 0, 1, 1, 0), DepthExceededError),
])
def test_child_raises_what_step_raises(make, path, error):
    """Past a table's stored depth."""
    cursor = make().cursor()
    for a in path:
        cursor.step(a)
    for a in (0, 1):
        with pytest.raises(error):
            cursor.clone().step(a)
        with pytest.raises(error):
            cursor.child(a)
        _check_child_is_clone_then_step(cursor, a)


MIXTURES =[kind for kind in KINDS if isinstance(KINDS[kind](), sl.MixtureEnv)]


def _check_mixture_walk(mix, symbols):
    """The cursor's mass and row equal ``_mass`` and ``posterior`` at every
    prefix of symbols."""
    cursor = mix.cursor()
    for k in range(len(symbols) + 1):
        x = sl.FiniteString(mix.alphabet, symbols[:k])
        assert cursor.mass == mix._mass(x.symbols), x
        if cursor.mass and _has_row(mix, x.symbols):
            assert cursor.row() == mix.posterior(x), x
        if k < len(symbols):
            cursor.step(symbols[k])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MIXTURES), st.lists(st.integers(0, 1), max_size=10))
def test_mixture_cursor_row_and_mass_match_evaluation(kind, symbols):
    mix = KINDS[kind]()
    _check_mixture_walk(mix, tuple(symbols)[:_depth(mix, 10)])


def test_mixture_cursor_with_a_component_dead_at_depth_two():
    # the point mass on 0 1 0 0 ... dies at the second 0; the others live on
    mix = sl.MixtureEnv(sl.EnvClass([sl.BernoulliEnv(F(1, 3)), sl.DeterministicEnv([0, 1], [0]),
                                     _markov()]), sl.WeightScheme((F(1, 4), F(1, 2), F(1, 8))))
    _check_mixture_walk(mix, (0, 0, 1, 0, 1, 1))
    cursor = mix.cursor()
    cursor.step(0)
    cursor.step(0)
    assert [bool(c) for c in cursor._cursors] == [True, False, True]


def test_mixture_cursor_along_a_long_string():
    # masses with hundreds of bits in numerator and denominator
    mix = sl.MixtureEnv(sl.EnvClass([sl.BernoulliEnv(F(3, 8)), sl.BernoulliEnv(F(5, 8)),
                                     sl.LeakyEnv(sl.BernoulliEnv(F(3, 8)), F(7, 8))]),
                        sl.WeightScheme((F(1, 3),) * 3))
    _check_mixture_walk(mix, tuple(_random_string(mix, 300, 5).symbols))


def test_quasimeasure_cursor_stops_at_its_cap():
    env = sl.QuasimeasureEnv(sl.BernoulliEnv(F(1, 2)), 2)
    cursor = env.cursor()
    cursor.step(0)
    cursor.step(1)
    with pytest.raises(DepthExceededError):
        cursor.row()
    with pytest.raises(DepthExceededError):
        cursor.step(0)


# -------------------------------------------------------------------- walker

def test_walk_merges_states_and_keeps_smallest_representatives():
    env = sl.BernoulliEnv(F(1, 3))
    states = list(walk_states([env], 8))
    last = [(symbols, count) for symbols, _, count, _, _ in states if len(symbols) == 8]
    assert len(last) == 9
    assert sum(count for _, count in last) == 2 ** 8
    # the representative of the state with k ones is 0^(8-k) 1^k
    assert [symbols for symbols, _ in last] == sorted(
        (0,) * (8 - k) + (1,) * k for k in range(9))
    assert [len(s) for s, _, _, _, _ in states] == sorted(len(s) for s, _, _, _, _ in states)


def _states_per_level(env, depth):
    sizes = defaultdict(int)
    for symbols, _, _, _, _ in walk_states([env], depth):
        sizes[len(symbols)] += 1
    return [sizes[n] for n in range(depth + 1)]


@pytest.mark.parametrize("env", [sl.BernoulliEnv(F(1, 2)), sl.uniform_measure(sl.Alphabet(3))],
                         ids=["bernoulli-half", "uniform-ternary"])
def test_cells_of_one_probability_share_one_count(env):
    """Every string of a length has one mass, so the walk keeps one state
    per level."""
    assert _states_per_level(env, 8) == [1] * 9


def test_markov_key_counts_values_not_transitions():
    """After the free first symbol every draw is 3/8 or 5/8: at level n >= 1
    a state is the number of 3/8s among n - 1 draws and the context, 2n
    of them, where a count per transition keeps n^2 - n + 2."""
    assert _states_per_level(_markov_two_values(), 12) == [1] + [2 * n for n in range(1, 13)]


# ------------------------------------------------- merged walks vs the tree

@pytest.mark.parametrize("kind", KINDS)
def test_validate_matches_tree_reference(kind):
    env = KINDS[kind]()
    depth = _depth(env, 8)
    report = sl.validate(env, depth)
    defect = None if report.first_defect_node is None else report.first_defect_node.symbols
    assert (report.is_semimeasure, report.is_measure_to_depth, defect) == \
        oracles.validate_tree(env, depth)


@pytest.mark.parametrize("values, node", [
    ({(): F(1), (1,): F(1), (0, 0): F(1, 2)}, (0,)),
    ({(): F(1), (0,): F(1, 2), (1,): F(1, 2), (0, 1): F(1), (1, 0): F(1)}, (0,)),
    ({(): F(1), (0,): F(1, 2), (1,): F(1, 2), (1, 0): F(1)}, (1,)),
    ({(): F(3, 2)}, ()),
])
def test_validate_reports_first_defect_including_zero_mass_nodes(values, node):
    env = sl.TableEnv(2, values)
    report = sl.validate(env, 2)
    assert not report.is_semimeasure
    assert report.first_defect_node.symbols == node
    assert oracles.validate_tree(env, 2)[2] == node


def test_table_first_defect_matches_validate():
    """The stored-entry check finds the node the full walk finds, on random
    sparse tables (negative entries included), defective or not."""
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        depth = rng.randint(1, 6)
        values = {(): F(rng.randint(0, 9), 8)}
        for _ in range(rng.randint(0, 8)):
            key = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, depth)))
            values[key] = F(rng.randint(-1, 8), 2 ** len(key) * rng.randint(1, 2))
        env = sl.TableEnv(depth, values)
        report = sl.validate(env, depth)
        assert env.first_defect() == report.first_defect_node, values
        outcomes.add(report.is_semimeasure)
    assert outcomes == {True, False}


def _dominance_cases():
    for make in (_product_class, _table_class):
        env_class = make()
        mix = _mixture(env_class, sl.RAW)
        for i in range(1, len(env_class) + 1):
            w = mix.weights.weight(i)
            yield mix, env_class.env(i), w
            yield mix, env_class.env(i), 3 * w
            yield env_class.env(i), mix, w


def test_dominance_matches_tree_reference():
    outcomes = []
    for nu, mu, w in _dominance_cases():
        depth = _depth(nu, _depth(mu, 8))
        got = sl.verify_dominance(nu, mu, w, depth)
        assert got == oracles.dominates_tree(nu, mu, w, depth)
        outcomes.append(got)
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("kind", [k for k in KINDS if not k.startswith("mixture-")
                                  or k in ("mixture-raw", "mixture-table-raw")])
def test_total_mass_matches_support_sum(kind):
    base = KINDS[kind]()
    quasi = sl.QuasimeasureEnv(base, 8)
    for n in range(_depth(base, 8) + 1):
        expected = sum((m for _, m in sl.enumerate_support(base, n)), F(0))
        assert quasi.total_mass(n) == expected


# ------------------------------------------- row-sum certificates vs walks

def _markov_missing_behind_zero():
    """Order 2 without a (1, 1) row: both ways into it, after (1,) or
    (0, 1), take symbol 1 with probability 0."""
    return 2, {
        (): [F(1, 2), F(1, 2)], (0,): [F(1, 4), F(3, 4)], (1,): [F(1), F(0)],
        (0, 0): [F(1, 2), F(1, 2)], (0, 1): [F(1), F(0)], (1, 0): [F(1, 3), F(2, 3)]}


def _markov_missing_at_depth_1():
    # the string 1 needs the (1,) row
    return 1, {(): [F(1, 2), F(1, 2)], (0,): [F(1, 3), F(2, 3)]}


def _markov_missing_at_depth_3():
    # 001 is the first string to need the (0, 1) row
    return 2, {(): [F(1), F(0)], (0,): [F(1), F(0)], (0, 0): [F(1, 2), F(1, 2)]}


#: (order, transitions) of chains with a context that has no row, beside
#: KINDS' chains, whose every context has one
MARKOV_GAPS = {"markov-missing-behind-zero": _markov_missing_behind_zero,
               "markov-missing-at-1": _markov_missing_at_depth_1,
               "markov-missing-at-3": _markov_missing_at_depth_3}

#: what the constructor says of a reachable context with no row
NO_ROW = r"^reachable transition context ([01]*) has no row$"


def _outcome(run):
    """What a check returns, or the error it raises with its message."""
    try:
        return run()
    except SemilabError as exc:
        return type(exc), str(exc)


def _report(env, depth):
    report = sl.validate(env, depth)
    defect = None if report.first_defect_node is None else report.first_defect_node.symbols
    assert report.depth == depth
    return report.is_semimeasure, report.is_measure_to_depth, defect


def _walking(env):
    env.rows_sum_to_one = False  # shadows the class attribute: validate walks
    return env


@pytest.mark.parametrize("kind", [*KINDS, *MARKOV_GAPS])
def test_certificate_matches_the_walk(kind):
    if kind in MARKOV_GAPS:
        order, transitions = MARKOV_GAPS[kind]()
        if oracles.first_string_at_a_missing_row(order, transitions) is not None:
            # a chain some walk would need a missing row of is never built
            with pytest.raises(ValueError, match=NO_ROW):
                sl.MarkovEnv(order, transitions)
            return
    make = KINDS.get(kind) or (lambda: sl.MarkovEnv(order, transitions))
    env = make()
    for depth in range(_depth(env, 8) + 1):
        certified = _outcome(lambda: _report(env, depth))
        walked = _outcome(lambda: _report(_walking(make()), depth))
        assert certified == walked == _outcome(lambda: oracles.validate_tree(env, depth))


@pytest.mark.parametrize("make, first_bad_depth", [
    (_markov_missing_at_depth_1, 2), (_markov_missing_at_depth_3, 4)])
def test_missing_reachable_context_raises_as_before(make, first_bad_depth):
    # a walk to depth first_bad_depth read the missing row first; the
    # constructor refuses the chain before any walk
    order, transitions = make()
    gap = oracles.first_string_at_a_missing_row(order, transitions)
    assert len(gap) == first_bad_depth - 1
    with pytest.raises(ValueError, match=NO_ROW):
        sl.MarkovEnv(order, transitions)


def test_missing_context_is_where_the_reachability_search_stopped():
    for make, ctx in ((_markov_missing_at_depth_1, "1"), (_markov_missing_at_depth_3, "01")):
        with pytest.raises(ValueError, match=f"^reachable transition context {ctx} has no row$"):
            sl.MarkovEnv(*make())
    # its one context without a row is reached only at mass 0
    assert oracles.first_string_at_a_missing_row(*_markov_missing_behind_zero()) is None
    assert sl.MarkovEnv(*_markov_missing_behind_zero()).rows_sum_to_one


def test_certificate_is_set_exactly_for_row_checked_kinds():
    kinds = {**KINDS, "markov-missing-behind-zero":
             lambda: sl.MarkovEnv(*_markov_missing_behind_zero())}
    certified = {kind for kind, make in kinds.items() if make().rows_sum_to_one}
    assert certified == {"bernoulli", "bernoulli-dead-branch", "categorical", "uniform",
                         "markov", "markov-two-values", "markov-order2-zeros", "decaying",
                         "deterministic", "markov-missing-behind-zero"}
    assert sl.uniform_measure().rows_sum_to_one
    assert sl.uniform_measure(sl.Alphabet(3)).rows_sum_to_one
    # a user-declared measure of any other kind is still walked
    assert not sl.NormalizedEnv(sl.BernoulliEnv(F(1, 2)), sl.MEASURE).rows_sum_to_one


_ENTRIES = st.sampled_from([F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])


@st.composite
def _markov_tables(draw):
    """Binary transitions of order 1-2, each context kept with probability
    2/3: (order, transitions)."""
    order = draw(st.integers(1, 2))
    transitions = {}
    for n in range(order + 1):
        for ctx in product((0, 1), repeat=n):
            p = draw(_ENTRIES)
            if draw(st.integers(0, 2)):
                transitions[ctx] = [1 - p, p]
    return order, transitions


@settings(max_examples=150, deadline=None)
@given(_markov_tables())
def test_markov_closure_matches_the_tree(table):
    # the constructor refuses exactly the chains in which a string of
    # positive mass needs a missing row, and names a context with no row
    order, transitions = table
    if oracles.first_string_at_a_missing_row(order, transitions) is not None:
        with pytest.raises(ValueError, match=NO_ROW) as err:
            sl.MarkovEnv(order, transitions)
        named = re.match(NO_ROW, str(err.value)).group(1)
        assert tuple(map(int, named)) not in transitions
        return
    env = sl.MarkovEnv(order, transitions)
    assert env.rows_sum_to_one
    for checked in (env, _walking(sl.MarkovEnv(order, transitions))):
        assert _report(checked, 6) == oracles.validate_tree(env, 6) == (True, True, None)
    quasi = sl.QuasimeasureEnv(_walking(sl.MarkovEnv(order, transitions)), 8)
    for n in range(7):
        assert quasi.total_mass(n) == sum((m for _, m in sl.enumerate_support(env, n)), F(0)) == 1


def _count_all_walks(monkeypatch):
    """Record every walk validate and the quasimeasure totals start: the
    module, the environment walked and the deepest level it reached."""
    walks = []

    def patch(module):
        def counting_walk(envs, depth, **kwargs):
            walk = [module.__name__, envs[0], -1]
            walks.append(walk)  # counted when started, even if never advanced

            def states():
                for state in walk_states(envs, depth, **kwargs):
                    walk[2] = len(state[0])
                    yield state
            return states()
        monkeypatch.setattr(module, "walk_states", counting_walk)

    patch(envcore)
    patch(mixtures)
    return walks


def test_certifying_a_class_of_product_measures_walks_nothing(monkeypatch):
    walks = _count_all_walks(monkeypatch)
    env_class, weights = parse_class({"class": [{"kind": "decaying", "beta": 3},
                                                {"kind": "bernoulli", "p": "3/8"}]})
    mix = sl.MixtureEnv(env_class, weights, sl.RAW)
    assert mix.declared_class == sl.STRICT_SEMIMEASURE  # default weights sum below 1
    assert env_class.measure_indices() == (1, 2)
    assert walks == []


CLASS_FIXTURES = [f for f in sorted(FIXTURES.glob("*.json"))
                  if "class" in json.loads(f.read_text())]


@pytest.mark.parametrize("fixture", CLASS_FIXTURES, ids=lambda f: f.name)
def test_parsing_a_fixture_walks_nothing(fixture, monkeypatch):
    # no fixture declares a measure its constructor does not certify, and
    # the parser walks nothing else
    walks = _count_all_walks(monkeypatch)
    spec = json.loads(fixture.read_text())
    env_class, _ = parse_class(spec)
    if "mu" in spec:
        _mu_from(spec, env_class)
    assert walks == []


_UNIFORM_TABLE = {"kind": "table", "depth": 3, "declared_class": "measure",
                  "values": {"".join(x): f"1/{2 ** n}" for n in range(4)
                             for x in product("01", repeat=n)}}


@pytest.mark.parametrize("subcommand", [s for s in RUNNERS if s != "chain-lemma"])
def test_a_declared_measure_is_walked_once_per_run(subcommand, monkeypatch):
    # the parser refuses a declared measure through the class's certificate,
    # which every later reader of the class reuses; envcore's walks are
    # validate's (the quasimeasure totals walk in mixtures)
    walks = _count_all_walks(monkeypatch)
    spec = {"class": [{"kind": "bernoulli", "p": "1/2"}, _UNIFORM_TABLE],
            "mu_index": 1, "k0": [2]}
    result = run_experiment(subcommand, spec, 3, 64, 1)
    assert result.outcomes
    assert [type(env) for module, env, _ in walks if module == "semilab.envcore"] == [
        sl.TableEnv]


def test_w_vs_d_walks_only_the_leaky_member(monkeypatch):
    walks = _count_all_walks(monkeypatch)
    spec = json.loads((FIXTURES / "quasi_leaky.json").read_text())
    result = run_experiment("w-vs-d", spec, 200, 128, 1)
    assert result.outcomes == ["certified-holds"]
    # the parser walks no strict semimeasure; its quasimeasure's totals stop
    # at the cutoff 2: level 2 is totalled from the children of level 1, so
    # the walk yields nothing deeper
    assert [(module, type(env), reached) for module, env, reached in walks] == [
        ("semilab.mixtures", sl.LeakyEnv, 1)]


@pytest.mark.parametrize("make", [_product_class, _table_class,
                                  lambda: sl.EnvClass([sl.BernoulliEnv(F(1, 4)),
                                                       sl.BernoulliEnv(F(1, 2)),
                                                       sl.BernoulliEnv(F(3, 4))])])
def test_delta_hat_worst_ratio_matches_tree_reference(make):
    env_class = make()
    weights = sl.default_weights(len(env_class))
    for k in range(2, len(env_class) + 1):
        prev = sl.MixtureEnv(env_class, weights, sl.NORMALIZED_MEASURES_ONLY, k=k - 1)
        curr = sl.MixtureEnv(env_class, weights, sl.NORMALIZED_MEASURES_ONLY, k=k)
        worst = oracles.worst_ratio_tree(prev, curr, 7)
        verdict = delta_hat_ratio_check(env_class, weights, k, 7)
        assert verdict.lhs_lo == f"{worst.numerator}/{worst.denominator}"


_MISMATCH_TABLE = {"kind": "table", "depth": 5, "values": {
    "": "1", "1": "1", "10": "1/2", "11": "15/32", "101": "1/2", "110": "7/16",
    "1010": "1/2", "1101": "13/32", "10101": "1/2", "11010": "3/8"}}


@pytest.mark.parametrize("members, equal_from, expected", [
    ([{"kind": "bernoulli", "p": "1/2"}, _MISMATCH_TABLE], 2, "10"),
    ([{"kind": "bernoulli", "p": "1/2"}, _MISMATCH_TABLE], 4, "1010"),
    ([{"kind": "bernoulli", "p": "1/2"},
      {"kind": "leaky", "base": {"kind": "bernoulli", "p": "1/2"}, "leak": "1/2"}], 2, None),
    ([{"kind": "bernoulli", "p": "1/2"},
      {"kind": "leaky", "base": {"kind": "bernoulli", "p": "1/2"}, "leak": "1/2"}], 1, "0"),
])
def test_quasimeasure_first_mismatch_matches_tree_reference(members, equal_from, expected):
    depth = 5
    spec = {"class": members, "weights": ["1/4", "1/4"], "equal_from": equal_from}
    doc = run_quasimeasure(spec, depth, 64, None).documents["verdicts"]["w-equals-d"]
    env_class = sl.EnvClass([parse_environment(m) for m in members])
    weights = sl.WeightScheme((F(1, 4), F(1, 4)))
    w_mix = sl.MixtureEnv(env_class, weights, sl.QUASI, quasi_depth_cap=depth)
    d_mix = sl.MixtureEnv(env_class, weights, sl.MEASURES_ONLY)
    assert doc["first_mismatch"] == oracles.first_mismatch_tree(
        w_mix, d_mix, equal_from, depth) == expected


@pytest.mark.parametrize("kind", [k for k in KINDS if KINDS[k]().alphabet.size == 2])
def test_quasimeasure_first_mismatch_matches_tree_reference_on_every_kind(kind):
    # the runner compares W and D as cross-multiplied integer pairs, the
    # reference as exact rationals
    depth = 5
    members = [{"kind": "bernoulli", "p": "1/2"}, KINDS[kind]().spec()]
    env_class, weights = parse_class({"class": members, "weights": ["1/4", "1/4"]})
    w_mix = sl.MixtureEnv(env_class, weights, sl.QUASI, quasi_depth_cap=depth)
    d_mix = sl.MixtureEnv(env_class, weights, sl.MEASURES_ONLY)
    for equal_from in (1, 2, 3):
        spec = {"class": members, "weights": ["1/4", "1/4"], "equal_from": equal_from}
        doc = run_quasimeasure(spec, depth, 64, None).documents["verdicts"]["w-equals-d"]
        assert doc["first_mismatch"] == oracles.first_mismatch_tree(
            w_mix, d_mix, equal_from, depth), equal_from


# ------------------------------------------- expectations vs the tree

def _dominated_pair(kind):
    """mu of the given kind under nu = (mu + uniform) / 2, so nu >= mu / 2."""
    mu = KINDS[kind]()
    nu = sl.MixtureEnv(sl.EnvClass([mu, sl.uniform_measure(mu.alphabet)]),
                       sl.WeightScheme((F(1, 2), F(1, 2))))
    return nu, mu, F(1, 2)


def _mixture_over_member(kind):
    """nu a mixture of the given mode, mu its first member (weight 1/8)."""
    return KINDS[kind](), _product_class().env(1), F(1, 8)


def _one_key_per_level():
    """The uniform measure keyed by () on every string: sufficient within a
    level, where its mass depends on the length alone, though keys repeat
    across levels."""
    mu = sl.uniform_measure()
    make_cursor = mu.cursor

    def cursor():
        c = make_cursor()
        c.state_key = lambda: ()
        return c

    mu.cursor = cursor
    nu = sl.MixtureEnv(sl.EnvClass([mu, mu]), sl.WeightScheme((F(1, 2), F(1, 2))))
    return nu, mu, F(1, 2)


EXPECTATION_CASES = {kind: (lambda k=kind: _dominated_pair(k)) for kind in KINDS}
EXPECTATION_CASES.update({f"nu-{kind}": (lambda k=kind: _mixture_over_member(k))
                          for kind in KINDS if kind.startswith("mixture-")
                          and "table" not in kind})
EXPECTATION_CASES["one-key-per-level"] = _one_key_per_level


def _overlap(x, y):
    x_lo, x_hi = endpoints(x)
    y_lo, y_hi = endpoints(y)
    return x_lo <= y_hi and y_lo <= x_hi


@pytest.mark.parametrize("case", EXPECTATION_CASES)
def test_expectations_overlap_tree_reference(case):
    nu, mu, _ = EXPECTATION_CASES[case]()
    depth = _depth(nu, _depth(mu, 7))
    sums = sl.expected_hellinger_sums(nu, mu, depth, 128)
    with precision(128):
        sqrt_sum, hell_sum, excess = oracles.expected_hellinger_sums_tree(nu, mu, depth)
        assert _overlap(sums["sqrt_ratio_sum"], sqrt_sum)
        assert _overlap(sums["hellinger_sum"], hell_sum)
        assert sums["off_support_excess"] == excess
        for kappa in (F(1, 2), F(1, 4)):
            e = sl.expected_exp_half_sum(nu, mu, depth, kappa, 128)
            assert _overlap(e, oracles.expected_exp_half_sum_tree(nu, mu, depth, kappa))


@pytest.mark.parametrize("case", EXPECTATION_CASES)
def test_tail_masses_equal_tree_reference(case):
    """Exact equality: each path's cumulative enclosure is formed by the
    same interval additions as in the tree.  The threshold sits at the
    median path's sum, so mass lies on both sides of it, and at 12 bits
    many enclosures straddle it."""
    nu, mu, w = EXPECTATION_CASES[case]()
    depth = _depth(nu, _depth(mu, 7))
    for bits in (12, 128):
        with precision(bits):
            cums = sorted(endpoints(cum)[0] for _, cum in
                          oracles.paths_tree(nu, mu, depth, sl.hellinger_step))
            ln_inv_w = iv.log(1 / from_fraction(w))
            median = cums[len(cums) // 2] if cums else F(0)  # mu may die out
            c = median - endpoints(ln_inv_w)[0]
            expected = oracles.tail_masses_tree(nu, mu, depth, ln_inv_w + from_fraction(c))
        report = sl.markov_tail_check(nu, mu, depth, w, c, precision_bits=bits)
        assert (report.exceed_mass, report.inconclusive_mass) == expected, bits


def _bern3_mix():
    spec = json.loads((FIXTURES / "bern3_mix.json").read_text())
    env_class, weights = parse_class(spec)
    return sl.MixtureEnv(env_class, weights), env_class.env(2), F(1, 3), 8


def _decaying_table():
    # decaying and table cursors never merge, one state per path; mu, the
    # table, has zeros in its rows, so the restricted sum is its own term
    env_class = sl.EnvClass([sl.DecayingEnv(2), _table()])
    return (sl.MixtureEnv(env_class, sl.WeightScheme((F(1, 2), F(1, 2)))),
            env_class.env(2), F(1, 2), 5)


def _boxed(value):
    """A carried value with its integer pairs boxed into mpf tuples: a
    ``(lo, hi)`` pair of pairs, or a Counter keyed by such pairs."""
    if isinstance(value, Counter):
        return Counter({_boxed(key): k for key, k in value.items()})
    return to_mpf(value[0]), to_mpf(value[1])


def _recording_carry(monkeypatch):
    """Record what ``divergence._carry`` yields, boxed: every depth-n
    state's (count, mu_mass, carried raw value)."""
    leaves = []
    carry = divergence._carry

    def recording(*args):
        for leaf in carry(*args):
            count, mass, value = leaf
            leaves.append((count, F(*mass), _boxed(value)))
            yield leaf

    monkeypatch.setattr(divergence, "_carry", recording)
    return leaves


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("make", [_bern3_mix, _decaying_table])
def test_folds_match_the_interval_object_fold_bit_for_bit(monkeypatch, make, bits):
    nu, mu, w, n = make()
    expected = {kappa: oracles.hellinger_expectations_iv(nu, mu, n, kappa, bits)
                for kappa in (F(1, 2), F(1, 4))}
    expected_tail = oracles.tail_states_iv(nu, mu, n, bits)
    leaves = _recording_carry(monkeypatch)
    for kappa, want in expected.items():
        leaves.clear()
        got = divergence.hellinger_expectations(nu, mu, n, kappa, w, bits)
        assert leaves == want["leaves"]
        assert got["exp_half_sum"]._mpi_ == want["exp_half_sum"]
        if kappa == F(1, 2):
            assert got["sqrt_ratio_sum"]._mpi_ == want["sqrt_ratio_sum"]
            assert got["hellinger_sum"]._mpi_ == want["hellinger_sum"]
    leaves.clear()
    divergence.markov_tail_checks(nu, mu, n, w, [F(1), F(4)], bits)
    assert leaves == expected_tail


def test_tail_checks_classify_every_threshold_from_one_walk(monkeypatch):
    nu, mu, w = EXPECTATION_CASES["markov"]()
    depth = 6
    with precision(128):
        ln_inv_w = iv.log(1 / from_fraction(w))
        cums = sorted(endpoints(cum)[0] for _, cum in
                      oracles.paths_tree(nu, mu, depth, sl.hellinger_step))
        # thresholds at a quarter, half and three quarters of the path sums
        cs = [cums[len(cums) * i // 4] - endpoints(ln_inv_w)[0] for i in (1, 2, 3)] + [F(1)]
    reports = sl.markov_tail_checks(nu, mu, depth, w, cs, 128)
    with precision(128):
        for c, report in zip(cs, reports):
            expected = oracles.tail_masses_tree(nu, mu, depth, ln_inv_w + from_fraction(c))
            assert (report.exceed_mass, report.inconclusive_mass) == expected, c
            assert report == sl.markov_tail_check(nu, mu, depth, w, c, 128)
    assert len({r.exceed_mass for r in reports}) > 1

    walks = _count_walks(monkeypatch)
    run_markov_tail(dict(_BERN3, c=["1", "2", "4"]), 5, 64, None)
    assert walks == [5]  # the tail walk checks dominance too


_BERN3 = {"class": [{"kind": "bernoulli", "p": p} for p in ("1/4", "1/2", "3/4")],
          "mu_index": 2}


def _count_walks(monkeypatch):
    """Record the depth of every walk the divergence module starts."""
    walks = []

    def counting_walk(envs, depth, **kwargs):
        walks.append(depth)
        return walk_states(envs, depth, **kwargs)

    monkeypatch.setattr(divergence, "walk_states", counting_walk)
    return walks


@pytest.mark.parametrize("extra", [{}, {"kappa": "1/4"}, {"kappa": "1/2"}])
def test_hellinger_bounds_run_one_walk(monkeypatch, extra):
    walks = _count_walks(monkeypatch)
    result = run_verify_hellinger_bounds(dict(_BERN3, **extra), 5, 64, None)
    assert walks == [5]  # dominance, every sum and the exponential together
    assert set(result.outcomes) == {"certified-holds"}


@pytest.mark.parametrize("run", [run_verify_hellinger_bounds, run_markov_tail])
def test_walk_skips_mu_null_subtrees(monkeypatch, run):
    """A point-mass mu under a never-merging nu: the support walk visits one
    state per level, where the full walk would visit 2^n strings."""
    spec = {"class": [{"kind": "deterministic", "prefix": "", "period": "0"},
                      {"kind": "decaying", "beta": 2}],
            "weights": ["1/2", "1/4"], "mu_index": 1}
    states = []

    def counting_walk(envs, depth, **kwargs):
        for state in walk_states(envs, depth, **kwargs):
            states.append(state[0])
            yield state

    monkeypatch.setattr(divergence, "walk_states", counting_walk)
    for depth in (4, 8, 16):
        states.clear()
        run(spec, depth, 64, None)
        assert states == [(0,) * t for t in range(depth + 1)]


# ------------------------------------------ single-string walks vs prefixes

def _length(env, n=64):
    return n if env.max_depth is None else min(n, env.max_depth)


def _random_string(env, length, seed):
    rng = random.Random(seed)
    return sl.FiniteString(env.alphabet, tuple(
        rng.randrange(env.alphabet.size) for _ in range(length)))


def _support_symbols(env, seed):
    """Endless symbols of a string along which env keeps positive mass as
    long as it can; one seed always gives the same string."""
    rng = random.Random(seed)
    cursor = env.cursor()
    alive = cursor.mass != 0
    while True:
        choices = [a for a in env.alphabet.symbols if cursor.row_ratio()[0][a]] if alive else []
        a = rng.choice(choices) if choices else 0
        alive = bool(choices)
        if alive:
            cursor.step(a)
        yield a


def _support_string(env, length, seed):
    return sl.FiniteString(env.alphabet, tuple(islice(_support_symbols(env, seed), length)))


def _strings(env, length):
    return [_support_string(env, length, seed) for seed in range(2)] + \
        [_random_string(env, length, 0)]


@pytest.mark.parametrize("kind", KINDS)
def test_cursor_factor_matches_row(kind):
    """Each symbol's factor, its ``row_ratio()`` numerator over the row's
    positive denominator, is that symbol's entry of the posterior row; at
    mass 0 there is no row."""
    env = KINDS[kind]()
    for symbols, cursor in _cursors(env, _depth(env, 5)).items():
        if not _has_row(env, symbols):
            continue
        if cursor.mass == 0:
            with pytest.raises(UndefinedPosteriorError):
                cursor.row_ratio()
            continue
        nums, den = cursor.row_ratio()
        assert den > 0 and len(nums) == env.alphabet.size, symbols
        assert tuple(F(num, den) for num in nums) == oracles.posterior_row(env, symbols)


def _walked(env, symbols):
    cursor = env.cursor()
    for a in symbols:
        cursor.step(a)
    return cursor


@pytest.mark.parametrize("kind", KINDS)
def test_run_ratio_is_the_product_of_stepped_factors(kind):
    """Runs of length 0, 1 and more, from every live position of a few
    strings, the random one crossing zero factors where the kind has any."""
    env = KINDS[kind]()
    n = _depth(env, 6)
    for x in _strings(env, n):
        for i in range(n + 1):
            if not env._mass(x.symbols[:i]):
                continue
            for j in sorted({i, i + 1, n} - {n + 1}):
                run = x.symbols[i:j]
                ran, stepped = _walked(env, x.symbols[:i]), _walked(env, x.symbols[:i])
                num, den = ran.run_ratio(run)
                product = F(1)
                for a in run:
                    if product:
                        nums, row_den = stepped.row_ratio()
                        product *= F(nums[a], row_den)
                    stepped.step(a)
                if product:
                    assert den > 0 and F(num, den) == product, (x, i, j)
                else:
                    assert (num, den) == (0, 1), (x, i, j)
                assert product == env._mass(x.symbols[:j]) / env._mass(x.symbols[:i])
                assert ran.mass == stepped.mass and ran.state_key() == stepped.state_key()
                if ran.mass and _has_row(env, x.symbols[:j]):
                    assert ran.row() == stepped.row(), (x, i, j)


@pytest.mark.parametrize("beta", [2, 3, 4])
def test_decaying_run_factor_is_the_product_of_step_factors(beta):
    env = sl.DecayingEnv(beta)
    rng = random.Random(beta)
    for t in (0, 1, 7, 1000):
        for k in (0, 1, 2, 50):
            run = tuple(rng.randrange(2) for _ in range(k))
            num = den = 1
            for s, a in enumerate(run, start=t + 1):
                nums, row_den = env.row_ratio(s)
                num, den = num * nums[a], den * row_den
            assert env.run_factor(t, run) == (num, den), (t, run)


@pytest.mark.parametrize("kind", KINDS)
def test_prefix_walks_match_prefix_evaluation(kind):
    env = KINDS[kind]()
    strings = _strings(env, _length(env))
    for x in strings:
        assert [cursor.mass for (cursor,) in walk_string([env], x)] == [
            env.eval(x.prefix(k)) for k in range(len(x) + 1)]
    # env as the reference mixture, and as mu under (env + uniform) / 2,
    # along a string on its support
    x = strings[0]
    uniform = sl.uniform_measure(env.alphabet)
    mix = sl.MixtureEnv(sl.EnvClass([env, uniform]), sl.WeightScheme((F(1, 2), F(1, 2))))
    pairs = [(env, uniform)] + ([(mix, env)] if env.eval(x) != 0 else [])
    for m_ref, mu in pairs:
        trace = sl.deficiency_trace(m_ref, mu, x, len(x))
        ratios, logs, sup, d_bounds = oracles.deficiency_trace_prefixes(m_ref, mu, x, len(x))
        assert (trace.ratios, trace.log2_bounds, trace.sup_ratio, trace.d_bounds) == \
            (ratios, logs, sup, d_bounds)
        assert trace.prefix_lengths == list(range(len(x) + 1))


@pytest.mark.parametrize("kind", KINDS)
def test_leftmost_walk_matches_prefix_evaluation(kind):
    env = KINDS[kind]()
    n = _length(env)
    if env.alphabet.size != 2:
        with pytest.raises(SemilabError):
            sl.leftmost_random(env, n)
        return
    alpha = sl.leftmost_random(env, n)
    assert alpha.symbols == oracles.leftmost_random_prefixes(env, n)
    assert oracles.envelope_violations_prefixes(env, alpha) == []


def test_walks_past_the_stored_depth_raise_as_evaluation_does():
    # the table member dies on 1^k, where the mixture cursor stops stepping it
    env = _mixture(_table_class(), sl.RAW)
    x = sl.FiniteString(sl.BINARY, (1,) * 6)
    for call in (lambda: list(walk_string([env], x)),
                 lambda: sl.leftmost_random(env, 6),
                 lambda: sl.mass_interval(env, x),
                 lambda: env.eval(x)):
        with pytest.raises(DepthExceededError):
            call()


def test_e2i_ratios_match_prefix_evaluation():
    mu = sl.BernoulliEnv(F(2, 3))
    f = sl.IndicatorFunctional(F(1, 64))
    n = 6
    mubar = sl.e2i_build_mubar(mu, f, n)
    m_ext = sl.MixtureEnv(sl.EnvClass([mu, mubar]), sl.default_weights(2))
    for omega in _strings(mu, n) + [sl.FiniteString(sl.BINARY, (0,) * n)]:
        report = sl.e2i_individual_bound(m_ext, f, mu, omega, n)
        assert report.sup_ratio == oracles.deficiency_sup_ratio(m_ext, mu, omega, n)
        assert report.ratio == m_ext.eval(omega) / mu.eval(omega)


def _first_block(env, symbols, cap):
    """A run end of mass_interval on a string starting with ``symbols``
    (at most cap): the last one before the product of the run denominators
    passes _BLOCK_BITS bits, or the first when the first run does; cap when
    neither is reached before the string ends or a factor is 0."""
    cursor = env.cursor()
    if cursor.mass == 0:
        return 0  # a dead root: mass_interval reads no factor
    symbols = islice(symbols, cap)  # drawn lazily: support strings cost per symbol
    end, length, den = 0, 1, 1
    while run := tuple(islice(symbols, length)):
        num, run_den = cursor.run_ratio(run)
        if num == 0:
            break
        den *= run_den
        if end and den.bit_length() > envcore._BLOCK_BITS:
            return end
        end += len(run)
        length = envcore._next_run(length, run_den.bit_length())
    return cap


@pytest.mark.parametrize("kind", KINDS)
def test_mass_interval_contains_exact_mass_around_block_ends(kind, monkeypatch):
    # short blocks keep the exact masses of 3 blocks cheap to form
    monkeypatch.setattr(envcore, "_BLOCK_BITS", 256)
    env = KINDS[kind]()
    cap = _length(env, 2000)
    block = _first_block(env, _support_symbols(env, 0), cap)
    long = _support_string(env, min(3 * block + 5, cap), 0)
    lengths = sorted({n for n in (0, 1, block - 1, block, block + 1, 3 * block + 5)
                      if 0 <= n <= len(long)})
    for n in lengths:
        for x in (long.prefix(n), _random_string(env, n, 1)):
            exact = env.eval(x)
            box = sl.mass_interval(env, x, 128)
            lo, hi = endpoints(box)
            assert lo <= exact <= hi, n
            assert hi - lo <= exact / 2 ** 100, n
            old_lo, old_hi = endpoints(oracles.mass_interval_per_step(env, x, 128))
            assert lo <= old_hi and old_lo <= hi, n
            old_lo, old_hi = endpoints(oracles.mass_interval_blocked(env, x, 128))
            assert lo <= old_hi and old_lo <= hi, n


@pytest.mark.parametrize("env", [sl.DecayingEnv(2), sl.BernoulliEnv(F(3, 8))])
def test_mass_interval_closes_several_full_blocks(env):
    x = _random_string(env, 5000, 3)
    block = _first_block(env, iter(x.symbols), len(x))
    assert 1 < block and 3 * block + 5 <= len(x)
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        lo, hi = endpoints(sl.mass_interval(env, x.prefix(n), 128))
        assert lo <= env.eval(x.prefix(n)) <= hi, n


SAMPLED = {
    "bernoulli": KINDS["bernoulli"],
    "categorical": KINDS["categorical"],
    "markov": KINDS["markov"],
    "markov-order2-zeros": KINDS["markov-order2-zeros"],
    "decaying": KINDS["decaying"],
    "mixture-normalized": KINDS["mixture-normalized"],
    "mixture-measures": lambda: sl.MixtureEnv(
        sl.EnvClass([sl.BernoulliEnv(F(1, 3)), _markov()]),
        sl.WeightScheme((F(1, 4), F(3, 4)))),
}


@pytest.mark.parametrize("kind", SAMPLED)
def test_sample_likelihood_is_the_exact_mass_of_the_draw(kind):
    env = SAMPLED[kind]()
    assert env.declared_class == sl.MEASURE
    for seed in range(3):
        for length in (0, 1, 17, 64):
            omega, likelihood = sl.sample(env, length, seed)
            assert likelihood == env.eval(omega)
            assert (omega.symbols, likelihood) == oracles.sample_prefixes(env, length, seed)
