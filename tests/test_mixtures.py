from fractions import Fraction
from itertools import product

import pytest

import semilab as sl
from semilab.errors import (
    ApproximableNotMeasureError,
    NotDominatedError,
    SemilabError,
)
from semilab.mixtures import stage_cursor

import oracles

F = Fraction


# ------------------------------------------------------------------ weights

def test_weights_are_positive_and_substochastic():
    with pytest.raises(ValueError):
        sl.WeightScheme((F(0), F(1, 2)))
    with pytest.raises(ValueError):
        sl.WeightScheme((F(2, 3), F(2, 3)))


def test_default_weight_values():
    ws = sl.default_weights(3)
    assert ws.weight(1) == F(1, 2)
    assert ws.weight(2) == F(1, 2 ** 6 * 4)
    assert ws.weight(3) == F(1, 3 ** 6 * 8)
    assert sum(ws.weights) <= 1


def test_weight_indexing_is_one_based():
    ws = sl.default_weights(2)
    with pytest.raises(IndexError):
        ws.weight(0)
    with pytest.raises(IndexError):
        ws.weight(3)


# ---------------------------------------------------------------- env class

def test_measure_membership_uses_validation_not_declaration(quasi_class):
    assert quasi_class.is_measure(1)
    assert not quasi_class.is_measure(2)
    assert quasi_class.measure_indices() == (1,)


def test_class_requires_shared_alphabet():
    with pytest.raises(SemilabError):
        sl.EnvClass([sl.BernoulliEnv(F(1, 2)),
                     sl.CategoricalIIDEnv([F(1, 3)] * 3)])


# ----------------------------------------------------------- quasimeasures

def test_quasimeasure_keeps_measures_untouched():
    q = sl.QuasimeasureEnv(sl.BernoulliEnv(F(1, 2)), depth_cap=8)
    assert q.cutoff_depth() is None
    assert q.eval(sl.FiniteString.parse("0101")) == F(1, 16)


def test_quasimeasure_cutoff_for_leaking_mass():
    leaky = sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2))
    q = sl.QuasimeasureEnv(leaky, depth_cap=8)
    # depth-n total mass is 2^-n; survives only while 2^-n > 1 - 1/n
    assert q.alive_at(0)
    assert q.alive_at(1)
    assert q.cutoff_depth() == 2
    assert q.eval(sl.FiniteString.parse("0")) == F(1, 4)
    assert q.eval(sl.FiniteString.parse("00")) == 0


def test_quasimeasure_cutoff_is_monotone():
    leaky = sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(3, 4))
    q = sl.QuasimeasureEnv(leaky, depth_cap=12)
    cut = q.cutoff_depth()
    assert cut is not None
    for n in range(cut, 13):
        assert not q.alive_at(n)
    for n in range(0, cut):
        assert q.alive_at(n)


def test_quasimeasure_cutoff_walks_the_base_once(monkeypatch):
    from semilab import mixtures
    calls = []

    def counting_walk(envs, depth):
        calls.append(depth)
        return walk_states(envs, depth)

    walk_states = mixtures.walk_states
    monkeypatch.setattr(mixtures, "walk_states", counting_walk)
    q = sl.QuasimeasureEnv(sl.BernoulliEnv(F(3, 8)), depth_cap=24)
    assert q.cutoff_depth() is None
    assert [q.total_mass(n) for n in (24, 3, 0)] == [1, 1, 1]
    assert calls == []  # an i.i.d. base totals 1 by its rows
    leaky = sl.QuasimeasureEnv(sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2)), 24)
    assert leaky.cutoff_depth() == 2
    assert len(leaky._totals) == 3  # the walk stopped at the cutoff
    assert len(calls) == 1


class _RaisesPastLength1(sl.Environment):
    """Uniform to length 1, with no stored depth; every longer mass raises."""

    alphabet = sl.BINARY
    declared_class = sl.STRICT_SEMIMEASURE

    def _mass(self, symbols):
        if len(symbols) > 1:
            raise SemilabError("no mass past length 1")
        return F(1, 2 ** len(symbols))


def test_quasimeasure_totals_read_no_row_below_the_level_above():
    # level 1 totals from the root's row alone, and level 2 needs the masses
    # of length 2, every time it is asked for
    q = sl.QuasimeasureEnv(_RaisesPastLength1(), 8)
    assert q.total_mass(1) == 1
    for _ in range(2):
        with pytest.raises(SemilabError) as err:
            q.total_mass(2)
        assert type(err.value) is SemilabError
        assert str(err.value) == "no mass past length 1"


def test_quasimeasure_never_exceeds_base():
    leaky = sl.LeakyEnv(sl.BernoulliEnv(F(1, 3)), F(2, 3))
    q = sl.QuasimeasureEnv(leaky, depth_cap=10)
    for n in range(5):
        for x, m in sl.enumerate_support(sl.uniform_measure(), n):
            assert q.eval(x) <= leaky.eval(x)


# ------------------------------------------------------------------ mixture

def test_raw_mixture_is_the_weighted_sum(bern3_class, bern3_uniform_weights):
    mix = sl.MixtureEnv(bern3_class, bern3_uniform_weights, sl.RAW)
    x = sl.FiniteString.parse("011")
    expected = sum(F(1, 3) * bern3_class.env(i).eval(x) for i in (1, 2, 3))
    assert mix.eval(x) == expected
    assert mix.declared_class == sl.MEASURE


def test_mixture_dominates_components(bern3_class, bern3_uniform_weights):
    mix = sl.MixtureEnv(bern3_class, bern3_uniform_weights, sl.RAW)
    for i in (1, 2, 3):
        w = sl.dominance_constant(mix, i)
        assert w == F(1, 3)
        from semilab.divergence import verify_dominance
        assert verify_dominance(mix, bern3_class.env(i), w, 5)


def test_measures_only_mixture_drops_non_measures(quasi_class):
    ws = sl.default_weights(2)
    d = sl.MixtureEnv(quasi_class, ws, sl.MEASURES_ONLY)
    assert d.membership() == (1,)
    x = sl.FiniteString.parse("01")
    assert d.eval(x) == ws.weight(1) * F(1, 4)
    with pytest.raises(NotDominatedError):
        sl.dominance_constant(d, 2)


def test_quasi_mixture_equals_measure_mixture_past_cutoff(quasi_class):
    ws = sl.default_weights(2)
    w_mix = sl.MixtureEnv(quasi_class, ws, sl.QUASI, quasi_depth_cap=8)
    d_mix = sl.MixtureEnv(quasi_class, ws, sl.MEASURES_ONLY)
    for n in range(2, 6):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            assert w_mix.eval(x) == d_mix.eval(x)
    # below the cutoff they differ
    assert w_mix.eval(sl.FiniteString.parse("0")) != d_mix.eval(sl.FiniteString.parse("0"))


def test_first_live_truncated_component_index(quasi_class):
    ws = sl.default_weights(2)
    w_mix = sl.MixtureEnv(quasi_class, ws, sl.QUASI, quasi_depth_cap=8)
    assert sl.k_x(w_mix, sl.FiniteString.parse("0")) == 2
    assert sl.k_x(w_mix, sl.FiniteString.parse("00")) is None
    with pytest.raises(SemilabError):
        sl.k_x(sl.MixtureEnv(quasi_class, ws, sl.RAW), sl.FiniteString.parse("0"))


def test_normalized_measures_only_mixture_is_a_measure(bern3_class):
    ws = sl.default_weights(3)
    d_hat = sl.MixtureEnv(bern3_class, ws, sl.NORMALIZED_MEASURES_ONLY)
    assert d_hat.eval(sl.FiniteString.parse("")) == 1
    assert sl.validate(d_hat, 4).is_measure_to_depth
    # normalization divides by the weight total
    x = sl.FiniteString.parse("01")
    raw = sl.MixtureEnv(bern3_class, ws, sl.MEASURES_ONLY)
    assert d_hat.eval(x) == raw.eval(x) / sum(ws.weights)


def _stage_mass(m, t, x):
    cursor = stage_cursor(m, t)
    for a in x.symbols:
        cursor.step(a)
    return cursor.mass


def test_partial_sum_stages_of_a_normalized_target_end_at_the_target(bern3_class):
    target = sl.MixtureEnv(bern3_class, sl.default_weights(3), sl.NORMALIZED_MEASURES_ONLY)
    assert stage_cursor(target, len(bern3_class)).mass == 1
    for n in range(4):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            values = [_stage_mass(target, t, x) for t in range(1, len(bern3_class) + 1)]
            assert values == [oracles.stage_eval(target, t, x)
                              for t in range(1, len(bern3_class) + 1)]
            assert values == sorted(values)
            assert values[-1] == target.eval(x)


@pytest.mark.parametrize("mode, option", [
    (sl.RAW, {"k": 1}),
    (sl.QUASI, {"k": 1}),
    (sl.RAW, {"quasi_depth_cap": 8}),
    (sl.MEASURES_ONLY, {"quasi_depth_cap": 8}),
    (sl.NORMALIZED_MEASURES_ONLY, {"quasi_depth_cap": 8}),
])
def test_mixture_refuses_an_option_its_mode_ignores(bern3_class, mode, option):
    with pytest.raises(ValueError):
        sl.MixtureEnv(bern3_class, sl.default_weights(3), mode, **option)


def _tables_class():
    """A member of unbounded depth, a measure table stored to depth 3 and a
    strict table stored to depth 2."""
    uniform = {x: F(1, 2 ** n) for n in range(4) for x in product((0, 1), repeat=n)}
    return sl.EnvClass([sl.BernoulliEnv(F(1, 2)), sl.TableEnv(3, uniform, sl.BINARY, sl.MEASURE),
                        sl.TableEnv(2, {(): F(1), (0,): F(1, 2)})])


def _leaky_class():
    return sl.EnvClass([sl.BernoulliEnv(F(1, 2)),
                        sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2))])


@pytest.mark.parametrize("make, mode, option, expected", [
    (_tables_class, sl.RAW, {}, 2),
    (_tables_class, sl.QUASI, {"quasi_depth_cap": 8}, 2),  # tables shallower than the cap
    (_leaky_class, sl.QUASI, {"quasi_depth_cap": 8}, 8),
    (_leaky_class, sl.QUASI, {}, sl.mixtures.DEFAULT_QUASI_DEPTH_CAP),
    (_leaky_class, sl.RAW, {}, None),
    (_tables_class, sl.MEASURES_ONLY, {}, 3),
    (_tables_class, sl.MEASURES_ONLY, {"k": 1}, None),
    (_tables_class, sl.NORMALIZED_MEASURES_ONLY, {}, 3),
])
def test_mixture_depth_is_the_least_depth_of_what_it_mixes(make, mode, option, expected):
    env_class = make()
    mix = sl.MixtureEnv(env_class, sl.default_weights(len(env_class)), mode, **option)
    depths = [mix.component(i).max_depth for i in mix.membership()]
    assert mix.max_depth == min((d for d in depths if d is not None), default=None)
    assert mix.max_depth == expected


def test_truncated_mixture_prefix_k(bern3_class):
    ws = sl.default_weights(3)
    d2 = sl.MixtureEnv(bern3_class, ws, sl.MEASURES_ONLY, k=2)
    assert d2.membership() == (1, 2)
    x = sl.FiniteString.parse("1")
    expected = ws.weight(1) * F(1, 4) + ws.weight(2) * F(1, 2)
    assert d2.eval(x) == expected


def test_mixture_cursor_agrees_with_direct_eval(bern3_class, bern3_uniform_weights):
    mix = sl.MixtureEnv(bern3_class, bern3_uniform_weights, sl.RAW)
    cursor = mix.cursor()
    path = (0, 1, 1, 0, 1)
    for t, a in enumerate(path):
        prefix = sl.FiniteString(sl.BINARY, path[:t])
        assert cursor.row() == mix.posterior(prefix)
        cursor.step(a)
    assert cursor.mass == mix.eval(sl.FiniteString(sl.BINARY, path))


def test_normalized_mixture_cursor_rows(bern3_class):
    ws = sl.default_weights(3)
    d_hat = sl.MixtureEnv(bern3_class, ws, sl.NORMALIZED_MEASURES_ONLY, k=2)
    cursor = d_hat.cursor()
    path = (1, 0, 1)
    for t, a in enumerate(path):
        prefix = sl.FiniteString(sl.BINARY, path[:t])
        assert cursor.row() == d_hat.posterior(prefix)
        cursor.step(a)


# ------------------------------------------------------------ normalization

def test_normalize_rescales_total_mass(quasi_class):
    ws = sl.default_weights(2)
    mix = sl.MixtureEnv(quasi_class, ws, sl.MEASURES_ONLY)
    norm = sl.normalize(mix)
    assert norm.eval(sl.FiniteString.parse("")) == 1
    assert sl.validate(norm, 4).is_measure_to_depth


def test_normalize_refuses_live_truncated_strict_component(quasi_class):
    ws = sl.default_weights(2)
    w_mix = sl.MixtureEnv(quasi_class, ws, sl.QUASI, quasi_depth_cap=8)
    with pytest.raises(ApproximableNotMeasureError):
        sl.normalize(w_mix)


# ---------------------------------------------------------- staged mixtures

def test_partial_sum_stages_increase_to_the_mixture(bern3_class, bern3_uniform_weights):
    mix = sl.MixtureEnv(bern3_class, bern3_uniform_weights, sl.RAW)
    x = sl.FiniteString.parse("010")
    values = [_stage_mass(mix, t, x) for t in (1, 2, 3, 4)]
    assert values == [oracles.stage_eval(mix, t, x) for t in (1, 2, 3, 4)]
    assert values[0] < values[1] < values[2] == values[3] == mix.eval(x)
    with pytest.raises(ValueError):
        stage_cursor(mix, 0)
