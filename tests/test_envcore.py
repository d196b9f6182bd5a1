from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab as sl
from semilab.envcore import BitStream, _draw_symbol, _draw_table, row_ratio_of
from semilab.errors import (
    DepthExceededError,
    NotAMeasureError,
    UndefinedPosteriorError,
)

import oracles

F = Fraction


# ---------------------------------------------------------------- strings

def test_alphabet_rejects_unary():
    with pytest.raises(ValueError):
        sl.Alphabet(1)


def test_string_parse_and_order():
    a = sl.FiniteString.parse("010")
    b = sl.FiniteString.parse("011")
    assert a < b and a <= b and len(a) == 3
    assert str(a) == "010"
    assert a.prefix(2) == sl.FiniteString.parse("01")
    assert a.prefix(2).append(1) == b


def test_string_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        sl.FiniteString(sl.BINARY, (0, 2))


def test_prefix_refuses_a_length_its_string_does_not_have():
    a = sl.FiniteString.parse("010")
    assert a.prefix(3) == a
    with pytest.raises(ValueError, match="n exceeds the provided sequence length"):
        a.prefix(4)


def test_prefix_refuses_a_negative_length():
    # a negative n would slice from the end: "0110".prefix(-1) read as "011"
    with pytest.raises(ValueError, match="prefix length -1 is negative"):
        sl.FiniteString.parse("0110").prefix(-1)


def test_empty_string_prints_placeholder():
    assert str(sl.FiniteString.empty()) == "<empty>"


# ------------------------------------------------------------ environments

def test_bernoulli_masses_and_posterior():
    env = sl.BernoulliEnv(F(1, 3))
    assert env.eval(sl.FiniteString.parse("")) == 1
    assert env.eval(sl.FiniteString.parse("1")) == F(1, 3)
    assert env.eval(sl.FiniteString.parse("10")) == F(2, 9)
    assert env.posterior(sl.FiniteString.parse("10")) == (F(2, 3), F(1, 3))


def test_bernoulli_rejects_invalid_probability():
    with pytest.raises(ValueError):
        sl.BernoulliEnv(F(4, 3))


def test_categorical_requires_exact_total():
    with pytest.raises(ValueError):
        sl.CategoricalIIDEnv([F(1, 2), F(1, 3)])


def test_uniform_measure_values():
    lam = sl.uniform_measure()
    assert lam.eval(sl.FiniteString.parse("0101")) == F(1, 16)


def test_markov_chain_mass():
    env = sl.MarkovEnv(1, {
        (): [F(1, 2), F(1, 2)],
        (0,): [F(3, 4), F(1, 4)],
        (1,): [F(1, 4), F(3, 4)],
    })
    # 0 then 0|0 then 1|0
    assert env.eval(sl.FiniteString.parse("001")) == F(1, 2) * F(3, 4) * F(1, 4)
    report = sl.validate(env, 5)
    assert report.is_semimeasure and report.is_measure_to_depth


def test_markov_missing_context_is_an_error():
    # the string 1 has mass 1/2 and reaches the context (1,), which has no row
    with pytest.raises(ValueError, match="^reachable transition context 1 has no row$"):
        sl.MarkovEnv(1, {(): [F(1, 2), F(1, 2)], (0,): [F(1), F(0)]})


def test_deterministic_point_mass():
    env = sl.DeterministicEnv([1], [0])
    assert env.eval(sl.FiniteString.parse("100")) == 1
    assert env.eval(sl.FiniteString.parse("11")) == 0
    assert sl.validate(env, 6).is_measure_to_depth


def test_leaky_is_strict_semimeasure():
    env = sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2))
    assert env.eval(sl.FiniteString.parse("0")) == F(1, 4)
    report = sl.validate(env, 4)
    assert report.is_semimeasure and not report.is_measure_to_depth


def test_leaky_rejects_leak_outside_unit_interval():
    with pytest.raises(ValueError):
        sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1))


def test_decaying_step_probabilities():
    env = sl.DecayingEnv(3)

    def one_prob(t):
        nums, den = env.row_ratio(t)
        return F(nums[1], den)

    assert one_prob(1) == F(1, 2)
    assert one_prob(2) == F(1, 16)
    assert env.eval(sl.FiniteString.parse("00")) == F(1, 2) * F(15, 16)
    assert sl.validate(env, 4).is_measure_to_depth


def test_table_env_depth_guard():
    env = sl.TableEnv(1, {(): F(1), (0,): F(1, 2)})
    assert env.eval(sl.FiniteString.parse("0")) == F(1, 2)
    with pytest.raises(DepthExceededError):
        env.eval(sl.FiniteString.parse("00"))


@pytest.mark.parametrize("depth, size, key, message", [
    (1, 2, (0, 0), "table key 00 is longer than the depth 1"),
    (1, 2, (2,), "table key 2 holds a symbol outside alphabet of size 2"),
    (2, 3, (0, 3), "table key 03 holds a symbol outside alphabet of size 3"),
], ids=["one-deeper", "binary-symbol-2", "ternary-symbol-3"])
def test_table_env_refuses_a_key_it_cannot_serve(depth, size, key, message):
    alphabet = sl.Alphabet(size)
    served = (size - 1,) * depth  # as deep and as large as a key may be
    assert sl.TableEnv(depth, {(): F(1), served: F(0)}, alphabet).values[served] == 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        sl.TableEnv(depth, {(): F(1), key: F(0)}, alphabet)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sl.MuBarEnv({key: F(0)}, depth, alphabet, 1)


@pytest.mark.parametrize("ctx, message", [
    ((0, 0), "transition context 00 is longer than the order 1"),
    ((7,), "transition context 7 holds a symbol outside alphabet of size 2"),
], ids=["longer-than-order", "symbol-outside-alphabet"])
def test_markov_env_refuses_a_context_no_string_reaches(ctx, message):
    halves = [F(1, 2), F(1, 2)]
    rows = {(): halves, (0,): halves, (1,): halves}
    assert sl.MarkovEnv(1, rows).rows_sum_to_one
    with pytest.raises(ValueError, match=f"^{message}$"):
        sl.MarkovEnv(1, {**rows, ctx: halves})


def test_validation_detects_node_defect():
    bad = sl.TableEnv(1, {(): F(1, 2), (0,): F(1, 2), (1,): F(1, 2)})
    report = sl.validate(bad, 1)
    assert not report.is_semimeasure
    assert report.first_defect_node == sl.FiniteString.empty()


def test_posterior_outside_support_raises():
    env = sl.DeterministicEnv([], [0])
    with pytest.raises(UndefinedPosteriorError):
        env.posterior(sl.FiniteString.parse("1"))


# ------------------------------------------------------------------ cursors

@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_cursor_rows_match_direct_posteriors(path):
    env = sl.MarkovEnv(1, {
        (): [F(1, 2), F(1, 2)],
        (0,): [F(2, 3), F(1, 3)],
        (1,): [F(1, 5), F(4, 5)],
    })
    cursor = env.cursor()
    for t, a in enumerate(path):
        assert cursor.row() == oracles.posterior_row(env, tuple(path[:t]))
        cursor.step(a)
    assert cursor.mass == env.eval(sl.FiniteString(sl.BINARY, tuple(path)))


def test_cursor_clone_is_independent():
    env = sl.BernoulliEnv(F(1, 3))
    c = env.cursor()
    c.step(1)
    d = c.clone()
    d.step(1)
    c.step(0)
    assert c.mass == F(1, 3) * F(2, 3)
    assert d.mass == F(1, 9)


# -------------------------------------------------------------- enumeration

def test_support_enumeration_is_lexicographic_and_complete():
    env = sl.BernoulliEnv(F(1, 2))
    items = list(sl.enumerate_support(env, 2))
    assert [str(x) for x, _ in items] == ["00", "01", "10", "11"]
    assert all(m == F(1, 4) for _, m in items)


def test_support_enumeration_skips_zero_mass():
    env = sl.DeterministicEnv([], [0])
    items = list(sl.enumerate_support(env, 3))
    assert [str(x) for x, _ in items] == ["000"]


# ----------------------------------------------------------------- sampling

def test_sampling_is_reproducible_and_exact():
    env = sl.BernoulliEnv(F(1, 3))
    x1, like1 = sl.sample(env, 32, seed=5)
    x2, like2 = sl.sample(env, 32, seed=5)
    assert x1 == x2 and like1 == like2
    assert like1 == env.eval(x1)
    x3, _ = sl.sample(env, 32, seed=6)
    assert x3 != x1


def test_sampling_requires_a_measure():
    leaky = sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2))
    with pytest.raises(NotAMeasureError):
        sl.sample(leaky, 4, seed=0)


def test_draw_matches_distribution_statistically():
    stream = BitStream(123)
    row = (F(1, 4), F(3, 4))
    draws = [_draw_symbol(stream, _draw_table(row_ratio_of(row))) for _ in range(2000)]
    freq = sum(draws) / len(draws)
    assert 0.70 < freq < 0.80


def test_draw_never_returns_zero_probability_symbol():
    stream = BitStream(9)
    row = (F(0), F(1))
    assert all(_draw_symbol(stream, _draw_table(row_ratio_of(row))) == 1 for _ in range(50))


def test_bitstream_is_a_pure_function_of_seed():
    a = [BitStream(7).next_bit() for _ in range(1)]
    b = [BitStream(7).next_bit() for _ in range(1)]
    assert a == b
    s1, s2 = BitStream(7), BitStream(8)
    assert [s1.next_bit() for _ in range(64)] != [s2.next_bit() for _ in range(64)]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_bitstream_rejects_seeds_outside_64_bits(seed):
    # masking would make -1 and 2^64 - 1 (or 2^64 and 0) the same stream
    with pytest.raises(ValueError):
        BitStream(seed)


# ------------------------------------------------------------ interval eval

def test_mass_interval_encloses_exact_value():
    env = sl.BernoulliEnv(F(1, 3))
    x = sl.FiniteString.parse("0110")
    from semilab.intervals import endpoints
    lo, hi = endpoints(sl.mass_interval(env, x, 64))
    exact = env.eval(x)
    assert lo <= exact <= hi


def test_mass_interval_decaying_fast_path_agrees_with_exact():
    env = sl.DecayingEnv(2)
    x = sl.FiniteString(sl.BINARY, (0,) * 50)
    from semilab.intervals import endpoints
    lo, hi = endpoints(sl.mass_interval(env, x, 96))
    exact = env.eval(x)
    assert lo <= exact <= hi
    assert hi - lo < F(1, 10 ** 20)


@pytest.mark.parametrize("derive", [
    lambda base: sl.LeakyEnv(base, F(1, 2)),
    lambda base: sl.NormalizedEnv(base, sl.STRICT_SEMIMEASURE),
], ids=["leaky", "normalized"])
def test_scaled_cursor_stops_at_the_base_depth(derive):
    env = derive(sl.TableEnv(2, {(): F(1), (0,): F(1, 2), (0, 0): F(1, 4)}))
    cursor = env.cursor()
    cursor.step(0)
    cursor.step(0)
    with pytest.raises(DepthExceededError):
        cursor.row()
    with pytest.raises(DepthExceededError):
        cursor.step(0)


def test_validation_checks_zero_mass_nodes():
    # node 0 has mass 0, yet its child 00 has mass 1/2
    bad = sl.TableEnv(2, {(): F(1), (1,): F(1), (0, 0): F(1, 2)})
    report = sl.validate(bad, 2)
    assert not report.is_semimeasure
    assert report.first_defect_node == sl.FiniteString.parse("0")


def test_decaying_cursor_tracks_mass():
    env = sl.DecayingEnv(3)
    cursor = env.cursor()
    for a in (0, 1, 0, 0):
        cursor.step(a)
    assert cursor.mass == env.eval(sl.FiniteString.parse("0100"))
