import json
from collections import Counter
from fractions import Fraction

import pytest

import semilab as sl
from semilab.cli import parse_class, run_counterexample
from semilab.counterexample import (
    NuLimitEnv,
    alpha_stage,
    build_mprime,
    contaminate,
    nu_limit,
    verify_nonconvergence,
)
from semilab.envcore import walk_states
from semilab.errors import (
    InconclusiveConfigurationError,
    NeedsLargerTMaxError,
    SemilabError,
)
from semilab.randomness import leftmost_random

import oracles
from conftest import FIXTURES

F = Fraction


# -------------------------------------------------------------- pivot stages

def test_stage_pivot_from_the_final_stage_is_the_leftmost_prefix(canonical_mixture):
    # from stage len(class) on the partial sum is the mixture itself
    alpha = leftmost_random(canonical_mixture, 8)
    for t in (3, 4, 8):
        assert alpha_stage(canonical_mixture, t) == alpha.prefix(t)


def test_stage_pivot_at_zero_is_empty(canonical_mixture):
    assert alpha_stage(canonical_mixture, 0) == sl.FiniteString.empty()


def test_stage_pivots_nondecreasing_with_partial_sums(canonical_mixture):
    pivots = [alpha_stage(canonical_mixture, t) for t in range(1, 7)]
    for a, b in zip(pivots, pivots[1:]):
        assert a.symbols <= b.symbols[:len(a)] or a.symbols < b.symbols


def _five_members():
    return sl.MixtureEnv(sl.EnvClass([
        sl.DeterministicEnv([], [0]), sl.BernoulliEnv(F(1, 3)), sl.DecayingEnv(2),
        sl.DeterministicEnv([0, 1], [0]), sl.uniform_measure()]),
        sl.default_weights(5), sl.RAW)


@pytest.mark.parametrize("build", [
    lambda: sl.MixtureEnv(sl.EnvClass([sl.uniform_measure(), sl.DecayingEnv(2)]),
                          sl.WeightScheme((F(1, 2), F(1, 4))), sl.RAW),
    _five_members,
], ids=["two-members", "five-members"])
def test_stage_pivots_match_the_stage_eval_oracle_to_128(build):
    m = build()
    # from the final stage on the partial sum is M itself, so every later
    # pivot is a prefix of the oracle's pivot at 128
    full = _alpha_stage_by_prefixes(m, 128)
    for t in range(1, 129):
        expected = full.prefix(t) if t >= len(m.env_class) else _alpha_stage_by_prefixes(m, t)
        assert alpha_stage(m, t) == expected


def test_stage_pivot_walks_cursors_not_prefixes(monkeypatch):
    # the class of the limit test: no member is evaluated from the root at a
    # nonempty string, so the pivot costs one cursor step per symbol
    m = sl.MixtureEnv(sl.EnvClass([sl.uniform_measure(), sl.DecayingEnv(2)]),
                      sl.WeightScheme((F(1, 2), F(1, 4))), sl.RAW)
    expected = [_alpha_stage_by_prefixes(m, t) for t in (1, 2, 5, 16)]
    calls = []
    for cls in (sl.CategoricalIIDEnv, sl.DecayingEnv):
        def recording_mass(env, symbols, _mass=cls._mass):
            if symbols:
                calls.append(symbols)
            return _mass(env, symbols)

        monkeypatch.setattr(cls, "_mass", recording_mass)
    assert [alpha_stage(m, t) for t in (1, 2, 5, 16)] == expected
    alpha_stage(m, 128)
    assert calls == []


def _alpha_stage_by_prefixes(m, t):
    """The pivot with every candidate evaluated by the ``stage_eval`` oracle."""
    symbols = ()
    for k in range(1, t + 1):
        candidate = sl.FiniteString(m.alphabet, symbols + (0,))
        symbols += (0,) if oracles.stage_eval(m, max(t, 1), candidate) <= F(1, 2 ** k) else (1,)
    return sl.FiniteString(m.alphabet, symbols)


# -------------------------------------------------------------- stage tables

def test_stage_table_worked_example():
    ns = NuLimitEnv(sl.FiniteString.parse("01"), horizon=2)
    val = ns.eval
    assert val(sl.FiniteString.parse("00")) == F(1, 4)
    assert val(sl.FiniteString.parse("01")) == 0
    assert val(sl.FiniteString.parse("10")) == 0
    assert val(sl.FiniteString.parse("11")) == 0
    assert val(sl.FiniteString.parse("0")) == F(1, 4)
    assert val(sl.FiniteString.parse("1")) == 0
    assert val(sl.FiniteString.parse("")) == F(1, 4)


def test_stage_table_leftmost_pivot_is_empty():
    ns = NuLimitEnv(sl.FiniteString.parse("0000"), horizon=4)
    assert ns.eval(sl.FiniteString.parse("")) == 0
    assert [m for n in range(5) for _, m in sl.enumerate_support(ns, n)] == []


def test_stage_table_rightmost_pivot_fills_everything_below():
    ns = NuLimitEnv(sl.FiniteString.parse("111"), horizon=3)
    for n in range(4):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            expected = oracles.nu_stage_value((1, 1, 1), 3, x.symbols)
            assert ns.eval(x) == expected
    # strictly below the all-ones spine everything carries 2^-len
    assert ns.eval(sl.FiniteString.parse("10")) == F(1, 4)
    assert ns.eval(sl.FiniteString.parse("110")) == F(1, 8)


def test_stage_values_match_direct_leaf_counting():
    pivot = sl.FiniteString.parse("0110")
    ns = NuLimitEnv(pivot, horizon=4)
    for n in range(5):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            assert ns.eval(x) == oracles.nu_stage_value(pivot.symbols, 4, x.symbols)


def test_stage_tables_are_semimeasures_and_monotone(canonical_mixture):
    prev = None
    for t in range(1, 7):
        env = NuLimitEnv(alpha_stage(canonical_mixture, t), horizon=t)
        assert sl.validate(env, t).is_semimeasure
        if prev is not None:
            for n in range(t):
                for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
                    assert prev.eval(x) <= env.eval(x)
        prev = env


def test_stage_values_never_exceed_the_uniform_envelope():
    ns = NuLimitEnv(sl.FiniteString.parse("10101"), horizon=5)
    for n in range(6):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            assert ns.eval(x) <= F(1, 2 ** n)


# ---------------------------------------------------------------- limit env

def test_limit_values_on_canonical_class(canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    e = sl.FiniteString.parse
    # alpha = 0100...: each on-spine value is the dyadic tail of alpha's
    # remaining 1-digits, which empties out after the single 1 at position 2
    assert nu.eval(e("")) == F(1, 4)
    assert nu.eval(e("0")) == F(1, 4)
    assert nu.eval(e("01")) == 0
    assert nu.eval(e("010")) == 0
    assert nu.eval(e("1")) == 0
    assert nu.eval(e("00")) == F(1, 4)
    assert nu.eval(e("011")) == 0
    # children sum exactly at every on-spine node
    assert nu.eval(e("0")) == nu.eval(e("00")) + nu.eval(e("01"))


def test_limit_is_a_flat_measure_after_normalization(canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    report = sl.validate(nu, 6)
    assert report.is_semimeasure
    normalized = sl.NormalizedEnv(nu, sl.MEASURE)
    assert sl.validate(normalized, 6).is_measure_to_depth


def test_limit_never_exceeds_uniform(canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    for n in range(7):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            assert nu.eval(x) <= F(1, 2 ** n)


def test_limit_dominates_every_stage(canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    for t in (2, 4, 6):
        env = NuLimitEnv(alpha_stage(canonical_mixture, t), horizon=t)
        for n in range(t + 1):
            for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
                assert env.eval(x) <= nu.eval(x)


def test_limit_for_all_zero_pivot_vanishes():
    m = sl.MixtureEnv(sl.EnvClass([sl.uniform_measure()]),
                      sl.WeightScheme((F(1),)), sl.RAW)
    nu = nu_limit(m, 8)
    assert nu.eval(sl.FiniteString.parse("")) == 0
    assert nu.eval(sl.FiniteString.parse("0000")) == 0


def test_limit_requires_certifiable_tail():
    # a decaying-step measure never certifies a halving zero-step, so the
    # limit cannot be frozen at any finite horizon
    m = sl.MixtureEnv(sl.EnvClass([sl.DecayingEnv(2)]),
                      sl.WeightScheme((F(1),)), sl.RAW)
    with pytest.raises(NeedsLargerTMaxError):
        nu_limit(m, 12)


def test_limit_reads_its_certificate_from_the_walk_cursor(monkeypatch):
    # the decaying member never certifies, so the walk runs to the horizon;
    # no member is evaluated from the root at any nonempty string
    m = sl.MixtureEnv(sl.EnvClass([sl.uniform_measure(), sl.DecayingEnv(2)]),
                      sl.WeightScheme((F(1, 2), F(1, 4))), sl.RAW)
    calls = []
    for cls in (sl.CategoricalIIDEnv, sl.DecayingEnv):
        def recording_mass(env, symbols, _mass=cls._mass):
            if symbols:
                calls.append(symbols)
            return _mass(env, symbols)

        monkeypatch.setattr(cls, "_mass", recording_mass)
    with pytest.raises(NeedsLargerTMaxError, match="within horizon 64"):
        nu_limit(m, 64)
    assert calls == []


def test_limit_stops_at_its_certificate(canonical_mixture, monkeypatch):
    from semilab.mixtures import _MixtureCursor
    steps = []
    step = _MixtureCursor.step

    def counting_step(cursor, a):
        steps.append(a)
        step(cursor, a)

    monkeypatch.setattr(_MixtureCursor, "step", counting_step)
    nu = nu_limit(canonical_mixture, 10 ** 4)
    k = nu.spec()["tail_zero_from"]
    assert k == len(nu.alpha_prefix) < 10
    # the candidate 0-step plus at most one 1-step per symbol of alpha
    assert len(steps) <= 2 * k
    assert nu.alpha_prefix == leftmost_random(canonical_mixture, k)


# --------------------------------------------------------------- composition

def test_contamination_weight_range(canonical_mixture):
    nu = NuLimitEnv(sl.FiniteString.parse("01"))
    with pytest.raises(ValueError):
        build_mprime(nu, canonical_mixture, F(1, 5))
    with pytest.raises(ValueError):
        build_mprime(nu, canonical_mixture, F(0))
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    assert isinstance(cm, sl.MixtureEnv) and cm.mode == sl.RAW
    assert cm.env_class.envs == [nu, canonical_mixture]
    assert cm.weights.weights == (F(8, 9), F(1, 9))


def test_contaminated_values_are_the_exact_blend(canonical_mixture):
    nu = NuLimitEnv(sl.FiniteString.parse("01"))
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    x = sl.FiniteString.parse("01")
    assert cm.eval(x) == F(8, 9) * nu.eval(x) + F(1, 9) * canonical_mixture.eval(x)


def test_contamination_of_nothing_scales_the_mixture(canonical_mixture):
    dead = NuLimitEnv(sl.FiniteString.empty())
    assert dead.eval(sl.FiniteString.parse("")) == 0
    cm = build_mprime(dead, canonical_mixture, F(1, 9))
    x = sl.FiniteString.parse("010")
    assert cm.eval(x) == F(1, 9) * canonical_mixture.eval(x)


def test_contaminated_mixture_still_dominates_components(canonical_mixture,
                                                         canonical_weights):
    nu = NuLimitEnv(sl.FiniteString.parse("01"))
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    from semilab.divergence import verify_dominance
    for i in (1, 2, 3):
        w = F(1, 9) * canonical_weights.weight(i)
        assert verify_dominance(cm, canonical_mixture.env_class.env(i), w, 4)


# -------------------------------------------------------------- verification

def test_posterior_gap_certified_on_canonical_class(canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    alpha = leftmost_random(canonical_mixture, 16)
    report = verify_nonconvergence(cm, alpha, 15)
    assert report.all_certified
    assert len(report.positions) == 1
    p = report.positions[0]
    assert p.n == 1
    assert p.mprime_posterior == F(20, 23)
    assert p.bound == F(2, 3)
    assert p.gap == F(20, 23) - F(1, 2)
    assert p.nu_before == p.nu_at == F(1, 4)


def test_verification_report_serializes(canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    alpha = leftmost_random(canonical_mixture, 16)
    d = verify_nonconvergence(cm, alpha, 15).as_dict()
    assert d["gamma"] == "1/9"
    assert d["alpha_prefix"].startswith("0100")
    assert d["counts"]["positions"] == 1
    assert d["positions"][0]["mprime_posterior"] == "20/23"


def test_degenerate_class_is_reported_inconclusive():
    m = sl.MixtureEnv(sl.EnvClass([sl.uniform_measure()]),
                      sl.WeightScheme((F(1),)), sl.RAW)
    nu = nu_limit(m, 8)
    cm = build_mprime(nu, m, F(1, 9))
    alpha = leftmost_random(m, 8)
    with pytest.raises(InconclusiveConfigurationError):
        verify_nonconvergence(cm, alpha, 8)


def test_verification_steps_cursors_not_prefixes(canonical_mixture, monkeypatch):
    # nu, M' and every member are read through cursors walked along alpha;
    # none is evaluated from the root at a nonempty string
    nu = nu_limit(canonical_mixture, 64)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    alpha = leftmost_random(canonical_mixture, 64)
    expected = verify_nonconvergence(cm, alpha, 63)
    calls = []
    for cls in (NuLimitEnv, sl.MixtureEnv, sl.CategoricalIIDEnv, sl.DeterministicEnv):
        def recording_mass(env, symbols, _mass=cls._mass):
            if symbols:
                calls.append(symbols)
            return _mass(env, symbols)

        monkeypatch.setattr(cls, "_mass", recording_mass)
    assert verify_nonconvergence(cm, alpha, 63) == expected
    assert calls == []


def test_verification_matches_evaluation_from_the_root(canonical_mixture):
    # alpha = 0101...: eight 01-positions, each checked against four
    # evaluations from the root, as the report was formed before
    nu = nu_limit(canonical_mixture, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    alpha = sl.FiniteString.parse("01" * 8)
    report = verify_nonconvergence(cm, alpha, 15)
    assert [p.n for p in report.positions] == list(range(1, 16, 2))
    for p in report.positions:
        before, at = alpha.prefix(p.n - 1), alpha.prefix(p.n)
        assert (p.nu_before, p.nu_at) == (nu.eval(before), nu.eval(at))
        assert p.mprime_posterior == cm.eval(at) / cm.eval(before)


@pytest.mark.parametrize("nu", [
    NuLimitEnv(sl.FiniteString.parse("0101")),
    NuLimitEnv(sl.FiniteString.parse("0110"), horizon=4),
    NuLimitEnv(sl.FiniteString.empty()),
], ids=["limit", "stage", "dead"])
def test_spine_keys_are_below_on_the_spine_or_dead(nu):
    for _, (cursor,), _, (key,), _ in walk_states([nu], 8):
        assert key in ("below", "spine", None)
        assert (key is None) == (cursor.mass == 0)


def test_contaminated_walk_keeps_two_states_per_level(canonical_mixture):
    # below the spine every string merges into one nu key, so M' against the
    # uniform measure stays linear in the depth instead of doubling
    nu = nu_limit(canonical_mixture, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    levels = Counter(len(symbols) for symbols, *_ in
                     walk_states([cm, sl.uniform_measure()], 40, support=1))
    assert sorted(levels) == list(range(41))
    assert all(count <= 2 * (n + 1) for n, count in levels.items())


def test_verification_rejects_envelope_violations(canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    # the 0-spine point mass keeps M(00) = 3/8 above the 1/4 envelope
    bogus = sl.FiniteString.parse("0011")
    with pytest.raises(SemilabError):
        verify_nonconvergence(cm, bogus, 3)


@pytest.mark.parametrize("build", [
    lambda nu, m: m,
    lambda nu, m: contaminate(nu, m, F(1, 9)).env_class.env(1),
    lambda nu, m: sl.MixtureEnv(sl.EnvClass([nu, sl.uniform_measure()]),
                                sl.WeightScheme((F(8, 9), F(1, 9))), sl.RAW),
    lambda nu, m: sl.MixtureEnv(sl.EnvClass([nu, m]),
                                sl.WeightScheme((F(1, 2), F(1, 9))), sl.RAW),
    lambda nu, m: sl.MixtureEnv(sl.EnvClass([nu, m]),
                                sl.WeightScheme((F(8, 9), F(1, 9))), sl.QUASI),
], ids=["the-mixture", "nu", "m-not-a-mixture",
        "weights-short-of-1", "not-raw"])
def test_verification_refuses_a_mixture_that_is_not_mprime(canonical_mixture, build):
    nu = nu_limit(canonical_mixture, 16)
    alpha = leftmost_random(canonical_mixture, 16)
    with pytest.raises(SemilabError, match="expected M'"):
        verify_nonconvergence(build(nu, canonical_mixture), alpha, 15)


def test_counterexample_run_walks_m_only_in_nu_limit_and_the_envelope_check(monkeypatch):
    # the run reads alpha off nu instead of walking M along it a third time:
    # M's own cursor (not the one inside M', which steps with M') steps only
    # in nu_limit and, once per symbol, in verify_nonconvergence's envelope check
    from semilab.mixtures import _MixtureCursor
    spec = json.loads((FIXTURES / "counterexample_canonical.json").read_text())
    depth = 512
    steps, nested = [], [0]
    step = _MixtureCursor.step

    def recording_step(cursor, a):
        if not nested[0] and not isinstance(cursor._env.env_class.env(1), NuLimitEnv):
            steps.append(a)
        nested[0] += 1
        try:
            step(cursor, a)
        finally:
            nested[0] -= 1

    monkeypatch.setattr(_MixtureCursor, "step", recording_step)
    nu_limit(sl.MixtureEnv(*parse_class(spec), sl.RAW), depth)
    in_nu_limit = len(steps)
    assert 0 < in_nu_limit < depth
    steps.clear()
    result = run_counterexample(spec, depth, 128, None)
    assert result.outcomes == [sl.CERTIFIED_HOLDS]
    assert len(steps) == in_nu_limit + depth
