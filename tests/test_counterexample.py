from fractions import Fraction

import pytest

import semilab as sl
from semilab.counterexample import (
    ContaminatedMixture,
    NuLimitEnv,
    NuStageEnv,
    alpha_stage,
    build_mprime,
    nu_limit,
    nu_stage,
    verify_nonconvergence,
)
from semilab.errors import (
    InconclusiveConfigurationError,
    NeedsLargerTMaxError,
    SemilabError,
)
from semilab.randomness import leftmost_random

import oracles

F = Fraction


# -------------------------------------------------------------- pivot stages

def test_stage_pivot_with_exact_rule_matches_limit(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    alpha = leftmost_random(canonical_mixture, 8)
    for t in (0, 1, 4, 8):
        assert alpha_stage(stages, t) == alpha.prefix(t)


def test_stage_pivot_at_zero_is_empty(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    assert alpha_stage(stages, 0) == sl.FiniteString.empty()


def test_stage_pivots_nondecreasing_with_partial_sums(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture, rule=sl.PARTIAL_SUM)
    pivots = [alpha_stage(stages, t) for t in range(1, 7)]
    for a, b in zip(pivots, pivots[1:]):
        assert a.symbols <= b.symbols[:len(a)] or a.symbols < b.symbols


# -------------------------------------------------------------- stage tables

def test_stage_table_worked_example():
    ns = nu_stage(sl.FiniteString.parse("01"), 2)
    val = ns.value
    assert val(sl.FiniteString.parse("00")) == F(1, 4)
    assert val(sl.FiniteString.parse("01")) == 0
    assert val(sl.FiniteString.parse("10")) == 0
    assert val(sl.FiniteString.parse("11")) == 0
    assert val(sl.FiniteString.parse("0")) == F(1, 4)
    assert val(sl.FiniteString.parse("1")) == 0
    assert val(sl.FiniteString.parse("")) == F(1, 4)


def test_stage_table_leftmost_pivot_is_empty():
    ns = nu_stage(sl.FiniteString.parse("0000"), 4)
    assert ns.value(sl.FiniteString.parse("")) == 0
    assert ns.table() == {}


def test_stage_table_rightmost_pivot_fills_everything_below():
    ns = nu_stage(sl.FiniteString.parse("111"), 3)
    for n in range(4):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            expected = oracles.nu_stage_value((1, 1, 1), 3, x.symbols)
            assert ns.value(x) == expected
    # strictly below the all-ones spine everything carries 2^-len
    assert ns.value(sl.FiniteString.parse("10")) == F(1, 4)
    assert ns.value(sl.FiniteString.parse("110")) == F(1, 8)


def test_stage_values_match_direct_leaf_counting():
    pivot = sl.FiniteString.parse("0110")
    ns = nu_stage(pivot, 4)
    for n in range(5):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            assert ns.value(x) == oracles.nu_stage_value(pivot.symbols, 4, x.symbols)


def test_stage_tables_are_semimeasures_and_monotone(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    prev = None
    for t in range(1, 7):
        env = nu_stage(alpha_stage(stages, t), t).env
        assert sl.validate(env, t).is_semimeasure
        if prev is not None:
            for n in range(t):
                for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
                    assert prev.eval(x) <= env.eval(x)
        prev = env


def test_stage_values_never_exceed_the_uniform_envelope():
    ns = nu_stage(sl.FiniteString.parse("10101"), 5)
    for n in range(6):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            assert ns.value(x) <= F(1, 2 ** n)


# ---------------------------------------------------------------- limit env

def test_limit_values_on_canonical_class(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    nu = nu_limit(stages, 16)
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
    stages = sl.StageApproximation(canonical_mixture)
    nu = nu_limit(stages, 16)
    report = sl.validate(nu, 6)
    assert report.is_semimeasure
    normalized = sl.NormalizedEnv(nu, sl.MEASURE)
    assert sl.validate(normalized, 6).is_measure_to_depth


def test_limit_never_exceeds_uniform(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    nu = nu_limit(stages, 16)
    for n in range(7):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            assert nu.eval(x) <= F(1, 2 ** n)


def test_limit_dominates_every_stage(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    nu = nu_limit(stages, 16)
    for t in (2, 4, 6):
        env = nu_stage(alpha_stage(stages, t), t).env
        for n in range(t + 1):
            for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
                assert env.eval(x) <= nu.eval(x)


def test_limit_for_all_zero_pivot_vanishes():
    m = sl.MixtureEnv(sl.EnvClass([sl.uniform_measure()]),
                      sl.WeightScheme((F(1),)), sl.RAW)
    nu = nu_limit(sl.StageApproximation(m), 8)
    assert nu.eval(sl.FiniteString.parse("")) == 0
    assert nu.eval(sl.FiniteString.parse("0000")) == 0


def test_limit_requires_certifiable_tail():
    # a decaying-step measure never certifies a halving zero-step, so the
    # limit cannot be frozen at any finite horizon
    m = sl.MixtureEnv(sl.EnvClass([sl.DecayingEnv(2)]),
                      sl.WeightScheme((F(1),)), sl.RAW)
    with pytest.raises(NeedsLargerTMaxError):
        nu_limit(sl.StageApproximation(m), 12)


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
        nu_limit(sl.StageApproximation(m), 64)
    assert calls == []


def test_limit_stops_at_its_certificate(canonical_mixture, monkeypatch):
    from semilab.mixtures import _MixtureCursor
    steps = []
    step = _MixtureCursor.step

    def counting_step(cursor, a):
        steps.append(a)
        step(cursor, a)

    monkeypatch.setattr(_MixtureCursor, "step", counting_step)
    nu = nu_limit(sl.StageApproximation(canonical_mixture), 10 ** 4)
    k = nu.tail_start
    assert k == len(nu.alpha_prefix) < 10
    # the candidate 0-step plus at most one 1-step per symbol of alpha
    assert len(steps) <= 2 * k
    assert nu.alpha_prefix == leftmost_random(canonical_mixture, k)


def test_partial_sum_staging_needs_the_full_horizon(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture, rule=sl.PARTIAL_SUM)
    with pytest.raises(NeedsLargerTMaxError):
        nu_limit(stages, 2)
    nu = nu_limit(stages, 16)
    assert nu.eval(sl.FiniteString.parse("")) == F(1, 4)


# --------------------------------------------------------------- composition

def test_contamination_weight_range(canonical_mixture):
    nu = NuLimitEnv(sl.FiniteString.parse("01"), 2)
    with pytest.raises(ValueError):
        build_mprime(nu, canonical_mixture, F(1, 5))
    with pytest.raises(ValueError):
        build_mprime(nu, canonical_mixture, F(0))
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    assert isinstance(cm, ContaminatedMixture)
    assert cm.posterior_bound == F(2, 3)


def test_contaminated_values_are_the_exact_blend(canonical_mixture):
    nu = NuLimitEnv(sl.FiniteString.parse("01"), 2)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    x = sl.FiniteString.parse("01")
    assert cm.env.eval(x) == F(8, 9) * nu.eval(x) + F(1, 9) * canonical_mixture.eval(x)


def test_contamination_of_nothing_scales_the_mixture(canonical_mixture):
    dead = NuLimitEnv(sl.FiniteString.empty(), 0)
    assert dead.eval(sl.FiniteString.parse("")) == 0
    cm = build_mprime(dead, canonical_mixture, F(1, 9))
    x = sl.FiniteString.parse("010")
    assert cm.env.eval(x) == F(1, 9) * canonical_mixture.eval(x)


def test_contaminated_mixture_still_dominates_components(canonical_mixture,
                                                         canonical_weights):
    nu = NuLimitEnv(sl.FiniteString.parse("01"), 2)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    from semilab.divergence import verify_dominance
    for i in (1, 2, 3):
        w = F(1, 9) * canonical_weights.weight(i)
        assert verify_dominance(cm.env, canonical_mixture.env_class.env(i), w, 4)


# -------------------------------------------------------------- verification

def test_posterior_gap_certified_on_canonical_class(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    nu = nu_limit(stages, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    alpha = leftmost_random(canonical_mixture, 16)
    report = verify_nonconvergence(cm, sl.uniform_measure(), alpha, 15)
    assert report.all_certified
    assert len(report.positions) == 1
    p = report.positions[0]
    assert p.n == 1
    assert p.mprime_posterior == F(20, 23)
    assert p.bound == F(2, 3)
    assert p.gap == F(20, 23) - F(1, 2)
    assert p.nu_before == p.nu_at == F(1, 4)


def test_verification_report_serializes(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    nu = nu_limit(stages, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    alpha = leftmost_random(canonical_mixture, 16)
    d = verify_nonconvergence(cm, sl.uniform_measure(), alpha, 15).as_dict()
    assert d["gamma"] == "1/9"
    assert d["alpha_prefix"].startswith("0100")
    assert d["counts"]["positions"] == 1
    assert d["positions"][0]["mprime_posterior"] == "20/23"


def test_degenerate_class_is_reported_inconclusive():
    m = sl.MixtureEnv(sl.EnvClass([sl.uniform_measure()]),
                      sl.WeightScheme((F(1),)), sl.RAW)
    nu = nu_limit(sl.StageApproximation(m), 8)
    cm = build_mprime(nu, m, F(1, 9))
    alpha = leftmost_random(m, 8)
    with pytest.raises(InconclusiveConfigurationError):
        verify_nonconvergence(cm, sl.uniform_measure(), alpha, 8)


def test_verification_rejects_envelope_violations(canonical_mixture):
    stages = sl.StageApproximation(canonical_mixture)
    nu = nu_limit(stages, 16)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    # the 0-spine point mass keeps M(00) = 3/8 above the 1/4 envelope
    bogus = sl.FiniteString.parse("0011")
    with pytest.raises(SemilabError):
        verify_nonconvergence(cm, sl.uniform_measure(), bogus, 3)
