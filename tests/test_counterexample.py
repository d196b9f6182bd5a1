import json
from collections import Counter
from fractions import Fraction

import pytest

import semilab as sl
from semilab.cli import main, run_counterexample
from semilab.counterexample import (
    NonconvergenceReport,
    NuLimitEnv,
    PositionReport,
    alpha_stage,
    build_mprime,
    contaminate,
    nu_limit,
    verify_nonconvergence,
)
from semilab.envcore import walk_states
from semilab.errors import InconclusiveConfigurationError, SemilabError
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


def _decaying_pair():
    return sl.MixtureEnv(sl.EnvClass([sl.uniform_measure(), sl.DecayingEnv(2)]),
                         sl.WeightScheme((F(1, 2), F(1, 4))), sl.RAW)


def _five_members():
    return sl.MixtureEnv(sl.EnvClass([
        sl.DeterministicEnv([], [0]), sl.BernoulliEnv(F(1, 3)), sl.DecayingEnv(2),
        sl.DeterministicEnv([0, 1], [0]), sl.uniform_measure()]),
        sl.default_weights(5), sl.RAW)


@pytest.mark.parametrize("build", [_decaying_pair, _five_members],
                         ids=["two-members", "five-members"])
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
    m = _decaying_pair()
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


def test_limit_is_nu_of_the_leftmost_prefix_on_a_class_whose_alpha_never_ends_in_zeros():
    # the decaying member keeps alpha from turning to all zeros, so nu_limit
    # drops alpha's tail past n instead of refusing
    m = _decaying_pair()
    nu = nu_limit(m, 64)
    assert nu.alpha_prefix == leftmost_random(m, 64)
    assert any(nu.alpha_prefix.symbols[32:])
    assert sl.validate(nu, 6).is_semimeasure


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
    report = verify_nonconvergence(canonical_mixture, F(1, 9), 15)
    assert report.all_certified
    assert len(report.positions) == 1
    p = report.positions[0]
    assert p.n == 1
    assert p.mprime_posterior == F(20, 23)
    assert p.bound == F(2, 3)
    assert p.gap == F(20, 23) - F(1, 2)
    assert p.nu_before == p.nu_at == F(1, 4)


def test_verification_report_serializes(canonical_mixture):
    d = verify_nonconvergence(canonical_mixture, F(1, 9), 15).as_dict()
    assert d["gamma"] == "1/9"
    assert d["alpha_prefix"].startswith("0100")
    assert d["counts"]["positions"] == 1
    assert d["positions"][0]["mprime_posterior"] == "20/23"


def test_verification_refuses_gamma_outside_its_range(canonical_mixture):
    for gamma in (F(0), F(1, 5), F(1, 2)):
        with pytest.raises(ValueError, match="gamma must lie strictly in"):
            verify_nonconvergence(canonical_mixture, gamma, 16)


def test_degenerate_class_is_reported_inconclusive():
    m = sl.MixtureEnv(sl.EnvClass([sl.uniform_measure()]),
                      sl.WeightScheme((F(1),)), sl.RAW)
    with pytest.raises(InconclusiveConfigurationError,
                       match="no 01-position in alpha up to horizon 8"):
        verify_nonconvergence(m, F(1, 9), 8)


def test_verification_steps_cursors_not_prefixes(canonical_mixture, monkeypatch):
    # M and every member are read through the one leftmost walk's cursors,
    # and nu in closed form; none is evaluated from the root at a nonempty
    # string
    expected = verify_nonconvergence(canonical_mixture, F(1, 9), 63)
    calls = []
    for cls in (NuLimitEnv, sl.MixtureEnv, sl.CategoricalIIDEnv, sl.DeterministicEnv):
        def recording_mass(env, symbols, _mass=cls._mass):
            if symbols:
                calls.append(symbols)
            return _mass(env, symbols)

        monkeypatch.setattr(cls, "_mass", recording_mass)
    assert verify_nonconvergence(canonical_mixture, F(1, 9), 63) == expected
    assert calls == []


def test_verification_matches_evaluation_from_the_root(bern3_mixture):
    # the bern3 alpha holds many 01-positions, each checked against four
    # evaluations from the root of nu_16 and of M' = (1-gamma) nu_16 + gamma M
    nu = nu_limit(bern3_mixture, 16)
    cm = contaminate(nu, bern3_mixture, F(1, 9))
    report = verify_nonconvergence(bern3_mixture, F(1, 9), 16)
    assert len(report.positions) >= 4
    for p in report.positions:
        before, at = nu.alpha_prefix.prefix(p.n - 1), nu.alpha_prefix.prefix(p.n)
        assert (p.nu_before, p.nu_at) == (nu.eval(before), nu.eval(at))
        assert p.mprime_posterior == cm.eval(at) / cm.eval(before)


ORACLE_CLASSES = {
    "canonical": lambda: sl.MixtureEnv(
        sl.EnvClass([sl.uniform_measure(), sl.DeterministicEnv([], [0]),
                     sl.DeterministicEnv([1], [0])]),
        sl.WeightScheme((F(1, 2), F(1, 4), F(1, 8))), sl.RAW),
    "bern3": lambda: sl.MixtureEnv(
        sl.EnvClass([sl.BernoulliEnv(F(k, 4)) for k in (1, 2, 3)]),
        sl.WeightScheme((F(1, 3),) * 3), sl.RAW),
    "uniform-decaying": _decaying_pair,
}


@pytest.mark.parametrize("depth", [2, 17, 64])
@pytest.mark.parametrize("name", ORACLE_CLASSES)
def test_every_report_field_matches_the_prefix_oracle(name, depth):
    """Each position recomputed from alpha by ``leftmost_random_prefixes``,
    nu_N by ``NuLimitEnv._mass`` and M by ``_mass``, all from the root; and
    each reported posterior is the lower end over the unknown tail of the
    limit nu, at most the posterior with the tail at 2^-N."""
    m, gamma = ORACLE_CLASSES[name](), F(1, 7)
    alpha = oracles.leftmost_random_prefixes(m, depth)
    nu = NuLimitEnv(sl.FiniteString(sl.BINARY, alpha))
    bound, tail = (1 - gamma) / (1 + 3 * gamma), F(1, 2 ** depth)

    def posterior(before, at, t):
        return (((1 - gamma) * (nu._mass(at) + t) + gamma * m._mass(at))
                / ((1 - gamma) * (nu._mass(before) + t) + gamma * m._mass(before)))

    expected = []
    for n in range(1, depth):
        if alpha[n - 1:n + 1] == (0, 1):
            before, at = alpha[:n - 1], alpha[:n]
            post = posterior(before, at, 0)
            assert post <= posterior(before, at, tail)
            expected.append(PositionReport(
                n=n, nu_before=nu._mass(before), nu_at=nu._mass(at),
                mprime_posterior=post, bound=bound, gap=post - F(1, 2),
                certified=(nu._mass(before) == nu._mass(at)
                           and nu._mass(at) >= F(1, 2 ** (n + 1))
                           and post >= bound and post > F(1, 2))))
    if not expected:
        with pytest.raises(InconclusiveConfigurationError):
            verify_nonconvergence(m, gamma, depth)
        return
    report = verify_nonconvergence(m, gamma, depth)
    assert report == NonconvergenceReport(
        gamma=gamma, class_spec=m.env_class.spec(),
        alpha_prefix="".join(map(str, alpha)), positions=tuple(expected),
        horizon=depth)
    assert report.all_certified


@pytest.mark.parametrize("name", ["bern3", "uniform-decaying"])
def test_contaminated_mixture_dominates_every_member_on_the_oracle_tree(name):
    # M' >= gamma w_i nu_i is an identity of raw mixtures with nonnegative
    # masses, which the run relies on instead of a dominance walk
    m, gamma = ORACLE_CLASSES[name](), F(1, 9)
    cm = contaminate(nu_limit(m, 16), m, gamma)
    for i in m.membership():
        assert oracles.dominates_tree(cm, m.env_class.env(i),
                                      gamma * m.weights.weight(i), 8)


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


def test_verification_rejects_envelope_violations():
    # no semimeasure puts mass 3/4 on both children of the root, so the
    # leftmost walk's postcondition M(alpha_1) <= 1/2 fails at k = 1
    bad = sl.TableEnv(1, {(): F(1), (0,): F(3, 4), (1,): F(3, 4)})
    m = sl.MixtureEnv(sl.EnvClass([bad]), sl.WeightScheme((F(1),)), sl.RAW)
    with pytest.raises(SemilabError, match="postcondition M\\(alpha_\\{1:1\\}\\) <= 2\\^-1 "
                                           "failed; input is not a semimeasure"):
        verify_nonconvergence(m, F(1, 9), 8)


def test_counterexample_run_walks_m_once(monkeypatch):
    # one leftmost walk of M: a candidate 0-step per symbol of alpha, plus a
    # 1-step on each 1; no second walk, no dominance walk and no M' cursor
    from semilab.mixtures import _MixtureCursor
    spec = json.loads((FIXTURES / "counterexample_canonical.json").read_text())
    depth = 512
    steps = []
    step = _MixtureCursor.step

    def recording_step(cursor, a):
        steps.append(a)
        step(cursor, a)

    monkeypatch.setattr(_MixtureCursor, "step", recording_step)
    result = run_counterexample(spec, depth, 128, None)
    assert result.outcomes == [sl.CERTIFIED_HOLDS]
    ones = result.documents["report"]["alpha_prefix"].count("1")
    assert len(steps) == depth + ones <= 2 * depth


def test_counterexample_run_on_bern3_certifies_every_position():
    # bern3's alpha never turns to all zeros: 378 01-positions by depth 1024
    spec = json.loads((FIXTURES / "bern3_mix.json").read_text())
    result = run_counterexample(spec, 1024, 128, None)
    assert result.outcomes == [sl.CERTIFIED_HOLDS]
    positions = result.documents["report"]["positions"]
    assert len(positions) == 378
    assert all(p["certified"] for p in positions)
    assert min(F(p["mprime_posterior"]) for p in positions) >= F(2, 3)


@pytest.mark.parametrize("depth", ["0", "1"])
def test_counterexample_below_two_symbols_exits_one(depth, capsys):
    code = main(["counterexample", "--spec", str(FIXTURES / "counterexample_canonical.json"),
                 "--depth", depth])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: --depth: {depth} must be >= 2")


def test_counterexample_gamma_outside_its_range_exits_one(capsys):
    spec = {"class": [{"kind": "uniform"}], "gamma": "1/5"}
    assert main(["counterexample", "--spec", json.dumps(spec)]) == 1
    assert capsys.readouterr().err == "error: gamma must lie strictly in (0, 1/5)\n"


def test_report_past_the_integer_text_limit_names_its_field(capsys):
    # a decaying member with beta = 16 gives posteriors whose integers pass
    # Python's 4300-digit int-to-text limit by depth 256; the limit is left
    # as it is, since it also guards int(text) in spec parsing
    spec = {"class": [{"kind": "uniform"}, {"kind": "decaying", "beta": 16}],
            "weights": ["1/2", "1/4"]}
    assert main(["counterexample", "--spec", json.dumps(spec), "--depth", "256"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: $.positions[3].mprime_posterior: exact value past "
                          "Python's limit of")
