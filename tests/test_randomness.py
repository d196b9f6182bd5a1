from fractions import Fraction

import pytest

import semilab as sl
from semilab.errors import (
    HypothesisFailedError,
    InvalidK0Error,
    NotDominatedError,
    SemilabError,
    UndefinedPosteriorError,
)
from semilab.intervals import CERTIFIED_HOLDS
from semilab.randomness import (
    DEFAULT_CEILING,
    ConstantFunctional,
    IndicatorFunctional,
    deficiency_trace,
    delta_hat_ratio_check,
    e2i_build_mubar,
    e2i_individual_bound,
    leftmost_random,
    prop8_expected_bound,
)

import oracles

F = Fraction


# --------------------------------------------------------- deficiency traces

def test_deficiency_ratios_are_exact(bern3_mixture, bern3_class):
    mu = bern3_class.env(2)
    omega = sl.FiniteString.parse("010011")
    trace = deficiency_trace(bern3_mixture, mu, omega, 6)
    assert trace.prefix_lengths == list(range(7))
    for k in range(7):
        prefix = omega.prefix(k)
        assert trace.ratios[k] == bern3_mixture.eval(prefix) / mu.eval(prefix)
    assert trace.sup_ratio == oracles.deficiency_sup_ratio(
        bern3_mixture, mu, omega, 6)
    assert not trace.diverging


def test_deficiency_includes_the_empty_prefix(bern3_mixture, bern3_class):
    trace = deficiency_trace(bern3_mixture, bern3_class.env(2),
                             sl.FiniteString.parse("0"), 0)
    assert trace.ratios == [F(1)]
    assert trace.sup_ratio == 1


def test_deficiency_bounded_by_inverse_weight(bern3_mixture, bern3_class,
                                              bern3_uniform_weights):
    # the mixture dominates mu with its weight, so ratios never drop below it
    mu = bern3_class.env(2)
    omega, _ = sl.sample(mu, 12, seed=2)
    trace = deficiency_trace(bern3_mixture, mu, omega, 12)
    assert all(r >= F(1, 3) for r in trace.ratios)


def test_deficiency_divergence_flag():
    m = sl.MixtureEnv(
        sl.EnvClass([sl.DeterministicEnv([], [0]), sl.uniform_measure()]),
        sl.default_weights(2), sl.RAW)
    mu = sl.uniform_measure()
    # M(0^n) / lambda(0^n) > 2^(n-1): past DEFAULT_CEILING = 2^64 from n = 66 on
    omega = sl.FiniteString(sl.BINARY, (0,) * 70)
    assert not deficiency_trace(m, mu, omega, 60).diverging
    trace = deficiency_trace(m, mu, omega, 70)
    assert trace.diverging
    assert trace.sup_ratio > DEFAULT_CEILING


def test_deficiency_outside_support_is_an_error(bern3_mixture):
    mu = sl.DeterministicEnv([], [0])
    with pytest.raises(UndefinedPosteriorError):
        deficiency_trace(bern3_mixture, mu, sl.FiniteString.parse("1"), 1)


def test_deficiency_csv_schema(bern3_mixture, bern3_class):
    trace = deficiency_trace(bern3_mixture, bern3_class.env(2),
                             sl.FiniteString.parse("01"), 2)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "n,ratio_num,ratio_den,log2_lo,log2_hi"
    assert len(lines) == 4


# ----------------------------------------------------- leftmost construction

def test_leftmost_sequence_respects_envelope(canonical_mixture):
    alpha = leftmost_random(canonical_mixture, 32)
    for k in range(1, 33):
        assert canonical_mixture.eval(alpha.prefix(k)) <= F(1, 2 ** k)


def test_leftmost_prefers_zero_on_ties():
    alpha = leftmost_random(sl.uniform_measure(), 8)
    assert str(alpha) == "0" * 8


def test_leftmost_takes_one_when_zero_branch_is_too_heavy(canonical_mixture):
    # the all-zero point mass forces a 1 at the first position's alternative
    alpha = leftmost_random(canonical_mixture, 4)
    assert str(alpha) == "0100"


def test_leftmost_is_monotone_under_stage_growth(canonical_mixture):
    from semilab.counterexample import alpha_stage
    prev = None
    for t in range(1, 6):
        alpha_t = alpha_stage(canonical_mixture, t)
        if prev is not None:
            # lexicographic: padded with the next stage's own symbols
            assert prev.symbols <= alpha_t.symbols[:len(prev)] or \
                prev.symbols < alpha_t.symbols
        prev = alpha_t


def test_leftmost_requires_binary():
    with pytest.raises(SemilabError):
        leftmost_random(sl.CategoricalIIDEnv([F(1, 3)] * 3), 4)


# ------------------------------------------------- staged functional tables

def test_constant_functional_reproduces_the_measure():
    mu = sl.BernoulliEnv(F(1, 3))
    f = ConstantFunctional(F(1, 10))
    mubar = e2i_build_mubar(mu, f, 4)
    for n in range(5):
        for x, m in sl.enumerate_support(mu, n):
            assert mubar.eval(x) == m
    assert mubar.eval(sl.FiniteString(sl.BINARY, (0,) * 5)) == 0


def test_indicator_functional_concentrates_on_zeros():
    mu = sl.BernoulliEnv(F(1, 2))
    f = IndicatorFunctional(F(1, 64))
    mubar = e2i_build_mubar(mu, f, 5)
    zeros = sl.FiniteString(sl.BINARY, (0,) * 5)
    # mu(0^5) * 2^5 * eps_5 / eps_5 = 1 on the zero string, 0 elsewhere
    assert mubar.eval(zeros) == 1
    assert mubar.eval(sl.FiniteString.parse("00001")) == 0
    report = sl.validate(mubar, 5)
    assert report.is_semimeasure


def test_stage_tables_validate_and_shrink_tolerance():
    mu = sl.BernoulliEnv(F(1, 2))
    f = IndicatorFunctional(F(1, 64))
    prev_eps = None
    for n in range(1, 11):
        mubar = e2i_build_mubar(mu, f, n)
        assert sl.validate(mubar, n).is_semimeasure
        eps = f.eps(n)
        if prev_eps is not None:
            assert eps <= prev_eps
        assert eps >= f.eps_limit
        prev_eps = eps


@pytest.mark.parametrize("functional", [
    ConstantFunctional(F(1, 10)), IndicatorFunctional(F(1, 64)),
], ids=["constant", "indicator"])
@pytest.mark.parametrize("p", [F(1, 2), F(3, 4)])
def test_mubar_first_defect_matches_validate(p, functional):
    # e2i certifies each stage's table from its stored entries
    # (``first_defect``); the walk over every string must agree
    mu = sl.BernoulliEnv(p)
    for n in range(1, 11):
        mubar = e2i_build_mubar(mu, functional, n)
        report = sl.validate(mubar, n)
        assert mubar.first_defect() == report.first_defect_node
        assert report.is_semimeasure == (mubar.first_defect() is None)


@pytest.mark.parametrize("functional", [
    ConstantFunctional(F(1, 10)), IndicatorFunctional(F(1, 64)),
], ids=["constant", "indicator"])
@pytest.mark.parametrize("mu", [
    sl.BernoulliEnv(F(2, 3)),
    sl.MarkovEnv(1, {(): [F(1, 2), F(1, 2)], (0,): [F(1, 2), F(1, 2)],
                   (1,): [F(1), F(0)]}),
], ids=["bernoulli", "markov-with-a-zero"])
def test_mubar_tables_match_evaluation_from_the_root(mu, functional):
    # each support string is reached by a stepped cursor clone; the oracle
    # evaluates every one from the root
    for n in range(1, 11):
        values, expectation = oracles.e2i_mubar_prefixes(mu, functional, n)
        assert expectation <= functional.eps(n)
        assert e2i_build_mubar(mu, functional, n).values == values


def test_overweight_functional_is_rejected():
    mu = sl.BernoulliEnv(F(1, 2))

    class TooBig(ConstantFunctional):
        def value(self, n, symbols):
            return 2 * self.eps_limit

    with pytest.raises(HypothesisFailedError):
        e2i_build_mubar(mu, TooBig(F(1, 10)), 3)


def test_table_construction_walks_a_deep_support_without_recursion():
    """A point mass on 0^inf has one support string per level; a recursive
    walk ran out of stack near stage 1000."""
    mu = sl.DeterministicEnv([], [0])
    mubar = e2i_build_mubar(mu, ConstantFunctional(F(1, 2)), 2000)
    assert mubar.values == {(0,) * k: F(1) for k in range(2001)}


def test_table_construction_requires_a_measure():
    leaky = sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2))
    with pytest.raises(SemilabError):
        e2i_build_mubar(leaky, ConstantFunctional(F(1, 10)), 3)


# -------------------------------------------------------- individual bounds

def _extended_mixture(mu, f, n):
    mubar = e2i_build_mubar(mu, f, n)
    ec = sl.EnvClass([mu, mubar])
    return sl.MixtureEnv(ec, sl.default_weights(2), sl.RAW), mubar


def test_individual_bound_certified_on_the_charged_string():
    mu = sl.BernoulliEnv(F(1, 2))
    f = IndicatorFunctional(F(1, 64))
    m_ext, _ = _extended_mixture(mu, f, 4)
    omega = sl.FiniteString(sl.BINARY, (0,) * 4)
    report = e2i_individual_bound(m_ext, f, mu, omega, 4)
    assert report.f_value > 0
    assert report.ratio_verdict.outcome == CERTIFIED_HOLDS
    assert report.deficiency_verdict.outcome == CERTIFIED_HOLDS
    # hand check: F <= eps/w * M(omega)/mu(omega)
    assert report.f_value <= report.eps_n / report.weight * report.ratio


def test_individual_bound_requires_registered_table():
    mu = sl.BernoulliEnv(F(1, 2))
    f = IndicatorFunctional(F(1, 64))
    plain = sl.MixtureEnv(sl.EnvClass([mu]), sl.default_weights(1), sl.RAW)
    with pytest.raises(NotDominatedError):
        e2i_individual_bound(plain, f, mu, sl.FiniteString.parse("0000"), 4)


def test_individual_bound_refuses_omega_outside_mu_support_as_the_deficiency_does():
    # mu = Bernoulli(1) vanishes on every string holding a 0
    mu = sl.BernoulliEnv(F(1))
    f = ConstantFunctional(F(1, 64))
    m_ext, _ = _extended_mixture(mu, f, 4)
    omega = sl.FiniteString.parse("1101")
    for call in (lambda: e2i_individual_bound(m_ext, f, mu, omega, 4),
                 lambda: deficiency_trace(m_ext, mu, omega, 4)):
        with pytest.raises(UndefinedPosteriorError, match="^mu vanishes on prefix of length 3$"):
            call()


def test_individual_bound_refuses_a_short_omega():
    mu = sl.BernoulliEnv(F(1, 2))
    f = IndicatorFunctional(F(1, 64))
    m_ext, _ = _extended_mixture(mu, f, 4)
    with pytest.raises(ValueError, match="n exceeds the provided sequence length"):
        e2i_individual_bound(m_ext, f, mu, sl.FiniteString.parse("000"), 4)


# --------------------------------------------------------- posterior mixtures

def test_expected_exponential_bound_for_designated_measures(bern3_class):
    ws = sl.default_weights(3)
    for k0 in (1, 2, 3):
        v = prop8_expected_bound(bern3_class, ws, k0, 6, 128)
        assert v.outcome == CERTIFIED_HOLDS


def test_designated_index_must_be_a_measure(quasi_class):
    ws = sl.default_weights(2)
    with pytest.raises(InvalidK0Error):
        prop8_expected_bound(quasi_class, ws, 2, 4, 64)


def test_truncation_ratio_bound_exact(bern3_class):
    ws = sl.default_weights(3)
    for k in (2, 3):
        v = delta_hat_ratio_check(bern3_class, ws, k, 6)
        assert v.outcome == CERTIFIED_HOLDS


def test_truncation_ratio_is_one_when_member_is_not_a_measure(quasi_class):
    ws = sl.default_weights(2)
    v = delta_hat_ratio_check(quasi_class, ws, 2, 5)
    assert v.outcome == CERTIFIED_HOLDS
    # dropping a non-measure changes nothing: worst ratio is exactly 1
    assert v.lhs_lo == "1/1"
