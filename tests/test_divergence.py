from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semilab as sl
from semilab.divergence import (
    bhattacharyya_step,
    chain_inequality,
    expected_exp_half_sum,
    expected_hellinger_sums,
    hellinger_step,
    hellinger_trace,
    markov_tail_check,
    row_inequality_verdicts,
    verify_dominance,
)
from semilab.errors import NotAMeasureRowError, NotDominatedError
from semilab.intervals import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    INCONCLUSIVE,
    endpoints,
    from_fraction,
    precision,
)

import oracles

F = Fraction


def prob_row(draw_ints, substochastic=False):
    total = sum(draw_ints) + (1 if substochastic else 0)
    return tuple(F(d, total) for d in draw_ints)


row_ints = st.lists(st.integers(1, 50), min_size=2, max_size=4)


# -------------------------------------------------------------- row distances

def test_distance_of_identical_rows_is_zero():
    p = (F(1, 3), F(2, 3))
    with precision(64):
        h = hellinger_step(p, p)
    lo, hi = endpoints(h)
    assert lo == 0
    assert hi < F(1, 10 ** 15)


def test_distance_of_disjoint_rows_is_total_mass():
    with precision(64):
        h = hellinger_step((F(1), F(0)), (F(0), F(1)))
    assert endpoints(h) == (F(2), F(2))


@settings(max_examples=60, deadline=None)
@given(row_ints)
def test_distance_matches_reference_computation(ints):
    p = prob_row(ints)
    q = prob_row(list(reversed(ints)))
    with precision(96):
        h = hellinger_step(p, q)
    assert oracles.interval_contains(h, oracles.hellinger(p, q))


@settings(max_examples=60, deadline=None)
@given(row_ints)
def test_overlap_matches_reference_computation(ints):
    p = prob_row(ints)
    q = prob_row(list(reversed(ints)), substochastic=True)
    with precision(96):
        n = bhattacharyya_step(p, q)
    assert oracles.interval_contains(n, oracles.bhattacharyya(p, q))


def test_overlap_requires_first_row_to_be_a_measure():
    with precision(64), pytest.raises(NotAMeasureRowError):
        bhattacharyya_step((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2)))


def test_distance_rejects_negative_entries():
    with pytest.raises(ValueError):
        hellinger_step((F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


# Entries with numerators and denominators both below and above the working
# precision: past it the boxed-integer oracle rounds before it divides.
wide_ints = st.one_of(st.integers(1, 2 ** 40), st.integers(1, 2 ** 600))
wide_entries = st.one_of(st.just(F(0)), st.builds(F, wide_ints, wide_ints))


def _fits(p, q, bits):
    """Every rational the kernel rounds has numerator and denominator of at
    most ``bits`` bits, so the oracle's boxed integers are exact."""
    rounded = [a * b for a, b in zip(p, q) if a * b != 0] + [sum(p) + sum(q)]
    return all(max(r.numerator.bit_length(), r.denominator.bit_length()) <= bits
               for r in rounded)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([64, 128, 256]),
       st.lists(st.tuples(wide_entries, wide_entries), min_size=1, max_size=3))
@example(64, [(F(1, 3), F(2, 5)), (F(2, 3), F(3, 5))])
@example(256, [(F(3, 7), F(3, 7)), (F(4, 7), F(4, 7))])
def test_hellinger_kernel_within_interval_object_oracle(bits, pairs):
    p, q = [a for a, _ in pairs], [b for _, b in pairs]
    with precision(bits):
        got = endpoints(hellinger_step(p, q))
        oracle = endpoints(oracles.hellinger_step_iv(p, q))
        rational = endpoints(from_fraction(sum(p) + sum(q)))
    with precision(4096):  # every integer exact: a tight enclosure of h
        tight = endpoints(oracles.hellinger_step_iv(p, q))
    assert oracle[0] <= got[0] <= tight[0] <= tight[1] <= got[1] <= oracle[1]
    assert 0 <= got[0] and got[1] <= rational[1]
    if _fits(p, q, bits):
        assert got == oracle


# ----------------------------------------------- overlap/exponential sandwich

@settings(max_examples=80, deadline=None)
@given(row_ints, row_ints)
def test_row_sandwich_never_certifies_false(p_ints, q_ints):
    if len(p_ints) != len(q_ints):
        q_ints = (q_ints * len(p_ints))[:len(p_ints)]
    p = prob_row(p_ints)
    q = prob_row(q_ints, substochastic=True)
    v1, v2 = row_inequality_verdicts(p, q, 128)
    assert v1.outcome != CERTIFIED_FAILS
    assert v2.outcome != CERTIFIED_FAILS


def test_row_sandwich_decisive_on_generic_rows():
    v1, v2 = row_inequality_verdicts(
        (F(1, 3), F(2, 3)), (F(1, 4), F(5, 12)), 128)
    assert v1.outcome == CERTIFIED_HOLDS
    assert v2.outcome == CERTIFIED_HOLDS


def test_row_sandwich_tight_cases_stay_inconclusive_not_false():
    # with a full measure q the first comparison is an equality
    v1, v2 = row_inequality_verdicts(
        (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), 128)
    assert v1.outcome in (CERTIFIED_HOLDS, INCONCLUSIVE)
    assert v2.outcome in (CERTIFIED_HOLDS, INCONCLUSIVE)


# -------------------------------------------------------------------- traces

def test_trace_values_match_reference(bern3_mixture, bern3_class):
    mu = bern3_class.env(2)
    omega = sl.FiniteString.parse("0110")
    trace = hellinger_trace(bern3_mixture, mu, omega, 4, 128)
    assert trace.steps == [1, 2, 3, 4]
    for i in range(4):
        ref = oracles.hellinger(
            oracles.posterior_row(bern3_mixture, omega.symbols[:i]),
            oracles.posterior_row(mu, omega.symbols[:i]))
        assert oracles.interval_contains(trace.h_intervals[i], ref)
    # exact on-sequence ratio
    nu_row = oracles.posterior_row(bern3_mixture, ())
    mu_row = oracles.posterior_row(mu, ())
    assert trace.on_ratio[0] == nu_row[0] / mu_row[0]
    assert trace.off_maxdiff[0] == abs(nu_row[1] - mu_row[1])


def test_trace_csv_schema(bern3_mixture, bern3_class):
    trace = hellinger_trace(bern3_mixture, bern3_class.env(2),
                            sl.FiniteString.parse("01"), 2, 64)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "t,h_lo,h_hi,cum_lo,cum_hi,ratio_num,ratio_den,maxdiff_num,maxdiff_den"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_trace_with_decaying_mu_matches_reference():
    mu = sl.DecayingEnv(2)
    mix = sl.MixtureEnv(sl.EnvClass([sl.BernoulliEnv(F(3, 8)), mu]),
                        sl.WeightScheme((F(1, 2), F(1, 2))), sl.RAW)
    omega = sl.FiniteString.parse("0100")
    trace = hellinger_trace(mix, mu, omega, 4, 128)
    assert trace.steps == [1, 2, 3, 4]
    for i in range(4):
        ref = oracles.hellinger(oracles.posterior_row(mix, omega.symbols[:i]),
                                oracles.posterior_row(mu, omega.symbols[:i]))
        assert oracles.interval_contains(trace.h_intervals[i], ref)


TRACE_MEMBERS = {
    "iid": lambda: sl.BernoulliEnv(F(1, 3)),
    "markov": lambda: sl.MarkovEnv(1, {(): [F(1, 2), F(1, 2)], (0,): [F(2, 5), F(3, 5)],
                                       (1,): [F(3, 4), F(1, 4)]}),
    "decaying": lambda: sl.DecayingEnv(2),
    "leaky": lambda: sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 3)),
}


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("kind", TRACE_MEMBERS)
def test_trace_is_the_step_on_reduced_posterior_rows_bit_for_bit(kind, bits):
    # nu mixes all four kinds; mu is the one named.  Every value equals the
    # one formed from the reduced rows Environment.posterior gives
    members = [make() for make in TRACE_MEMBERS.values()]
    nu = sl.MixtureEnv(sl.EnvClass(members), sl.WeightScheme((F(1, 4),) * 4), sl.RAW)
    mu = members[list(TRACE_MEMBERS).index(kind)]
    omega = sl.FiniteString.parse("0110100111010010" * 2 + "01101001")
    n = len(omega)
    trace = hellinger_trace(nu, mu, omega, n, bits)
    with precision(bits):
        cum = from_fraction(0)
        for t in range(1, n + 1):
            x, a = omega.prefix(t - 1), omega.symbols[t - 1]
            nu_row, mu_row = nu.posterior(x), mu.posterior(x)
            h = hellinger_step(nu_row, mu_row)
            cum = cum + h
            assert trace.h_intervals[t - 1]._mpi_ == h._mpi_, t
            assert trace.cumulative[t - 1]._mpi_ == cum._mpi_, t
            assert trace.on_ratio[t - 1] == nu_row[a] / mu_row[a], t
            assert trace.off_maxdiff[t - 1] == abs(nu_row[1 - a] - mu_row[1 - a]), t
    assert trace.steps == list(range(1, n + 1))


# ---------------------------------------------------------------- expectations

def test_expected_sums_match_reference(bern3_mixture, bern3_class):
    mu = bern3_class.env(2)
    sums = expected_hellinger_sums(bern3_mixture, mu, 5, 128)
    ref = oracles.expected_hellinger_sum(bern3_mixture, mu, 5)
    assert oracles.interval_contains(sums["hellinger_sum"], ref)
    assert sums["part_i"].outcome == CERTIFIED_HOLDS


def test_expected_sums_excess_counts_off_support_mass():
    # mu concentrated on 0s, nu uniform: excess per step is nu(1|x) = 1/2
    mu = sl.DeterministicEnv([], [0])
    nu = sl.uniform_measure()
    sums = expected_hellinger_sums(nu, mu, 3, 128)
    assert sums["off_support_excess"] == F(3, 2)
    assert sums["part_i"].outcome == CERTIFIED_HOLDS


def test_expectations_count_the_mu_support(bern3_mixture):
    # the support is counted at depth n; a leaky mu loses mass per level
    leak = sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2))
    for mu, size, mass in [(sl.BernoulliEnv(F(1, 2)), 8, 1), (leak, 8, F(1, 8)),
                           (sl.DeterministicEnv([1], [0]), 1, 1)]:
        found = expected_hellinger_sums(bern3_mixture, mu, 3, 64)
        assert (found["support_size"], found["support_mass"]) == (size, mass)


def test_expected_exponential_matches_reference(bern3_mixture, bern3_class):
    mu = bern3_class.env(2)
    e = expected_exp_half_sum(bern3_mixture, mu, 5, precision_bits=128)
    ref = oracles.expected_exp_half_hellinger(bern3_mixture, mu, 5)
    assert oracles.interval_contains(e, ref)


def test_expected_exponential_is_worker_invariant(bern3_mixture, bern3_class):
    mu = bern3_class.env(2)
    results = [
        endpoints(expected_exp_half_sum(bern3_mixture, mu, 5,
                                        precision_bits=128))
        for w in (1, 2, 8)
    ]
    assert results[0] == results[1] == results[2]


def test_kappa_parameter_validated(bern3_mixture, bern3_class):
    with pytest.raises(ValueError):
        expected_exp_half_sum(bern3_mixture, bern3_class.env(2), 3,
                              kappa=F(3, 4))


def test_kappa_half_reduces_to_plain_distance(bern3_mixture, bern3_class):
    mu = bern3_class.env(2)
    a = endpoints(expected_exp_half_sum(bern3_mixture, mu, 4,
                                        kappa=F(1, 2), precision_bits=128))
    b = endpoints(expected_exp_half_sum(bern3_mixture, mu, 4,
                                        precision_bits=128))
    assert a == b


# ------------------------------------------------------------------ dominance

def test_dominance_check_is_exact(bern3_mixture, bern3_class):
    assert verify_dominance(bern3_mixture, bern3_class.env(2), F(1, 3), 4)
    # minimal mixture/component ratio to depth 4 is 17/24, so 3/4 fails
    assert verify_dominance(bern3_mixture, bern3_class.env(2), F(17, 24), 4)
    assert not verify_dominance(bern3_mixture, bern3_class.env(2), F(3, 4), 4)


def test_tail_mass_requires_dominance(bern3_mixture):
    with pytest.raises(NotDominatedError):
        markov_tail_check(bern3_mixture, sl.BernoulliEnv(F(1, 2)), 4,
                          F(3, 4), F(1))


def test_tail_mass_bound_certified(bern3_mixture, bern3_class):
    report = markov_tail_check(bern3_mixture, bern3_class.env(2), 6,
                               F(1, 3), F(1), precision_bits=128)
    assert report.verdict.outcome == CERTIFIED_HOLDS
    assert report.exceed_mass + report.inconclusive_mass <= 1


def test_tail_mass_worker_invariant(bern3_mixture, bern3_class):
    reports = [
        markov_tail_check(bern3_mixture, bern3_class.env(2), 5,
                          F(1, 3), F(2), precision_bits=128)
        for w in (1, 2, 8)
    ]
    assert len({(r.exceed_mass, r.inconclusive_mass, r.verdict.outcome)
                for r in reports}) == 1


# -------------------------------------------------------------- chain bounds

@settings(max_examples=60, deadline=None)
@given(row_ints, st.sampled_from([F(1, 4), F(1), F(4)]))
def test_triangle_bound_never_certifies_false(ints, beta):
    p = prob_row(ints)
    r = prob_row(list(reversed(ints)))
    q = prob_row([i * 2 - 1 for i in ints])
    v = chain_inequality([p, r, q], beta, 128)
    assert v.outcome != CERTIFIED_FAILS


@settings(max_examples=40, deadline=None)
@given(st.lists(row_ints.filter(lambda v: len(v) == 3), min_size=2, max_size=6))
def test_telescoping_bound_never_certifies_false(chains):
    vectors = [prob_row(c) for c in chains]
    v = chain_inequality(vectors, None, 128)
    assert v.outcome != CERTIFIED_FAILS


def test_chain_bound_validates_inputs():
    with pytest.raises(ValueError):
        chain_inequality([(F(1, 2), F(1, 2))], None)
    with pytest.raises(ValueError):
        chain_inequality([(F(1, 2), F(1, 2))] * 2, F(1))
    with pytest.raises(ValueError):
        chain_inequality([(F(1, 2), F(1, 2))] * 3, F(-1))
    with pytest.raises(ValueError):
        chain_inequality([(F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(1, 3))], None)


def test_falsified_multiplier_certifies_failure():
    v = chain_inequality([(F(1, 2), F(1, 2)), (F(1, 10), F(9, 10))],
                         None, 128, rhs_scale=F(1, 20))
    assert v.outcome == CERTIFIED_FAILS
