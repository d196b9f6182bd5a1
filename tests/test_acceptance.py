"""End-to-end acceptance gates.

Each test certifies one headline guarantee of the package at desk scale and
prints a single pass/fail line.  Tolerances and runtime budgets are asserted,
not merely reported; a red test here means the guarantee does not hold.
"""

import json
import time
from fractions import Fraction

import pytest

import semilab as sl
from semilab.cli import _random_vector, emit_results, run_experiment
from semilab.counterexample import nu_limit, verify_nonconvergence
from semilab.divergence import (
    expected_exp_half_sum,
    expected_hellinger_sums,
    markov_tail_check,
    row_inequality_verdicts,
)
from semilab.intervals import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    INCONCLUSIVE,
    compare_le,
    endpoints,
    from_fraction,
    iv,
    pow_nonneg,
    precision,
)
from semilab.randomness import (
    IndicatorFunctional,
    delta_hat_ratio_check,
    e2i_build_mubar,
    e2i_individual_bound,
    leftmost_random,
    prop8_expected_bound,
)

from conftest import FIXTURES

F = Fraction


def report(capsys, label, ok, detail=""):
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}: {detail}"


def _chain_links(mixture, mu, n, bits):
    w = F(1, 3)
    with precision(bits):
        sums = expected_hellinger_sums(mixture, mu, n, bits)
        e = expected_exp_half_sum(mixture, mu, n, precision_bits=bits)
        two_ln_e = 2 * iv.log(e)
        link2 = compare_le(sums["hellinger_sum"], two_ln_e, bits)
        link3 = compare_le(two_ln_e, iv.log(1 / from_fraction(w)), bits)
    return sums["part_i"], link2, link3


def test_criterion_01_bound_chain(capsys, bern3_mixture, bern3_class):
    started = time.monotonic()
    links = _chain_links(bern3_mixture, bern3_class.env(2), 10, 256)
    elapsed = time.monotonic() - started
    ok = all(v.outcome == CERTIFIED_HOLDS for v in links) and elapsed < 10
    report(capsys, "criterion 1: three-link expected-divergence chain, depth 10",
           ok, f"{elapsed:.1f}s")


def test_criterion_02_kappa_bounds(capsys, bern3_mixture, bern3_class):
    started = time.monotonic()
    mu = bern3_class.env(2)
    w = F(1, 3)
    outcomes = []
    for kappa in (F(1, 2), F(1, 4)):
        with precision(256):
            e = expected_exp_half_sum(bern3_mixture, mu, 10, kappa=kappa,
                                      precision_bits=256)
            lhs = pow_nonneg(from_fraction(w), kappa) * e
            outcomes.append(compare_le(lhs, iv.mpf(1), 256).outcome)
    elapsed = time.monotonic() - started
    ok = all(o == CERTIFIED_HOLDS for o in outcomes) and elapsed < 30
    report(capsys, "criterion 2: kappa in {1/2, 1/4} weighted exponential bounds",
           ok, f"{elapsed:.1f}s")


def test_criterion_03_tail_probabilities(capsys, bern3_mixture, bern3_class):
    mu = bern3_class.env(2)
    outcomes = [
        markov_tail_check(bern3_mixture, mu, 10, F(1, 3), c,
                          precision_bits=128).verdict.outcome
        for c in (F(1), F(2), F(4))
    ]
    ok = all(o == CERTIFIED_HOLDS for o in outcomes)
    report(capsys, "criterion 3: tail mass bounds for c in {1, 2, 4}", ok)


def test_criterion_04_random_row_sandwich(capsys):
    stream = sl.BitStream(20260823)
    fails = inconclusive = retry_fails = retry_open = 0
    for _ in range(1000):
        dim = 2 + (stream.next_bit() << 1 | stream.next_bit())  # 2..5
        p = _random_vector(stream, dim)
        # a probability row with its last cell dropped is strictly substochastic
        q = _random_vector(stream, dim + 1)[:dim]
        for v in row_inequality_verdicts(p, q, 128):
            if v.outcome == CERTIFIED_FAILS:
                fails += 1
            elif v.outcome == INCONCLUSIVE:
                inconclusive += 1
                retry = row_inequality_verdicts(p, q, 512)
                retry_fails += sum(r.outcome == CERTIFIED_FAILS for r in retry)
                retry_open += sum(r.outcome == INCONCLUSIVE for r in retry)
    ok = fails == 0 and inconclusive <= 20 and retry_fails == 0 and retry_open == 0
    report(capsys, "criterion 4: 1000 random row sandwiches",
           ok, f"fails={fails} open@128={inconclusive} open@512={retry_open}")


def test_criterion_05_chain_trials(capsys):
    stream = sl.BitStream(99)
    fails = 0
    for _ in range(1000):
        dim = 2 + stream.next_bit()
        p, r, q = (_random_vector(stream, dim) for _ in range(3))
        for beta in (F(1, 4), F(1), F(4)):
            v = sl.chain_inequality([p, r, q], beta, 128)
            fails += v.outcome == CERTIFIED_FAILS
        m = 2 + (stream.next_bit() << 1 | stream.next_bit())  # 2..5 <= 6
        chain = [_random_vector(stream, dim) for _ in range(m)]
        fails += sl.chain_inequality(chain, None, 128).outcome == CERTIFIED_FAILS
    ok = fails == 0
    report(capsys, "criterion 5: 1000 triangle and telescoping chain trials",
           ok, f"fails={fails}")


def test_criterion_06_decaying_constant(capsys):
    started = time.monotonic()
    env = sl.DecayingEnv(3)
    zeros = sl.FiniteString(sl.BINARY, (0,) * 10 ** 6)
    with precision(128):
        lo, hi = endpoints(sl.mass_interval(env, zeros, 128))
    elapsed = time.monotonic() - started
    ok = F(449, 1000) <= lo <= hi <= F(452, 1000) and elapsed < 60
    report(capsys, "criterion 6: decaying-step limit constant at depth 10^6",
           ok, f"[{float(lo):.6f}, {float(hi):.6f}] in {elapsed:.1f}s")


def test_criterion_07_envelope_to_64(capsys, bern3_mixture, canonical_mixture,
                                     quasi_class):
    quasi_mix = sl.MixtureEnv(quasi_class, sl.default_weights(2), sl.RAW)
    ok = True
    for mix in (bern3_mixture, canonical_mixture, quasi_mix):
        alpha = leftmost_random(mix, 64)
        for n in range(1, 65):
            if mix.eval(alpha.prefix(n)) > F(1, 2 ** n):
                ok = False
    report(capsys, "criterion 7: leftmost sequences stay under 2^-n to n=64", ok)


def test_criterion_08_nonconvergence(capsys, canonical_mixture):
    nu = nu_limit(canonical_mixture, 16)
    rep = verify_nonconvergence(canonical_mixture, F(1, 9), 15)
    # independent rational check of the first flagged posterior: blend the
    # known component masses by hand and divide
    gamma = F(1, 9)
    weights = (F(1, 2), F(1, 4), F(1, 8))
    envs = canonical_mixture.env_class
    def m_of(s):
        x = sl.FiniteString.parse(s)
        return sum(w * envs.env(i + 1).eval(x) for i, w in enumerate(weights))
    def mprime_of(s):
        return (1 - gamma) * nu.eval(sl.FiniteString.parse(s)) + gamma * m_of(s)
    oracle = mprime_of("0") / mprime_of("")
    first = rep.positions[0]
    ok = (rep.all_certified and len(rep.positions) >= 1
          and first.mprime_posterior == oracle == F(20, 23)
          and all(p.mprime_posterior >= F(2, 3) for p in rep.positions))
    report(capsys, "criterion 8: contaminated-mixture posterior gap", ok,
           f"first posterior {first.mprime_posterior}")


def test_criterion_09_truncated_mixture(capsys, quasi_class):
    weights = sl.default_weights(2)
    w_mix = sl.MixtureEnv(quasi_class, weights, sl.QUASI, quasi_depth_cap=10)
    d_mix = sl.MixtureEnv(quasi_class, weights, sl.MEASURES_ONLY)
    trunc = w_mix.component(2)
    ok = all(trunc.eval(x) == 0
             for n in range(2, 7)
             for x, _ in sl.enumerate_support(sl.uniform_measure(), n))
    for n in range(2, 8):
        for x, _ in sl.enumerate_support(sl.uniform_measure(), n):
            if w_mix.eval(x) != d_mix.eval(x):
                ok = False
    omega, _ = sl.sample(quasi_class.env(1), 8, seed=5)
    for t in range(3, 9):
        w_row = w_mix.posterior(omega.prefix(t - 1))
        d_row = d_mix.posterior(omega.prefix(t - 1))
        if max(abs(a - b) for a, b in zip(w_row, d_row)) != 0:
            ok = False
    report(capsys, "criterion 9: truncated and measures-only mixtures coincide",
           ok)


def test_criterion_10_expected_to_individual(capsys):
    mu = sl.BernoulliEnv(F(1, 2))
    f = IndicatorFunctional(F(1, 64))
    ok = True
    prev_eps = None
    for n in range(1, 11):
        mubar = e2i_build_mubar(mu, f, n)
        if not sl.validate(mubar, n).is_semimeasure:
            ok = False
        if prev_eps is not None and f.eps(n) > prev_eps:
            ok = False
        prev_eps = f.eps(n)
    n = 6
    mubar = e2i_build_mubar(mu, f, n)
    m_ext = sl.MixtureEnv(sl.EnvClass([mu, mubar]), sl.default_weights(2), sl.RAW)
    certified = 0
    for j in range(100):
        omega, _ = sl.sample(mu, n, seed=1000 + j)
        rep = e2i_individual_bound(m_ext, f, mu, omega, n)
        certified += rep.deficiency_verdict.outcome == CERTIFIED_HOLDS
    ok = ok and certified == 100
    report(capsys, "criterion 10: staged tables and 100 individual bounds",
           ok, f"certified={certified}/100")


def test_criterion_11_posterior_mixture_bounds(capsys, bern3_class):
    ws = sl.default_weights(3)
    outcomes = [prop8_expected_bound(bern3_class, ws, k0, 10, 128).outcome
                for k0 in (1, 2)]
    outcomes += [delta_hat_ratio_check(bern3_class, ws, k, 8).outcome
                 for k in (2, 3)]
    ok = all(o == CERTIFIED_HOLDS for o in outcomes)
    report(capsys, "criterion 11: truncated-posterior expectation and ratio bounds",
           ok)


def _payload_bytes(subcommand, spec, depth, seed, workers, bits=128):
    result = run_experiment(subcommand, spec, depth, bits, seed, workers)
    payloads = emit_results(result, None, "csv")
    return json.dumps(payloads, sort_keys=True).encode()


def test_criterion_12_determinism(capsys):
    runs = [
        ("verify-hellinger-bounds", "bern3_mix.json", 6, None),
        ("verify-hellinger-bounds", "mprime_bounds.json", 12, None),
        ("markov-tail", "bern3_mix.json", 6, None),
        ("chain-lemma", "chain_trials.json", 0, 42),
        ("quasimeasure", "quasi_leaky.json", 6, None),
        ("w-vs-d", "quasi_leaky.json", 6, 7),
        ("deficiency", "bern3_mix.json", 8, 3),
        ("leftmost-alpha", "counterexample_canonical.json", 20, None),
        ("e2i", "e2i_indicator.json", None, 11),
        ("prop8", "bern3_default_weights.json", 6, None),
        ("counterexample", "counterexample_canonical.json", 16, None),
    ]
    mismatched = []
    for subcommand, fixture, depth, seed in runs:
        spec = json.loads((FIXTURES / fixture).read_text())
        blobs = {_payload_bytes(subcommand, spec, depth, seed, w)
                 for w in (1, 2, 8)}
        if len(blobs) != 1:
            mismatched.append(subcommand)
    # sequential algorithms take no worker count; repeat them instead to
    # catch ordering or hidden-state nondeterminism
    env = sl.DecayingEnv(3)
    zeros = sl.FiniteString(sl.BINARY, (0,) * 10 ** 5)
    with precision(128):
        reps = {endpoints(sl.mass_interval(env, zeros, 128)) for _ in range(3)}
    if len(reps) != 1:
        mismatched.append("mass-interval")
    ok = not mismatched
    report(capsys, "criterion 12: byte-identical reruns with 1/2/8 workers",
           ok, f"mismatched={mismatched or 'none'}")
