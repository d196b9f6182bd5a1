"""
Build a predictor whose posterior provably fails to converge
============================================================

Mixing a carefully built flat semimeasure nu into a Bayes mixture M gives a
universal predictor M' = (1-gamma) nu + gamma M whose next-symbol posterior
stays at least 2/3 at positions where the observed sequence alpha reads "01",
even though the data-generating measure (the uniform measure) assigns those
symbols probability 1/2. Every step of the construction is exact: one walk
reads alpha_{1:N} off M, and nu_N, the nu of alpha_{1:N}, gives the reported
posteriors, which are lower ends for the limit nu. The same M' still
satisfies Solomonoff's bound on the expected Hellinger sum, which the last
paragraph certifies by an exact walk over every string to depth 32.

Run:  python3 demos/02_nonconvergent_posterior.py
"""

from fractions import Fraction

from semilab import (
    BernoulliEnv,
    DeterministicEnv,
    EnvClass,
    FiniteString,
    MixtureEnv,
    RAW,
    WeightScheme,
    uniform_measure,
)
from semilab.cli import run_experiment
from semilab.counterexample import build_mprime, nu_limit, verify_nonconvergence
from semilab.randomness import leftmost_random

F = Fraction

# a three-member class: the uniform measure plus two point masses whose
# weight forces the leftmost sub-envelope sequence to read "01" early on
members = EnvClass([
    uniform_measure(),
    DeterministicEnv([], [0]),        # all zeros
    DeterministicEnv([1], [0]),       # 1 then all zeros
])
weights = WeightScheme((F(1, 2), F(1, 4), F(1, 8)))
mixture = MixtureEnv(members, weights, RAW)

depth = 16
alpha = leftmost_random(mixture, depth)
print("leftmost sequence under the 2^-n envelope:", alpha)

# the flat semimeasure of alpha's first symbols; this alpha is 0 from its
# third symbol on, so nu_16 is the limit itself
nu = nu_limit(mixture, depth)
print("nu(empty) =", nu.eval(FiniteString.empty()))

# M' is itself a raw mixture: nu and M with weights 1-gamma and gamma
gamma = F(1, 9)
print("posterior lower bound (1-gamma)/(1+3gamma) =", (1 - gamma) / (1 + 3 * gamma))

report = verify_nonconvergence(mixture, gamma, depth)
print()
for pos in report.positions:
    print(f"position n={pos.n}: alpha reads 01,",
          f"M'(0 | prefix) = {pos.mprime_posterior} >= {pos.bound} > 1/2,",
          f"gap above 1/2 is {pos.gap}")
print()
print("all positions certified:", report.all_certified)

# over three Bernoulli measures alpha never turns to all zeros: it meets a
# 01-position every few symbols, and each is certified for the limit nu too
bern3 = MixtureEnv(EnvClass([BernoulliEnv(F(k, 4)) for k in (1, 2, 3)]),
                   WeightScheme((F(1, 3),) * 3), RAW)
report = verify_nonconvergence(bern3, gamma, 256)
print(f"three Bernoulli measures, depth 256: {len(report.positions)} positions,",
      "all certified:", report.all_certified, "least posterior:",
      f"{float(min(p.mprime_posterior for p in report.positions)):.4f}")

# the other half of the paper on the same M': it dominates the uniform
# measure with w = gamma * 1/2, so sum_t E h_t <= ln(1/w) must hold.  Below
# the alpha-spine nu is flat, so the walk merges those strings and visits
# 2n states at level n instead of 2^n strings
mprime = build_mprime(nu, mixture, gamma)
w = gamma * weights.weight(1)
spec = {"class": [mprime.spec()], "weights": ["1"],
        "mu": {"kind": "uniform"}, "w": str(w)}
bounds = run_experiment("verify-hellinger-bounds", spec, 32, 128, None)
print()
print(f"Hellinger bounds for M' against the uniform measure, w = {w}, depth 32:")
for name, verdict in bounds.documents["verdicts"].items():
    print(f"  {name}: {verdict['outcome']}",
          f"(lhs <= {verdict['lhs'][1][:12]}, rhs >= {verdict['rhs'][0][:12]})")
