"""
Build a predictor whose posterior provably fails to converge
============================================================

Mixing a carefully built flat semimeasure nu into a Bayes mixture M gives a
universal predictor M' = (1-gamma) nu + gamma M whose next-symbol posterior
stays at least 2/3 at positions where the observed sequence alpha reads "01",
even though the data-generating measure (the uniform measure) assigns those
symbols probability 1/2. Every step of the construction is exact. The same
M' still satisfies Solomonoff's bound on the expected Hellinger sum, which
the last paragraph certifies by an exact walk over every string to depth 32.

Run:  python3 demos/02_nonconvergent_posterior.py
"""

from fractions import Fraction

from semilab import (
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

# freeze the stagewise approximations into the limiting flat semimeasure
nu = nu_limit(mixture, depth)
print("nu(empty) =", nu.eval(FiniteString.empty()))

# M' is itself a raw mixture: nu and M with weights 1-gamma and gamma
gamma = F(1, 9)
mprime = build_mprime(nu, mixture, gamma)
print("posterior lower bound (1-gamma)/(1+3gamma) =", (1 - gamma) / (1 + 3 * gamma))

report = verify_nonconvergence(mprime, alpha, depth - 1)
print()
for pos in report.positions:
    print(f"position n={pos.n}: alpha reads 01,",
          f"M'(0 | prefix) = {pos.mprime_posterior} >= {pos.bound} > 1/2,",
          f"gap above 1/2 is {pos.gap}")
print()
print("all positions certified:", report.all_certified)

# the other half of the paper on the same M': it dominates the uniform
# measure with w = gamma * 1/2, so sum_t E h_t <= ln(1/w) must hold.  Below
# the alpha-spine nu is flat, so the walk merges those strings and visits
# 2n states at level n instead of 2^n strings
w = gamma * weights.weight(1)
spec = {"class": [mprime.spec()], "weights": ["1"],
        "mu": {"kind": "uniform"}, "w": str(w)}
bounds = run_experiment("verify-hellinger-bounds", spec, 32, 128, None)
print()
print(f"Hellinger bounds for M' against the uniform measure, w = {w}, depth 32:")
for name, verdict in bounds.documents["verdicts"].items():
    print(f"  {name}: {verdict['outcome']}",
          f"(lhs <= {verdict['lhs'][1][:12]}, rhs >= {verdict['rhs'][0][:12]})")
