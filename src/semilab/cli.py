"""Experiment runner: spec-file parsing, subcommand dispatch, artifact export.

Every experiment is described by a JSON spec file (rationals are "num/den"
strings, environments are tagged objects).  Runs are deterministic: identical
spec, seed and precision produce byte-identical CSV/JSON payloads regardless
of worker count; wall-clock timings live only in manifest.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .counterexample import build_mprime, nu_limit, verify_nonconvergence
from .divergence import HALF, chain_inequality, hellinger_expectations, markov_tail_checks
from .envcore import (
    Alphabet,
    BernoulliEnv,
    BitStream,
    CategoricalIIDEnv,
    DecayingEnv,
    DeterministicEnv,
    Environment,
    FiniteString,
    LeakyEnv,
    MarkovEnv,
    MEASURE,
    TableEnv,
    _frac_str,
    sample,
    uniform_measure,
    validate,
    walk_states,
)
from .errors import (InconclusiveConfigurationError, NotDominatedError, SemilabError,
                     SpecError, UndefinedPosteriorError)
from .intervals import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    INCONCLUSIVE,
    Verdict,
    compare_le,
    from_fraction,
    iv,
    pow_nonneg,
    precision,
)
from .mixtures import (
    EnvClass,
    MEASURES_ONLY,
    MixtureEnv,
    NormalizedEnv,
    QUASI,
    QuasimeasureEnv,
    RAW,
    StageApproximation,
    WeightScheme,
    default_weights,
)
from .randomness import (
    ConstantFunctional,
    IndicatorFunctional,
    MuBarEnv,
    deficiency_trace,
    delta_hat_ratio_check,
    e2i_build_mubar,
    e2i_individual_bound,
    envelope_violations,
    leftmost_random,
    prop8_expected_bound,
)

DEFAULT_PRECISION_ENV = "SEMILAB_PRECISION"

SUBCOMMANDS = (
    "verify-hellinger-bounds",
    "markov-tail",
    "chain-lemma",
    "quasimeasure",
    "w-vs-d",
    "deficiency",
    "leftmost-alpha",
    "e2i",
    "prop8",
    "counterexample",
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILS = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------- spec parsing

def parse_rational(text, path: str = "") -> Fraction:
    """Parse "num/den" or integer strings; floats are rejected."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise SpecError(f"{path}: rational must be a \"num/den\" string, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{path}: malformed rational {text!r}: {exc}") from None


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise SpecError(f"{path}: missing field {key!r}")
    return d[key]


def parse_environment(d: dict, path: str = "$") -> Environment:
    if not isinstance(d, dict):
        raise SpecError(f"{path}: environment spec must be an object")
    kind = _require(d, "kind", path)
    try:
        if kind == "bernoulli":
            return BernoulliEnv(parse_rational(_require(d, "p", path), path + ".p"))
        if kind == "categorical":
            probs = [parse_rational(p, f"{path}.probs[{i}]")
                     for i, p in enumerate(_require(d, "probs", path))]
            return CategoricalIIDEnv(probs)
        if kind == "uniform":
            return uniform_measure(Alphabet(int(d.get("alphabet_size", 2))))
        if kind == "markov":
            transitions = {
                tuple(int(c) for c in ctx): [
                    parse_rational(p, f"{path}.transitions[{ctx}][{i}]")
                    for i, p in enumerate(row)
                ]
                for ctx, row in _require(d, "transitions", path).items()
            }
            return MarkovEnv(int(_require(d, "order", path)), transitions,
                             Alphabet(int(d.get("alphabet_size", 2))))
        if kind == "deterministic":
            return DeterministicEnv(
                [int(c) for c in d.get("prefix", "")],
                [int(c) for c in _require(d, "period", path)],
                Alphabet(int(d.get("alphabet_size", 2))),
            )
        if kind == "leaky":
            return LeakyEnv(
                parse_environment(_require(d, "base", path), path + ".base"),
                parse_rational(_require(d, "leak", path), path + ".leak"),
            )
        if kind == "decaying":
            return DecayingEnv(int(_require(d, "beta", path)))
        if kind == "table":
            return _checked_table(TableEnv(
                int(_require(d, "depth", path)), _table_values(d, path),
                Alphabet(int(d.get("alphabet_size", 2))),
                d.get("declared_class", "strict-semimeasure")), path)
        if kind == "derived":
            return _parse_derived(d, path)
    except SpecError:
        raise
    except (ValueError, SemilabError) as exc:
        raise SpecError(f"{path}: {exc}") from None
    raise SpecError(f"{path}: unknown environment kind {kind!r}")


def _table_values(d: dict, path: str) -> dict[tuple[int, ...], Fraction]:
    """The stored entries of a table or mubar spec, each in [0, 1]."""
    values = {}
    for key, v in _require(d, "values", path).items():
        q = parse_rational(v, f"{path}.values[{key}]")
        if not 0 <= q <= 1:
            raise SpecError(f"{path}.values[{key}]: {q} outside [0, 1]")
        values[tuple(int(c) for c in key)] = q
    return values


def _checked_table(table: TableEnv, path: str) -> TableEnv:
    # every stored level, not only the few levels _cross_check walks
    defect = table.first_defect()
    if defect is not None:
        raise SpecError(f"{path}: node inequality fails at {defect}")
    return table


def _parse_derived(d: dict, path: str) -> Environment:
    derived = _require(d, "derived", path)
    if derived == "mixture":
        env_class, weights = parse_class(
            {"class": _require(d, "environments", path), "weights": d.get("weights")},
            path)
        k, cap = d.get("k"), d.get("quasi_depth_cap")
        return MixtureEnv(env_class, weights, d.get("mode", RAW),
                          k=None if k is None else int(k),
                          quasi_depth_cap=None if cap is None else int(cap))
    if derived == "quasimeasure":
        return QuasimeasureEnv(
            parse_environment(_require(d, "base", path), path + ".base"),
            int(d.get("depth_cap", 24)))
    if derived == "normalized":
        base = parse_environment(_require(d, "base", path), path + ".base")
        return NormalizedEnv(base, d.get("declared_class", base.declared_class))
    if derived == "nu-stage":
        from .counterexample import NuStageEnv
        pivot = FiniteString.parse(d.get("pivot", ""))
        return NuStageEnv(pivot, int(_require(d, "t", path)))
    if derived == "nu-limit":
        from .counterexample import NuLimitEnv
        return NuLimitEnv(FiniteString.parse(d.get("alpha_prefix", "")),
                          int(_require(d, "tail_zero_from", path)))
    if derived == "contaminated":
        from .counterexample import MPrimeEnv
        nu = parse_environment(_require(d, "nu", path), path + ".nu")
        m = parse_environment(_require(d, "m", path), path + ".m")
        if not isinstance(m, MixtureEnv):
            raise SpecError(f"{path}.m: contaminated mixtures require a mixture base")
        return MPrimeEnv(nu, m, parse_rational(_require(d, "gamma", path), path + ".gamma"))
    if derived == "mubar":
        return _checked_table(MuBarEnv(
            _table_values(d, path), int(_require(d, "depth", path)),
            Alphabet(int(d.get("alphabet_size", 2))),
            int(_require(d, "stage", path))), path)
    raise SpecError(f"{path}: unknown derived kind {derived!r}")


def _cross_check(env: Environment, path: str, depth: int = 4) -> None:
    report = validate(env, depth)
    if not report.is_semimeasure:
        raise SpecError(
            f"{path}: node inequality fails at {report.first_defect_node}")
    if env.declared_class == MEASURE and not report.is_measure_to_depth:
        raise SpecError(f"{path}: declared a measure but node sums fall short")


def parse_class(d, path: str = "$") -> tuple[EnvClass, WeightScheme]:
    if isinstance(d, list):
        d = {"class": d}
    entries = _require(d, "class", path)
    if not isinstance(entries, list) or not entries:
        raise SpecError(f"{path}.class: must be a nonempty array")
    envs = []
    for i, entry in enumerate(entries):
        env = parse_environment(entry, f"{path}.class[{i}]")
        _cross_check(env, f"{path}.class[{i}]")
        envs.append(env)
    raw_weights = d.get("weights")
    if raw_weights is None:
        weights = default_weights(len(envs))
    else:
        weights = WeightScheme(tuple(
            parse_rational(w, f"{path}.weights[{i}]")
            for i, w in enumerate(raw_weights)))
        if len(weights) != len(envs):
            raise SpecError(f"{path}.weights: expected {len(envs)} entries")
    return EnvClass(envs), weights


def parse_env_spec(source: Union[str, Path, dict, list]):
    """Parse a spec document into an Environment or an (EnvClass, weights) pair.

    Accepts a path, an inline JSON string, or an already-decoded object.
    """
    if isinstance(source, (str, Path)):
        text = str(source)
        if text.lstrip().startswith(("{", "[")):
            try:
                source = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SpecError(f"inline JSON: {exc}") from None
        else:
            try:
                source = json.loads(Path(text).read_text())
            except OSError as exc:
                raise SpecError(f"cannot read spec {text!r}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise SpecError(f"{text}: {exc}") from None
    if isinstance(source, list) or (isinstance(source, dict) and "class" in source):
        return parse_class(source)
    if isinstance(source, dict):
        env = parse_environment(source)
        _cross_check(env, "$")
        return env
    raise SpecError("spec must be a JSON object or array")


# ------------------------------------------------------------------ artifacts

@dataclass
class PlotSeries:
    """Step-indexed interval series exportable as csv or plotdata triplets."""

    columns: tuple[str, str, str]
    rows: list[tuple]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines += [",".join(str(c) for c in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_plotdata(self) -> str:
        return "".join(f"{r[0]} {r[1]} {r[2]}\n" for r in self.rows)


@dataclass
class RunResult:
    outcomes: list = field(default_factory=list)
    documents: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)

    def add_verdict(self, name: str, verdict: Verdict, doc: str = "verdicts"):
        self.outcomes.append(verdict.outcome)
        self.documents.setdefault(doc, {})[name] = verdict.as_dict()

    def add_outcome(self, name: str, outcome: str, detail: dict, doc: str = "verdicts"):
        self.outcomes.append(outcome)
        entry = {"outcome": outcome}
        entry.update(detail)
        self.documents.setdefault(doc, {})[name] = entry


def _exact_outcome(holds: bool) -> str:
    return CERTIFIED_HOLDS if holds else CERTIFIED_FAILS


# ------------------------------------------------------------------- runners

def _mixture_from(spec: dict, mode: str = RAW) -> tuple[MixtureEnv, EnvClass, WeightScheme]:
    env_class, weights = parse_class(spec)
    return MixtureEnv(env_class, weights, mode), env_class, weights


def _class_index(value, env_class: EnvClass, path: str) -> int:
    i = int(value)
    if not 1 <= i <= len(env_class):
        raise SpecError(f"{path}: index {i} outside 1..{len(env_class)}")
    return i


def _mu_from(spec: dict, env_class: EnvClass) -> Environment:
    if "mu_index" in spec:
        return env_class.env(_class_index(spec["mu_index"], env_class, "$.mu_index"))
    if "mu" in spec:
        env = parse_environment(spec["mu"], "$.mu")
        _cross_check(env, "$.mu")
        return env
    raise SpecError("spec needs mu_index or mu")


def _w_from(spec: dict, weights: WeightScheme) -> Fraction:
    """The dominance constant: spec["w"], else the weight of mu_index."""
    if "w" not in spec:
        if "mu_index" not in spec:
            raise SpecError("$.w: required when mu is given inline")
        return weights.weight(int(spec["mu_index"]))
    w = parse_rational(spec["w"], "$.w")
    if not 0 < w <= 1:
        raise SpecError(f"$.w: {w} outside (0, 1]")
    return w


def run_verify_hellinger_bounds(spec, depth, bits, seed) -> RunResult:
    mix, env_class, weights = _mixture_from(spec)
    mu = _mu_from(spec, env_class)
    w = _w_from(spec, weights)
    kappa = parse_rational(spec["kappa"], "$.kappa") if "kappa" in spec else None
    try:
        found = hellinger_expectations(
            mix, mu, depth, HALF if kappa is None else kappa, w, bits)
    except NotDominatedError:
        raise SemilabError("mixture does not dominate mu with the given constant") from None
    result = RunResult()
    e = found["exp_half_sum"]
    with precision(bits):
        if kappa is not None:
            lhs = pow_nonneg(from_fraction(w), kappa) * e
            result.add_verdict("kappa-bound", compare_le(lhs, iv.mpf(1), bits))
            return result
        result.add_verdict("part-i", found["part_i"])
        two_ln_e = 2 * iv.log(e)
        part_ii = compare_le(found["hellinger_sum"], two_ln_e, bits)
        if part_ii.outcome == INCONCLUSIVE and found["support_size"] == found["support_mass"] == 1:
            # E_mu is a point evaluation: Jensen's gap is 0, both sides are
            # one real and their enclosures can only overlap
            part_ii = replace(part_ii, outcome=CERTIFIED_HOLDS)
        result.add_verdict("part-ii", part_ii)
        result.add_verdict("part-iii",
                           compare_le(two_ln_e, iv.log(1 / from_fraction(w)), bits))
    return result


def run_markov_tail(spec, depth, bits, seed) -> RunResult:
    mix, env_class, weights = _mixture_from(spec)
    mu = _mu_from(spec, env_class)
    w = _w_from(spec, weights)
    cs = [parse_rational(c, "$.c") for c in spec.get("c", ["1", "2", "4"])]
    result = RunResult()
    for c, report in zip(cs, markov_tail_checks(mix, mu, depth, w, cs, bits)):
        result.outcomes.append(report.verdict.outcome)
        result.documents.setdefault("verdicts", {})[f"tail-c-{c}"] = {
            "verdict": report.verdict.as_dict(),
            "exceed_mass": _frac_str(report.exceed_mass),
            "inconclusive_mass": _frac_str(report.inconclusive_mass),
            "threshold": [report.threshold_lo, report.threshold_hi],
        }
    return result


def _random_vector(stream: BitStream, dim: int, substochastic: bool,
                   resolution_bits: int = 16) -> list[Fraction]:
    # positive integers normalized by their (optionally padded) total give an
    # exact probability row; an extra slack cell makes it strictly substochastic
    cells = dim + 1 if substochastic else dim
    draws = []
    for _ in range(cells):
        n = 0
        for _ in range(resolution_bits):
            n = (n << 1) | stream.next_bit()
        draws.append(n + 1)
    total = sum(draws)
    return [Fraction(d, total) for d in draws[:dim]]


def run_chain_lemma(spec, depth, bits, seed) -> RunResult:
    result = RunResult()
    rhs_scale = parse_rational(spec.get("rhs_scale", "1"), "$.rhs_scale")
    if "vectors" in spec:
        vectors = [[parse_rational(x, "$.vectors") for x in v] for v in spec["vectors"]]
        beta = parse_rational(spec["beta"], "$.beta") if "beta" in spec else None
        result.add_verdict("chain", chain_inequality(vectors, beta, bits, rhs_scale))
        return result
    if seed is None:
        raise SpecError("seeded trials require --seed")
    trials = int(spec.get("trials", 100))
    dim = int(spec.get("dim", 2))
    betas = [parse_rational(b, "$.betas") for b in spec.get("betas", ["1/4", "1", "4"])]
    m = int(spec.get("m", 6))
    stream = BitStream(seed)
    counts = {CERTIFIED_HOLDS: 0, CERTIFIED_FAILS: 0, INCONCLUSIVE: 0}
    for _ in range(trials):
        p, r, q = (_random_vector(stream, dim, substochastic=False) for _ in range(3))
        for beta in betas:
            v = chain_inequality([p, r, q], beta, bits, rhs_scale)
            counts[v.outcome] += 1
        chain = [_random_vector(stream, dim, substochastic=False) for _ in range(m)]
        v = chain_inequality(chain, None, bits, rhs_scale)
        counts[v.outcome] += 1
    outcome = (CERTIFIED_FAILS if counts[CERTIFIED_FAILS]
               else INCONCLUSIVE if counts[INCONCLUSIVE] else CERTIFIED_HOLDS)
    result.add_outcome("chain-trials", outcome, {"counts": counts, "trials": trials})
    return result


def run_quasimeasure(spec, depth, bits, seed) -> RunResult:
    env_class, weights = parse_class(spec)
    w_mix = MixtureEnv(env_class, weights, QUASI, quasi_depth_cap=max(depth, 2))
    d_mix = MixtureEnv(env_class, weights, MEASURES_ONLY)
    result = RunResult()
    cutoffs = {}
    for i in range(1, len(env_class) + 1):
        cutoffs[str(i)] = w_mix.component(i).cutoff_depth()
    result.documents["report"] = {"cutoff_depths": cutoffs}
    equal_from = int(spec.get("equal_from", 2))
    # tuple order is depth-first order and a state's representative is its
    # smallest string: the least mismatching one is the first a depth-first
    # walk would meet
    mismatch = min((symbols
                    for symbols, (w, d), _, _, _ in walk_states([w_mix, d_mix], depth)
                    if len(symbols) >= equal_from and w.mass != d.mass), default=None)
    if mismatch is not None:
        mismatch = "".join(map(str, mismatch))
    result.add_outcome("w-equals-d", _exact_outcome(mismatch is None),
                       {"equal_from": equal_from, "depth": depth,
                        "first_mismatch": mismatch})
    return result


def run_w_vs_d(spec, depth, bits, seed) -> RunResult:
    if seed is None:
        raise SpecError("w-vs-d samples omega and requires --seed")
    env_class, weights = parse_class(spec)
    mu = _mu_from(spec, env_class)
    w_mix = MixtureEnv(env_class, weights, QUASI, quasi_depth_cap=max(depth + 1, 2))
    d_mix = MixtureEnv(env_class, weights, MEASURES_ONLY)
    omega, _ = sample(mu, depth, seed, with_likelihood=False)
    stable_from = int(spec.get("stable_from", 3))
    rows = []
    max_late = Fraction(0)
    w_cur, d_cur = w_mix.cursor(), d_mix.cursor()
    for t, a in enumerate(omega.symbols, start=1):
        if w_cur.mass == 0 or d_cur.mass == 0:
            raise UndefinedPosteriorError(f"zero mass at {omega.prefix(t - 1)}")
        diff = max(abs(p - q) for p, q in zip(w_cur.row(), d_cur.row()))
        rows.append((t, _frac_str(diff), _frac_str(diff)))
        if t >= stable_from:
            max_late = max(max_late, diff)
        w_cur.step(a)
        d_cur.step(a)
    result = RunResult()
    result.traces["w-vs-d"] = PlotSeries(("t", "maxdiff_lo", "maxdiff_hi"), rows)
    result.add_outcome("posterior-coincidence", _exact_outcome(max_late == 0),
                       {"stable_from": stable_from, "omega": str(omega),
                        "max_late_diff": _frac_str(max_late)})
    return result


def run_deficiency(spec, depth, bits, seed) -> RunResult:
    mix, env_class, weights = _mixture_from(spec, mode=spec.get("mode", RAW))
    mu = _mu_from(spec, env_class)
    if "omega" in spec:
        omega = FiniteString.parse(spec["omega"], env_class.alphabet)
    else:
        if seed is None:
            raise SpecError("sampling omega requires --seed")
        omega, _ = sample(mu, depth, seed, with_likelihood=False)
    trace = deficiency_trace(mix, mu, omega, min(depth, len(omega)), bits)
    result = RunResult()
    result.traces["deficiency"] = PlotSeries(
        ("n", "log2_ratio_lo", "log2_ratio_hi"),
        [(n, trace.log2_bounds[i][0], trace.log2_bounds[i][1])
         for i, n in enumerate(trace.prefix_lengths)])
    result.add_outcome(
        "deficiency-finite", _exact_outcome(not trace.diverging),
        {"omega": str(omega), "sup_ratio": _frac_str(trace.sup_ratio),
         "d_log2": list(trace.d_bounds)})
    return result


def run_leftmost_alpha(spec, depth, bits, seed) -> RunResult:
    mix, env_class, weights = _mixture_from(spec, mode=spec.get("mode", RAW))
    alpha = leftmost_random(mix, depth)
    violations = envelope_violations(mix, alpha)
    result = RunResult()
    result.add_outcome("envelope", _exact_outcome(not violations),
                       {"alpha": str(alpha), "depth": depth,
                        "violations": violations})
    return result


def _functional_from(spec: dict):
    f = spec.get("functional", {"kind": "indicator", "eps": "1/64"})
    eps = parse_rational(f.get("eps", "1/64"), "$.functional.eps")
    kind = f.get("kind", "indicator")
    if kind == "indicator":
        return IndicatorFunctional(eps)
    if kind == "constant":
        return ConstantFunctional(eps)
    raise SpecError(f"unknown functional kind {kind!r}")


def run_e2i(spec, depth, bits, seed) -> RunResult:
    if seed is None:
        raise SpecError("e2i samples omega and requires --seed")
    env_class, weights = parse_class(spec)
    mu = _mu_from(spec, env_class)
    functional = _functional_from(spec)
    n = int(spec.get("stage", depth))
    if n < 1:
        raise SpecError(f"$.stage: {n} must be >= 1 (it defaults to the depth)")
    result = RunResult()
    mubar = None
    for stage in range(1, n + 1):
        mubar = e2i_build_mubar(mu, functional, stage)
        report = validate(mubar, stage)
        result.add_outcome(f"mubar-{stage}-semimeasure",
                           _exact_outcome(report.is_semimeasure),
                           {"stage": stage})
    extended = EnvClass(list(env_class.envs) + [mubar])
    ext_weights = default_weights(len(extended))
    m_ext = MixtureEnv(extended, ext_weights, RAW)
    count = int(spec.get("count", 1))
    stream_seed = seed
    for j in range(count):
        omega, _ = sample(mu, n, stream_seed + j, with_likelihood=False)
        report = e2i_individual_bound(m_ext, functional, mu, omega, n)
        result.add_verdict(f"individual-bound-{j}", report.deficiency_verdict)
    return result


def run_prop8(spec, depth, bits, seed) -> RunResult:
    env_class, weights = parse_class(spec)
    k0s = [_class_index(k, env_class, "$.k0") for k in spec.get("k0", [1])]
    result = RunResult()
    for k0 in k0s:
        v = prop8_expected_bound(env_class, weights, k0, depth, bits)
        result.add_verdict(f"expected-bound-k0-{k0}", v)
    ratio_depth = int(spec.get("ratio_depth", min(depth, 8)))
    for k in spec.get("ratio_k", list(range(2, len(env_class) + 1))):
        v = delta_hat_ratio_check(env_class, weights,
                                  _class_index(k, env_class, "$.ratio_k"), ratio_depth)
        result.add_verdict(f"ratio-bound-k-{k}", v)
    return result


def run_counterexample(spec, depth, bits, seed) -> RunResult:
    env_class, weights = parse_class(spec)
    gamma = parse_rational(spec.get("gamma", "1/9"), "$.gamma")
    mix = MixtureEnv(env_class, weights, RAW)
    stages = StageApproximation(mix)
    result = RunResult()
    try:
        nu = nu_limit(stages, depth)
        cm = build_mprime(nu, mix, gamma)
        alpha = leftmost_random(mix, depth)
        report = verify_nonconvergence(cm, uniform_measure(), alpha, depth)
    except InconclusiveConfigurationError as exc:
        result.add_outcome("nonconvergence", INCONCLUSIVE, {"reason": str(exc)},
                           doc="report")
        return result
    result.documents["report"] = report.as_dict()
    result.outcomes.append(
        CERTIFIED_HOLDS if report.all_certified else CERTIFIED_FAILS)
    return result


RUNNERS = {
    "verify-hellinger-bounds": run_verify_hellinger_bounds,
    "markov-tail": run_markov_tail,
    "chain-lemma": run_chain_lemma,
    "quasimeasure": run_quasimeasure,
    "w-vs-d": run_w_vs_d,
    "deficiency": run_deficiency,
    "leftmost-alpha": run_leftmost_alpha,
    "e2i": run_e2i,
    "prop8": run_prop8,
    "counterexample": run_counterexample,
}

DEFAULT_DEPTHS = {
    "verify-hellinger-bounds": 10,
    "markov-tail": 10,
    "chain-lemma": 0,
    "quasimeasure": 8,
    "w-vs-d": 8,
    "deficiency": 16,
    "leftmost-alpha": 64,
    "e2i": 6,
    "prop8": 10,
    "counterexample": 24,
}


def run_experiment(subcommand: str, spec: dict, depth: Optional[int],
                   precision_bits: int, seed: Optional[int],
                   workers: int = 1) -> RunResult:
    """Run one subcommand on a decoded spec.

    ``workers`` is accepted for compatibility with earlier callers and has
    no effect: every walk runs in the calling thread.
    """
    if subcommand not in RUNNERS:
        raise SpecError(f"unknown subcommand {subcommand!r}")
    if depth is None:
        depth = int(spec.get("depth", DEFAULT_DEPTHS[subcommand]))
    if depth < 0:
        raise SpecError(f"depth must be >= 0, got {depth}")
    return RUNNERS[subcommand](spec, depth, precision_bits, seed)


# --------------------------------------------------------------------- output

def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_results(result: RunResult, out_dir: Optional[Path],
                 fmt: str = "json") -> dict[str, str]:
    """Serialize a run deterministically; returns {filename: content}."""
    payloads: dict[str, str] = {}
    for name, doc in sorted(result.documents.items()):
        payloads[f"{name}.json"] = _dump_json(doc)
    for name, trace in sorted(result.traces.items()):
        if fmt == "plotdata":
            payloads[f"{name}.plotdata"] = trace.to_plotdata()
        elif fmt == "json":
            payloads[f"{name}.json"] = _dump_json(
                {"columns": list(trace.columns), "rows": [list(r) for r in trace.rows]})
        else:
            payloads[f"{name}.csv"] = trace.to_csv()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for fname, content in payloads.items():
            (out_dir / fname).write_text(content)
    return payloads


def exit_code_for(outcomes) -> int:
    if any(o == CERTIFIED_FAILS for o in outcomes):
        return EXIT_FAILS
    if any(o == INCONCLUSIVE for o in outcomes):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def write_manifest(out_dir: Path, spec_text: str, subcommand: str,
                   result: RunResult, elapsed: float) -> None:
    manifest = {
        "version": __version__,
        "subcommand": subcommand,
        "spec_sha256": hashlib.sha256(spec_text.encode()).hexdigest(),
        "outcomes": {
            "certified-holds": sum(o == CERTIFIED_HOLDS for o in result.outcomes),
            "certified-fails": sum(o == CERTIFIED_FAILS for o in result.outcomes),
            "inconclusive": sum(o == INCONCLUSIVE for o in result.outcomes),
        },
        # timings are informational only and excluded from determinism checks
        "elapsed_seconds": elapsed,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(_dump_json(manifest))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semilab",
        description="Exact semimeasure laboratory: certified verification of "
                    "predictive-convergence inequalities.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--spec", required=True,
                        help="path to a JSON experiment spec, or inline JSON")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--precision", type=int, default=None,
                        help=f"bits; default 128 or ${DEFAULT_PRECISION_ENV}")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--format", choices=("csv", "json", "plotdata"),
                        default="csv")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    bits = args.precision
    if bits is None:
        bits = int(os.environ.get(DEFAULT_PRECISION_ENV, "128"))
    if bits < 8:
        print("error: precision must be at least 8 bits", file=sys.stderr)
        return EXIT_USAGE
    spec_text = args.spec
    try:
        if not spec_text.lstrip().startswith(("{", "[")):
            spec_text = Path(args.spec).read_text()
        spec = json.loads(spec_text)
        if not isinstance(spec, dict):
            spec = {"class": spec}
        started = time.monotonic()
        result = run_experiment(args.subcommand, spec, args.depth, bits,
                                args.seed, args.workers)
        elapsed = time.monotonic() - started
        payloads = emit_results(result, args.out, args.format)
        if args.out is not None:
            write_manifest(args.out, json.dumps(spec, sort_keys=True),
                           args.subcommand, result, elapsed)
        else:
            for fname in sorted(payloads):
                sys.stdout.write(payloads[fname])
        return exit_code_for(result.outcomes)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveConfigurationError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (SemilabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
