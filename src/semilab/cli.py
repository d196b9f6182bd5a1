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
import re
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .counterexample import NuLimitEnv, _checked_gamma, contaminate, verify_nonconvergence
from .divergence import (HALF, _checked_beta, _checked_kappa, chain_inequality,
                         hellinger_expectations, markov_tail_checks)
from .envcore import (
    Alphabet,
    BINARY,
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
    STRICT_SEMIMEASURE,
    TableEnv,
    _frac_str,
    sample,
    uniform_measure,
    walk_states,
    walk_string,
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
    DEFAULT_QUASI_DEPTH_CAP,
    EnvClass,
    MEASURES_ONLY,
    MODES,
    MixtureEnv,
    NormalizedEnv,
    QUASI,
    QuasimeasureEnv,
    RAW,
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
    leftmost_random,
    prop8_expected_bound,
)

DEFAULT_PRECISION_ENV = "SEMILAB_PRECISION"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILS = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------- spec parsing

def parse_rational(text, path: str = "") -> Fraction:
    """Parse "num/den" or integer strings; floats and bools are rejected."""
    if isinstance(text, int) and not isinstance(text, bool):
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


def _parse_int(value, path: str, least: Optional[int] = None) -> int:
    """A JSON integer (not a bool) or a decimal-digit string, refused below
    ``least``; int() truncates floats."""
    if isinstance(value, int) and not isinstance(value, bool):
        number = value
    elif isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        number = int(value)
    else:
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    if least is not None and number < least:
        raise SpecError(f"{path}: {number} must be >= {least}")
    return number


def _int_field(spec: dict, key: str, default, least: Optional[int] = None) -> int:
    """The integer field ``key`` of a run spec, refused below ``least``."""
    return _parse_int(spec.get(key, default), f"$.{key}", least)


def _enum(d: dict, key: str, values, path: str, default=None):
    """The field ``key`` of the object at ``path``, one of ``values``;
    required when no default is given."""
    value = _require(d, key, path) if default is None else d.get(key, default)
    if value not in values:
        *rest, last = map(repr, values)
        raise SpecError(f"{path}.{key}: expected {', '.join(rest)} or {last}, got {value!r}")
    return value


ENV_KINDS = ("bernoulli", "categorical", "uniform", "markov", "deterministic", "leaky",
             "decaying", "table", "derived")
DERIVED_KINDS = ("mixture", "quasimeasure", "normalized", "nu-stage", "nu-limit",
                 "contaminated", "mubar")
DECLARED_CLASSES = (MEASURE, STRICT_SEMIMEASURE)
FUNCTIONALS = {"indicator": IndicatorFunctional, "constant": ConstantFunctional}


def _typed(value, kind: type, path: str):
    """value itself, when it is a JSON array (kind list) or object (dict)."""
    if not isinstance(value, kind):
        what = "an array" if kind is list else "an object"
        raise SpecError(f"{path}: expected {what}, got {value!r}")
    return value


def _rationals(value, path: str) -> list[Fraction]:
    return [parse_rational(x, f"{path}[{i}]") for i, x in enumerate(_typed(value, list, path))]


def _distinct(values: list, path: str) -> list:
    """values, refused when two are equal: each names a verdict of its own."""
    seen = {}
    for i, v in enumerate(values):
        if v in seen:
            raise SpecError(f"{path}[{i}]: duplicates {path}[{seen[v]}] (both {v})")
        seen[v] = i
    return values


def _symbols(value, path: str) -> tuple[int, ...]:
    """A string of symbols, one decimal digit each."""
    if not isinstance(value, str) or not re.fullmatch(r"[0-9]*", value):
        raise SpecError(f"{path}: expected a string of symbol digits, got {value!r}")
    return tuple(map(int, value))


def _alphabet(d: dict, path: str) -> Alphabet:
    return Alphabet(_parse_int(d.get("alphabet_size", 2), path + ".alphabet_size", least=2))


#: the deepest nesting of environment specs the parser accepts, a spec with
#: no nested environment being one level: cursors and walks recurse per level
MAX_NESTING = 64

#: the fields of each kind (a derived one by its ``derived`` name) that hold
#: nested environment specs
NESTED_FIELDS = {"leaky": ("base",), "quasimeasure": ("base",), "normalized": ("base",),
                 "contaminated": ("nu", "m"), "mixture": ("environments",)}


def _nesting(d) -> int:
    """The levels of environment specs in d, counted without recursion and
    only up to the first beyond MAX_NESTING."""
    deepest, todo = 0, [(d, 1)]
    while todo and deepest <= MAX_NESTING:
        d, level = todo.pop()
        deepest = max(deepest, level)
        kind = d.get("derived") if d.get("kind") == "derived" else d.get("kind")
        for key in NESTED_FIELDS.get(kind, ()) if isinstance(kind, str) else ():
            value = d.get(key)
            todo += [(e, level + 1) for e in (value if isinstance(value, list) else [value])
                     if isinstance(e, dict)]
    return deepest


def parse_environment(d: dict, path: str = "$") -> Environment:
    if not isinstance(d, dict):
        raise SpecError(f"{path}: environment spec must be an object")
    if _nesting(d) > MAX_NESTING:
        raise SpecError(f"{path}: environment specs nest deeper than {MAX_NESTING} levels")
    kind = _enum(d, "kind", ENV_KINDS, path)
    try:
        if kind == "bernoulli":
            return BernoulliEnv(parse_rational(_require(d, "p", path), path + ".p"))
        if kind == "categorical":
            return CategoricalIIDEnv(_rationals(_require(d, "probs", path), path + ".probs"))
        if kind == "uniform":
            return uniform_measure(_alphabet(d, path))
        if kind == "markov":
            transitions = {
                _symbols(ctx, f"{path}.transitions[{ctx}]"):
                    _rationals(row, f"{path}.transitions[{ctx}]")
                for ctx, row in _typed(_require(d, "transitions", path), dict,
                                       path + ".transitions").items()
            }
            order = _parse_int(_require(d, "order", path), path + ".order", least=1)
            return MarkovEnv(order, transitions, _alphabet(d, path))
        if kind == "deterministic":
            return DeterministicEnv(
                _symbols(d.get("prefix", ""), path + ".prefix"),
                _symbols(_require(d, "period", path), path + ".period"),
                _alphabet(d, path),
            )
        if kind == "leaky":
            return LeakyEnv(
                parse_environment(_require(d, "base", path), path + ".base"),
                parse_rational(_require(d, "leak", path), path + ".leak"),
            )
        if kind == "decaying":
            return DecayingEnv(_parse_int(_require(d, "beta", path), path + ".beta", least=2))
        if kind == "table":
            return _checked_table(TableEnv(
                _parse_int(_require(d, "depth", path), path + ".depth", least=0),
                _table_values(d, path), _alphabet(d, path),
                _enum(d, "declared_class", DECLARED_CLASSES, path, STRICT_SEMIMEASURE)), path)
        return _parse_derived(d, path)
    except SpecError:
        raise
    except (ValueError, SemilabError) as exc:
        raise SpecError(f"{path}: {exc}") from None


def _table_values(d: dict, path: str) -> dict[tuple[int, ...], Fraction]:
    """The stored entries of a table or mubar spec, each in [0, 1]."""
    values = {}
    for key, v in _typed(_require(d, "values", path), dict, path + ".values").items():
        q = parse_rational(v, f"{path}.values[{key}]")
        if not 0 <= q <= 1:
            raise SpecError(f"{path}.values[{key}]: {q} outside [0, 1]")
        values[_symbols(key, f"{path}.values[{key}]")] = q
    return values


def _checked_table(table: TableEnv, path: str) -> TableEnv:
    # every stored level: the parser walks no strict semimeasure
    defect = table.first_defect()
    if defect is not None:
        raise SpecError(f"{path}: node inequality fails at {defect}")
    return table


def _parse_derived(d: dict, path: str) -> Environment:
    derived = _enum(d, "derived", DERIVED_KINDS, path)
    if derived == "mixture":
        env_class, weights = parse_class(d, path, "environments")
        k, cap = (None if d.get(f) is None else _parse_int(d[f], f"{path}.{f}", least)
                  for f, least in (("k", None), ("quasi_depth_cap", 2)))
        return MixtureEnv(env_class, weights, _enum(d, "mode", MODES, path, RAW),
                          k=k, quasi_depth_cap=cap)
    if derived == "quasimeasure":
        return QuasimeasureEnv(
            parse_environment(_require(d, "base", path), path + ".base"),
            _parse_int(d.get("depth_cap", DEFAULT_QUASI_DEPTH_CAP), path + ".depth_cap",
                       least=2))
    if derived == "normalized":
        base = parse_environment(_require(d, "base", path), path + ".base")
        return NormalizedEnv(base, _enum(d, "declared_class", DECLARED_CLASSES, path,
                                         base.declared_class))
    if derived == "nu-stage":
        pivot = FiniteString(BINARY, _symbols(d.get("pivot", ""), path + ".pivot"))
        return NuLimitEnv(pivot, _parse_int(_require(d, "t", path), path + ".t", least=0))
    if derived == "nu-limit":
        prefix = _symbols(d.get("alpha_prefix", ""), path + ".alpha_prefix")
        tail = _parse_int(_require(d, "tail_zero_from", path), path + ".tail_zero_from")
        if tail < 0 or any(prefix[tail:]):
            raise SpecError(f"{path}.tail_zero_from: {tail} does not start an all-zero "
                            "tail of alpha_prefix")
        return NuLimitEnv(FiniteString(BINARY, prefix))
    if derived == "contaminated":
        nu = parse_environment(_require(d, "nu", path), path + ".nu")
        m = parse_environment(_require(d, "m", path), path + ".m")
        if not isinstance(m, MixtureEnv):
            raise SpecError(f"{path}.m: contaminated mixtures require a mixture base")
        gamma = parse_rational(_require(d, "gamma", path), path + ".gamma")
        if not 0 < gamma < 1:
            raise SpecError(f"{path}.gamma: {gamma} outside (0, 1)")
        return contaminate(nu, m, gamma)
    return _checked_table(MuBarEnv(
        _table_values(d, path),
        _parse_int(_require(d, "depth", path), path + ".depth", least=0),
        _alphabet(d, path),
        _parse_int(_require(d, "stage", path), path + ".stage", least=1)), path)


def _naming(path: str, call, *args):
    """call(*args), an error it raises refused as one line naming ``path``:
    the library states each rule once, and the CLI names the field."""
    try:
        return call(*args)
    except (ValueError, SemilabError) as exc:
        raise SpecError(f"{path}: {exc}") from None


def _cross_check(env: Environment, path: str, env_class: Optional[EnvClass] = None,
                 i: int = 1) -> None:
    """Check the one claim a spec makes that its constructors do not check:
    env, member i of env_class, declared a measure.  ``EnvClass.is_measure``
    walks such a member to ``CERTIFICATION_DEPTH`` and keeps the answer, so
    no run walks a class member twice; a lone environment is checked as a
    class of one.  The node inequality needs no walk: constructors check
    rows and ranges, ``_checked_table`` every stored entry, and every other
    kind holds it by construction."""
    if env.declared_class == MEASURE and not _naming(
            path, (env_class or EnvClass([env])).is_measure, i):
        raise SpecError(f"{path}: declared a measure but node sums fall short")


def parse_class(d, path: str = "$", members: str = "class") -> tuple[EnvClass, WeightScheme]:
    """The class in d[members] with d's weights; errors name their JSON path."""
    if isinstance(d, list):
        d = {members: d}
    entries = _require(d, members, path)
    if not isinstance(entries, list) or not entries:
        raise SpecError(f"{path}.{members}: must be a nonempty array")
    envs = [parse_environment(entry, f"{path}.{members}[{i}]")
            for i, entry in enumerate(entries)]
    env_class = EnvClass(envs)
    for i, env in enumerate(envs):
        _cross_check(env, f"{path}.{members}[{i}]", env_class, i + 1)
    if "weights" not in d:
        weights = default_weights(len(envs))
    else:
        weights = WeightScheme(tuple(_rationals(d["weights"], path + ".weights")))
        if len(weights) != len(envs):
            raise SpecError(f"{path}.weights: expected {len(envs)} entries")
    return env_class, weights


def _decode_spec(source: Union[str, Path]):
    """Decode a spec given as inline JSON (text starting with ``{`` or ``[``)
    or as the path of a JSON file; errors name the file."""
    text = str(source)
    inline = text.lstrip().startswith(("{", "["))
    try:
        return json.loads(text if inline else Path(text).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read spec {text!r}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecError(f"{'inline JSON' if inline else text}: {exc}") from None


def parse_env_spec(source: Union[str, Path, dict, list]):
    """Parse a spec document into an Environment or an (EnvClass, weights) pair.

    Accepts a path, an inline JSON string, or an already-decoded object.
    """
    if isinstance(source, (str, Path)):
        source = _decode_spec(source)
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

    def add_entry(self, name: str, outcome: str, entry: dict, doc: str = "verdicts"):
        """Record one outcome as ``doc[name]``; a name already taken raises,
        so no entry is overwritten while ``outcomes`` counts both."""
        entries = self.documents.setdefault(doc, {})
        if name in entries:
            raise ValueError(f"{doc}: entry {name!r} recorded twice")
        self.outcomes.append(outcome)
        entries[name] = entry

    def add_verdict(self, name: str, verdict: Verdict, doc: str = "verdicts"):
        self.add_entry(name, verdict.outcome, verdict.as_dict(), doc)

    def add_outcome(self, name: str, outcome: str, detail: dict, doc: str = "verdicts"):
        self.add_entry(name, outcome, {"outcome": outcome, **detail}, doc)


def _exact_outcome(holds: bool) -> str:
    return CERTIFIED_HOLDS if holds else CERTIFIED_FAILS


# ------------------------------------------------------------------- runners

def _mixture_from(spec: dict, mode: str = RAW) -> tuple[MixtureEnv, EnvClass, WeightScheme]:
    env_class, weights = parse_class(spec)
    return MixtureEnv(env_class, weights, mode), env_class, weights


def _class_index(value, env_class: EnvClass, path: str, least: int = 1) -> int:
    i = _parse_int(value, path)
    if not least <= i <= len(env_class):
        raise SpecError(f"{path}: index {i} outside {least}..{len(env_class)}")
    return i


def _mu_from(spec: dict, env_class: EnvClass) -> Environment:
    if "mu_index" in spec:
        return env_class.env(_class_index(spec["mu_index"], env_class, "$.mu_index"))
    if "mu" in spec:
        env = parse_environment(spec["mu"], "$.mu")
        if env.alphabet.size != env_class.alphabet.size:
            raise SpecError(f"$.mu: alphabet size {env.alphabet.size} differs from the "
                            f"class's {env_class.alphabet.size}")
        _cross_check(env, "$.mu")
        return env
    raise SpecError("spec needs mu_index or mu")


def _w_from(spec: dict, weights: WeightScheme) -> Fraction:
    """The dominance constant: spec["w"], else the weight of mu_index."""
    if "w" not in spec:
        if "mu_index" not in spec:
            raise SpecError("$.w: required when mu is given inline")
        return weights.weight(_parse_int(spec["mu_index"], "$.mu_index"))
    w = parse_rational(spec["w"], "$.w")
    if not 0 < w <= 1:
        raise SpecError(f"$.w: {w} outside (0, 1]")
    return w


def run_verify_hellinger_bounds(spec, depth, bits, seed) -> RunResult:
    mix, env_class, weights = _mixture_from(spec)
    mu = _mu_from(spec, env_class)
    w = _w_from(spec, weights)
    kappa = (_naming("$.kappa", _checked_kappa, parse_rational(spec["kappa"], "$.kappa"))
             if "kappa" in spec else None)
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
    cs = _distinct(_rationals(spec.get("c", ["1", "2", "4"]), "$.c"), "$.c")
    if not cs:
        raise SpecError("$.c: empty, so no tail check would run")
    result = RunResult()
    for c, report in zip(cs, markov_tail_checks(mix, mu, depth, w, cs, bits)):
        result.add_entry(f"tail-c-{c}", report.verdict.outcome, {
            "verdict": report.verdict.as_dict(),
            "exceed_mass": _frac_str(report.exceed_mass),
            "inconclusive_mass": _frac_str(report.inconclusive_mass),
            "threshold": [report.threshold_lo, report.threshold_hi],
        })
    return result


def _random_vector(stream: BitStream, dim: int) -> list[Fraction]:
    # positive 16-bit integers normalized by their total give an exact
    # probability row
    draws = []
    for _ in range(dim):
        n = 0
        for _ in range(16):
            n = (n << 1) | stream.next_bit()
        draws.append(n + 1)
    total = sum(draws)
    return [Fraction(d, total) for d in draws]


def run_chain_lemma(spec, depth, bits, seed) -> RunResult:
    result = RunResult()
    rhs_scale = parse_rational(spec.get("rhs_scale", "1"), "$.rhs_scale")
    if "vectors" in spec:
        vectors = [_rationals(v, f"$.vectors[{i}]")
                   for i, v in enumerate(_typed(spec["vectors"], list, "$.vectors"))]
        beta = (_naming("$.beta", _checked_beta, parse_rational(spec["beta"], "$.beta"))
                if "beta" in spec else None)
        # with beta checked, what chain_inequality refuses is the vectors
        result.add_verdict("chain", _naming("$.vectors", chain_inequality, vectors, beta,
                                            bits, rhs_scale))
        return result
    if seed is None:
        raise SpecError("seeded trials require --seed")
    trials, dim, m = (_int_field(spec, *f)
                      for f in (("trials", 100, 1), ("dim", 2, 2), ("m", 6, 2)))
    betas = [_naming(f"$.betas[{i}]", _checked_beta, b)
             for i, b in enumerate(_rationals(spec.get("betas", ["1/4", "1", "4"]), "$.betas"))]
    stream = BitStream(seed)
    counts = {CERTIFIED_HOLDS: 0, CERTIFIED_FAILS: 0, INCONCLUSIVE: 0}
    for _ in range(trials):
        p, r, q = (_random_vector(stream, dim) for _ in range(3))
        for beta in betas:
            v = chain_inequality([p, r, q], beta, bits, rhs_scale)
            counts[v.outcome] += 1
        chain = [_random_vector(stream, dim) for _ in range(m)]
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
    equal_from = _int_field(spec, "equal_from", 2, least=0)
    # tuple order is depth-first order and a state's representative is its
    # smallest string: the least mismatching one is the first a depth-first
    # walk would meet; W = D is tested on the masses' integer pairs
    masses = ((symbols, w.mass_ratio(), d.mass_ratio())
              for symbols, (w, d), _, _, _ in walk_states([w_mix, d_mix], depth)
              if len(symbols) >= equal_from)
    mismatch = min((symbols for symbols, (w_num, w_den), (d_num, d_den) in masses
                    if w_num * d_den != d_num * w_den), default=None)
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
    stable_from = _int_field(spec, "stable_from", 3, least=1)
    omega, _ = sample(mu, depth, seed)
    rows = []
    max_late = Fraction(0)
    for t, (w_cur, d_cur) in zip(range(1, len(omega) + 1), walk_string([w_mix, d_mix], omega)):
        if not w_cur.mass_ratio()[0] or not d_cur.mass_ratio()[0]:
            raise UndefinedPosteriorError(f"zero mass at {omega.prefix(t - 1)}")
        (w_nums, w_den), (d_nums, d_den) = w_cur.row_ratio(), d_cur.row_ratio()
        diff = Fraction(max(abs(p * d_den - q * w_den) for p, q in zip(w_nums, d_nums)),
                        w_den * d_den)
        rows.append((t, _frac_str(diff), _frac_str(diff)))
        if t >= stable_from:
            max_late = max(max_late, diff)
    result = RunResult()
    result.traces["w-vs-d"] = PlotSeries(("t", "maxdiff_lo", "maxdiff_hi"), rows)
    result.add_outcome("posterior-coincidence", _exact_outcome(max_late == 0),
                       {"stable_from": stable_from, "omega": str(omega),
                        "max_late_diff": _frac_str(max_late)})
    return result


def run_deficiency(spec, depth, bits, seed) -> RunResult:
    mix, env_class, weights = _mixture_from(spec, mode=_enum(spec, "mode", MODES, "$", RAW))
    mu = _mu_from(spec, env_class)
    if "omega" in spec:
        symbols = _symbols(spec["omega"], "$.omega")
        try:
            omega = FiniteString(env_class.alphabet, symbols)
        except ValueError as exc:
            raise SpecError(f"$.omega: {exc}") from None
        if len(omega) < depth:
            raise SpecError(f"$.omega: {len(omega)} symbols, fewer than the depth {depth}")
    else:
        if seed is None:
            raise SpecError("sampling omega requires --seed")
        omega, _ = sample(mu, depth, seed)
    trace = deficiency_trace(mix, mu, omega, depth, bits)
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
    mix, env_class, weights = _mixture_from(spec, mode=_enum(spec, "mode", MODES, "$", RAW))
    # leftmost_random compares M(alpha_{1:k}) with 2^-k exactly at every k
    # and raises on the first violation, so the envelope holds once it returns
    alpha = leftmost_random(mix, depth)
    result = RunResult()
    result.add_outcome("envelope", CERTIFIED_HOLDS,
                       {"alpha": str(alpha), "depth": depth, "violations": []})
    return result


def _functional_from(spec: dict):
    f = _typed(spec.get("functional", {"kind": "indicator", "eps": "1/64"}), dict,
               "$.functional")
    eps = parse_rational(f.get("eps", "1/64"), "$.functional.eps")
    if eps <= 0:
        raise SpecError(f"$.functional.eps: {eps} must be > 0")
    return FUNCTIONALS[_enum(f, "kind", tuple(FUNCTIONALS), "$.functional", "indicator")](eps)


def run_e2i(spec, depth, bits, seed) -> RunResult:
    if seed is None:
        raise SpecError("e2i samples omega and requires --seed")
    env_class, weights = parse_class(spec)
    mu = _mu_from(spec, env_class)
    functional = _functional_from(spec)
    n = _int_field(spec, "stage", depth)
    if n < 1:
        raise SpecError(f"$.stage: {n} must be >= 1 (it defaults to the depth)")
    count = _int_field(spec, "count", 1, 1)
    result = RunResult()
    mubar = None
    for stage in range(1, n + 1):
        mubar = e2i_build_mubar(mu, functional, stage)
        result.add_outcome(f"mubar-{stage}-semimeasure",
                           _exact_outcome(mubar.first_defect() is None),
                           {"stage": stage})
    extended = env_class.extended(mubar)
    ext_weights = default_weights(len(extended))
    m_ext = MixtureEnv(extended, ext_weights, RAW)
    for j in range(count):
        omega, _ = sample(mu, n, (seed + j) % 2 ** 64)
        report = e2i_individual_bound(m_ext, functional, mu, omega, n)
        result.add_verdict(f"individual-bound-{j}", report.deficiency_verdict)
    return result


def run_prop8(spec, depth, bits, seed) -> RunResult:
    env_class, weights = parse_class(spec)
    k0s = _distinct([_class_index(k, env_class, f"$.k0[{i}]")
                     for i, k in enumerate(_typed(spec.get("k0", [1]), list, "$.k0"))], "$.k0")
    ratio_k = _typed(spec.get("ratio_k", list(range(2, len(env_class) + 1))), list, "$.ratio_k")
    ratio_ks = _distinct([_class_index(k, env_class, f"$.ratio_k[{i}]", least=2)
                          for i, k in enumerate(ratio_k)], "$.ratio_k")
    if not k0s and not ratio_k:
        raise SpecError("$.k0, $.ratio_k: both empty, so no check would run")
    result = RunResult()
    for k0 in k0s:
        v = prop8_expected_bound(env_class, weights, k0, depth, bits)
        result.add_verdict(f"expected-bound-k0-{k0}", v)
    ratio_depth = _int_field(spec, "ratio_depth", min(depth, 8), least=0)
    for k, index in zip(ratio_k, ratio_ks):
        v = delta_hat_ratio_check(env_class, weights, index, ratio_depth)
        result.add_verdict(f"ratio-bound-k-{k}", v)
    return result


def run_counterexample(spec, depth, bits, seed) -> RunResult:
    env_class, weights = parse_class(spec)
    gamma = _naming("$.gamma", _checked_gamma, parse_rational(spec.get("gamma", "1/9"), "$.gamma"))
    if depth < 2:
        raise SpecError(f"--depth: {depth} must be >= 2, for a 01-position spans two")
    result = RunResult()
    try:
        report = verify_nonconvergence(MixtureEnv(env_class, weights, RAW), gamma, depth)
    except InconclusiveConfigurationError as exc:
        result.add_outcome("nonconvergence", INCONCLUSIVE, {"reason": str(exc)},
                           doc="report")
        return result
    result.documents["report"] = report.as_dict()
    result.outcomes.append(
        CERTIFIED_HOLDS if report.all_certified else CERTIFIED_FAILS)
    return result


#: each subcommand's runner and its default depth
RUNNERS = {
    "verify-hellinger-bounds": (run_verify_hellinger_bounds, 10),
    "markov-tail": (run_markov_tail, 10),
    "chain-lemma": (run_chain_lemma, 0),
    "quasimeasure": (run_quasimeasure, 8),
    "w-vs-d": (run_w_vs_d, 8),
    "deficiency": (run_deficiency, 16),
    "leftmost-alpha": (run_leftmost_alpha, 64),
    "e2i": (run_e2i, 6),
    "prop8": (run_prop8, 10),
    "counterexample": (run_counterexample, 24),
}
SUBCOMMANDS = tuple(RUNNERS)
#: the subcommands that read a run-level ``mode``; every other refuses one
MODE_READERS = ("deficiency", "leftmost-alpha")


def run_experiment(subcommand: str, spec: dict, depth: Optional[int],
                   precision_bits: int, seed: Optional[int],
                   workers: int = 1) -> RunResult:
    """Run one subcommand on a decoded spec.

    ``workers`` is accepted for compatibility with earlier callers and has
    no effect: every walk runs in the calling thread.
    """
    if subcommand not in RUNNERS:
        raise SpecError(f"unknown subcommand {subcommand!r}")
    if "mode" in spec and subcommand not in MODE_READERS:
        raise SpecError(f"$.mode: {subcommand} reads no run-level mode; only "
                        + " and ".join(MODE_READERS) + " do")
    runner, default_depth = RUNNERS[subcommand]
    if depth is None:
        depth = _int_field(spec, "depth", default_depth, least=0)
    elif depth < 0:
        raise SpecError(f"--depth: {depth} must be >= 0")
    return runner(spec, depth, precision_bits, seed)


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


def _precision_bits(flag: Optional[int]) -> int:
    """--precision, else $SEMILAB_PRECISION, else 128; at least 8 bits."""
    name = "precision"
    bits = flag
    if bits is None:
        name = f"${DEFAULT_PRECISION_ENV}"
        bits = _parse_int(os.environ.get(DEFAULT_PRECISION_ENV, "128"), name)
    if bits < 8:
        raise SpecError(f"{name} must be at least 8 bits")
    return bits


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        bits = _precision_bits(args.precision)
        spec = _decode_spec(args.spec)
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
    except (OSError, SemilabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
