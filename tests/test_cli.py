import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import semilab as sl
from semilab.cli import (
    EXIT_FAILS,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_NESTING,
    RunResult,
    main,
    parse_class,
    parse_env_spec,
    parse_environment,
    parse_rational,
    run_w_vs_d,
)
from semilab.errors import SpecError
from semilab.intervals import CERTIFIED_HOLDS, Verdict

from conftest import FIXTURES

F = Fraction


# ------------------------------------------------------------------- parsing

def test_rational_parsing():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational(5) == F(5)
    with pytest.raises(SpecError):
        parse_rational("0.75")
    with pytest.raises(SpecError):
        parse_rational("1/0")
    with pytest.raises(SpecError):
        parse_rational([1, 2])


def test_parse_basic_environment():
    env = parse_env_spec('{"kind":"bernoulli","p":"1/3"}')
    assert env.eval(sl.FiniteString.parse("1")) == F(1, 3)


def test_parse_rejects_invalid_probability():
    with pytest.raises(SpecError):
        parse_env_spec('{"kind":"bernoulli","p":"4/3"}')


def test_parse_rejects_unknown_kind():
    with pytest.raises(SpecError) as err:
        parse_environment({"kind": "mystery"}, "$.class[0]")
    assert "$.class[0]" in str(err.value)


def test_parse_class_applies_default_weights():
    env_class, weights = parse_env_spec(
        '[{"kind":"bernoulli","p":"1/2"},{"kind":"bernoulli","p":"1/4"}]')
    assert len(env_class) == 2
    assert weights.weight(1) == F(1, 2)
    assert weights.weight(2) == F(1, 256)


def test_parse_detects_declared_class_mismatch():
    spec = {"kind": "table", "depth": 1, "declared_class": "measure",
            "values": {"": "1", "0": "1/4", "1": "1/4"}}
    with pytest.raises(SpecError):
        parse_env_spec(spec)


def test_parse_detects_node_defects():
    spec = {"kind": "table", "depth": 1,
            "values": {"": "1/2", "0": "1/2", "1": "1/2"}}
    with pytest.raises(SpecError):
        parse_env_spec(spec)


@pytest.mark.parametrize("builder", [
    lambda: sl.BernoulliEnv(F(2, 5)),
    lambda: sl.CategoricalIIDEnv([F(1, 6), F(1, 3), F(1, 2)]),
    lambda: sl.MarkovEnv(1, {(): [F(1, 2), F(1, 2)],
                             (0,): [F(1, 3), F(2, 3)],
                             (1,): [F(3, 5), F(2, 5)]}),
    lambda: sl.DeterministicEnv([1, 0], [1]),
    lambda: sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2)),
    lambda: sl.DecayingEnv(3),
    lambda: sl.TableEnv(1, {(): F(1, 2), (0,): F(1, 4)}),
    lambda: sl.QuasimeasureEnv(sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2)), 6),
    lambda: sl.MixtureEnv(
        sl.EnvClass([sl.BernoulliEnv(F(1, 2)), sl.BernoulliEnv(F(1, 4))]),
        sl.default_weights(2), sl.RAW),
    lambda: sl.MixtureEnv(
        sl.EnvClass([sl.BernoulliEnv(F(1, 2)), sl.BernoulliEnv(F(1, 4))]),
        sl.default_weights(2), sl.MEASURES_ONLY, k=1),
    lambda: sl.MixtureEnv(
        sl.EnvClass([sl.BernoulliEnv(F(1, 2)),
                     sl.LeakyEnv(sl.BernoulliEnv(F(1, 2)), F(1, 2))]),
        sl.default_weights(2), sl.QUASI, quasi_depth_cap=3),
    lambda: sl.NuLimitEnv(sl.FiniteString.parse("0110"), horizon=4),
])
def test_environment_specs_round_trip(builder):
    env = builder()
    clone = parse_environment(env.spec())
    for n in range(4):
        for x, _ in sl.enumerate_support(sl.uniform_measure(env.alphabet), n):
            try:
                expected = env.eval(x)
            except sl.DepthExceededError:
                continue
            assert clone.eval(x) == expected


def test_limit_and_blend_specs_round_trip(canonical_mixture):
    from semilab.counterexample import NuLimitEnv, build_mprime
    nu = NuLimitEnv(sl.FiniteString.parse("0100"))
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    clone = parse_environment(cm.spec())
    for s in ("", "0", "01", "010", "11"):
        x = sl.FiniteString.parse(s)
        assert clone.eval(x) == cm.eval(x)


# --------------------------------------------------------------- subcommands

def run_cli(*args):
    return main(list(args))


def test_bound_chain_subcommand_exits_clean(capsys):
    code = run_cli("verify-hellinger-bounds",
                   "--spec", str(FIXTURES / "bern3_mix.json"), "--depth", "5")
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert {"part-i", "part-ii", "part-iii"} <= set(out)


def test_tail_subcommand_exits_clean(capsys):
    code = run_cli("markov-tail",
                   "--spec", str(FIXTURES / "bern3_mix.json"), "--depth", "5")
    assert code == EXIT_OK


def test_chain_subcommand_seeded_trials(capsys):
    code = run_cli("chain-lemma", "--spec", str(FIXTURES / "chain_trials.json"),
                   "--seed", "1")
    assert code == EXIT_OK


def test_chain_subcommand_forced_failure_exits_two(capsys):
    code = run_cli("chain-lemma", "--spec", str(FIXTURES / "chain_falsified.json"))
    assert code == EXIT_FAILS


def test_truncation_subcommand(capsys):
    code = run_cli("quasimeasure", "--spec", str(FIXTURES / "quasi_leaky.json"),
                   "--depth", "5")
    assert code == EXIT_OK


def test_posterior_comparison_subcommand_requires_seed(capsys):
    code = run_cli("w-vs-d", "--spec", str(FIXTURES / "quasi_leaky.json"),
                   "--depth", "5")
    assert code == EXIT_USAGE
    code = run_cli("w-vs-d", "--spec", str(FIXTURES / "quasi_leaky.json"),
                   "--depth", "5", "--seed", "7")
    assert code == EXIT_OK


def test_deficiency_subcommand(capsys):
    code = run_cli("deficiency", "--spec", str(FIXTURES / "bern3_mix.json"),
                   "--depth", "6", "--seed", "3")
    assert code == EXIT_OK


def test_envelope_subcommand(capsys):
    code = run_cli("leftmost-alpha",
                   "--spec", str(FIXTURES / "counterexample_canonical.json"),
                   "--depth", "16")
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["envelope"]["alpha"].startswith("0100")


def test_staged_functional_subcommand(capsys):
    code = run_cli("e2i", "--spec", str(FIXTURES / "e2i_indicator.json"),
                   "--seed", "11")
    assert code == EXIT_OK


def test_posterior_mixture_subcommand(capsys):
    code = run_cli("prop8", "--spec", str(FIXTURES / "bern3_default_weights.json"),
                   "--depth", "6")
    assert code == EXIT_OK


def test_nonconvergence_subcommand_golden_value(capsys):
    code = run_cli("counterexample",
                   "--spec", str(FIXTURES / "counterexample_canonical.json"),
                   "--depth", "16")
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["positions"][0]["mprime_posterior"] == "20/23"


def test_nonconvergence_subcommand_degenerate_class_exits_three(capsys):
    code = run_cli("counterexample",
                   "--spec", str(FIXTURES / "counterexample_poor.json"),
                   "--depth", "8")
    assert code == EXIT_INCONCLUSIVE


def test_invalid_spec_exits_one(capsys):
    code = run_cli("verify-hellinger-bounds",
                   "--spec", '{"class":[{"kind":"bernoulli","p":"4/3"}]}')
    assert code == EXIT_USAGE


def test_missing_file_exits_one(capsys):
    code = run_cli("deficiency", "--spec", "/nonexistent.json", "--seed", "1")
    assert code == EXIT_USAGE


def test_truncated_spec_file_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"class":\n')
    code = run_cli("prop8", "--spec", str(bad))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {bad}: Expecting value: line 2 column 1 (char 10)\n"


# ------------------------------------------------------------------- outputs

def test_output_directory_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("w-vs-d", "--spec", str(FIXTURES / "quasi_leaky.json"),
                   "--depth", "5", "--seed", "7", "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "w-vs-d"
    assert manifest["outcomes"]["certified-fails"] == 0
    assert (out / "verdicts.json").exists()
    assert (out / "w-vs-d.csv").exists()


def test_plotdata_format(tmp_path):
    out = tmp_path / "run"
    run_cli("w-vs-d", "--spec", str(FIXTURES / "quasi_leaky.json"),
            "--depth", "5", "--seed", "7", "--out", str(out),
            "--format", "plotdata")
    lines = (out / "w-vs-d.plotdata").read_text().strip().split("\n")
    assert len(lines) == 5
    t, lo, hi = lines[0].split()
    assert t == "1"


def test_reruns_are_byte_identical_across_workers(tmp_path):
    payloads = {}
    for w in ("1", "2", "8"):
        out = tmp_path / f"run{w}"
        run_cli("verify-hellinger-bounds",
                "--spec", str(FIXTURES / "bern3_mix.json"),
                "--depth", "5", "--workers", w, "--out", str(out))
        payloads[w] = (out / "verdicts.json").read_bytes()
    assert payloads["1"] == payloads["2"] == payloads["8"]


def test_precision_environment_variable(monkeypatch, capsys):
    monkeypatch.setenv("SEMILAB_PRECISION", "64")
    code = run_cli("verify-hellinger-bounds",
                   "--spec", str(FIXTURES / "bern3_mix.json"), "--depth", "3")
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["part-ii"]["precision"] == 64


def test_precision_flag_overrides_environment(monkeypatch, capsys):
    monkeypatch.setenv("SEMILAB_PRECISION", "64")
    code = run_cli("verify-hellinger-bounds",
                   "--spec", str(FIXTURES / "bern3_mix.json"),
                   "--depth", "3", "--precision", "160")
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["part-ii"]["precision"] == 160


# ----------------------------------------------------------- rejected inputs

def _assert_one_line_error(code, capsys):
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_defective_table_with_zero_mass_node_exits_one(capsys):
    spec = json.dumps({"class": [{"kind": "table", "depth": 2,
                                  "values": {"": "1", "1": "1", "00": "1/2"}}],
                       "weights": ["1/2"]})
    code = run_cli("leftmost-alpha", "--spec", spec, "--depth", "2")
    _assert_one_line_error(code, capsys)


DEEP_DEFECT = {"kind": "table", "depth": 6,
               "values": {"": "1", "0": "1/2", "00": "1/4", "000": "1/8",
                          "0000": "1/16", "00001": "1/2"}}


@pytest.mark.parametrize("subcommand, spec", [
    ("leftmost-alpha", {"class": [DEEP_DEFECT]}),
    ("leftmost-alpha", {"class": [{"kind": "leaky", "base": DEEP_DEFECT, "leak": "1/2"}]}),
    ("deficiency", {"class": [DEEP_DEFECT, {"kind": "bernoulli", "p": "1/2"}],
                    "mu_index": 2, "omega": "0000"}),
])
def test_table_defect_below_the_cross_check_depth_exits_one(subcommand, spec, capsys):
    # the node inequality fails at 0000, below the 4 levels every member is
    # walked to; the whole stored table is checked when it is parsed
    code = run_cli(subcommand, "--spec", json.dumps(spec), "--depth", "4")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith("node inequality fails at 0000"), err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "table", "depth": 2, "values": {"": "1", "0": "1/2", "00": "-1/4"}},
     "$.class[0].values[00]: -1/4 outside [0, 1]"),
    ({"kind": "table", "depth": 1, "values": {"": "1", "0": "3/2"}},
     "$.class[0].values[0]: 3/2 outside [0, 1]"),
    ({"kind": "derived", "derived": "mubar", "depth": 2, "stage": 2,
      "values": {"": "1", "1": "-1/2"}},
     "$.class[0].values[1]: -1/2 outside [0, 1]"),
    ({**DEEP_DEFECT, "kind": "derived", "derived": "mubar", "stage": 6},
     "$.class[0]: node inequality fails at 0000"),
    ({"kind": "derived", "derived": "mixture", "mode": "raw", "k": 1,
      "environments": [{"kind": "bernoulli", "p": "1/2"}], "weights": ["1"]},
     "$.class[0]: k is read only by measures-only modes, not 'raw'"),
    ({"kind": "derived", "derived": "nu-limit", "alpha_prefix": "0111", "tail_zero_from": -5},
     "$.class[0].tail_zero_from: -5 does not start an all-zero tail of alpha_prefix"),
    ({"kind": "derived", "derived": "nu-limit", "alpha_prefix": "0111", "tail_zero_from": 1},
     "$.class[0].tail_zero_from: 1 does not start an all-zero tail of alpha_prefix"),
], ids=["table-negative", "table-above-one", "mubar-negative", "mubar-deep-defect",
        "raw-mixture-k", "tail-zero-from-negative", "tail-zero-from-inside-ones"])
def test_member_spec_outside_its_domain_exits_one(spec, message, capsys):
    # every stored entry is checked: range first, then the node inequality
    code = run_cli("leftmost-alpha", "--spec", json.dumps({"class": [spec]}),
                   "--depth", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("environments, message", [
    ([{"kind": "uniform"}, {"kind": "bernoulli", "p": "3/2"}],
     "$.class[0].environments[1]: probabilities must be in [0,1] and sum to 1"),
    ([], "$.class[0].environments: must be a nonempty array"),
    ([{"kind": "uniform"}, {"kind": "table", "depth": 1, "values": {"": "1/2", "0": "1/2",
                                                                    "1": "1/2"}}],
     "$.class[0].environments[1]: node inequality fails at <empty>"),
], ids=["bad-member", "empty", "table-defect"])
def test_mixture_members_are_named_by_their_json_path(environments, message, capsys):
    spec = {"class": [{"kind": "derived", "derived": "mixture", "environments": environments}]}
    code = run_cli("quasimeasure", "--spec", json.dumps(spec), "--depth", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ({"class": [{"kind": "uniform"}], "weights": None},
     "$.weights: expected an array, got None"),
    ({"class": [{"kind": "derived", "derived": "mixture", "environments": [{"kind": "uniform"}],
                 "weights": None}]},
     "$.class[0].weights: expected an array, got None"),
], ids=["class", "mixture"])
def test_null_weights_are_refused_as_the_schema_refuses_them(spec, message, capsys):
    # omitted weights take the default scheme; null is not an array of weights
    code = run_cli("verify-hellinger-bounds", "--spec", json.dumps(spec), "--depth", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key, message", [
    ("00", "$.class[0]: table key 00 is longer than the depth 1"),
    ("2", "$.class[0]: table key 2 holds a symbol outside alphabet of size 2"),
], ids=["one-deeper", "symbol-equal-to-size"])
def test_table_key_no_query_reaches_exits_one(key, message, capsys):
    # such an entry was dropped silently, and the run went on to exit 0
    table = {"kind": "table", "depth": 1, "values": {"": "1", "0": "1/2", "1": "1/2", key: "1"}}
    spec = {"class": [table], "mu_index": 1, "omega": "0"}
    code = run_cli("deficiency", "--spec", json.dumps(spec), "--depth", "1")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_omega_outside_the_alphabet_names_its_field(capsys):
    spec = {"class": [{"kind": "bernoulli", "p": "1/2"}], "mu_index": 1, "omega": "0120"}
    code = run_cli("deficiency", "--spec", json.dumps(spec), "--depth", "4")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: $.omega: symbol 2 outside alphabet of size 2\n"


def test_omega_shorter_than_the_depth_exits_one(capsys):
    # the trace ran over omega's 2 symbols and exited 0, where 8 were asked for
    spec = {"class": [{"kind": "bernoulli", "p": "1/2"}], "mu_index": 1, "omega": "01"}
    code = run_cli("deficiency", "--spec", json.dumps(spec), "--depth", "8")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: $.omega: 2 symbols, fewer than the depth 8\n"


_HALVES = {"": ["1/2", "1/2"], "0": ["1/2", "1/2"], "1": ["1/2", "1/2"]}


@pytest.mark.parametrize("ctx, message", [
    ("00", "$.class[0]: transition context 00 is longer than the order 1"),
    ("7", "$.class[0]: transition context 7 holds a symbol outside alphabet of size 2"),
], ids=["longer-than-order", "symbol-outside-alphabet"])
def test_markov_context_no_string_reaches_exits_one(ctx, message, capsys):
    # such a row was never read, and the run went on to exit 0
    member = {"kind": "markov", "order": 1, "transitions": {**_HALVES, ctx: ["1", "0"]}}
    spec = {"class": [member], "mu_index": 1}
    code = run_cli("verify-hellinger-bounds", "--spec", json.dumps(spec), "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("member, message", [
    ({"kind": "decaying", "beta": 2.9}, "$.class[0].beta: expected an integer, got 2.9"),
    ({"kind": "markov", "order": 1.5, "transitions": _HALVES},
     "$.class[0].order: expected an integer, got 1.5"),
    ({"kind": "uniform", "alphabet_size": True},
     "$.class[0].alphabet_size: expected an integer, got True"),
    ({"kind": "derived", "derived": "quasimeasure", "depth_cap": "x",
      "base": {"kind": "bernoulli", "p": "1/2"}},
     "$.class[0].depth_cap: expected an integer, got 'x'"),
], ids=["beta-float", "order-float", "alphabet-size-bool", "depth-cap-string"])
def test_non_integer_integer_field_exits_one(member, message, capsys):
    spec = {"class": [member, {"kind": "bernoulli", "p": "1/2"}], "mu_index": 2}
    code = run_cli("verify-hellinger-bounds", "--spec", json.dumps(spec), "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


_QUASI_BASE = {"kind": "leaky", "base": {"kind": "bernoulli", "p": "1/2"}, "leak": "1/2"}


@pytest.mark.parametrize("member, message", [
    ({"kind": "derived", "derived": "quasimeasure", "base": _QUASI_BASE, "depth_cap": -1},
     "$.class[1].depth_cap: -1 must be >= 2"),
    ({"kind": "derived", "derived": "quasimeasure", "base": _QUASI_BASE, "depth_cap": 1},
     "$.class[1].depth_cap: 1 must be >= 2"),
    ({"kind": "derived", "derived": "mixture", "mode": "quasi", "quasi_depth_cap": 1,
      "environments": [_QUASI_BASE], "weights": ["1/2"]},
     "$.class[1].quasi_depth_cap: 1 must be >= 2"),
    ({"kind": "table", "depth": -1, "values": {"": "1/2"}},
     "$.class[1].depth: -1 must be >= 0"),
    ({"kind": "derived", "derived": "mubar", "depth": -1, "stage": 1, "values": {"": "1/2"}},
     "$.class[1].depth: -1 must be >= 0"),
], ids=["depth-cap-negative", "depth-cap-one", "quasi-depth-cap-one", "table-depth-negative",
        "mubar-depth-negative"])
def test_member_field_below_its_schema_minimum_exits_one(member, message, capsys):
    # refused where it is parsed, not when a run first reaches the depth
    spec = {"class": [{"kind": "bernoulli", "p": "1/2"}, member], "mu_index": 1}
    code = run_cli("verify-hellinger-bounds", "--spec", json.dumps(spec), "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_w_vs_d_stable_from_below_one_exits_one(capsys):
    spec = json.loads((FIXTURES / "quasi_leaky.json").read_text())
    spec["stable_from"] = 0
    code = run_cli("w-vs-d", "--spec", json.dumps(spec), "--seed", "1", "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: $.stable_from: 0 must be >= 1\n"


def test_integer_fields_accept_ints_and_decimal_strings():
    assert parse_environment({"kind": "decaying", "beta": "3"}).beta == 3
    assert parse_environment({"kind": "uniform", "alphabet_size": 3}).alphabet.size == 3
    with pytest.raises(ValueError, match="integer"):
        sl.DecayingEnv(2.9)


def test_mixture_member_with_malformed_k_exits_one(capsys):
    spec = {"kind": "derived", "derived": "mixture", "mode": "measures-only",
            "k": "one", "environments": [{"kind": "bernoulli", "p": "1/2"}],
            "weights": ["1"]}
    code = run_cli("leftmost-alpha", "--spec", json.dumps({"class": [spec]}),
                   "--depth", "2")
    _assert_one_line_error(code, capsys)


@pytest.mark.parametrize("stage, args", [
    ({"stage": 0}, ("--depth", "3")),
    ({"stage": -1}, ("--depth", "3")),
    ({}, ("--depth", "0")),
], ids=["stage-0", "stage-negative", "depth-0"])
def test_e2i_stage_below_one_exits_one(stage, args, capsys):
    spec = json.dumps({"class": [{"kind": "bernoulli", "p": "1/2"}],
                       "mu_index": 1, **stage})
    code = run_cli("e2i", "--spec", spec, "--seed", "1", *args)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: $.stage: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("functional", [
    {"kind": "indicator", "eps": "0"},
    {"kind": "constant", "eps": "-1/4"},
], ids=["indicator-zero", "constant-negative"])
def test_e2i_functional_eps_not_positive_names_its_field(functional, capsys):
    spec = {"class": [{"kind": "bernoulli", "p": "1/2"}], "mu_index": 1,
            "functional": functional}
    code = run_cli("e2i", "--spec", json.dumps(spec), "--seed", "1", "--depth", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: $.functional.eps: {functional['eps']} must be > 0\n"


_HALF = {"kind": "bernoulli", "p": "1/2"}
#: declared a measure; its node sums hold to depth 4 and fall short at
#: level 5, within the depth to which the parser walks a declared measure
_SHORT_AT_5 = {"kind": "table", "depth": 6, "declared_class": "measure",
               "values": {"": "1", "0": "1", "00": "1", "000": "1", "0000": "1",
                          "00000": "1/2", "000000": "1/2"}}
#: order 1, with no row for the context (1,), which the string 1 reaches
_NO_ROW_AT_1 = {"kind": "markov", "order": 1,
                "transitions": {"": ["1/2", "1/2"], "0": ["1/2", "1/2"]}}
#: order 4, with a row for every context but 1111, which the string 11111
#: needs: the constructor's search finds it without a walk
_NO_ROW_AT_1111 = {"kind": "markov", "order": 4, "transitions": {
    "".join(map(str, ctx)): ["1/2", "1/2"]
    for n in range(5) for ctx in product((0, 1), repeat=n) if ctx != (1, 1, 1, 1)}}


@pytest.mark.parametrize("subcommand, spec, args, message", [
    ("verify-hellinger-bounds", {"class": [_HALF, _HALF], "weights": ["1/2"]}, (),
     "$.weights: expected 2 entries"),
    ("leftmost-alpha", {"class": [_HALF, {"kind": "derived", "derived": "contaminated",
                                          "nu": _HALF, "m": _HALF, "gamma": "1/9"}]}, (),
     "$.class[1].m: contaminated mixtures require a mixture base"),
    ("leftmost-alpha", {"class": [_HALF, {"kind": "table", "depth": 1, "declared_class":
                                          "measure", "values": {"": "1", "0": "1/2"}}]}, (),
     "$.class[1]: declared a measure but node sums fall short"),
    ("chain-lemma", {}, (), "seeded trials require --seed"),
    ("deficiency", {"class": [_HALF], "mu_index": 1}, (), "sampling omega requires --seed"),
    ("e2i", {"class": [_HALF], "mu_index": 1}, (), "e2i samples omega and requires --seed"),
    ("counterexample", {"class": [{"kind": "uniform", "alphabet_size": 3}]}, (),
     "construction requires binary alphabet"),
    ("prop8", {"class": [{"kind": "leaky", "base": _HALF, "leak": "1/2"}, _HALF], "k0": [2],
               "ratio_k": [2]}, (), "J_{k-1} is empty"),
    ("leftmost-alpha", {"class": [_HALF, {"kind": "categorical", "probs": ["1"]}]}, (),
     "$.class[1]: need at least two symbols"),
    ("leftmost-alpha", {"class": [_HALF, {"kind": "markov", "order": 1, "transitions":
                                          {**_HALVES, "": ["1/2", "1/3"]}}]}, (),
     "$.class[1]: invalid transition row at context ()"),
    ("leftmost-alpha", {"class": [_HALF, {"kind": "deterministic", "prefix": "0",
                                          "period": ""}]}, (),
     "$.class[1]: period must be nonempty"),
    ("leftmost-alpha", {"class": [_HALF, {"kind": "deterministic", "prefix": "2",
                                          "period": "0"}]}, (),
     "$.class[1]: target symbol outside alphabet"),
    ("leftmost-alpha", {"class": [_HALF, {"kind": "derived", "derived": "normalized", "base":
                                          {"kind": "table", "depth": 1, "values": {}}}]}, (),
     "$.class[1]: cannot normalize zero total mass"),
    ("deficiency", {"class": [_SHORT_AT_5], "mu_index": 1}, ("--depth", "6", "--seed", "1"),
     "$.class[0]: declared a measure but node sums fall short"),
    ("quasimeasure", {"class": [_HALF, _SHORT_AT_5]}, (),
     "$.class[1]: declared a measure but node sums fall short"),
    ("counterexample", {"class": [_HALF], "gamma": "1/5"}, (),
     "$.gamma: gamma must lie strictly in (0, 1/5)"),
    ("verify-hellinger-bounds", {"class": [_HALF], "mu_index": 1, "kappa": "3/4"}, (),
     "$.kappa: kappa must lie in (0, 1/2]"),
    ("chain-lemma", {"vectors": [["1/2", "1/2"]] * 3, "beta": "0"}, (),
     "$.beta: beta must be positive"),
    ("chain-lemma", {"betas": ["1", "-1/2"]}, ("--seed", "1"),
     "$.betas[1]: beta must be positive"),
    ("chain-lemma", {"vectors": [["1/2", "1/2"]] * 2, "beta": "1"}, (),
     "$.vectors: part (i) takes exactly three vectors p, r, q"),
    ("chain-lemma", {"vectors": []}, (), "$.vectors: part (ii) needs at least two vectors"),
    ("chain-lemma", {"vectors": [["1/2", "1/2"], ["1"]]}, (), "$.vectors: dimension mismatch"),
    ("chain-lemma", {"vectors": [["-1/2", "3/2"], ["1/2", "1/2"]]}, (),
     "$.vectors: entries must be nonnegative"),
    ("verify-hellinger-bounds", {"class": [_HALF, _NO_ROW_AT_1], "mu_index": 1}, (),
     "$.class[1]: reachable transition context 1 has no row"),
    ("verify-hellinger-bounds", {"class": [_HALF], "mu": _NO_ROW_AT_1, "w": "1/2"}, (),
     "$.mu: reachable transition context 1 has no row"),
    ("verify-hellinger-bounds", {"class": [_HALF, _NO_ROW_AT_1111], "mu_index": 1},
     ("--depth", "6"), "$.class[1]: reachable transition context 1111 has no row"),
    ("markov-tail", {"class": [_HALF, {"kind": "leaky", "base": _NO_ROW_AT_1111,
                                       "leak": "1/2"}], "mu_index": 1, "c": ["1"]},
     ("--depth", "6"), "$.class[1].base: reachable transition context 1111 has no row"),
], ids=["weights-count", "contaminated-base", "measure-falls-short", "chain-seed",
        "deficiency-seed", "e2i-seed", "ternary-counterexample", "empty-j", "one-symbol",
        "markov-row", "empty-period", "target-symbol", "normalize-zero", "sampled-row-short",
        "measure-short-at-5",
        "gamma-range", "kappa-range", "beta-range", "betas-range", "vectors-count",
        "vectors-empty", "vectors-lengths", "vectors-negative", "member-row-missing",
        "mu-row-missing", "member-deep-row-missing", "base-deep-row-missing"])
def test_refusal_exits_one_with_its_one_line(subcommand, spec, args, message, capsys):
    code = run_cli(subcommand, "--spec", json.dumps(spec), *(args or ("--depth", "2")))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


BERN3 =[{"kind": "bernoulli", "p": p} for p in ("1/4", "1/2", "3/4")]


@pytest.mark.parametrize("subcommand, extra, args", [
    ("deficiency", {"mu_index": 0}, ("--seed", "1")),
    ("deficiency", {"mu_index": -1}, ("--seed", "1")),
    ("deficiency", {"mu_index": 4}, ("--seed", "1")),
    ("verify-hellinger-bounds", {"mu_index": 0}, ()),
    ("markov-tail", {"mu_index": 9}, ()),
    ("w-vs-d", {"mu_index": 0}, ("--seed", "1")),
    ("e2i", {"mu_index": 4}, ("--seed", "1")),
    ("prop8", {"k0": [0]}, ()),
    ("prop8", {"k0": [4]}, ()),
    ("prop8", {"ratio_k": [0]}, ()),
    ("prop8", {"ratio_k": [1]}, ()),
    ("prop8", {"ratio_k": [4]}, ()),
])
def test_class_index_out_of_range_exits_one(subcommand, extra, args, capsys):
    spec = json.dumps({"class": BERN3, **extra})
    code = run_cli(subcommand, "--spec", spec, "--depth", "3", *args)
    (field,) = extra
    assert _assert_one_line_error(code, capsys).startswith(f"error: $.{field}"), field


@pytest.mark.parametrize("subcommand, fixture, field, value, message", [
    ("verify-hellinger-bounds", "bern3_mix", "mu_index", 1.5, "$.mu_index"),
    ("prop8", "bern3_default_weights", "k0", [1, 1.5], "$.k0[1]"),
    ("prop8", "bern3_default_weights", "ratio_k", [2.5], "$.ratio_k[0]"),
    ("prop8", "bern3_default_weights", "ratio_depth", 3.5, "$.ratio_depth"),
    ("quasimeasure", "quasi_leaky", "equal_from", 2.5, "$.equal_from"),
    ("w-vs-d", "quasi_leaky", "stable_from", 2.7, "$.stable_from"),
    ("chain-lemma", "chain_trials", "trials", 2.5, "$.trials"),
    ("chain-lemma", "chain_trials", "dim", "3.0", "$.dim"),
    ("chain-lemma", "chain_trials", "m", True, "$.m"),
    ("e2i", "e2i_indicator", "stage", 2.5, "$.stage"),
    ("e2i", "e2i_indicator", "count", 1.5, "$.count"),
    ("leftmost-alpha", "counterexample_canonical", "depth", 5.7, "$.depth"),
])
def test_runner_integer_field_is_never_truncated(subcommand, fixture, field, value,
                                                 message, capsys):
    spec = json.loads((FIXTURES / f"{fixture}.json").read_text())
    spec[field] = value
    depth = () if field == "depth" else ("--depth", "3")
    code = run_cli(subcommand, "--spec", json.dumps(spec), "--seed", "1", *depth)
    assert code == EXIT_USAGE
    bad = value[-1] if isinstance(value, list) else value
    assert capsys.readouterr().err == f"error: {message}: expected an integer, got {bad!r}\n"


@pytest.mark.parametrize("spec, message", [
    ({"class": [{"kind": "deterministic", "period": 0}]},
     "$.class[0].period: expected a string of symbol digits, got 0"),
    ({"class": [{"kind": "markov", "order": 1, "transitions": []}]},
     "$.class[0].transitions: expected an object, got []"),
    ({"class": [{"kind": "table", "depth": 1, "values": []}]},
     "$.class[0].values: expected an object, got []"),
    ({"class": [{"kind": "bernoulli", "p": "1/2"}], "weights": "1"},
     "$.weights: expected an array, got '1'"),
], ids=["period-int", "transitions-array", "values-array", "weights-string"])
def test_wrong_typed_container_field_exits_one(spec, message, capsys):
    code = run_cli("leftmost-alpha", "--spec", json.dumps(spec), "--depth", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("gamma", ["2", "1", "0", "-1/2"])
def test_contamination_weight_outside_the_unit_interval_exits_one(gamma, capsys):
    member = {"kind": "derived", "derived": "contaminated", "gamma": gamma,
              "nu": {"kind": "derived", "derived": "nu-limit", "alpha_prefix": "01",
                     "tail_zero_from": 2},
              "m": {"kind": "derived", "derived": "mixture",
                    "environments": [{"kind": "uniform"}], "weights": ["1"]}}
    code = run_cli("leftmost-alpha", "--spec", json.dumps({"class": [member]}),
                   "--depth", "4")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: $.class[0].gamma: {parse_rational(gamma)} outside (0, 1)\n"


def test_negative_depth_exits_one(capsys):
    code = run_cli("verify-hellinger-bounds",
                   "--spec", str(FIXTURES / "bern3_mix.json"), "--depth", "-1")
    _assert_one_line_error(code, capsys)


def test_decaying_mu_bound_chain_exits_clean(capsys):
    spec = json.dumps({"class": [{"kind": "bernoulli", "p": "3/8"},
                                 {"kind": "decaying", "beta": 2}],
                       "weights": ["1/2", "1/2"], "mu_index": 2})
    code = run_cli("verify-hellinger-bounds", "--spec", spec, "--depth", "4")
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert {"part-i", "part-ii", "part-iii"} <= set(out)


@pytest.mark.parametrize("subcommand", ["verify-hellinger-bounds", "markov-tail"])
@pytest.mark.parametrize("w", ["0", "-1/3", "4/3"])
def test_dominance_constant_outside_unit_interval_exits_one(subcommand, w, capsys):
    # rejected as a spec error before the dominance and expectation walks
    spec = json.dumps({"class": BERN3, "mu_index": 2, "w": w})
    code = run_cli(subcommand, "--spec", spec, "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: $.w: {w} outside (0, 1]\n"


DOMINANCE_FAILS = "nu >= w*mu fails for w = 1 at the string '01'"


@pytest.mark.parametrize("subcommand, extra, message", [
    ("verify-hellinger-bounds", {}, DOMINANCE_FAILS),
    ("verify-hellinger-bounds", {"kappa": "1/4"}, DOMINANCE_FAILS),
    ("markov-tail", {}, DOMINANCE_FAILS),
])
def test_dominance_failure_exits_one_with_its_message(subcommand, extra, message, capsys):
    # the equal-weight mixture gives 01 the mass 5/24 < 1 * mu(01) = 1/4,
    # the first string of mu's support that fails; both subcommands say so
    spec = json.dumps({"class": BERN3, "weights": ["1/3"] * 3, "mu_index": 2, "w": "1",
                       **extra})
    code = run_cli(subcommand, "--spec", spec, "--depth", "4")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("subcommand", ["markov-tail", "verify-hellinger-bounds", "w-vs-d"])
def test_inline_mu_over_another_alphabet_exits_one(subcommand, capsys):
    spec = json.dumps({"class": BERN3[:2], "w": "1/1000",
                       "mu": {"kind": "categorical", "probs": ["1/3"] * 3}})
    code = run_cli(subcommand, "--spec", spec, "--depth", "4", "--seed", "1")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: $.mu: alphabet size 3 differs from the class's 2\n"


def test_prop8_negative_ratio_depth_exits_one(capsys):
    spec = json.dumps({"class": BERN3[:2], "k0": [], "ratio_depth": -1})
    code = run_cli("prop8", "--spec", spec)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: $.ratio_depth: -1 must be >= 0\n"


def test_inline_mu_without_dominance_constant_exits_one(capsys):
    spec = json.dumps({"class": BERN3, "mu": BERN3[1]})
    code = run_cli("markov-tail", "--spec", spec, "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: $.w: ")


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_64_bits_exits_one(seed, capsys):
    code = run_cli("chain-lemma", "--spec", str(FIXTURES / "chain_trials.json"),
                   "--seed", seed)
    _assert_one_line_error(code, capsys)


def test_e2i_wraps_its_per_draw_seeds_at_two_to_the_64(capsys):
    # the j-th omega is drawn with seed (seed + j) mod 2^64, so the top seed
    # runs and its later draws are those of seeds 0, 1, ...
    spec = str(FIXTURES / "e2i_indicator.json")
    verdicts = []
    for seed in (2 ** 64 - 1, 0):
        assert run_cli("e2i", "--spec", spec, "--seed", str(seed)) == EXIT_OK
        verdicts.append(json.loads(capsys.readouterr().out))
    top, zero = verdicts
    for j in range(1, 5):
        assert top[f"individual-bound-{j}"] == zero[f"individual-bound-{j - 1}"]


POINT_MASS_MU = json.dumps({"class": [{"kind": "deterministic", "prefix": "", "period": "0"},
                                      {"kind": "decaying", "beta": 2}],
                            "weights": ["1/2", "1/4"], "mu_index": 1})


@pytest.mark.parametrize("depth", [6, 10, 14])
def test_point_mass_mu_certifies_part_ii_as_an_equality(depth, capsys):
    # one mu-path of mass 1: both sides of part-ii are one real, so their
    # enclosures overlap at every precision, and Jensen's gap is 0
    code = run_cli("verify-hellinger-bounds", "--spec", POINT_MASS_MU, "--depth", str(depth))
    assert code == EXIT_OK
    part_ii = json.loads(capsys.readouterr().out)["part-ii"]
    assert part_ii["outcome"] == "certified-holds"
    assert part_ii["lhs"] == part_ii["rhs"]


def test_w_vs_d_steps_cursors_along_omega(monkeypatch):
    spec = json.loads((FIXTURES / "quasi_leaky.json").read_text())
    calls = []
    _mass = sl.MixtureEnv._mass

    def recording_mass(env, symbols):
        calls.append(symbols)
        return _mass(env, symbols)

    monkeypatch.setattr(sl.MixtureEnv, "_mass", recording_mass)
    result = run_w_vs_d(spec, 12, 128, 1)
    assert calls == []
    monkeypatch.undo()
    # the rows the prefix-by-prefix posteriors give
    env_class, weights = parse_class(spec)
    w_mix = sl.MixtureEnv(env_class, weights, sl.QUASI, quasi_depth_cap=13)
    d_mix = sl.MixtureEnv(env_class, weights, sl.MEASURES_ONLY)
    omega = sl.FiniteString.parse(result.documents["verdicts"]["posterior-coincidence"]["omega"])
    expected = []
    for t in range(1, 13):
        w_row, d_row = (mix.posterior(omega.prefix(t - 1)) for mix in (w_mix, d_mix))
        diff = max(abs(a - b) for a, b in zip(w_row, d_row))
        expected.append((t, f"{diff.numerator}/{diff.denominator}"))
    assert [(t, lo) for t, lo, _ in result.traces["w-vs-d"].rows] == expected


@pytest.mark.parametrize("subcommand, fixture, field, value", [
    ("chain-lemma", "chain_trials", "trials", -3),
    ("chain-lemma", "chain_trials", "trials", 0),
    ("chain-lemma", "chain_trials", "dim", 1),
    ("chain-lemma", "chain_trials", "m", 1),
    ("e2i", "e2i_indicator", "count", 0),
])
def test_seeded_run_sizes_that_certify_nothing_exit_one(subcommand, fixture, field, value,
                                                        capsys):
    # the schema's minimums: zero trials or bounds would certify nothing
    least = 2 if field in ("dim", "m") else 1
    spec = json.loads((FIXTURES / f"{fixture}.json").read_text())
    spec[field] = value
    code = run_cli(subcommand, "--spec", json.dumps(spec), "--seed", "1", "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: $.{field}: {value} must be >= {least}\n"


@pytest.mark.parametrize("value", [True, False])
def test_rational_refuses_json_booleans(value, capsys):
    spec = json.dumps({"class": [{"kind": "bernoulli", "p": value}]})
    code = run_cli("leftmost-alpha", "--spec", spec, "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f'error: $.class[0].p: rational must be a "num/den" string, got {value!r}\n')


@pytest.mark.parametrize("entry", [
    {"kind": "table", "depth": 1, "values": {"": "1", "0": "1/2", "1": "1/2"}},
    {"kind": "derived", "derived": "normalized", "base": {"kind": "bernoulli", "p": "1/2"}},
], ids=["table", "normalized"])
@pytest.mark.parametrize("declared", [5, "probability", None])
def test_declared_class_outside_the_class_names_exits_one(entry, declared, capsys):
    spec = json.dumps({"class": [{**entry, "declared_class": declared}]})
    code = run_cli("leftmost-alpha", "--spec", spec, "--depth", "1")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: $.class[0].declared_class: expected 'measure' or 'strict-semimeasure', "
        f"got {declared!r}\n")


@pytest.mark.parametrize("declared", ["measure", "strict-semimeasure"])
def test_declared_class_names_are_accepted(declared):
    table = {"kind": "table", "depth": 1, "values": {"": "1", "0": "1/2", "1": "1/2"},
             "declared_class": declared}
    assert parse_environment(table).declared_class == declared


@pytest.mark.parametrize("value, error", [
    ("abc", "$SEMILAB_PRECISION: expected an integer, got 'abc'"),
    ("64.0", "$SEMILAB_PRECISION: expected an integer, got '64.0'"),
    ("4", "$SEMILAB_PRECISION must be at least 8 bits"),
    ("-128", "$SEMILAB_PRECISION must be at least 8 bits"),
], ids=["not-a-number", "a-float", "below-8", "negative"])
def test_bad_precision_environment_variable_exits_one(value, error, monkeypatch, capsys):
    monkeypatch.setenv("SEMILAB_PRECISION", value)
    code = run_cli("leftmost-alpha", "--spec", str(FIXTURES / "bern3_mix.json"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {error}\n"


def test_precision_flag_below_8_bits_exits_one(capsys):
    code = run_cli("leftmost-alpha", "--spec", str(FIXTURES / "bern3_mix.json"),
                   "--precision", "4")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: precision must be at least 8 bits\n"


@pytest.mark.parametrize("subcommand, spec, error", [
    ("markov-tail", {**json.loads((FIXTURES / "bern3_mix.json").read_text()), "c": []},
     "$.c: empty, so no tail check would run"),
    ("prop8", {**json.loads((FIXTURES / "bern3_default_weights.json").read_text()),
               "k0": [], "ratio_k": []},
     "$.k0, $.ratio_k: both empty, so no check would run"),
    ("prop8", {"class": [{"kind": "bernoulli", "p": "1/2"}], "k0": []},
     "$.k0, $.ratio_k: both empty, so no check would run"),
], ids=["markov-tail-no-c", "prop8-no-k0-no-ratio-k", "prop8-no-k0-one-member"])
def test_runs_that_select_no_check_exit_one(subcommand, spec, error, capsys):
    code = run_cli(subcommand, "--spec", json.dumps(spec), "--depth", "3")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {error}\n"


def test_leftmost_alpha_walks_the_mixture_along_alpha_once(monkeypatch, capsys):
    # the construction's own exact check is the envelope verdict: the run
    # steps the mixture no more than leftmost_random alone does
    from semilab.mixtures import _MixtureCursor
    from semilab.randomness import leftmost_random
    steps = []
    step = _MixtureCursor.step

    def counting_step(cursor, a):
        steps.append(a)
        step(cursor, a)

    monkeypatch.setattr(_MixtureCursor, "step", counting_step)
    spec_path = FIXTURES / "bern3_mix.json"
    alpha = leftmost_random(sl.MixtureEnv(*parse_class(json.loads(spec_path.read_text())),
                                          sl.RAW), 64)
    alone = len(steps)
    steps.clear()
    assert run_cli("leftmost-alpha", "--spec", str(spec_path), "--depth", "64") == EXIT_OK
    assert len(steps) == alone
    out = json.loads(capsys.readouterr().out)
    assert out["envelope"]["alpha"] == str(alpha)
    assert out["envelope"]["violations"] == []


_TWO_BERNOULLI = {"class": [{"kind": "bernoulli", "p": "1/4"}, {"kind": "bernoulli", "p": "1/2"}],
                  "mu_index": 2}


@pytest.mark.parametrize("subcommand, extra, error", [
    ("markov-tail", {"c": ["1", "2/2"]}, "$.c[1]: duplicates $.c[0] (both 1)"),
    ("markov-tail", {"c": ["1/2", "2", "2/4"]}, "$.c[2]: duplicates $.c[0] (both 1/2)"),
    ("prop8", {"k0": [1, 1]}, "$.k0[1]: duplicates $.k0[0] (both 1)"),
    ("prop8", {"k0": [2, "2"]}, "$.k0[1]: duplicates $.k0[0] (both 2)"),
    ("prop8", {"ratio_k": [2, 2]}, "$.ratio_k[1]: duplicates $.ratio_k[0] (both 2)"),
], ids=["tail-c", "tail-c-later", "prop8-k0", "prop8-k0-string", "prop8-ratio-k"])
def test_repeated_check_labels_exit_one(subcommand, extra, error, tmp_path, capsys):
    # each value names its own entry in verdicts.json; a repeat would
    # overwrite one while manifest.json counted both
    code = run_cli(subcommand, "--spec", json.dumps({**_TWO_BERNOULLI, **extra}),
                   "--depth", "4", "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "verdicts.json").exists()


def test_run_result_refuses_a_repeated_name():
    result = RunResult()
    result.add_outcome("check", CERTIFIED_HOLDS, {})
    for add in (lambda: result.add_outcome("check", CERTIFIED_HOLDS, {}),
                lambda: result.add_verdict("check", Verdict(CERTIFIED_HOLDS, "0", "0", "1", "1",
                                                            128))):
        with pytest.raises(ValueError, match="'check' recorded twice"):
            add()
    assert result.outcomes == [CERTIFIED_HOLDS]
    result.add_outcome("check", CERTIFIED_HOLDS, {}, doc="report")  # another document


@pytest.mark.parametrize("subcommand, fixture, mode", [
    ("verify-hellinger-bounds", "bern3_mix", "bogus"),
    ("markov-tail", "bern3_mix", "quasi"),
    ("chain-lemma", "chain_trials", "raw"),
    ("quasimeasure", "quasi_leaky", "raw"),
    ("w-vs-d", "quasi_leaky", "measures-only"),
    ("e2i", "e2i_indicator", "raw"),
    ("prop8", "bern3_default_weights", "raw"),
    ("counterexample", "counterexample_canonical", "raw"),
])
def test_run_level_mode_is_refused_where_it_is_not_read(subcommand, fixture, mode, capsys):
    spec = {**json.loads((FIXTURES / f"{fixture}.json").read_text()), "mode": mode}
    code = run_cli(subcommand, "--spec", json.dumps(spec), "--depth", "3", "--seed", "1")
    assert _assert_one_line_error(code, capsys) == (
        f"error: $.mode: {subcommand} reads no run-level mode; "
        "only deficiency and leftmost-alpha do\n")


def _nested_leaky(levels):
    spec = {"kind": "bernoulli", "p": "1/2"}
    for _ in range(levels - 1):
        spec = {"kind": "leaky", "base": spec, "leak": "1/2"}
    return spec


def _nested_mixture(levels):
    spec = {"kind": "bernoulli", "p": "1/2"}
    for _ in range(levels - 1):
        spec = {"kind": "derived", "derived": "mixture", "environments": [spec]}
    return spec


@pytest.mark.parametrize("nest", [_nested_leaky, _nested_mixture])
@pytest.mark.parametrize("subcommand", ["verify-hellinger-bounds", "quasimeasure",
                                        "deficiency"])
def test_nesting_up_to_the_limit_runs_and_beyond_it_exits_one(nest, subcommand, capsys):
    for levels, refused in ((MAX_NESTING, False), (MAX_NESTING + 1, True), (350, True)):
        spec = {"class": [{"kind": "bernoulli", "p": "1/2"}, nest(levels)],
                "mu_index": 1, "w": "1/4"}
        code = run_cli(subcommand, "--spec", json.dumps(spec), "--depth", "3", "--seed", "1")
        if refused:
            assert _assert_one_line_error(code, capsys) == (
                f"error: $.class[1]: environment specs nest deeper than {MAX_NESTING} "
                "levels\n")
        else:
            assert code != EXIT_USAGE, capsys.readouterr().err
            assert capsys.readouterr().err == ""


def test_spec_nested_past_the_json_decoder_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"class": [' + '{"kind": "leaky", "leak": "1/2", "base": ' * 5000
                    + '{"kind": "bernoulli", "p": "1/2"}' + "}" * 5000 + "]}")
    err = _assert_one_line_error(run_cli("deficiency", "--spec", str(path)), capsys)
    assert err.startswith(f"error: {path}: maximum recursion depth exceeded")
