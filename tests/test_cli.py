import json
from fractions import Fraction
from pathlib import Path

import pytest

import semilab as sl
from semilab.cli import (
    EXIT_FAILS,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_class,
    parse_env_spec,
    parse_environment,
    parse_rational,
    run_w_vs_d,
)
from semilab.errors import SpecError

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
    nu = NuLimitEnv(sl.FiniteString.parse("0100"), 4)
    cm = build_mprime(nu, canonical_mixture, F(1, 9))
    clone = parse_environment(cm.env.spec())
    for s in ("", "0", "01", "010", "11"):
        x = sl.FiniteString.parse(s)
        assert clone.eval(x) == cm.env.eval(x)


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
], ids=["table-negative", "table-above-one", "mubar-negative", "mubar-deep-defect",
        "raw-mixture-k"])
def test_member_spec_outside_its_domain_exits_one(spec, message, capsys):
    # every stored entry is checked: range first, then the node inequality
    code = run_cli("leftmost-alpha", "--spec", json.dumps({"class": [spec]}),
                   "--depth", "2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


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


BERN3 = [{"kind": "bernoulli", "p": p} for p in ("1/4", "1/2", "3/4")]


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
    _assert_one_line_error(code, capsys)


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


@pytest.mark.parametrize("subcommand, extra, message", [
    ("verify-hellinger-bounds", {}, "mixture does not dominate mu with the given constant"),
    ("verify-hellinger-bounds", {"kappa": "1/4"},
     "mixture does not dominate mu with the given constant"),
    ("markov-tail", {}, "nu >= w*mu fails on the enumerated support"),
])
def test_dominance_failure_exits_one_with_its_message(subcommand, extra, message, capsys):
    # the equal-weight mixture gives 01 the mass 5/24 < 1 * mu(01) = 1/4
    spec = json.dumps({"class": BERN3, "weights": ["1/3"] * 3, "mu_index": 2, "w": "1",
                       **extra})
    code = run_cli(subcommand, "--spec", spec, "--depth", "4")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


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
