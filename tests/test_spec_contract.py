"""The schemas in ``schemas/`` are the spec contract: every integer field
with a schema ``minimum``, set one below it on a spec that reads it, and
every field with a schema ``enum``, set to a value outside it, exits 1 with
one line that names the field's JSON path.  The cases are keyed by the
schemas' own fields, so a minimum or an enum added to a schema without a
case here fails ``test_every_schema_minimum_has_a_case`` or
``test_every_schema_enum_has_a_case``."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from semilab.cli import EXIT_USAGE, main

SCHEMAS = Path(__file__).parent.parent / "schemas"


def _schema_minimums() -> dict:
    """{(owner, field): minimum} for every integer field with a minimum:
    owner is the environment kind whose rule holds the field, or
    "experiment"; an array field counts by its items."""
    found = {}
    env = json.loads((SCHEMAS / "environment.schema.json").read_text())
    for rule in env["allOf"]:
        kind = rule["if"]["properties"]["kind"]["const"]
        for field, sub in rule["then"].get("properties", {}).items():
            if sub.get("type") == "integer" and "minimum" in sub:
                found[kind, field] = sub["minimum"]
    experiment = json.loads((SCHEMAS / "experiment.schema.json").read_text())
    for field, sub in experiment["properties"].items():
        sub = sub.get("items", sub)
        if sub.get("type") == "integer" and "minimum" in sub:
            found["experiment", field] = sub["minimum"]
    return found


MINIMUMS = _schema_minimums()
BERN = {"kind": "bernoulli", "p": "1/2"}
BERN3 = [{"kind": "bernoulli", "p": p} for p in ("1/4", "1/2", "3/4")]
LEAKY = {"kind": "leaky", "base": BERN, "leak": "1/2"}


def _member(entry):
    """A run whose class holds ``entry`` second, behind a Bernoulli mu."""
    return ("verify-hellinger-bounds", {"class": [BERN, entry], "mu_index": 1},
            ("--depth", "3"), "$.class[1]")


def _run(subcommand, path, args=("--depth", "3"), **fields):
    return lambda field, v: (subcommand, {"class": BERN3, field: v, **fields}, args, path)


# (owner, field) -> f(field, value): (subcommand, spec, CLI arguments, the
# JSON path of the entry that holds the field)
CASES = {
    ("uniform", "alphabet_size"): lambda f, v: _member({"kind": "uniform", f: v}),
    ("markov", "order"): lambda f, v: _member(
        {"kind": "markov", f: v, "transitions": {"": ["1/2", "1/2"]}}),
    ("markov", "alphabet_size"): lambda f, v: _member(
        {"kind": "markov", "order": 1, f: v, "transitions": {"": ["1"]}}),
    ("deterministic", "alphabet_size"): lambda f, v: _member(
        {"kind": "deterministic", "period": "0", f: v}),
    ("decaying", "beta"): lambda f, v: _member({"kind": "decaying", f: v}),
    ("table", "depth"): lambda f, v: _member({"kind": "table", f: v, "values": {"": "1/2"}}),
    ("table", "alphabet_size"): lambda f, v: _member(
        {"kind": "table", "depth": 1, f: v, "values": {"": "1/2"}}),
    ("derived", "quasi_depth_cap"): lambda f, v: _member(
        {"kind": "derived", "derived": "mixture", "mode": "quasi", f: v,
         "environments": [LEAKY], "weights": ["1/2"]}),
    ("derived", "depth_cap"): lambda f, v: _member(
        {"kind": "derived", "derived": "quasimeasure", "base": LEAKY, f: v}),
    ("derived", "t"): lambda f, v: _member(
        {"kind": "derived", "derived": "nu-stage", "pivot": "", f: v}),
    ("derived", "tail_zero_from"): lambda f, v: _member(
        {"kind": "derived", "derived": "nu-limit", "alpha_prefix": "", f: v}),
    ("derived", "stage"): lambda f, v: _member(
        {"kind": "derived", "derived": "mubar", "depth": 1, f: v, "values": {"": "1/2"}}),
    ("derived", "depth"): lambda f, v: _member(
        {"kind": "derived", "derived": "mubar", f: v, "stage": 1, "values": {"": "1/2"}}),
    ("experiment", "mu_index"): _run("verify-hellinger-bounds", "$"),
    ("experiment", "depth"): _run("leftmost-alpha", "$", args=()),
    ("experiment", "trials"): _run("chain-lemma", "$", ("--seed", "1")),
    ("experiment", "dim"): _run("chain-lemma", "$", ("--seed", "1")),
    ("experiment", "m"): _run("chain-lemma", "$", ("--seed", "1")),
    ("experiment", "equal_from"): _run("quasimeasure", "$"),
    ("experiment", "stable_from"): _run("w-vs-d", "$", ("--depth", "3", "--seed", "1"),
                                        mu_index=1),
    ("experiment", "stage"): _run("e2i", "$", ("--depth", "3", "--seed", "1"), mu_index=1),
    ("experiment", "count"): _run("e2i", "$", ("--depth", "2", "--seed", "1"), mu_index=1),
    ("experiment", "k0"): _run("prop8", "$"),
    ("experiment", "ratio_k"): _run("prop8", "$"),
    ("experiment", "ratio_depth"): _run("prop8", "$"),
}
#: array fields, whose first item is set below the minimum
ARRAYS = {"k0", "ratio_k"}


def test_every_schema_minimum_has_a_case():
    assert set(MINIMUMS) == set(CASES)


@pytest.mark.parametrize("owner, field", sorted(CASES), ids=lambda x: x)
def test_one_below_the_schema_minimum_exits_one_naming_the_field(owner, field, capsys):
    below = MINIMUMS[owner, field] - 1
    subcommand, spec, args, entry = CASES[owner, field](
        field, [below] if field in ARRAYS else below)
    code = main([subcommand, "--spec", json.dumps(spec), *args])
    err = capsys.readouterr().err
    path = f"{entry}.{field}" + ("[0]" if field in ARRAYS else "")
    assert code == EXIT_USAGE, err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


def _schema_enums() -> set:
    """(owner, field) for every field with an enum: owner is "environment"
    for the field every environment has, the kind whose rule holds the
    field, or "experiment"; a field of an object field is named by its
    dotted path."""
    found = set()
    env = json.loads((SCHEMAS / "environment.schema.json").read_text())
    found |= {("environment", f) for f, sub in env["properties"].items() if "enum" in sub}
    for rule in env["allOf"]:
        kind = rule["if"]["properties"]["kind"]["const"]
        found |= {(kind, f) for f, sub in rule["then"].get("properties", {}).items()
                  if "enum" in sub}
    experiment = json.loads((SCHEMAS / "experiment.schema.json").read_text())
    for field, sub in experiment["properties"].items():
        if "enum" in sub:
            found.add(("experiment", field))
        for inner, inner_sub in sub.get("properties", {}).items():
            if "enum" in inner_sub:
                found.add(("experiment", f"{field}.{inner}"))
    return found


MIXTURE = {"kind": "derived", "derived": "mixture", "environments": [BERN], "weights": ["1/2"]}

#: (owner, field) -> f(value): (subcommand, spec, CLI arguments, the JSON
#: path of the entry that holds the field)
ENUM_CASES = {
    ("environment", "kind"): lambda v: _member({"kind": v}),
    ("table", "declared_class"): lambda v: _member(
        {"kind": "table", "depth": 1, "values": {"": "1/2"}, "declared_class": v}),
    ("derived", "derived"): lambda v: _member({"kind": "derived", "derived": v}),
    ("derived", "mode"): lambda v: _member({**MIXTURE, "mode": v}),
    ("derived", "declared_class"): lambda v: _member(
        {"kind": "derived", "derived": "normalized", "base": BERN, "declared_class": v}),
    ("experiment", "mode"): lambda v: (
        "deficiency", {"class": BERN3, "mu_index": 1, "mode": v},
        ("--depth", "3", "--seed", "1"), "$"),
    ("experiment", "functional.kind"): lambda v: (
        "e2i", {"class": BERN3, "mu_index": 1, "functional": {"kind": v}},
        ("--depth", "2", "--seed", "1"), "$"),
}


def test_every_schema_enum_has_a_case():
    assert _schema_enums() == set(ENUM_CASES)


@pytest.mark.parametrize("owner, field", sorted(ENUM_CASES), ids=lambda x: x)
def test_a_value_outside_the_schema_enum_exits_one_naming_the_field(owner, field, capsys):
    subcommand, spec, args, entry = ENUM_CASES[owner, field]("bogus")
    code = main([subcommand, "--spec", json.dumps(spec), *args])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert err.startswith(f"error: {entry}.{field}: ") and err.count("\n") == 1, err
