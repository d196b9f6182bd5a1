"""Bounded fuzz of the CLI: every bad spec field ends in an exit code and at
most a one-line error, never in an escaped exception or a traceback.

Each example takes one fixture, replaces one of its fields (or sets one of
the fields the runners read) with a drawn JSON value, and runs one
subcommand in-process at depth <= 4.  Drawn integers and digit strings stay
small, so that a field read as a size (trials, stage, ratio_depth) cannot
make a run exponential.
"""

import contextlib
import functools
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab import MEASURE, cli, validate
from semilab.cli import SUBCOMMANDS, main, parse_env_spec
from semilab.errors import SemilabError

from conftest import FIXTURES

SPECS = {f.name: json.loads(f.read_text()) for f in sorted(FIXTURES.glob("*.json"))}

#: fields the runners read that not every fixture sets
RUNNER_FIELDS = ("depth", "mu_index", "mu", "w", "kappa", "c", "vectors", "beta",
                 "rhs_scale", "trials", "dim", "betas", "m", "equal_from",
                 "stable_from", "mode", "omega", "functional", "stage", "count",
                 "k0", "ratio_depth", "ratio_k", "gamma", "weights", "class")

SCALARS = (st.none() | st.booleans() | st.integers(-2, 4)
           | st.sampled_from([1.5, -0.5, 5.7, 0.0, 1e300])
           | st.sampled_from(["", "1", "2", "-1", "1/2", "3/2", "0/1", "1/0", "1.5", "x",
                              "01", "10", "raw", "quasi", "measures-only",
                              "normalized-measures-only", "constant", "bernoulli", "uniform",
                              "categorical", "markov", "deterministic", "leaky", "decaying",
                              "table", "derived", "mixture", "quasimeasure", "normalized",
                              "nu-stage", "nu-limit", "contaminated", "mubar"]))
KEYS = st.sampled_from(["kind", "derived", "p", "probs", "base", "leak", "period", "prefix",
                        "order", "transitions", "beta", "depth", "values", "environments",
                        "weights", "mode", "k", "nu", "m", "gamma", "eps", "", "0", "1"])
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6)


def _fields(node, path=()):
    """Every field of a decoded spec: object members and array items."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


@st.composite
def mutated_specs(draw):
    """A fixture with one field replaced: (the spec, the replaced field's path)."""
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = json.loads(json.dumps(SPECS[name]))
    path = draw(st.sampled_from(sorted(_fields(spec), key=repr)
                                + [(f,) for f in RUNNER_FIELDS]))
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(JSON_VALUES)
    return spec, path


@st.composite
def mutated_runs(draw):
    spec, path = draw(mutated_specs())
    args = [draw(st.sampled_from(SUBCOMMANDS)), "--spec", json.dumps(spec), "--seed", "1"]
    if path != ("depth",):  # else the spec's own depth is read
        args += ["--depth", str(draw(st.integers(0, 4)))]
    return args


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutated_runs())
def test_mutated_fixture_specs_exit_cleanly(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_specs())
def test_every_member_the_parser_accepts_is_a_semimeasure(mutated):
    # the parser walks only a declared measure: every other member must keep
    # the node inequality by its constructor, and no member may raise when
    # a walk reads it
    try:
        parsed = parse_env_spec(mutated[0])
    except (SemilabError, ValueError):
        return
    for member in parsed[0].envs if isinstance(parsed, tuple) else [parsed]:
        report = validate(member, 4)
        assert report.is_semimeasure
        assert report.is_measure_to_depth or member.declared_class != MEASURE


class _Recorded(dict):
    """A decoded JSON object that records the keys a run reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def items(self):
        self.read.update(dict.keys(self))
        return super().items()


def _read_part(node):
    """The fields of a recorded spec that the run read."""
    if isinstance(node, _Recorded):
        return {k: _read_part(v) for k, v in dict.items(node) if k in node.read}
    if isinstance(node, list):
        return [_read_part(v) for v in node]
    return node


@functools.cache
def _experiment_validator():
    """experiment.schema.json, with the environment and rational schemas as
    its registry."""
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    schemas = Path(__file__).parent.parent / "schemas"
    registry = referencing.Registry().with_resources(
        (schema["$id"], referencing.Resource.from_contents(schema))
        for schema in (json.loads((schemas / name).read_text())
                       for name in ("environment.schema.json", "rational.schema.json")))
    schema = json.loads((schemas / "experiment.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema, registry=registry)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutated_runs())
def test_every_field_a_run_reads_matches_the_experiment_schema(args):
    # a field no subcommand run reads is ignored, as the schema's own
    # description says, so the part of the spec the run read is validated
    validator = _experiment_validator()
    decoded = []

    def decode(source):
        decoded.append(json.loads(str(source), object_hook=_Recorded))
        return decoded[-1]

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_decode_spec", decode), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    if code in (0, 2, 3):
        validator.validate(_read_part(decoded[0]))
