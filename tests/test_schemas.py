"""Every fixture, every artifact the CLI writes and every environment's
``spec()`` validate against the JSON schemas in ``schemas/``."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
referencing = pytest.importorskip("referencing")

from semilab.cli import SUBCOMMANDS, main

from conftest import FIXTURES
from test_walker import KINDS

SCHEMAS = Path(__file__).parent.parent / "schemas"
_REGISTRY = referencing.Registry().with_resources(
    (schema["$id"], referencing.Resource.from_contents(schema))
    for schema in (json.loads(p.read_text()) for p in SCHEMAS.glob("*.schema.json")))


def _validate(instance, schema_name):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.Draft202012Validator(schema, registry=_REGISTRY).validate(instance)


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_fixtures_match_the_experiment_schema(fixture):
    _validate(json.loads((FIXTURES / fixture).read_text()), "experiment.schema.json")


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_artifacts_match_their_schemas(fixture, subcommand, tmp_path, capsys):
    main([subcommand, "--spec", str(FIXTURES / fixture), "--depth", "5",
          "--seed", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    verdicts = tmp_path / "verdicts.json"
    if verdicts.exists():
        _validate(json.loads(verdicts.read_text()), "verdict.schema.json")
    manifest = tmp_path / "manifest.json"
    if manifest.exists():
        _validate(json.loads(manifest.read_text()), "manifest.schema.json")


@pytest.mark.parametrize("kind", KINDS)
def test_environment_specs_match_the_environment_schema(kind):
    _validate(KINDS[kind]().spec(), "environment.schema.json")
