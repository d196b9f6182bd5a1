"""Golden artifact gate: every fixture under every subcommand emits the same
bytes as when ``tests/golden/artifacts.json`` was written.

Each run is in-process (``run_experiment`` + ``emit_results`` + the
manifest) at depth 5, seed 2 and 128 bits.  The golden file holds the
SHA-256 of every emitted artifact, in both the csv and the json trace
formats, with ``elapsed_seconds`` removed from the manifest; a run that
raises is stored as its exception type and message.  A change that moves
one digit of one artifact fails here.

Regenerate only together with a CHANGES.md line that lists every changed
entry:

    PYTHONPATH=src python tests/test_artifact_identity.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from semilab import cli

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "artifacts.json"
DEPTH, SEED, BITS = 5, 2, 128


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def artifacts(fixture: str, subcommand: str) -> dict:
    """{artifact name: sha256}, or {"raises": [type, message]}."""
    spec = json.loads((FIXTURES / fixture).read_text())
    try:
        result = cli.run_experiment(subcommand, spec, DEPTH, BITS, SEED)
    except Exception as exc:  # noqa: BLE001 -- the exception is the artifact
        return {"raises": [type(exc).__name__, str(exc)]}
    payloads = {}
    for fmt in ("csv", "json"):
        payloads.update(cli.emit_results(result, None, fmt))
    with tempfile.TemporaryDirectory() as out:
        cli.write_manifest(Path(out), json.dumps(spec, sort_keys=True), subcommand,
                           result, 0.0)
        manifest = json.loads((Path(out) / "manifest.json").read_text())
    del manifest["elapsed_seconds"]
    payloads["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True)
    return {name: _sha(text) for name, text in sorted(payloads.items())}


def entries() -> list[str]:
    return [f"{fixture.name}/{sub}"
            for fixture in sorted(FIXTURES.glob("*.json")) for sub in cli.SUBCOMMANDS]


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_fixture_and_subcommand():
    assert sorted(GOLDEN_ENTRIES) == sorted(entries())


@pytest.mark.parametrize("entry", sorted(GOLDEN_ENTRIES))
def test_artifacts_match_golden(entry):
    fixture, subcommand = entry.split("/")
    assert artifacts(fixture, subcommand) == GOLDEN_ENTRIES[entry]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_artifact_identity.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {entry: artifacts(*entry.split("/")) for entry in entries()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
