"""Every name the layer tracer in ``bench/tracing.py`` patches must resolve
on the package as it is: ``python3 bench/run.py --trace 1`` fails when one
is renamed or deleted, and no other test would notice."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("semilab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _module(name):
    return importlib.import_module(f"semilab.{name}")


@pytest.mark.parametrize("span, module, path", [t[:3] for t in tracing.TARGETS])
def test_traced_target_resolves(span, module, path):
    owner = _module(module)
    *cls, attr = path.split(".")
    if cls:
        # the tracer patches the class's own attribute, not an inherited one
        assert attr in vars(getattr(owner, cls[0])), f"{span}: {module}.{path}"
    else:
        assert callable(getattr(owner, attr, None)), f"{span}: {module}.{path}"


@pytest.mark.parametrize("module, cls", tracing.CURSORS)
def test_traced_cursor_class_resolves(module, cls):
    assert isinstance(getattr(_module(module), cls, None), type)


@pytest.mark.parametrize("name", ["mass_interval", "sample"])
def test_traced_counted_function_resolves(name):
    assert callable(getattr(_module("envcore"), name, None))
