"""Every name the layer tracer in ``bench/tracing.py`` patches must resolve
on the package as it is: ``python3 bench/run.py --trace 1`` fails when one
is renamed or deleted, and no other test would notice."""

import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

import semilab as sl

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


@pytest.mark.parametrize("module, cls", tracing.CURSORS)
def test_traced_cursor_keeps_its_reduced_mass_where_the_tracer_reads_it(module, cls):
    # the tracer sizes ``envcore.fraction_bits_max`` from ``_mass``
    cls = getattr(_module(module), cls)
    envs = (sl.TableEnv(2, {(): F(1), (1,): F(1, 3)}), sl.BernoulliEnv(F(1, 3)),
            sl.DecayingEnv(2))
    env = next(env for env in envs if type(env.cursor()) is cls)
    cursor = env.cursor()
    cursor.step(1)
    mass = cursor.mass
    assert isinstance(mass, F) and mass == env._mass((1,)) != 1
    assert cursor.__dict__["_mass"] is mass


@pytest.mark.parametrize("name", ["mass_interval", "sample"])
def test_traced_counted_function_resolves(name):
    assert callable(getattr(_module("envcore"), name, None))
