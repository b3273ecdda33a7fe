"""Every package name the benchmark tracer wraps stays present.

perfbench/tracer.py wraps the names in its TARGETS list and reports a
missing one as absent, which changes the shape of the benchmark output.
This test reads that list without importing perfbench as a package and
without writing bytecode next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

from slspectra import propagator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_target_resolves_to_a_callable(tracer):
    missing = []
    for home, path, _, _ in tracer.TARGETS:
        obj = importlib.import_module(f"slspectra.{home}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{home}.{path}")
    assert missing == []


def test_trajectory_cache_counters():
    cache = propagator._cache
    assert type(cache.hits) is int and type(cache.misses) is int
