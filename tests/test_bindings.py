"""The benchmark's tracer binds kdlab's public functions by name; a function
deleted, renamed or moved would read as a missing binding in a traced
benchmark run. This keeps that in Tier-1."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.check_bindings(tracer.discover()) == []
