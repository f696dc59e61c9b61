"""The benchmark's tracer names each function it wraps by (module, name);
a target that no longer resolves is silently dropped from the per-layer
metrics, so every one of them must resolve to a callable."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("layer, module, name, span", _targets())
def test_tracer_target_resolves(layer, module, name, span):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
