"""The benchmark's tracer names each function it wraps by (module, name);
a target that no longer resolves is silently dropped from the per-layer
metrics, so every one of them must resolve to a callable.  The harness's
own tests also pin seams of paradim (one `dim_M_total` call for a `dim`
command, at least three `class_number` calls), so they are run here too."""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("layer, module, name, span", _targets())
def test_tracer_target_resolves(layer, module, name, span):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_harness_tests_pass():
    # in a fresh interpreter: with the caches that this session's tests
    # have warmed, a traced `dim --p 277` makes no class_number call
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
