"""The benchmark's traced pass wraps library functions by name; every name
it wraps must still resolve, or the per-layer spans silently disappear."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402


@pytest.mark.parametrize("module, dotted", [(m, d) for m, d, _, _ in layers.TARGETS])
def test_traced_target_resolves(module, dotted):
    obj = importlib.import_module(module)
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
