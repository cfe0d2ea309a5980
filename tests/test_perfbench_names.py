"""The benchmark's span tracer wraps loopsoup functions by name; every
name it lists must exist, or only the traced benchmark run finds out."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("mod,attr,name", spans.FUNCTIONS)
def test_wrapped_function_resolves(mod, attr, name):
    assert callable(getattr(importlib.import_module(f"loopsoup.{mod}"), attr))


@pytest.mark.parametrize("mod,cls,meth,name", spans.METHODS)
def test_wrapped_method_resolves(mod, cls, meth, name):
    owner = getattr(importlib.import_module(f"loopsoup.{mod}"), cls)
    assert callable(owner.__dict__[meth])
