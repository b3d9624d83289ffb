"""The benchmark tracer wraps neartree functions by name; a renamed or deleted
one would only break a traced benchmark run, so check every name here."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_exist():
    tracer = _tracer()
    assert tracer.SPANNED
    for layer, name in tracer.SPANNED:
        module = importlib.import_module(f"neartree.{layer}")
        assert callable(getattr(module, name, None)), f"neartree.{layer}.{name}"


def test_counted_methods_exist():
    tracer = _tracer()
    for layer, cls_name, name in tracer.COUNTED_METHODS:
        cls = getattr(importlib.import_module(f"neartree.{layer}"), cls_name)
        assert callable(cls.__dict__.get(name)), f"neartree.{layer}.{cls_name}.{name}"
