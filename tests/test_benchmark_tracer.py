"""The benchmark tracer wraps graphvm names with no fallback.

``perfbench/tracer.py`` looks each name of its ``WRAPPED`` table up as a
module attribute (``getattr``) or as an entry of a class ``__dict__``,
so deleting or moving one of those names breaks
``perfbench/run.py --trace 1``.  This test fails first.  The tracer is
loaded from its file and only read.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = [(layer, name) for layer, names in _load_tracer().WRAPPED.items()
           for name in names]


@pytest.mark.parametrize("layer, name", WRAPPED,
                         ids=[f"{layer}.{name}" for layer, name in WRAPPED])
def test_wrapped_name_resolves(layer, name):
    module = importlib.import_module(f"graphvm.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, name))
