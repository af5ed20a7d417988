"""The benchmark tracer wraps graphvm names with no fallback.

``perfbench/tracer.py`` looks each name of its ``WRAPPED`` table up as a
module attribute (``getattr``) or as an entry of a class ``__dict__``,
so deleting or moving one of those names breaks
``perfbench/run.py --trace 1``.  This test fails first.  The tracer is
loaded from its file and only read.  With it installed, ``language``
must give each word its own ``run_word`` span, so that the per-word
glue is not counted as ``language``'s own time.
"""

import importlib
import importlib.util
import os

import pytest

from harness import shipped

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


def test_language_traces_one_run_word_and_one_plug_per_word():
    from graphvm.encodings import encode_machine
    from graphvm.execution import T_DET, language
    tracer = _load_tracer()
    for layer in tracer.WRAPPED:
        importlib.import_module(f"graphvm.{layer}")
    machine = encode_machine(shipped("ones.mach"))
    with tracer.Tracer() as traced:
        result = language(machine, T_DET, 3)
    calls = {name: row["calls"] for name, row in traced.summary().items()}
    assert len(result.verdicts) == 15         # 1 + 2 + 4 + 8 words
    assert calls.get("encodings.run_word") == 15
    assert calls.get("execution.plug") == 15
