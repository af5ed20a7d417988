"""The benchmark tracer wraps graphvm names with no fallback.

``perfbench/tracer.py`` looks each name of its ``WRAPPED`` table up as a
module attribute (``getattr``) or as an entry of a class ``__dict__``,
so deleting or moving one of those names breaks
``perfbench/run.py --trace 1``.  This test fails first.  The tracer is
loaded from its file and only read.  With it installed, ``language``
must give the verdicts it gives untraced, with no ``run_word``,
``encode_word``, ``plug`` or ``evaluate_test`` span, also when the
budget runs out.
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


def test_language_traces_run_word_and_plug_only_for_budget_outs():
    """``language`` is one search: it makes no ``run_word``,
    ``encode_word``, ``plug`` or ``evaluate_test`` span, at a budget that
    settles every word or at one that settles none."""
    from graphvm.encodings import encode_machine
    from graphvm.execution import T_DET, language
    tracer = _load_tracer()
    for layer in tracer.WRAPPED:
        importlib.import_module(f"graphvm.{layer}")
    machine = encode_machine(shipped("ones.mach"))
    for max_steps in (10000, 0):
        untraced = language(machine, T_DET, 3, max_steps=max_steps)
        with tracer.Tracer() as traced:
            result = language(machine, T_DET, 3, max_steps=max_steps)
        calls = {name: row["calls"] for name, row in traced.summary().items()}
        assert result.verdicts == untraced.verdicts
        assert len(result.verdicts) == 15         # 1 + 2 + 4 + 8 words
        # a word the budget sends back drains a fork of its length's
        # root: no word is encoded or plugged on its own
        for name in ("encodings.run_word", "encodings.encode_word",
                     "execution.plug"):
            assert calls.get(name, 0) == 0, (max_steps, name)
        # the tracer is on: every word's verdict, settled or sent back by
        # the budget, is folded off its own search with no result and no
        # evaluate_test span
        assert calls.get("execution.evaluate_test", 0) == 0, max_steps
