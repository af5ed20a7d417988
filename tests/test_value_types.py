"""The value types built at every step: frozen dataclasses whose fields
live in ``__slots__`` and are stored through their slot descriptors."""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from graphvm.graphing import TRIVIAL, Edge, Graphing
from graphvm.machines import Action, MachineSpec
from graphvm.realizers import Microcosm, Realizer
from graphvm.space import MeasurableSet, RationalBox, interval

BOX = RationalBox(2, ((1, interval(0, "1/2")), (3, interval("1/4", 1))))
SET = MeasurableSet((BOX, RationalBox(3, ())))
REALIZER = Realizer.make(1, {1: 2, 2: 1}, {3: Fraction(-1, 4)})
MICROCOSM = Microcosm("mi", 3)
EDGE = Edge(Fraction(1), SET, REALIZER)
GRAPHING = Graphing(TRIVIAL, MICROCOSM, SET, (EDGE,))
ACTION = Action("advance", Fraction(1, 2), 2, "s")
SPEC = MachineSpec("m", ("0", "1"), 2, ("s",), "prob", True,
                   ((("s", "0"), (ACTION, Action("accept", Fraction(1, 2)))),))

# instance, field names in order, whether it keeps an instance dict for
# lazy attributes, and keyword forms of its constructor that must equal it
CASES = [
    (BOX, ("cell", "coords"), False,
     [RationalBox(cell=2, coords=BOX.coords)]),
    (SET, ("boxes",), True, [MeasurableSet(boxes=SET.boxes)]),
    (REALIZER, ("shift", "perm", "offsets"), True,
     [Realizer(1, perm=((1, 2), (2, 1)), offsets=((3, -1, 4),))]),
    (MICROCOSM, ("kind", "arity"), False, [Microcosm(kind="mi", arity=3)]),
    (EDGE, ("weight", "source", "realizer"), True,
     [Edge(weight=Fraction(1), source=SET, realizer=REALIZER)]),
    (GRAPHING, ("weights", "microcosm", "carrier", "edges"), True,
     [Graphing(weights=TRIVIAL, microcosm=MICROCOSM, carrier=SET,
               edges=(EDGE,))]),
    (ACTION, ("kind", "weight", "swap", "goto"), False,
     [Action(kind="advance", weight=Fraction(1, 2), swap=2, goto="s")]),
    (SPEC, ("name", "alphabet", "heads", "states", "mode", "two_way",
            "transitions"), True,
     [MachineSpec(name="m", alphabet=("0", "1"), heads=2, states=("s",),
                  mode="prob", two_way=True, transitions=SPEC.transitions)]),
]

# each constructor's signature, as its hand-written ``__init__`` spelled it
SIGNATURES = {
    RationalBox: lambda cell, coords: None,
    MeasurableSet: lambda boxes: None,
    Realizer: lambda shift, perm=(), offsets=(): None,
    Microcosm: lambda kind, arity=0: None,
    Edge: lambda weight, source, realizer: None,
    Graphing: lambda weights, microcosm, carrier, edges: None,
    Action: lambda kind, weight=Fraction(1), swap=None, goto=None: None,
    MachineSpec: lambda name, alphabet, heads, states, mode, two_way,
    transitions=(): None,
}

# the constructors' defaults, each call against the form that spells them out
DEFAULTS = [
    (Realizer(4), Realizer(4, (), ())),
    (Realizer(4, ((1, 2), (2, 1))), Realizer(4, ((1, 2), (2, 1)), ())),
    (Microcosm("m1"), Microcosm("m1", 0)),
    (Action("accept"), Action("accept", Fraction(1), None, None)),
    (Action("advance", goto="s"), Action("advance", Fraction(1), None, "s")),
    (MachineSpec("m", ("0",), 1, ("s",), "det", False),
     MachineSpec("m", ("0",), 1, ("s",), "det", False, ())),
]


def test_the_value_types_are_slotted_frozen_dataclasses():
    for x, names, has_dict, forms in CASES:
        cls = type(x)
        values = tuple(getattr(x, name) for name in names)
        assert tuple(f.name for f in dataclasses.fields(x)) == names, cls
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert dataclasses.replace(x) == x
        assert cls(*values) == x
        assert all(form == x for form in forms), cls
        # set and dict orders, and so the bytes, rest on these hashes
        assert hash(x) == hash(values[0] if cls is MeasurableSet else values)
        assert repr(x) == f"{cls.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values)) + ")"
        # every field is a slot, stored by the class's own __init__, never
        # through object.__setattr__ or the instance dict
        assert set(names) <= set(cls.__slots__), cls
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        assert not {"__setattr__", "__dict__"} & set(
            cls.__init__.__code__.co_names), cls
        assert ("__dict__" in cls.__slots__) == has_dict, cls
        assert hasattr(x, "__dict__") == has_dict, cls
        assert inspect.signature(cls) == inspect.signature(SIGNATURES[cls])
    for called, spelled in DEFAULTS:
        assert called == spelled


def test_copy_and_pickle_work_where_they_did():
    """``copy.copy``, ``deepcopy`` and ``pickle`` rebuild all eight types
    and intervals, and a graphing's weight monoid is the module constant
    it was, so the rebuilt graphing equals its original."""
    for x in [x for x, *_ in CASES] + [interval("1/4", 1)]:
        assert copy.copy(x) == x
        assert copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x
    for got in (copy.deepcopy(GRAPHING), pickle.loads(pickle.dumps(GRAPHING))):
        assert got.weights is TRIVIAL
    # a copy is rebuilt through __init__, so its lazy attributes are
    # computed afresh, not carried over
    REALIZER.invert()
    assert "_inverse" in vars(REALIZER)
    for got in (copy.copy(REALIZER), pickle.loads(pickle.dumps(REALIZER))):
        assert got == REALIZER and not vars(got)
        assert got.invert() == REALIZER.invert()
