"""What several test modules share, defined once: a call log for the tests
that pin fast paths; the shipped machines and the seeded specs of
``perfbench/machinegen.py``; the box, set and graphing builders; the
seeded corpora of graphings, plugs and machine runs; and the check that an
exported payload is in canonical form.  The eager plug reference is in
``eagerplug.py`` and the grid model in ``gridmodel.py``."""

import importlib.util
import json
import os
import random
import sys
from fractions import Fraction

from graphvm.encodings import encode_machine, run_word
from graphvm.execution import plug
from graphvm.graphing import Edge, Graphing, PROBABILITIES, TRIVIAL
from graphvm.machines import load_machine, words_up_to
from graphvm.realizers import Microcosm, Realizer
from graphvm.sampling import random_pair, random_triple
from graphvm.space import MeasurableSet, RationalBox, RationalInterval, interval

HERE = os.path.dirname(__file__)
MACHINES = os.path.join(HERE, "..", "machines")
MACHINEGEN = os.path.join(HERE, "..", "perfbench", "machinegen.py")
MODES = ("det", "nondet", "prob")


def log_calls(monkeypatch, *targets):
    """Wrap each ``(owner, name)`` pair and return one list that gets a
    ``(name, args)`` entry per call, in call order.  On a class the
    attribute is replaced, and a staticmethod stays one; a module function
    is rebound in every loaded ``graphvm`` module that holds it, so that
    ``from`` imports see the wrapper too."""
    log = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            log.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        if isinstance(owner, type):
            raw = vars(owner)[name]
            static = isinstance(raw, staticmethod)
            wrapped = wrap(name, raw.__func__ if static else raw)
            monkeypatch.setattr(owner, name,
                                staticmethod(wrapped) if static else wrapped)
            continue
        original = getattr(owner, name)
        wrapped = wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "graphvm":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapped)
    return log


# -- machines -----------------------------------------------------------------

def shipped(name):
    """A fresh parse of the file ``name`` in ``machines/``."""
    return load_machine(os.path.join(MACHINES, name))


def shipped_machines():
    """Fresh ``(file name, spec)`` pairs of the machines in ``machines/``,
    in name order."""
    return [(name, shipped(name)) for name in sorted(os.listdir(MACHINES))]


def load_machinegen():
    """``perfbench/machinegen.py``, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_machinegen",
                                                  MACHINEGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seeded_specs(seed, count, shapes):
    """``count`` specs of ``machinegen.random_spec`` from one generator
    seeded with ``seed``, spec ``i`` of the ``(mode, heads, states,
    two_way)`` shape ``shapes[i % len(shapes)]``."""
    gen = load_machinegen()
    rng = random.Random(seed)
    return [gen.random_spec(rng, i, *shapes[i % len(shapes)])
            for i in range(count)]


# -- builders -----------------------------------------------------------------

ms = MeasurableSet.of


def cellbox(cell, lo=None, hi=None):
    """Cell ``cell`` whole, or held on [lo, hi) of coordinate 1."""
    if lo is None:
        return RationalBox.make(cell)
    return RationalBox.make(cell, {1: interval(lo, hi)})


def whole(*cells):
    """The given cells, each whole, as ``MeasurableSet.of`` canonicalises
    them."""
    return ms(*(cellbox(c) for c in cells))


def graphing(edges, cells=(0, 1, 2), monoid=TRIVIAL):
    """A graphing of the macrocosm on the given cells, each whole."""
    return Graphing.make(monoid, Microcosm.macrocosm(), whole(*cells), edges)


# -- seeded corpora -----------------------------------------------------------

def _random_box(rng, cell):
    coords = {}
    for j in (1, 2, 3):
        if rng.randrange(2):
            d = rng.choice((2, 3, 4, 8))
            a = rng.randrange(d)
            coords[j] = RationalInterval.over(a, rng.randrange(a + 1, d + 1), d)
    return RationalBox.make(cell, coords)


def random_graphing(rng):
    """Cells held whole, cut into several boxes, or partly; sources of
    one to three boxes, often met with the carrier; realizers with
    permutations and offsets of both signs; weights and microcosms that
    may not admit them."""
    cells = rng.sample(range(5), rng.randrange(1, 5))
    pieces = []
    for c in cells:
        kind = rng.randrange(3)
        if kind == 0:
            pieces.append(ms(cellbox(c)))
        elif kind == 1:  # the cell less a box: several boxes, as an L
            pieces.append(ms(cellbox(c)).subtract(ms(_random_box(rng, c))))
        else:
            pieces.append(ms(*(_random_box(rng, c)
                               for _ in range(rng.randrange(1, 4)))))
    carrier = MeasurableSet.empty()
    for piece in pieces:
        carrier = carrier.union(piece)
    edges = []
    for _ in range(rng.randrange(6)):
        source = ms(*(_random_box(rng, rng.choice(cells + [5]))
                      for _ in range(rng.randrange(1, 4))))
        if rng.randrange(2):
            source = source.intersect(carrier)
        perm = rng.choice((None, None, {1: 2, 2: 1}, {1: 3, 3: 1},
                           {1: 2, 2: 3, 3: 1}))
        offsets = {j: Fraction(rng.randrange(-8, 9), rng.choice((4, 8)))
                   for j in rng.sample((1, 2, 3), rng.choice((0, 0, 1, 2)))}
        realizer = Realizer.make(rng.choice((0, 0, 1, -1, 2)), perm, offsets)
        weight = rng.choice((Fraction(1), Fraction(1), Fraction(1, 2),
                             Fraction(3, 2)))
        edges.append(Edge(weight, source, realizer))
    return Graphing.make(
        rng.choice((TRIVIAL, PROBABILITIES)),
        rng.choice((Microcosm.m1(), Microcosm.mi(2), Microcosm.m_infinity(),
                    Microcosm.macrocosm())), carrier, edges)


def with_a_corner_cut(g, rng):
    """``g`` over a carrier that loses a corner of one of its cells."""
    cell = rng.choice(sorted(g.carrier.cells()))
    a, b = rng.randrange(1, 8), rng.randrange(1, 8)
    corner = RationalBox.make(cell, {1: RationalInterval.over(a, 8, 8),
                                     2: RationalInterval.over(0, b, 8)})
    return Graphing.make(g.weights, g.microcosm,
                         g.carrier.subtract(ms(corner)), g.edges)


def sampled_graphings():
    """Seeded sampling pairs and triples in every mode, and the graphings
    their plugs produce."""
    for mode in MODES:
        for seed in range(8):
            f, g = random_pair(seed, mode)
            yield from (f, g, plug(f, g).graphing)
        for seed in range(3):
            f, g, h = random_triple(seed, mode)
            yield from (f, g, h, plug(f, g).graphing, plug(g, h).graphing)


def machine_run_results():
    """The plug result of every shipped machine on every word up to length
    4, one-way and two-way, at ``max_steps`` 10000 and 5, with the regions
    its tests need, as ``run_word`` gives them."""
    for _, spec in shipped_machines():
        machine = encode_machine(spec)
        for word in words_up_to(machine.spec.alphabet, 4):
            for one_way in (True, False):
                for max_steps in (10000, 5):
                    yield run_word(machine, word, one_way=one_way,
                                   max_steps=max_steps)


def sampled_plug_results():
    """The plug results of ``random_pair`` at seeds 0-5 in every mode and
    of both nestings of ``random_triple``, at budgets 10000 and 3."""
    for max_steps in (10000, 3):
        for mode in MODES:
            for seed in range(6):
                f, g = random_pair(seed, mode)
                yield plug(f, g, max_steps=max_steps)
                f, g, h = random_triple(seed, mode)
                fg = plug(f, g, max_steps=max_steps)
                gh = plug(g, h, max_steps=max_steps)
                yield from (fg, gh,
                            plug(fg.graphing, h, max_steps=max_steps),
                            plug(f, gh.graphing, max_steps=max_steps))


def canonical(text):
    """The data of a payload's text, which must be the compact
    sorted-key form ``json.dumps`` gives that data."""
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":"))
    return data
