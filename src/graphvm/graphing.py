"""Weighted graphings: carrier, weighted realized edges, classification, cost.

A graphing is a finite family of edges over a carrier set, each edge a
weight, a source set and a realizer; the target is always derived as
the image of the source.  Graphings are classified as deterministic
(unit weights, disjoint sources), non-deterministic (unit weights),
probabilistic (weights in [0,1] summing to at most 1 wherever sources
overlap) or general.  Null-measure conditions are checked as exact
emptiness, which the half-open box representation makes equivalent.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from numbers import Rational

from .space import MeasurableSet, _ratio_sum, lazy, value_type
from .realizers import Microcosm, Realizer

UNIT = Fraction(1)


class WeightMonoid:
    """Weights an edge may carry, with their product.  Every monoid here
    has the unit ``UNIT``."""

    name = "generic"

    def product(self, a, b):
        raise NotImplementedError

    def admits(self, w) -> bool:
        raise NotImplementedError

    def is_unit(self, w) -> bool:
        """An admitted weight equal to one: a float 1.0 is no unit."""
        return w == UNIT and self.admits(w)

    def __repr__(self):
        return f"<{self.name} weights>"

    def __reduce__(self):
        """The name of the module constant this monoid is, which copy and
        pickle give back itself: monoids compare by identity."""
        return self.constant


class TrivialWeights(WeightMonoid):
    """The one-element monoid: every edge weighs 1."""

    name = "trivial"
    constant = "TRIVIAL"

    def product(self, a, b):
        return UNIT

    def admits(self, w):
        # in integers, so a float 1.0 is refused: in lowest terms 1 is 1/1;
        # a Fraction is let through before the dearer ABC check
        return ((type(w) is Fraction or isinstance(w, Rational))
                and w.numerator == w.denominator)


class ProbabilityWeights(WeightMonoid):
    """Rationals in [0,1] under multiplication."""

    name = "probabilities"
    constant = "PROBABILITIES"

    def product(self, a, b):
        return a * b

    def admits(self, w):
        # in integers, as the trivial monoid's: a denominator is positive
        return ((type(w) is Fraction or isinstance(w, Rational))
                and 0 <= w.numerator <= w.denominator)


TRIVIAL = TrivialWeights()
PROBABILITIES = ProbabilityWeights()


def join_monoids(a: WeightMonoid, b: WeightMonoid) -> WeightMonoid:
    """Common monoid: the trivial one embeds in probabilities."""
    return b if isinstance(a, TrivialWeights) else a


@value_type
class Edge:
    """A weighted edge: ``realizer`` maps ``source`` onto the derived
    ``target``."""

    weight: Fraction
    source: MeasurableSet
    realizer: Realizer

    @lazy
    def target(self) -> MeasurableSet:
        return self.realizer.apply(self.source)

    def key(self):
        # the boxes' own sort keys, read off their fields
        return (tuple([(b.cell, b.coords) for b in self.source.boxes]),
                self.realizer.key(), self.weight)


class GraphingClass(enum.Enum):
    DETERMINISTIC = "deterministic"
    NONDETERMINISTIC = "nondeterministic"
    PROBABILISTIC = "probabilistic"
    GENERAL = "general"


@value_type
class Graphing:
    """Weighted edges over a carrier, with weights from ``weights`` and
    realizers from ``microcosm``.  ``make`` sorts the edges by
    ``Edge.key``; the constructor keeps them as given."""

    weights: WeightMonoid
    microcosm: Microcosm
    carrier: MeasurableSet
    edges: tuple[Edge, ...]

    @staticmethod
    def make(weights, microcosm, carrier, edges) -> "Graphing":
        return Graphing(weights, microcosm, carrier,
                        tuple(sorted(edges, key=Edge.key)))

    @lazy
    def edges_by_cell(self) -> dict[int, list[int]]:
        """Per cell, the ascending indices of the edges whose source meets it."""
        by_cell: dict[int, list[int]] = {}
        for idx, e in enumerate(self.edges):
            for cell in e.source.cells():
                by_cell.setdefault(cell, []).append(idx)
        return by_cell

    def edges_over(self, s: MeasurableSet):
        """The ascending indices of the edges whose source meets a cell
        of ``s``."""
        by_cell = self.edges_by_cell
        boxes = s.boxes
        if boxes and boxes[0].cell == boxes[-1].cell:
            # boxes come in cell order: one cell, whose list is ascending
            return by_cell.get(boxes[0].cell, ())
        return sorted({i for cell in s.cells() for i in by_cell.get(cell, ())})

    def edges_meeting(self, s: MeasurableSet):
        """``(index, edge, meet)`` for every edge whose source meets ``s``,
        in edge-index order; ``meet`` is ``s.intersect(source)``, made
        afresh on each call (``language`` keeps the meets per set).
        Consecutive edges that share a source object, as a branch pair
        does (they sort next to each other), share one meet."""
        edges = self.edges
        source = meet = None
        for idx in self.edges_over(s):
            e = edges[idx]
            if e.source is not source:
                source = e.source
                meet = s.intersect(source)
            if meet.boxes:
                yield idx, e, meet

    def same_as(self, other: "Graphing") -> bool:
        """Equality as canonical graphings (carrier plus edge multiset)."""
        return self.carrier == other.carrier and self.edges == other.edges

    # once per graphing; ``encode_word`` records none for its graphings
    @lazy
    def _problems(self) -> tuple[str, ...]:
        return tuple(_find_problems(self))


def validate(g: Graphing) -> list[str]:
    """All invariant violations, empty when the graphing is well formed:
    the graphing's problems, in a list of its own."""
    return list(g._problems)


def _find_problems(g: Graphing) -> list[str]:
    """The problems of ``validate``, each decided box by box: a set lies
    in the domain or the carrier exactly when each of its boxes does.
    A cell the carrier holds whole holds any box, so a box's image is
    built only when it lands in another cell, and the edge's ``target``
    is never built.  One pass over the boxes decides both containments,
    a box tried only for the ones no earlier box refuted."""
    problems = []
    carrier = g.carrier
    admits, contains = g.weights.admits, g.microcosm.contains
    whole = {b.cell for b in carrier.boxes if not b.coords}
    for i, e in enumerate(g.edges):
        r, boxes = e.realizer, e.source.boxes
        if not admits(e.weight):
            problems.append(f"edge {i}: weight {e.weight} not in monoid")
        # a realizer with no offset is defined everywhere
        if r.offsets and not all(map(r.defined_on, boxes)):
            problems.append(f"edge {i}: source exceeds realizer domain")
            continue
        shift = r.shift
        source_in = target_in = True
        for b in boxes:
            if source_in and b.cell not in whole:
                source_in = MeasurableSet((b,)).subset_of(carrier)
            if target_in and b.cell + shift not in whole:
                target_in = MeasurableSet((r.apply_box(b),)).subset_of(carrier)
        if not source_in:
            problems.append(f"edge {i}: source not in carrier")
        if not target_in:
            problems.append(f"edge {i}: target not in carrier")
        if not contains(r):
            problems.append(f"edge {i}: realizer not in microcosm "
                            f"{g.microcosm.describe()}")
    return problems


def classify(g: Graphing) -> GraphingClass:
    """Strongest applicable class, by one integer test per cell: with the
    weights as integers over the lcm L of their denominators (L = 1 for
    units), does some point lie in sources weighing more than L?  For
    units, that is two sources overlapping.  The boxes over a heaviest
    point meet in a box whose lower corner is a heaviest point too, so
    on each axis only the boxes' lower ends need be tried."""
    weights = [e.weight for e in g.edges]
    if not all(map(g.weights.admits, weights)):
        return GraphingClass.GENERAL
    bound = lcm(*(w.denominator for w in weights))
    by_cell: dict[int, list] = {}
    for w, e in zip(weights, g.edges):
        for b in e.source.boxes:
            by_cell.setdefault(b.cell, []).append(
                (w.numerator * (bound // w.denominator), b.coords))
    heavy = any(_overweight(group, bound) for group in by_cell.values())
    if all(map(g.weights.is_unit, weights)):
        return (GraphingClass.NONDETERMINISTIC if heavy
                else GraphingClass.DETERMINISTIC)
    return GraphingClass.GENERAL if heavy else GraphingClass.PROBABILISTIC


def _overweight(group: list, bound: int) -> bool:
    """Whether a point lies in boxes of ``group``, pairs of an integer
    weight and the coordinates left to try, that weigh more than ``bound``.
    A source's boxes are disjoint, so no point counts one edge twice."""
    if sum(n for n, _ in group) <= bound:
        return False
    axes = [coords[0][0] for _, coords in group if coords]
    if not axes:
        return True
    j = min(axes)
    on = [(n, c[0][1], c[1:]) for n, c in group if c and c[0][0] == j]
    off = [(n, c) for n, c in group if not c or c[0][0] != j]
    scale = lcm(*(iv.d for _, iv, _ in on))
    # each lower end on axis j, over the axis's lcm, keeps the boxes over it
    return any(_overweight(off + [(n, rest) for n, iv, rest in on
                                  if iv.a * scale <= x * iv.d < iv.b * scale],
                           bound)
               for x in {iv.a * (scale // iv.d) for _, iv, _ in on})


def cost(g: Graphing) -> Fraction:
    """Sum of the source measures over all edges, in integers."""
    return Fraction(*_ratio_sum(e.source._measure_ratio() for e in g.edges))


def disjoint_union(f: Graphing, g: Graphing) -> Graphing:
    if not f.carrier.intersect(g.carrier).is_empty():
        raise ValueError("carriers overlap; disjoint union undefined")
    monoid = join_monoids(f.weights, g.weights)
    return Graphing.make(monoid, f.microcosm.join(g.microcosm),
                         f.carrier.union(g.carrier), f.edges + g.edges)
