"""Execution of graphings: alternating-path composition across a cut,
alternating cycles, cycle measurements, and test-based acceptance.

Plugging two graphings composes every maximal path that alternates
between their edges, starts outside the cut region and ends outside it;
each such path becomes one edge of the result, realized by the exact
composite map on the exact surviving domain.  Paths that die inside the
cut vanish: the search keeps the nodes where something may die, and the
dead regions and their mass are built from them only when read.  A path
is the node of its last step, linked to the node of the step before, so
paths that branch share every step they have in common.  The search is
breadth-first with exact domain propagation, a step budget, and a
repetition detector that walks up a path's nodes, so a verdict is only
ever ``undetermined`` when mass remains whose fate the budget could not
settle.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .space import _EMPTY, ZERO, MeasurableSet, _exact, _ratio_sum, lazy
from .realizers import Realizer
from .graphing import Edge, Graphing, join_monoids, validate
from .machines import require_probabilities


class _Infinity:
    """Exact positive infinity for measurement values."""

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Test:
    """Acceptance rule applied to an execution result.

    det/nl accept when some surviving path carries launch mass back into
    the accept cells; conl accepts when no surviving path carries launch
    mass into the reject cells; prob compares the normalised accept mass
    against a strict cutpoint.
    """

    kind: str                       # det | nl | conl | prob
    cutpoint: Fraction = Fraction(1, 2)

    __test__ = False                # not a pytest case, despite the name

    def __post_init__(self):
        if self.kind not in ("det", "nl", "conl", "prob"):
            raise ValueError(f"unknown test kind {self.kind!r}")
        # a "p/q" string reads as its Fraction; a binary float is refused
        object.__setattr__(self, "cutpoint", _exact(self.cutpoint))
        if not (0 <= self.cutpoint < 1):
            raise ValueError("cutpoint must lie in [0, 1)")


T_DET = Test("det")
T_NL = Test("nl")
T_CONL = Test("conl")


def t_prob(cutpoint=Fraction(1, 2)) -> Test:
    return Test("prob", cutpoint)


@dataclass(frozen=True)
class Regions:
    """Named regions a test needs, each nonempty: where runs launch from,
    and the accept/reject landing cells, each a union of whole cells."""

    launch: MeasurableSet
    accept: MeasurableSet
    reject: MeasurableSet

    def __post_init__(self):
        for name in ("launch", "accept", "reject"):
            region = getattr(self, name)
            if not region.boxes:
                raise ValueError(f"{name} region is empty")
            if name != "launch" and any(b.coords for b in region.boxes):
                raise ValueError(f"{name} region must be a union of whole "
                                 f"cells")


@dataclass
class Diagnostics:
    """Where a plug's mass went.

    A region adds its measure times the weight of the path that reaches
    it.  So the masses weigh what the plug left unresolved, looping or
    dead, and ``clean()`` fails when the budget runs out.

    ``dead_mass`` is summed over the dead regions, which are built from
    the search's open nodes the first time it or ``PlugResult.dead_paths``
    is read, as one integer ratio and one ``Fraction``.
    """

    complete: bool
    steps_used: int
    unresolved_mass: Fraction
    looping_mass: Fraction
    notes: list[str]
    # per node that no hit holds whole, in search order: the node, the
    # part of its image inside the cut, and the hits
    _open_nodes: list[tuple[_Node, MeasurableSet,
                            list[MeasurableSet]]] = field(repr=False,
                                                          compare=False)

    def clean(self) -> bool:
        return self.complete and self.unresolved_mass == 0

    @lazy
    def _dead(self) -> list[tuple[_Node, MeasurableSet]]:
        """Per path that dies inside the cut: its node and the dead
        region, what the hits leave of the node's part inside the cut.
        The hits, which may overlap, go in as they are, as ``subtract``
        reads them by cell; a machine run's open nodes hold none."""
        regions = []
        for node, inside, hits in self._open_nodes:
            dead = inside.subtract(
                MeasurableSet(tuple(b for hit in hits for b in hit.boxes)))
            if dead.boxes:
                regions.append((node, dead))
        return regions

    @lazy
    def dead_mass(self) -> Fraction:
        ratios = []
        for node, dead in self._dead:  # times the weight of its path
            w = node[3]
            num, den = dead._measure_ratio()
            ratios.append((num * w.numerator, den * w.denominator))
        return Fraction(*_ratio_sum(ratios))


@dataclass(frozen=True)
class PathRecord:
    """One maximal alternating path: the edge steps taken and the region
    alive just before each step."""

    steps: tuple[tuple[str, int], ...]
    regions: tuple[MeasurableSet, ...]
    source: MeasurableSet
    realizer: Realizer
    weight: Fraction


@dataclass
class PlugResult:
    """A plug's graphing and diagnostics, with the path search's nodes.

    ``paths`` (aligned with ``graphing.edges``, whose sources they take)
    and ``dead_paths`` (the maximal paths that die inside the cut, in the
    order the search met them) are built from the nodes the first time
    they are read, each by one walk up its parents, so a caller that only
    reads the graphing never builds them.  ``dead_paths`` and
    ``diagnostics.dead_mass`` read the same dead regions, so reading both
    builds each node's region once.
    """

    graphing: Graphing
    diagnostics: Diagnostics
    operands: tuple[Graphing, Graphing]  # the sides "F" and "G"
    # per result edge, in edge order: the node of the path's last step
    exit_nodes: list[_Node]

    @lazy
    def paths(self) -> list[PathRecord]:
        return [_record(node, e.source)
                for node, e in zip(self.exit_nodes, self.graphing.edges)]

    @lazy
    def _dead_ends(self) -> list[tuple[_Node, MeasurableSet]]:
        """Per dead path: its node and its source, the dead region pulled
        back along its composite."""
        return [(node, node[2].invert().apply(dead))
                for node, dead in self.diagnostics._dead]

    @lazy
    def dead_paths(self) -> list[PathRecord]:
        return [_record(node, source) for node, source in self._dead_ends]


# A path is the node of its last step: the (side, edge index) of the edge
# it takes, the region alive just before the step, the composite and
# weight after it, and the node of the step before, None on a first step.
_Node = tuple[tuple[str, int], MeasurableSet, Realizer, Fraction,
              "_Node | None"]


def _trail(node: _Node) -> list[_Node]:
    """The nodes of the path that ends at ``node``, first step first."""
    trail = []
    while node is not None:
        trail.append(node)
        node = node[4]
    trail.reverse()
    return trail


def _record(node: _Node, source: MeasurableSet) -> PathRecord:
    steps, regions, *_ = zip(*_trail(node))
    return PathRecord(steps, regions, source, node[2], node[3])


def _split(image: MeasurableSet,
           cut: MeasurableSet) -> tuple[MeasurableSet, MeasurableSet]:
    """``image`` outside the cut, where paths start and exit, and inside:
    parted by cell when the cut holds each of its cells whole (alone
    in the cell, in canonical form) or misses it, else by set operations."""
    held = cut._by_cell
    inside = [b for b in image.boxes if b.cell in held]
    if not inside:
        return image, _EMPTY
    if any(held[b.cell][0].coords for b in inside):
        return image.subtract(cut), image.intersect(cut)
    if len(inside) == len(image.boxes):
        return _EMPTY, image
    return (MeasurableSet(tuple(b for b in image.boxes if b.cell not in held)),
            MeasurableSet(tuple(inside)))


def _ops():
    """``Realizer.apply`` and ``compose`` and the split at the cut, read
    when called, so a wrapper bound there is what the search calls.
    ``language`` wraps each in one ``lru_cache`` per call, a table its
    searches share, as sets and realizers are immutable.  Sets are met
    in each side's ``meets``, not here."""
    return (Realizer.apply, Realizer.compose, _split)


class _Search:
    """The alternating-path search of a plug across ``cut``, breadth
    first.  A path is split at the cut when it is made: the part outside
    exits, kept as a result edge, and the part inside is queued.  The
    queue is first in, first out, so exits and open nodes come in the
    order paths are made.

    ``drain`` expands the queue with one ``meets`` function per side.  A
    ``meets`` that returns None for a path parks it: it stays queued for
    a search that ``fork`` continues with more known of that side, as
    ``language`` continues a word prefix with each next symbol."""

    def __init__(self, f, g, max_steps: int, ops: tuple):
        """A search of ``f`` against ``g``, each a ``Graphing`` or a
        ``WordSide``, through ``ops``, as ``_ops`` gives them: the
        weights, microcosm and carrier are read off both.  The cut, ``g``'s
        carrier met with ``f``'s, is the split's inside part: no set
        operation when ``f``'s carrier holds ``g``'s cells whole."""
        if max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        self.monoid = join_monoids(f.weights, g.weights)
        self.microcosm = f.microcosm.join(g.microcosm)
        self.max_steps = max_steps
        self.apply, self.compose, self.split = ops
        self.cut = self.split(g.carrier, f.carrier)[1]
        self.carrier = _EMPTY             # grows with each side started
        self.complete = True
        self.steps = 0
        self.unresolved_mass = self.looping_mass = ZERO
        self.exits: list[tuple[Edge, _Node]] = []
        self.open_nodes: list = []       # as ``Diagnostics._open_nodes``
        # each path: the part of its image inside the cut, and its node
        self.queue: deque[tuple[MeasurableSet, _Node]] = deque()

    def fork(self) -> "_Search":
        """A search that goes on from this one's state, which it leaves
        as it is."""
        child = object.__new__(_Search)
        vars(child).update(vars(self))
        child.exits = list(self.exits)
        child.open_nodes = list(self.open_nodes)
        child.queue = deque(self.queue)
        return child

    def start(self, side: str, graphing: Graphing) -> None:
        """Queue a path per edge over ``graphing``'s carrier outside the
        cut, on its source's part outside it, and add that part of the
        carrier to the result's.  An edge whose whole source lies
        outside the cut, which the split returns as that source itself,
        starts from its kept ``target``."""
        split, apply, cut = self.split, self.apply, self.cut
        outside = split(graphing.carrier, cut)[0]
        for idx in graphing.edges_over(outside):
            e = graphing.edges[idx]
            start = split(e.source, cut)[0]
            if start.boxes:
                image = (e.target if start is e.source
                         else apply(e.realizer, start))
                self.push(image,
                          ((side, idx), start, e.realizer, e.weight, None))
        self.carrier = self.carrier.union(outside)

    def push(self, image: MeasurableSet, node: _Node) -> None:
        exits, inside = self.split(image, self.cut)
        if exits.boxes:
            _, region, composite, weight, parent = node
            if exits is not image or (parent is not None
                                      and parent[4] is not None):
                source = self.apply(composite.invert(), exits)
            else:
                # a whole image: on a first step, of the start; on a second,
                # of the hit, pulled back along the first edge's realizer,
                # whose inverse the edge keeps
                source = region if parent is None else self.apply(
                    parent[2].invert(), region)
            edge = Edge(weight, source, composite)
            vars(edge)["target"] = exits  # the image of its source
            self.exits.append((edge, node))
        # a path inside the cut only meets the part of a source in the
        # cut, so whole edges need no split at it
        if inside.boxes:
            self.queue.append((inside, node))

    def drain(self, meets: dict) -> None:
        """Expand every queued path but those parked.  For a path's part
        inside the cut, ``meets[side]`` gives ``(index, edge, hit)`` for
        each edge of the side whose source meets it, ``hit`` the meet, in
        ``Edge.key`` order, or None to park the path.  A step is keyed by
        its side and that index."""
        queue, compose, apply, push, open_nodes = (
            self.queue, self.compose, self.apply, self.push, self.open_nodes)
        product, max_steps, steps = self.monoid.product, self.max_steps, \
            self.steps
        parked = []
        while queue:
            inside, node = entry = queue.popleft()
            (side, _), _, composite, weight, _ = node
            other = "G" if side == "F" else "F"
            found = meets[other](inside)
            if found is None:
                parked.append(entry)
                continue
            hits: list[MeasurableSet] = []
            # a meet that cuts nothing returns its operand: then one source
            # holds all of inside and nothing dies here
            whole = False
            for idx, e, hit in found:
                hits.append(hit)
                whole = whole or hit is inside
                if steps >= max_steps:
                    self.complete = False
                    self.unresolved_mass += weight * hit.measure()
                    continue
                steps += 1
                new_comp = compose(composite, e.realizer)
                new_weight = product(weight, e.weight)
                key = (other, idx)
                # a repeat takes an edge of the path again with the same
                # composite, on a part of the region it had there; no path
                # holds two such steps, so the first found walking up is
                # the only one
                repeat = node
                while repeat is not None and not (
                        repeat[0] == key and repeat[2] == new_comp
                        and hit.subset_of(repeat[1])):
                    repeat = repeat[4]
                if repeat is not None:
                    mass = new_weight * hit.measure()
                    if new_weight == repeat[3]:
                        self.looping_mass += mass
                    else:
                        # decaying revisit: its remaining emissions are
                        # bounded by the mass entering the repeat
                        self.unresolved_mass += mass
                    continue
                push(apply(e.realizer, hit),
                     (key, hit, new_comp, new_weight, node))
            if not whole:
                open_nodes.append((node, inside, hits))
        queue.extend(parked)
        self.steps = steps

    def result(self, operands: tuple) -> PlugResult:
        """The graphing of the exits, in ``Edge.key`` order, with the
        diagnostics and the exits' nodes."""
        found = self.exits
        if len(found) > 1:
            found = sorted(found, key=lambda found: found[0].key())
        notes = [] if self.complete else [
            f"step budget {self.max_steps} exhausted; result partial"]
        diag = Diagnostics(self.complete, self.steps, self.unresolved_mass,
                           self.looping_mass, notes, self.open_nodes)
        graphing = Graphing(self.monoid, self.microcosm, self.carrier,
                            tuple(e for e, _ in found))
        return PlugResult(graphing, diag, operands,
                          [node for _, node in found])


def plug(f: Graphing, g: Graphing, max_steps: int = 10000) -> PlugResult:
    """Compose ``f`` and ``g`` across the cut, their carrier overlap,
    into the graphing of maximal alternating paths.

    Every edge source must lie in its graphing's carrier, as ``validate``
    checks: so paths start on the sources' parts outside the cut, of the
    edges over the carrier's part outside it, all read off by the search's
    split at the cut.  Each graphing keeps its problems, so a graphing
    plugged again, such as a machine against every word, is swept only once.

    The cut is ``g``'s carrier met with ``f``'s, a word's own carrier in a
    machine run.  Each path made, one split of its image at the cut gives
    the part that exits, kept as its edge's ``target``, and the part that
    goes on.  The dead part is what the other side's sources leave of the
    latter: none when one source holds all of it, as the meet then
    returns the path's own set.  Any other node is kept with its hits,
    and its dead part is built only when ``dead_paths`` or
    ``diagnostics.dead_mass`` is read; ``language`` and the property
    checks read neither.  A path is the node of its last step, and a step
    links one new node to the path's node, so paths share the steps they
    have in common and no step copies a path.  A path repeats when it takes
    one of its edges again with the same composite, on a part of the
    region it had there, found by walking up its nodes.
    An edge's source is its exit set pulled back along its composite,
    except on a path that exits whole on its first or second step: then
    it is the path's start, or the hit of its second step pulled back
    along its first edge's realizer, an inverse the edge keeps for every
    plug it is in.  A longer path's composite before its last step is
    built for that path alone, so pulling back along it would build one
    more inverse.  The result keeps each path's node;
    ``PlugResult`` builds the path records only when they are read.

    The search keeps no table: ``language`` shares one over its own
    searches, but a lone plug's operands seldom repeat.
    """
    search = _Search(f, g, max_steps, _ops())  # checks the budget first
    for name, graphing in (("first", f), ("second", g)):
        problems = validate(graphing)
        if problems:
            raise ValueError(f"{name} graphing invalid: {problems}")
    search.start("F", f)
    search.start("G", g)
    search.drain({"F": f.edges_meeting, "G": g.edges_meeting})
    return search.result((f, g))


# -- cycles and measurement ---------------------------------------------------

@dataclass(frozen=True)
class AlternatingCycle:
    """A primitive closed alternating chain, in its least rotation."""

    steps: tuple[tuple[str, int], ...]
    realizer: Realizer
    support: MeasurableSet
    weight: Fraction


def cycles(f: Graphing, g: Graphing,
           max_len: int = 8) -> list[AlternatingCycle]:
    """The primitive alternating cycles of length <= max_len with nonempty
    support, each once: a step word is kept only when it is strictly below
    each of its proper rotations (a Lyndon word), so no power u^k of a
    cycle u is kept; as every ("F", i) sorts before every ("G", j), each
    kept word starts on an edge of ``f``, where the search starts.

    The support is the set of points of the first edge's source that land
    back in it after one lap.  A point that a permutation moves is counted
    once, in the word it follows, and is not weighted by its period.  As
    the first edge is one of ``f``'s, the support is read off the first
    argument's edge sources, and on a feedback pair the two argument
    orders can differ: with ``f`` one identity edge on the whole of cell 2
    and ``g`` one edge on [3/4, 1) of coordinate 1 in cell 2, offset
    -3/4, ``cycles(f, g)`` finds one cycle of support [3/4, 1) and
    ``cycles(g, f)`` finds none."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    sides = {"F": f, "G": g}
    monoid = join_monoids(f.weights, g.weights)
    found: list[AlternatingCycle] = []

    def extend(steps, image, comp, weight):
        if len(steps) % 2 == 0 and all(steps < steps[i:] + steps[:i]
                                       for i in range(1, len(steps))):
            closing = image.intersect(f.edges[steps[0][1]].source)
            if not closing.is_empty():
                found.append(AlternatingCycle(
                    steps, comp, comp.invert().apply(closing), weight))
        if len(steps) >= max_len:
            return
        other = "G" if steps[-1][0] == "F" else "F"
        for idx, e, hit in sides[other].edges_meeting(image):
            extend(steps + ((other, idx),), e.realizer.apply(hit),
                   comp.compose(e.realizer), monoid.product(weight, e.weight))

    for idx, e in enumerate(f.edges):
        extend((("F", idx),), e.realizer.apply(e.source), e.realizer, e.weight)
    return sorted(found, key=lambda cyc: cyc.steps)


def measurement(f: Graphing, g: Graphing, m, max_len: int = 8):
    """Sum over the primitive cycles of support measure times ``m`` of the
    cycle's weight, where ``m`` is any function from a weight to a
    nonnegative rational or INFINITY; INFINITY as soon as an infinite
    term has positive support.  The supports are those of ``cycles``, read
    off ``f``'s edge sources, so the argument order can matter on a
    feedback pair: on ``cycles``'s example, with ``m`` giving 1 to every
    weight, ``measurement(f, g, m)`` is 1/4 and ``measurement(g, f, m)``
    is 0."""
    total = Fraction(0)
    for cyc in cycles(f, g, max_len=max_len):
        value = m(cyc.weight)
        if value is INFINITY:
            return INFINITY
        total += cyc.support.measure() * value
    return total


# -- acceptance ---------------------------------------------------------------

def _landing_part(e: Edge, regions: Regions,
                  cells: set[int]) -> MeasurableSet:
    """The part of the edge's source in the launch region that lands in
    ``cells``.  A realizer moves a box of cell n into cell n plus its
    shift, so, as the accept and reject regions hold their cells whole,
    the part is the boxes whose cells it moves into ``cells``, whole cells
    of the meet and so canonical; a measure-preserving map lands their
    measure there."""
    shift = e.realizer.shift
    if not any(b.cell + shift in cells for b in e.source.boxes):
        return _EMPTY
    return MeasurableSet(tuple(b for b in e.source.intersect(regions.launch)
                               .boxes if b.cell + shift in cells))


def landing(e: Edge, regions: Regions, where: MeasurableSet) -> MeasurableSet:
    """The part of ``where``, a union of whole cells, into which the edge
    carries launch-region points: the image of the part that lands there.
    It can be nonempty while carrying no mass, on a weight-0 edge."""
    return e.realizer.apply(_landing_part(e, regions, where.cells()))


def _fold(landed, edges, regions: Regions, cells: set[int]):
    """``landed`` with what ``edges`` carry from the launch region into
    ``cells``: for prob, an integer ratio, plus their weighted measure
    there; for the other tests, a bool, true once one edge of positive
    weight lands there, so the edges are read only until one does (a
    weight's sign is its numerator's, and none is negative)."""
    if landed.__class__ is tuple:
        ratios = [landed]
        for e in edges:
            if e.weight:
                num, den = _landing_part(e, regions, cells)._measure_ratio()
                ratios.append((num * e.weight.numerator,
                               den * e.weight.denominator))
        return _ratio_sum(ratios)
    return landed or any(e.weight.numerator > 0
                         and _landing_part(e, regions, cells).boxes
                         for e in edges)


def _landed_mass(result: PlugResult, regions: Regions,
                 where: MeasurableSet) -> Fraction:
    """The weighted measure of the parts that land in ``where``, summed in
    integers, over the launch measure."""
    return Fraction(*_fold((0, 1), result.graphing.edges, regions,
                           where.cells())) / regions.launch.measure()


def accept_mass(result: PlugResult, regions: Regions) -> Fraction:
    """Mass carried from the launch region into the accept cells,
    normalised by the launch measure: each edge adds the measure it lands
    there times its weight."""
    return _landed_mass(result, regions, regions.accept)


def reject_mass(result: PlugResult, regions: Regions) -> Fraction:
    """Mass carried from the launch region into the reject cells,
    normalised by the launch measure: each edge adds the measure it lands
    there times its weight."""
    return _landed_mass(result, regions, regions.reject)


def _reads(test: Test, regions: Regions) -> tuple:
    """What the test folds from, nothing landed yet, and the cells whose
    landings it reads: the reject cells for conl, the accept cells for
    the others."""
    if test.kind == "prob":
        return (0, 1), regions.accept.cells()
    return False, (regions.reject if test.kind == "conl"
                   else regions.accept).cells()


def decide(test: Test, landed, unresolved_mass: Fraction,
           regions: Regions) -> Verdict:
    """The test's verdict on what ``_fold`` gives from the edges of a run:
    for det, nl and conl whether some edge of positive weight carries
    launch mass into the cells the test reads, for prob the integer ratio
    of accept mass, taken here over the launch measure.

    Unresolved mass (budget exhaustion, decaying revisits) makes a
    verdict undetermined only when it could still flip it; exactly
    repeating unit-weight loops are settled divergence and never do.
    """
    if test.kind == "prob":
        lam = regions.launch.measure()
        mass = Fraction(*landed) / lam
        if mass > test.cutpoint:
            return Verdict.ACCEPT
        if mass + unresolved_mass / lam <= test.cutpoint:
            return Verdict.REJECT
        return Verdict.UNDETERMINED
    # det and nl accept on a landing in the accept cells, conl rejects on
    # one in the reject cells
    hit, miss = ((Verdict.REJECT, Verdict.ACCEPT) if test.kind == "conl"
                 else (Verdict.ACCEPT, Verdict.REJECT))
    if landed:
        return hit
    return Verdict.UNDETERMINED if unresolved_mass > 0 else miss


def evaluate_test(result: PlugResult, test: Test, regions: Regions) -> Verdict:
    """Apply a test to an execution result: ``decide`` on the fold of its
    edges and its unresolved mass."""
    start, cells = _reads(test, regions)
    return decide(test, _fold(start, result.graphing.edges, regions, cells),
                  result.diagnostics.unresolved_mass, regions)


def _word_verdict(search: _Search, test: Test, landed,
                  regions: Regions) -> Verdict:
    """A word's verdict in ``language``, off what the exits of its search
    landed and its unresolved mass."""
    return decide(test, landed, search.unresolved_mass, regions)


@dataclass
class LanguageResult:
    """``language``'s answer: the accepted words in (length, alphabet)
    order, the undetermined ones, and every word's verdict."""

    accepted: list[str]
    undetermined: list[str]
    verdicts: dict[str, Verdict]


def language(machine, test: Test, max_len: int, one_way: bool = False,
             max_steps: int = 10000) -> LanguageResult:
    """Words of length <= max_len the encoded machine accepts under the
    test, in (length, alphabet) order.  Undetermined words are excluded
    from the list and reported separately.

    Each length has one search, shared over the trie of word prefixes and
    walked depth first in alphabet order.  The cut is the word's carrier,
    which does not depend on the word, so the machine's paths start once
    per length, in the length's root, from ``graphing_for(length)``, as
    in ``run_word``: the start edge scoped to the launch region.  Inside
    the cut that graphing meets sets as the machine's own does, since the
    start edge's source lies outside it.  A prefix's search takes the
    steps its symbols decide; a path whose next word edge needs a symbol
    past the prefix is parked, and each next symbol's search goes on from
    the prefix's exits, masses, step count and parked paths.  A word's search
    is then its own plug's steps in another order, which leaves its exits
    and masses as they are.  A prefix whose search is left with nothing
    queued, parked or not, settles every word below it: each gets the
    prefix's search, with no fork and no drain.  The order matters once
    the budget runs out: then each word below drains a fork of the root
    with the whole word known, which is its own plug's search step for
    step, as the word side starts no path and meets edges in
    ``encode_word``'s edge order.  One table serves the whole call,
    dropped when it returns: it holds the applies, composites and splits
    the searches repeat, and each set's meets with the machine's edges.
    The word side keeps nothing: each set a run meets is one
    configuration, and it reads the word edge off that set's slice.

    A word's verdict is ``decide`` on the fold of its exits, as for its
    own plug's result, but the fold runs per trie node: a node folds only
    the exits it made, each at most once, into what its prefix landed, and
    its forks inherit the outcome, so a det, nl or conl node below one
    that landed reads no exit.  A word the budget sends back folds its own
    search's exits from the start.  No word builds a ``PlugResult``."""
    from .encodings import WordSide

    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if test.kind == "prob":
        require_probabilities(machine.spec)
    alphabet = machine.spec.alphabet
    edges_meeting = machine.graphing.edges_meeting
    verdicts: dict[str, Verdict] = {}
    ops = tuple(lru_cache(maxsize=None)(op) for op in _ops())
    machine_meets = lru_cache(maxsize=None)(
        lambda s: tuple(edges_meeting(s)))
    for length in range(max_len + 1):
        side = WordSide(machine.layout, len(machine.spec.states), one_way,
                        length)
        scoped = machine.graphing_for(length)
        root = _Search(scoped, side, max_steps, ops)
        # the word's carrier is the cut, so no path starts on its side
        root.start("F", scoped)
        regions = machine.regions_for(length)
        start, cells = _reads(test, regions)
        # each entry: a search, its prefix, how many of its exits are
        # folded and what they landed
        trie = [(root.fork(), "", 0, start)]
        while trie:
            search, prefix, seen, landed = trie.pop()
            search.drain({"F": machine_meets, "G": side.meets(prefix)})
            # the words below the prefix, in alphabet order
            below = (prefix + "".join(rest) for rest in itertools.product(
                alphabet, repeat=length - len(prefix)))
            if not search.complete:
                for word in below:
                    alone = root.fork()
                    alone.drain({"F": machine_meets, "G": side.meets(word)})
                    own = _fold(start, (e for e, _ in alone.exits), regions,
                                cells)
                    verdicts[word] = _word_verdict(alone, test, own, regions)
                continue
            exits = search.exits
            if len(exits) > seen:
                landed = _fold(landed, (e for e, _ in exits[seen:]),
                               regions, cells)
            if len(prefix) == length or not search.queue:
                # a leaf, or a prefix whose search has nothing left to
                # expand: no word below takes another step
                for word in below:
                    verdicts[word] = _word_verdict(
                        search, test, landed, regions)
            else:
                # the last symbol goes on in this search, the others in
                # forks, pushed so that the first symbol comes off first
                forks = [search.fork() for _ in alphabet[1:]] + [search]
                seen = len(exits)
                trie.extend((fork, prefix + x, seen, landed) for fork, x
                            in zip(reversed(forks), reversed(alphabet)))
    return LanguageResult(
        [w for w, v in verdicts.items() if v is Verdict.ACCEPT],
        [w for w, v in verdicts.items() if v is Verdict.UNDETERMINED],
        verdicts)
