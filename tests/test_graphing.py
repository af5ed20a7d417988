import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from gridmodel import Grid, image
from graphvm.graphing import (Edge, Graphing, GraphingClass, PROBABILITIES,
                              TRIVIAL, classify, cost, disjoint_union,
                              join_monoids, validate)
from graphvm.execution import plug
from graphvm.realizers import Microcosm, Realizer
from graphvm.sampling import random_pair, random_triple
from graphvm.space import MeasurableSet, RationalBox, RationalInterval, interval
from harness import (cellbox, graphing, log_calls, ms, random_graphing,
                     sampled_graphings, shipped, shipped_machines, whole,
                     with_a_corner_cut)


class _Ratio(Fraction):
    """A ``Fraction`` subclass: the monoids admit it through the
    ``Rational`` check, not their exact-type test."""


# (weight, admitted as a probability, admitted as the trivial weight):
# any rational in [0, 1] is a probability and 1 as any rational is
# trivial, an int, a bool or a Fraction subclass too; no float is either
_WEIGHTS = [
    (Fraction(0), True, False), (Fraction(1, 2), True, False),
    (Fraction(1), True, True), (Fraction(3, 2), False, False),
    (Fraction(-1, 2), False, False), (Fraction(-1), False, False),
    (0, True, False), (1, True, True), (2, False, False),
    (False, True, False), (True, True, True),
    (_Ratio(1), True, True), (_Ratio(1, 2), True, False),
    (_Ratio(3, 2), False, False),
    (1 / 2, False, False), (1 / 1, False, False),  # integer division: floats
    ("e", False, False), ("a", False, False),
]


def test_validate_reports_a_weight_outside_the_monoid():
    heavy = graphing([Edge(Fraction(3, 2), whole(0), Realizer.shift_by(1))],
                     monoid=PROBABILITIES)
    assert validate(heavy) == ["edge 0: weight 3/2 not in monoid"]
    for w, probability, trivial in _WEIGHTS:
        assert PROBABILITIES.admits(w) is probability, w
        assert TRIVIAL.admits(w) is trivial, w
        # classify agrees with validate: with weights other than 1, a
        # graphing is probabilistic exactly when its monoid admits each,
        # and a trivial graphing is deterministic exactly when it does
        for monoid, other, admitted, want in (
                (PROBABILITIES, Fraction(1, 3), probability,
                 GraphingClass.PROBABILISTIC),
                (TRIVIAL, Fraction(1), trivial,
                 GraphingClass.DETERMINISTIC)):
            g = graphing([Edge(w, whole(0), Realizer.shift_by(1)),
                          Edge(other, whole(1), Realizer.shift_by(1))],
                         monoid=monoid)
            assert validate(g) == ([] if admitted else
                                   [f"edge 0: weight {w} not in monoid"]), w
            assert classify(g) is (want if admitted
                                   else GraphingClass.GENERAL), (monoid, w)


def test_the_trivial_monoid_embeds_in_probabilities():
    # join_monoids reads a trivial graphing as a probabilities one
    for w, _, _ in _WEIGHTS:
        assert not TRIVIAL.admits(w) or PROBABILITIES.admits(w), w


def test_a_refused_unit_weight_is_no_unit():
    # classify agrees with validate: a float 1.0 is refused by both
    # monoids and is no unit, an int 1 is admitted by both and is one
    for monoid in (TRIVIAL, PROBABILITIES):
        for w, refused, want in ((1 / 1, True, GraphingClass.GENERAL),
                                 (1, False, GraphingClass.DETERMINISTIC)):
            g = graphing([Edge(w, whole(0), Realizer.shift_by(1))], (0, 1),
                         monoid)
            assert bool(validate(g)) is refused, (monoid, w)
            assert monoid.is_unit(w) is not refused, (monoid, w)
            assert classify(g) is want, (monoid, w)


def test_a_float_unit_weight_is_refused():
    # integer division makes a float: 1 / 1 is no trivial weight
    g = graphing([Edge(1 / 1, whole(0), Realizer.shift_by(1))], (0, 1))
    assert validate(g) == ["edge 0: weight 1.0 not in monoid"]
    with pytest.raises(ValueError, match="weight 1.0 not in monoid"):
        plug(g, graphing([], (5,)))


def test_sampled_graphings_are_valid():
    for mode in ("det", "nondet", "prob"):
        for seed in range(60):
            for g in random_pair(seed, mode) + random_triple(seed, mode):
                assert validate(g) == []


def test_sampled_graphings_come_in_edge_key_order():
    # sampling builds its graphings with no sort; these seeds reach every
    # order of a same-source pair: the plain shift first, and a drawn plain
    # shift against it, of lighter, heavier or equal weight
    for mode in ("det", "nondet", "prob"):
        for seed in range(200):
            for g in random_pair(seed, mode) + random_triple(seed, mode):
                assert g == Graphing.make(g.weights, g.microcosm, g.carrier,
                                          g.edges)


def _model_problems(g):
    """``validate`` on the grid model: the domain from the model's image
    of each source box, and containment in the carrier from bits."""
    problems = []
    for i, e in enumerate(g.edges):
        if not g.weights.admits(e.weight):
            problems.append(f"edge {i}: weight {e.weight} not in monoid")
        images = [image(e.realizer, b) for b in e.source.boxes]
        if any(type(x) is int for x in images):
            problems.append(f"edge {i}: source exceeds realizer domain")
            continue
        grid = Grid([*g.carrier.boxes, *e.source.boxes, *images])
        outside = ~grid.bits(g.carrier.boxes)
        if grid.bits(e.source.boxes) & outside:
            problems.append(f"edge {i}: source not in carrier")
        if grid.bits(images) & outside:
            problems.append(f"edge {i}: target not in carrier")
        if not g.microcosm.contains(e.realizer):
            problems.append(f"edge {i}: realizer not in microcosm "
                            f"{g.microcosm.describe()}")
    return problems


_PROBLEM_KINDS = ("not in monoid", "exceeds realizer domain",
                  "source not in carrier", "target not in carrier",
                  "not in microcosm")


def _hand_problems():
    """Hand-built graphings with the problems ``validate`` must give, in
    order.  Of at most one edge: the empty graphing, each kind of problem
    but the weight's alone, and two graphings beside them with none.
    With sources of several boxes: a box outside the carrier beside a box
    whose image leaves it, either one first, on cells the carrier holds
    whole or in part; and a domain violation, which skips both
    containment checks although both fail."""
    shift = Realizer.shift_by(1)
    word_edge = Realizer.make(1, None, {1: Fraction(1, 2)})
    half = ms(cellbox(0, 0, "1/2"))
    yield graphing([]), []
    yield graphing([Edge(Fraction(1), whole(9), shift)], (9, 10)), []
    yield (graphing([Edge(Fraction(1), whole(9), shift)], (10,)),
           ["edge 0: source not in carrier"])
    yield (graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5))]),
           ["edge 0: target not in carrier"])
    yield (Graphing.make(TRIVIAL, Microcosm.m1(), whole(0, 1),
                         [Edge(Fraction(1), half, word_edge)]),
           ["edge 0: realizer not in microcosm m1"])
    yield graphing([Edge(Fraction(1), half, word_edge)], (0, 1)), []
    yield (graphing([Edge(Fraction(1), whole(0), word_edge)]),
           ["edge 0: source exceeds realizer domain"])
    left_of_1, left_of_3 = cellbox(1, 0, "1/2"), cellbox(3, 0, "1/2")
    both = ["edge 0: source not in carrier", "edge 0: target not in carrier"]
    # the first box's image leaves the carrier, the second box lies outside
    yield (Graphing.make(TRIVIAL, Microcosm.macrocosm(), ms(cellbox(0),
                                                           left_of_3),
                         [Edge(Fraction(1), ms(cellbox(0, "1/2", 1),
                                               cellbox(2, 0, "1/2")), shift)]),
           both)
    # the first box lies outside, the second box's image leaves
    yield (Graphing.make(TRIVIAL, Microcosm.macrocosm(), ms(left_of_1,
                                                           cellbox(2)),
                         [Edge(Fraction(1), ms(cellbox(0, 0, "1/2"),
                                               cellbox(2, 0, "1/2")), shift)]),
           both)
    # edge 1 leaves the domain on its box in cell 5, outside the carrier,
    # and its box in cell 0 lands outside it; edge 0 is no m1 member
    yield (Graphing.make(PROBABILITIES, Microcosm.m1(), whole(0),
                         [Edge(Fraction(1), whole(0), Realizer.head_swap(2)),
                          Edge(Fraction(3, 2), ms(cellbox(0, 0, "1/2"),
                                                  cellbox(5, "1/2", 1)),
                               word_edge)]),
           ["edge 0: realizer not in microcosm m1",
            "edge 1: weight 3/2 not in monoid",
            "edge 1: source exceeds realizer domain"])


def test_validate_matches_the_set_algebra_reference():
    for g, want in _hand_problems():
        assert validate(g) == _model_problems(g) == want
    rng = random.Random(23)

    def corpus():
        yield from (random_graphing(rng) for _ in range(1500))
        # plug validates both sides: build the plugged part only after
        # every random graphing has been compared with the model
        sampled = list(sampled_graphings())
        yield from sampled + [with_a_corner_cut(g, rng) for g in sampled]
    seen = Counter()
    for g in corpus():
        got = validate(g)
        assert got == _model_problems(g)
        seen.update(kind for p in got for kind in _PROBLEM_KINDS if kind in p)
        for e in g.edges:
            seen["perm"] += bool(e.realizer.perm)
            for j, p, _ in e.realizer.offsets:
                free = all(b.interval_at(e.realizer.perm_preimage(j)).d == 1
                           for b in e.source.boxes)
                seen["free" if free else "constrained", p > 0] += 1
            seen["several boxes"] += len(e.source.boxes) > 1
            for b in e.source.boxes:
                # inside the carrier, but in no one of its boxes
                seen["swept"] += MeasurableSet((b,)).subset_of(g.carrier) \
                    and not any(
                    b.intersect(mine) is b
                    for mine in g.carrier._by_cell.get(b.cell, ()))
    assert all(seen[kind] for kind in _PROBLEM_KINDS)
    assert all(seen[kind, sign] for kind in ("free", "constrained")
               for sign in (False, True))
    assert seen["perm"] and seen["several boxes"] and seen["swept"]


def test_sampled_graphings_are_built_and_checked_box_by_box(monkeypatch):
    import graphvm.realizers as realizer_module
    calls = log_calls(monkeypatch, (Realizer, "make"),
                      (realizer_module, "_normalize_perm"))
    # at seed 15 _disjoint_intervals draws the cuts 0 and 8 in every mode
    sampled = [g for seed in (0, 1, 2, 3, 4, 5, 15)
               for mode in ("det", "nondet", "prob")
               for g in random_pair(seed, mode)]
    assert calls == []
    checked = log_calls(monkeypatch, (MeasurableSet, "intersect"),
                        (MeasurableSet, "subset_of"), (Realizer, "apply"),
                        (Realizer, "domain_within"))
    for g in sampled:
        assert validate(g) == []
    assert calls == checked == []
    edges = [e for g in sampled for e in g.edges]
    assert not any("target" in vars(e) for e in edges)
    for e in edges:
        r = e.realizer
        made = Realizer.make(r.shift, dict(r.perm),
                             {j: Fraction(p, q) for j, p, q in r.offsets})
        assert (r, hash(r), repr(r)) == (made, hash(made), repr(made))
        assert e.source == MeasurableSet.from_boxes(e.source.boxes)
    assert any(e.realizer.perm for e in edges)
    assert any(e.realizer.offsets for e in edges)
    # the cuts 0 and 8 give [0, 1), which the source box leaves out
    assert any(b.coords == () for e in edges for b in e.source.boxes)


def test_cost_invariant_under_source_splitting():
    assert cost(graphing([])) == 0
    one = Edge(Fraction(1), ms(cellbox(0, 0, "1/2")), Realizer.shift_by(1))
    assert cost(graphing([one])) == Fraction(1, 2)
    whole = Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(1))
    left = Edge(Fraction(1), ms(cellbox(0, 0, "1/3")), Realizer.shift_by(1))
    right = Edge(Fraction(1), ms(cellbox(0, "1/3", 1)), Realizer.shift_by(1))
    assert cost(graphing([whole])) == cost(graphing([left, right]))


def test_disjoint_union():
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(1))], (0, 1))
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))], (5, 6))
    u = disjoint_union(f, g)
    assert validate(u) == []
    assert classify(u) == GraphingClass.DETERMINISTIC
    assert cost(u) == cost(f) + cost(g)
    empty = graphing([], (9,))
    assert disjoint_union(f, empty).edges == f.edges
    with pytest.raises(ValueError):
        disjoint_union(f, f)


def test_join_monoids():
    assert join_monoids(TRIVIAL, PROBABILITIES) is PROBABILITIES
    assert join_monoids(PROBABILITIES, TRIVIAL) is PROBABILITIES
    assert join_monoids(PROBABILITIES, PROBABILITIES) is PROBABILITIES
    assert join_monoids(TRIVIAL, TRIVIAL) is TRIVIAL


def test_target_is_derived():
    e = Edge(Fraction(1), ms(cellbox(0, 0, "1/2")),
             Realizer.make(1, None, {1: Fraction(1, 2)}))
    assert e.target == ms(cellbox(1, "1/2", 1))


def test_edge_keys_equal_fresh_ones():
    from graphvm.encodings import encode_machine, encode_word
    m = encode_machine(shipped("ones.mach"))
    words = [encode_word(w, m.layout).graphing for w in ("", "0110", "10")]
    for g in [m.graphing] + words + list(sampled_graphings()):
        for e in g.edges:
            fresh = (tuple(b.key() for b in e.source.boxes),
                     e.realizer.key(), e.weight)
            assert e.key() == fresh
        assert list(g.edges) == sorted(g.edges, key=lambda e: (
            tuple(b.key() for b in e.source.boxes), e.realizer.key(),
            e.weight))
    e = words[1].edges[0]
    assert [f.name for f in dataclasses.fields(Edge)] == \
        ["weight", "source", "realizer"]
    assert repr(e) == (f"Edge(weight={e.weight!r}, source={e.source!r}, "
                       f"realizer={e.realizer!r})")
    assert e == Edge(e.weight, e.source, e.realizer)


def _equal_sources_apart():
    """Two equal sources that are distinct objects, one of them taken
    again after the other in edge order."""
    half, again = ms(cellbox(0, 0, "1/2")), ms(cellbox(0, 0, "1/2"))
    g = graphing([Edge(Fraction(1), half, Realizer.shift_by(1)),
                  Edge(Fraction(1), again, Realizer.shift_by(2)),
                  Edge(Fraction(1), half, Realizer.shift_by(2)),
                  Edge(Fraction(1), ms(cellbox(0, "1/4", 1)),
                       Realizer.shift_by(1))])
    assert [e.source is half for e in g.edges] == [True, False, True, False]
    return g


def _queries(g):
    """The carrier, every source and target, and a box in each cell."""
    return [g.carrier] + [e.source for e in g.edges] + \
        [e.target for e in g.edges] + \
        [ms(cellbox(c, Fraction(1, 4), Fraction(5, 8)))
         for c in g.carrier.cells()]


def test_edges_meeting_matches_a_scan_of_every_edge():
    for g in [*sampled_graphings(), _equal_sources_apart()]:
        for s in _queries(g):
            scan = [(i, e, s.intersect(e.source))
                    for i, e in enumerate(g.edges)
                    if not s.intersect(e.source).is_empty()]
            assert list(g.edges_meeting(s)) == scan


def test_edges_that_share_a_source_share_one_meet(monkeypatch):
    from graphvm.encodings import encode_machine
    # a nondet or prob branch pair shares its source object, and so do
    # the actions of one machine transition
    corpus = [g for seed in range(6) for mode in ("nondet", "prob")
              for g in random_pair(seed, mode)]
    corpus.append(encode_machine(shipped("guess-11.mach")).graphing)
    # the queries and their scans are built before the meets are logged
    cases = [(g, s, list(g.edges_meeting(s)))
             for g in corpus for s in _queries(g)]
    met = log_calls(monkeypatch, (MeasurableSet, "intersect"))
    shared = 0
    for g, s, want in cases:
        met.clear()
        got = list(g.edges_meeting(s))
        assert got == want
        # one meet per distinct source object of the edges over s, each of
        # s with that source
        assert all(args[0] is s for _, args in met)
        assert sorted(id(args[1]) for _, args in met) == sorted(
            {id(g.edges[idx].source) for idx in g.edges_over(s)})
        meet_of = {}
        for _, e, meet in got:
            assert meet_of.setdefault(id(e.source), meet) is meet
        shared += len(got) - len(meet_of)
    assert shared > 0


def _loads(g):
    """The weights over each square of the grid model of ``g``'s sources,
    one list per class of squares that the same sources cover."""
    grid = Grid(b for e in g.edges for b in e.source.boxes)
    return grid.loads((e.weight, e.source.boxes) for e in g.edges)


def _model_class(g, loads):
    """The class of ``g`` from the summed weights over its squares, in the
    branch order of the definition: units first, then admitted weights."""
    heavy = any(sum(weights) > 1 for weights in loads)
    if all(g.weights.is_unit(e.weight) for e in g.edges):
        return (GraphingClass.NONDETERMINISTIC if heavy
                else GraphingClass.DETERMINISTIC)
    if all(g.weights.admits(e.weight) for e in g.edges) and not heavy:
        return GraphingClass.PROBABILISTIC
    return GraphingClass.GENERAL


def test_classify_matches_a_grid_midpoint_reference():
    seen = Counter()
    for mode in ("det", "nondet", "prob"):
        for seed in range(60):
            f, g = random_pair(seed, mode)
            a, b, c = random_triple(seed, mode)
            sampled = [f, g, plug(f, g).graphing, a, b, c,
                       plug(a, b).graphing, plug(b, c).graphing]
            if mode == "prob":
                # weights w -> (1 + w)/2: two halves over one point exceed 1
                sampled += [Graphing.make(
                    x.weights, x.microcosm, x.carrier,
                    [Edge((1 + e.weight) / 2, e.source, e.realizer)
                     for e in x.edges]) for x in sampled]
            for x in sampled:
                got = classify(x)
                assert got == _model_class(x, _loads(x)), (mode, seed)
                seen[got] += 1
    assert set(seen) == set(GraphingClass)


_SWEEP_WEIGHTS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                  Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def _swept_graphing(rng):
    """Edges over cells 0-2 whose boxes constrain one to three of
    coordinates 1-3 on the 1/D grid for D in 2-4 and 6; all weights 1,
    or weights drawn from ``_SWEEP_WEIGHTS``."""
    edges = []
    unit = rng.randrange(2)
    for _ in range(rng.randint(1, 4)):
        boxes = []
        for _ in range(rng.randint(1, 3)):
            coords = {}
            for j in rng.sample((1, 2, 3), rng.randint(1, 3)):
                d = rng.choice((2, 3, 4, 6))
                a = rng.randrange(d)
                coords[j] = RationalInterval.over(a, rng.randint(a + 1, d), d)
            boxes.append(RationalBox.make(rng.randrange(3), coords))
        weight = Fraction(1) if unit else rng.choice(_SWEEP_WEIGHTS)
        edges.append(Edge(weight, ms(*boxes), Realizer.shift_by(1)))
    return Graphing.make(rng.choice((TRIVIAL, PROBABILITIES)),
                         Microcosm.macrocosm(),
                         ms(*(cellbox(c) for c in range(4))), edges)


def _classify_examples():
    """Hand-built graphings with their classes: units over disjoint or
    overlapping sources, weights that add up past 1 over a point or not,
    and units over the probabilities monoid."""
    a = Edge(Fraction(1), ms(cellbox(0, 0, "1/2")), Realizer.shift_by(1))
    b = Edge(Fraction(1), ms(cellbox(0, "1/2", 1)), Realizer.shift_by(2))
    c = Edge(Fraction(1), ms(cellbox(0, 0, "3/4")), Realizer.shift_by(2))
    yield graphing([a, b]), GraphingClass.DETERMINISTIC
    yield graphing([a, c]), GraphingClass.NONDETERMINISTIC
    yield graphing([a], monoid=PROBABILITIES), GraphingClass.DETERMINISTIC
    # over [0, 1/2), 1/2 + 2/3 is past 1 and 1/2 + 1/2 is not
    for weight, want in ((Fraction(2, 3), GraphingClass.GENERAL),
                         (Fraction(1, 2), GraphingClass.PROBABILISTIC)):
        yield graphing([
            Edge(Fraction(1, 2), ms(cellbox(0, 0, "3/4")),
                 Realizer.shift_by(1)),
            Edge(weight, ms(cellbox(0, 0, "1/2")), Realizer.shift_by(2))],
            monoid=PROBABILITIES), want
    # each pair of sources sums to 1, but [1/4, 1/2) lies in all three
    half = Fraction(1, 2)
    edges = [Edge(half, ms(cellbox(0, lo, hi)), Realizer.shift_by(1))
             for lo, hi in [(0, "1/2"), ("1/4", "3/4"), ("1/4", "1/2")]]
    yield graphing(edges, monoid=PROBABILITIES), GraphingClass.GENERAL
    yield (graphing(edges[:2], monoid=PROBABILITIES),
           GraphingClass.PROBABILISTIC)


def test_classify_matches_the_refinement_sums():
    for g, want in _classify_examples():
        assert classify(g) is _model_class(g, _loads(g)) is want, g
    rng = random.Random(30)
    seen = Counter()
    for _ in range(3000):
        g = _swept_graphing(rng)
        over = _loads(g)
        got = classify(g)
        assert got is _model_class(g, over), g
        seen[got] += 1
        # weights short of 1 that add up to the bound over a square
        seen["at the bound"] += any(sum(ws) == 1 and max(ws) < 1
                                    for ws in over)
    assert len(seen) == 5 and min(seen.values()) > 100, seen


def test_classify_builds_no_box(monkeypatch):
    graphings = list(sampled_graphings())
    built = log_calls(monkeypatch, (RationalInterval, "__post_init__"),
                      (RationalBox, "__init__"))
    # every class the sampled graphings take, general aside
    assert {classify(g) for g in graphings} == {
        GraphingClass.DETERMINISTIC, GraphingClass.NONDETERMINISTIC,
        GraphingClass.PROBABILISTIC}
    assert built == []
    RationalBox.make(0, {1: interval(0, "1/2")})
    assert len(built) == 2  # the counters see a construction


def _fractions_in(key):
    """The Fractions anywhere in a nest of tuples and intervals."""
    if isinstance(key, Fraction):
        return [key]
    if isinstance(key, tuple):
        return [f for part in key for f in _fractions_in(part)]
    if isinstance(key, RationalInterval):
        return _fractions_in((key.a, key.b, key.d))
    return []


def test_edge_keys_build_no_fractions_outside_the_weight():
    from graphvm.encodings import TapeLayout, encode_machine, encode_word
    graphings = [encode_word("01101001", TapeLayout(("0", "1")),
                             state_rows=3).graphing]
    graphings += [encode_machine(spec).graphing
                  for _, spec in shipped_machines()]
    assert len(graphings) == 12
    for g in graphings:
        assert g.edges
        for e in g.edges:
            boxes, realizer, weight = e.key()
            assert _fractions_in((boxes, realizer)) == []
            assert weight is e.weight
