import json
import random
from fractions import Fraction
from math import prod

import pytest

from graphvm.execution import INFINITY, PathRecord, _trail, plug
from graphvm.export import (frac_str, graphing_dot,
                            graphing_payload, path_payload, result_payload,
                            set_payload)
from graphvm.graphing import (Edge, GraphingClass, PROBABILITIES, TRIVIAL,
                              classify, validate)
from graphvm.realizers import Realizer
from graphvm.space import MeasurableSet, RationalBox, RationalInterval, interval
from harness import canonical, cellbox, graphing, log_calls, ms, whole

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def _split_graphing(weights=(HALF, THIRD), monoid=PROBABILITIES):
    """A graphing on cells 0 and 1 with two edges from the left half of
    cell 0: the first to the left half of cell 1, the second to its
    right half."""
    left = ms(cellbox(0, 0, "1/2"))
    edges = [Edge(weights[0], left, Realizer.shift_by(1)),
             Edge(weights[1], left, Realizer.make(1, None, {1: HALF}))]
    return graphing(edges, (0, 1), monoid)


def _into_cell_2(monoid, weight, source):
    """A graphing on cells 1 and 2 with one edge from ``source`` to 2."""
    return graphing([Edge(weight, source, Realizer.shift_by(1))], (1, 2),
                    monoid)


def _diagnostics(result):
    return canonical(result_payload(result))["diagnostics"]


def test_frac_str_reads_rationals():
    assert frac_str(Fraction(6, 4)) == "3/2"
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(-2) == "-2/1"
    assert frac_str(INFINITY) == "inf"


def test_a_graphing_exports_to_json_and_dot():
    g = _split_graphing()
    assert validate(g) == []
    assert classify(g) is GraphingClass.PROBABILISTIC
    payload = canonical(graphing_payload(g))
    assert payload["weights"] == "probabilities"
    assert [e["weight"] for e in payload["edges"]] == \
        [frac_str(e.weight) for e in g.edges]
    assert sorted(e["weight"] for e in payload["edges"]) == ["1/2", "1/3"]
    assert payload["cost"] == "1/1"
    e = g.edges[0]
    path = canonical(path_payload(PathRecord((("F", 0),), (e.source,),
                                              e.source, e.realizer,
                                              e.weight)))
    assert path["weight"] == frac_str(e.weight)
    assert path["source"]["measure"] == "1/2"
    dot = graphing_dot(g, {0: "left", 1: "right"})
    assert dot.count('"left" -> "right"') == 2
    assert 'label="1/2"' in dot and 'label="1/3"' in dot
    # a unit weight goes unlabelled
    unit = _split_graphing((Fraction(1), Fraction(1)), TRIVIAL)
    assert "label" not in graphing_dot(unit, {})


ODD = 'q"\u00fc'  # a quote and a non-ASCII letter


def test_payloads_sort_coordinate_keys_as_strings_and_escape_text():
    source = ms(RationalBox.make(
        0, {2: interval(0, "1/2"), 10: interval("1/4", 1)}))
    realizer = Realizer.make(1, {2: 10, 10: 2},
                             {2: Fraction(-1, 4), 10: Fraction(1, 2)})
    g = graphing([Edge(THIRD, source, realizer)], (0, 1), PROBABILITIES)
    assert validate(g) == []
    text = graphing_payload(g)
    edge, = canonical(text)["edges"]
    assert edge["weight"] == "1/3"
    assert edge["realizer"]["perm"] == {"2": 10, "10": 2}
    assert '"perm":{"10":2,"2":10}' in text
    assert '"offsets":{"10":"1/2","2":"-1/4"}' in text
    assert '"coords":{"10":["1/4","1/1"],"2":["0/1","1/2"]}' in text
    assert '"coords":{"10":["1/2","1/1"],"2":["0/1","3/4"]}' in text
    # the result of a plug across an empty cut keeps the edge as its path
    result = plug(g, graphing([], (5,)))
    result.diagnostics.notes.append(ODD)
    text = result_payload(result)
    payload = canonical(text)
    assert payload["diagnostics"]["notes"] == [ODD]
    assert '"notes":["q\\"\\u00fc"]' in text
    path, = payload["paths"]
    assert path["weight"] == "1/3"
    assert '"perm":{"10":2,"2":10}' in text


def _text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _set_reference(s: MeasurableSet) -> str:
    """A set's payload from ``Fraction`` endpoints and measure, through
    ``json.dumps``."""
    boxes = [{"cell": b.cell,
              "coords": {str(j): [_text(iv.lo), _text(iv.hi)]
                         for j, iv in b.coords}} for b in s.boxes]
    measure = sum((prod(iv.length for _, iv in b.coords) for b in s.boxes),
                  Fraction(0))
    return json.dumps({"boxes": boxes, "measure": _text(measure)},
                      sort_keys=True, separators=(",", ":"))


def _seeded_sets():
    """The empty set, whole cells, and seeded unions of boxes on few
    cells, several often in one cell, over coordinates 1, 2, 9, 10 and
    12, and over denominators whose measures reduce."""
    yield MeasurableSet.empty()
    yield whole(3)
    yield whole(0, 2, 11)
    # a half and two quarters, of measure 4/4, written 1/1
    yield ms(cellbox(0, 0, "1/2"), cellbox(1, "1/4", "1/2"),
             cellbox(1, "3/4", 1))
    rng = random.Random(11)
    for _ in range(200):
        boxes = []
        for _ in range(rng.randint(1, 4)):
            coords = {}
            for j in rng.sample((1, 2, 9, 10, 12), rng.randint(0, 3)):
                d = rng.choice((2, 4, 6, 12, 30))
                a = rng.randrange(d)
                coords[j] = RationalInterval.over(
                    a, rng.randrange(a + 1, d + 1), d)
            boxes.append(RationalBox.make(rng.choice((0, 1, 7)), coords))
        yield MeasurableSet.from_boxes(boxes)


def test_a_set_is_written_as_json_writes_it_from_fractions():
    sets = list(_seeded_sets())
    for s in sets:
        assert set_payload(s) == _set_reference(s), s
    # the seeded sets hold what the writer tells apart
    assert any(len(s.boxes) > 1 == len(s.cells()) for s in sets)
    assert any(j >= 10 for s in sets for b in s.boxes for j, _ in b.coords)
    assert any(s.measure().denominator < s._measure_ratio()[1] for s in sets)


@pytest.mark.parametrize("monoid, weights, unresolved", [
    (TRIVIAL, (Fraction(1), Fraction(1)), "1/1"),
    (PROBABILITIES, (Fraction(1), Fraction(0)), "1/2")],
    ids=["trivial", "probabilities"])
def test_a_budget_leaves_the_plug_unclean(monoid, weights, unresolved):
    result = plug(_split_graphing(weights, monoid),
                  _into_cell_2(monoid, Fraction(1), whole(1)), max_steps=0)
    assert not result.diagnostics.clean()
    diag = _diagnostics(result)
    assert diag["complete"] is False
    assert diag["unresolved_mass"] == unresolved


def test_a_dead_path_exports_its_source_and_weighted_mass():
    # the 1/3 edge lands on [1/2, 1) of cell 1, where g has no source
    g = _into_cell_2(PROBABILITIES, Fraction(1), ms(cellbox(1, 0, "1/2")))
    result = plug(_split_graphing(), g)
    assert result.diagnostics.clean()
    payload = canonical(result_payload(result))
    assert payload["diagnostics"]["dead_mass"] == "1/6"
    dead, = payload["dead_paths"]
    assert dead["weight"] == "1/3"
    assert dead["source"]["measure"] == "1/2"
    assert [p["weight"] for p in payload["paths"]] == ["1/2"]
    assert payload["graphing"]["edges"][0]["weight"] == "1/2"


@pytest.mark.parametrize("back, kind, mass", [
    (Fraction(1), "looping_mass", "1/1"),
    (HALF, "unresolved_mass", "1/2")], ids=["looping", "decaying"])
def test_a_repeat_exports_its_weighted_mass(back, kind, mass):
    # 0 -> 5 -> 6 -> 5: the second entry into g's edge repeats the first
    # with the same composite, under the same weight when the way back
    # weighs 1 and under half of it when it weighs 1/2
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5)),
                  Edge(back, whole(6), Realizer.shift_by(-1))], (0, 5, 6),
                 PROBABILITIES)
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))], (5, 6),
                 PROBABILITIES)
    result = plug(f, g)
    diag = _diagnostics(result)
    assert diag["complete"] is True and diag["steps_used"] == 3
    assert {name: diag[name] for name in ("looping_mass", "unresolved_mass")} \
        == {"looping_mass": "0/1", "unresolved_mass": "0/1", kind: mass}
    assert result.graphing.edges == ()


def test_a_result_writes_each_shared_set_and_prefix_once(monkeypatch):
    from graphvm import export
    # 0 -> 5 -> 6 in two steps; from 6, only the left half goes on, to 9,
    # and the right half dies: the dead path is the two-step prefix of
    # the result path, and the first step's region is f's first source
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(6, 0, "1/2")),
                       Realizer.shift_by(3))], (0, 5, 6, 9))
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))], (5, 6))
    result = plug(f, g)
    (dead_node, _), = result.diagnostics._dead
    node, = result.exit_nodes
    # the dead path is the result path's parent node: its two steps are
    # the result path's first two, shared
    assert node[4] is dead_node
    trail, dead_trail = _trail(node), _trail(dead_node)
    assert len(trail) == 3 and trail[:2] == dead_trail
    assert all(a is b for a, b in zip(trail, dead_trail))
    assert trail[0][1] is f.edges[0].source
    log = log_calls(monkeypatch, (export, "set_payload"), (export, "_step"))
    payload = canonical(result_payload(result))
    written = [args[0] for name, args in log if name == "set_payload"]
    pieces = ([result.graphing.carrier]
              + [s for e in result.graphing.edges for s in (e.source, e.target)]
              + [step[1] for t in (trail, dead_trail) for step in t])
    # each set written once, and the dead path's source, built here, too
    assert len({id(s) for s in written}) == len(written) \
        == len({id(s) for s in pieces}) + 1
    assert {id(s) for s in pieces} < {id(s) for s in written}
    # each step written once: once per distinct node, so the shared
    # prefix is not written again
    assert sum(name == "_step" for name, _ in log) == len(trail) \
        == len({id(n) for t in (trail, dead_trail) for n in t})
    monkeypatch.undo()
    for key, records in (("dead_paths", result.dead_paths),
                         ("paths", result.paths)):
        assert payload[key] == [canonical(path_payload(r)) for r in records]
    assert [len(p["steps"]) for p in payload["dead_paths"] + payload["paths"]] \
        == [2, 3]
