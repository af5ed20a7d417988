import json
from fractions import Fraction

import pytest

from graphvm.execution import (INFINITY, T_CONL, T_DET, T_NL, PathRecord,
                               Regions, Verdict, accept_mass, evaluate_test,
                               plug, reject_mass, t_prob)
from graphvm.export import (frac_str, graphing_dot, graphing_payload,
                            path_payload, result_payload)
from graphvm.graphing import (Edge, Graphing, GraphingClass, TableWeights,
                              classify, validate)
from graphvm.realizers import Microcosm, Realizer
from graphvm.space import MeasurableSet, RationalBox, interval

# the two-element monoid {e, a} with a*a = a
PARITY = TableWeights(("e", "a"), {("e", "e"): "e", ("e", "a"): "a",
                                   ("a", "e"): "a", ("a", "a"): "a"}, "e")


def canonical(text):
    """The data of a payload's text, which must be the compact
    sorted-key form ``json.dumps`` gives that data."""
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":"))
    return data


def _table_graphing():
    left = MeasurableSet.of(RationalBox.make(0, {1: interval(0, "1/2")}))
    carrier = MeasurableSet.of(RationalBox.make(0), RationalBox.make(1))
    edges = [Edge("a", left, Realizer.shift_by(1)),
             Edge("e", left, Realizer.make(1, None, {1: Fraction(1, 2)}))]
    return Graphing.make(PARITY, Microcosm.macrocosm(), carrier, edges)


def test_frac_str_reads_rationals_and_writes_other_weights_as_text():
    assert frac_str(Fraction(6, 4)) == "3/2"
    assert frac_str(Fraction(0)) == "0/1"
    assert frac_str(-2) == "-2/1"
    assert frac_str(INFINITY) == "inf"
    assert frac_str("a") == "a"


def test_a_table_weighted_graphing_exports_to_json_and_dot():
    g = _table_graphing()
    assert validate(g) == []
    assert classify(g) is GraphingClass.GENERAL
    payload = canonical(graphing_payload(g))
    assert payload["weights"] == "table"
    assert [e["weight"] for e in payload["edges"]] == \
        [frac_str(e.weight) for e in g.edges]
    assert sorted(e["weight"] for e in payload["edges"]) == ["a", "e"]
    assert payload["cost"] == "1/1"
    e = g.edges[0]
    path = canonical(path_payload(PathRecord((("F", 0),), (e.source,),
                                              e.source, e.realizer,
                                              e.weight)))
    assert path["weight"] == e.weight
    assert path["source"]["measure"] == "1/2"
    dot = graphing_dot(g, {0: "left", 1: "right"})
    assert dot.count('"left" -> "right"') == 2
    assert 'label="a"' in dot and 'label="e"' in dot


ODD = 'q"\u00fc'  # a quote and a non-ASCII letter
ODD_WEIGHTS = TableWeights(("e", ODD), {
    (a, b): b if a == "e" else a for a in ("e", ODD) for b in ("e", ODD)},
    "e")


def test_payloads_sort_coordinate_keys_as_strings_and_escape_text():
    source = MeasurableSet.of(RationalBox.make(
        0, {2: interval(0, "1/2"), 10: interval("1/4", 1)}))
    realizer = Realizer.make(1, {2: 10, 10: 2},
                             {2: Fraction(-1, 4), 10: Fraction(1, 2)})
    g = Graphing.make(ODD_WEIGHTS, Microcosm.macrocosm(), _cells(0, 1),
                      [Edge(ODD, source, realizer)])
    assert validate(g) == []
    text = graphing_payload(g)
    edge, = canonical(text)["edges"]
    assert edge["weight"] == ODD and '"weight":"q\\"\\u00fc"' in text
    assert edge["realizer"]["perm"] == {"2": 10, "10": 2}
    assert '"perm":{"10":2,"2":10}' in text
    assert '"offsets":{"10":"1/2","2":"-1/4"}' in text
    assert '"coords":{"10":["1/4","1/1"],"2":["0/1","1/2"]}' in text
    assert '"coords":{"10":["1/2","1/1"],"2":["0/1","3/4"]}' in text
    e, = g.edges
    path = path_payload(PathRecord((("F", 0),), (e.source,), e.source,
                                   e.realizer, e.weight))
    assert canonical(path)["weight"] == ODD


# A table weight has no size: a plug's diagnostics add the bare measure of
# a region on a path that weighs one, and a rational weight scales it.
BOOLEAN = TableWeights((Fraction(0), Fraction(1)),
                       {(a, b): a * b for a in (Fraction(0), Fraction(1))
                        for b in (Fraction(0), Fraction(1))}, Fraction(1))


def _cells(*cells):
    return MeasurableSet.of(*(RationalBox.make(c) for c in cells))


def _into_cell_2(monoid, weight, source):
    """A graphing on cells 1 and 2 with one edge from ``source`` to 2."""
    return Graphing.make(monoid, Microcosm.macrocosm(), _cells(1, 2),
                         [Edge(weight, source, Realizer.shift_by(1))])


def _diagnostics(result):
    return canonical(result_payload(result))["diagnostics"]


@pytest.mark.parametrize("monoid, weights, unresolved", [
    (PARITY, ("a", "e"), "1/1"),
    (BOOLEAN, (Fraction(1), Fraction(0)), "1/2")])
def test_a_table_weighted_budget_leaves_the_plug_unclean(monoid, weights,
                                                         unresolved):
    left = MeasurableSet.of(RationalBox.make(0, {1: interval(0, "1/2")}))
    f = Graphing.make(monoid, Microcosm.macrocosm(), _cells(0, 1),
                      [Edge(weights[0], left, Realizer.shift_by(1)),
                       Edge(weights[1], left,
                            Realizer.make(1, None, {1: Fraction(1, 2)}))])
    result = plug(f, _into_cell_2(monoid, monoid.one(), _cells(1)),
                  max_steps=0)
    assert not result.diagnostics.clean()
    diag = _diagnostics(result)
    assert diag["complete"] is False
    assert diag["unresolved_mass"] == unresolved


def test_a_table_weighted_dead_path_exports_its_bare_measure():
    # f's "e" edge lands on [1/2, 1) of cell 1, where g has no source
    g = _into_cell_2(PARITY, "a", MeasurableSet.of(
        RationalBox.make(1, {1: interval(0, "1/2")})))
    result = plug(_table_graphing(), g)
    assert result.diagnostics.clean()
    payload = canonical(result_payload(result))
    assert payload["diagnostics"]["dead_mass"] == "1/2"
    dead, = payload["dead_paths"]
    assert dead["weight"] == "e"
    assert dead["source"]["measure"] == "1/2"
    assert [p["weight"] for p in payload["paths"]] == ["a"]
    assert payload["graphing"]["edges"][0]["weight"] == "a"


@pytest.mark.parametrize("back, kind", [("e", "looping_mass"),
                                        ("a", "unresolved_mass")])
def test_a_table_weighted_repeat_adds_its_bare_measure(back, kind):
    # 0 -> 5 -> 6 -> 5: the second entry into g's edge repeats the first
    # with the same composite, under the same weight when the way back
    # weighs "e" and under another when it weighs "a"
    f = Graphing.make(PARITY, Microcosm.macrocosm(), _cells(0, 5, 6),
                      [Edge("e", _cells(0), Realizer.shift_by(5)),
                       Edge(back, _cells(6), Realizer.shift_by(-1))])
    g = Graphing.make(PARITY, Microcosm.macrocosm(), _cells(5, 6),
                      [Edge("e", _cells(5), Realizer.shift_by(1))])
    result = plug(f, g)
    diag = _diagnostics(result)
    assert diag["complete"] is True and diag["steps_used"] == 3
    assert {name: diag[name] for name in ("looping_mass", "unresolved_mass")} \
        == {"looping_mass": "0/1", "unresolved_mass": "0/1", kind: "1/1"}
    assert result.graphing.edges == ()


@pytest.mark.parametrize("test", [T_DET, T_NL, T_CONL, t_prob()],
                         ids=lambda t: t.kind)
def test_a_table_weighted_result_is_evaluated_by_its_bare_measure(test):
    # both result edges weigh "a" and land half of cell 2 each
    result = plug(_table_graphing(), _into_cell_2(PARITY, "a", _cells(1)))
    assert [e.weight for e in result.graphing.edges] == ["a", "a"]
    landing_in_2 = Regions(_cells(0), _cells(2), _cells(3))
    assert accept_mass(result, landing_in_2) == 1
    assert reject_mass(result, landing_in_2) == 0
    assert evaluate_test(result, test, landing_in_2) is Verdict.ACCEPT
    swapped = Regions(_cells(0), _cells(3), _cells(2))
    assert evaluate_test(result, test, swapped) is Verdict.REJECT
