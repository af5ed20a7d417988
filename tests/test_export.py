import json
from fractions import Fraction

from graphvm.execution import INFINITY, PathRecord
from graphvm.export import (dumps, frac_str, graphing_dot, graphing_payload,
                            path_payload)
from graphvm.graphing import (Edge, Graphing, GraphingClass, TableWeights,
                              classify, validate)
from graphvm.realizers import Microcosm, Realizer
from graphvm.space import MeasurableSet, RationalBox, interval

# the two-element monoid {e, a} with a*a = a
PARITY = TableWeights(("e", "a"), {("e", "e"): "e", ("e", "a"): "a",
                                   ("a", "e"): "a", ("a", "a"): "a"}, "e")


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
    payload = graphing_payload(g)
    assert payload["weights"] == "table"
    assert [e["weight"] for e in payload["edges"]] == \
        [frac_str(e.weight) for e in g.edges]
    assert sorted(e["weight"] for e in payload["edges"]) == ["a", "e"]
    assert payload["cost"] == "1/1"
    assert json.loads(dumps(payload)) == payload
    e = g.edges[0]
    path = path_payload(PathRecord((("F", 0),), (e.source,), e.source,
                                   e.realizer, e.weight))
    assert path["weight"] == e.weight
    assert path["source"]["measure"] == "1/2"
    dot = graphing_dot(g, {0: "left", 1: "right"})
    assert dot.count('"left" -> "right"') == 2
    assert 'label="a"' in dot and 'label="e"' in dot
