import itertools
from fractions import Fraction

import pytest

from graphvm.execution import (INFINITY, MeasurementMap, T_CONL, T_DET,
                               T_NL, Regions, Verdict, accept_mass, cycles,
                               evaluate_test, landing, measurement, plug,
                               reject_mass, t_prob)
from graphvm.graphing import (Edge, Graphing, GraphingClass, PROBABILITIES,
                              TRIVIAL, classify, disjoint_union, validate)
from graphvm.realizers import Microcosm, Realizer
from graphvm.sampling import random_pair, random_triple
from graphvm.space import MeasurableSet, RationalBox, interval


def ms(*boxes):
    return MeasurableSet.from_boxes(boxes)


def cellbox(cell, lo=None, hi=None):
    if lo is None:
        return RationalBox.make(cell)
    return RationalBox.make(cell, {1: interval(lo, hi)})


def graphing(edges, cells, monoid=TRIVIAL):
    return Graphing.make(monoid, Microcosm.macrocosm(),
                         ms(*[cellbox(c) for c in cells]), edges)


def test_plug_result_validates_whichever_arity_comes_first():
    # a member of each family of the chain, with the box it is defined on;
    # f carries cell 0 to 17 by a member, g carries 17 to 18 by the inverse
    # of a member, so over m1 this is the chain shift 17 then shift 1
    members = [
        (Microcosm.m1(), Realizer.identity(), {}),
        (Microcosm.mi(3), Realizer.head_swap(3), {}),
        (Microcosm.mi(5), Realizer.make(0, {1: 4, 4: 5, 5: 1}), {}),
        (Microcosm.m_infinity(), Realizer.head_swap(7), {}),
        (Microcosm.macrocosm(), Realizer.offset({2: Fraction(1, 2)}),
         {2: interval(0, "1/2")}),
    ]

    def one_edge(m, source, r, shift):
        return Graphing.make(
            TRIVIAL, m, ms(cellbox(source.cell), cellbox(source.cell + shift)),
            [Edge(Fraction(1), ms(source), r.compose(Realizer.shift_by(shift)))])

    for (ma, ra, ca), (mb, rb, cb) in itertools.product(members, repeat=2):
        f = one_edge(ma, RationalBox.make(0, ca), ra, 17)
        g = one_edge(mb, rb.apply_box(RationalBox.make(17, cb)), rb.invert(), 1)
        for first, second in ((f, g), (g, f)):
            assert validate(first) == validate(second) == []
            result = plug(first, second)
            assert len(result.graphing.edges) == 1
            assert validate(result.graphing) == []
            assert result.graphing.microcosm == ma.join(mb)


def test_empty_cut_is_disjoint_union():
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(1))],
                 (0, 1))
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(1))],
                 (5, 6))
    result = plug(f, g)
    assert result.diagnostics.clean()
    assert result.graphing.same_as(disjoint_union(f, g))


def test_two_step_composition():
    # f: 0 -> 5 (into the cut), g: 5 -> 9 (out of it)
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(5))],
                 (0, 5))
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(4))],
                 (5, 9))
    result = plug(f, g)
    assert len(result.graphing.edges) == 1
    e = result.graphing.edges[0]
    assert e.source == ms(cellbox(0))
    assert e.realizer == Realizer.shift_by(9)
    assert result.paths[0].steps == (("F", 0), ("G", 0))


def test_partial_overlap_splits_domains():
    # g continues only on the left half of the cut region
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(5))],
                 (0, 5))
    g = graphing([Edge(Fraction(1), ms(cellbox(5, 0, "1/2")),
                       Realizer.shift_by(4))], (5, 9))
    result = plug(f, g)
    assert len(result.graphing.edges) == 1
    assert result.graphing.edges[0].source == ms(cellbox(0, 0, "1/2"))
    assert result.diagnostics.dead_mass == Fraction(1, 2)
    assert result.dead_paths[0].source == ms(cellbox(0, "1/2", 1))


def test_weights_multiply_along_paths():
    f = graphing([Edge(Fraction(1, 2), ms(cellbox(0)), Realizer.shift_by(5))],
                 (0, 5), PROBABILITIES)
    g = graphing([Edge(Fraction(1, 3), ms(cellbox(5)), Realizer.shift_by(4))],
                 (5, 9), PROBABILITIES)
    result = plug(f, g)
    assert result.graphing.edges[0].weight == Fraction(1, 6)


def test_weight_coherence_by_replaying_steps():
    for seed in range(10):
        f, g = random_pair(seed, "prob")
        result = plug(f, g)
        sides = {"F": f, "G": g}
        for record, edge in zip(result.paths, result.graphing.edges):
            product = Fraction(1)
            replay = Realizer.identity()
            for side, idx in record.steps:
                product *= sides[side].edges[idx].weight
                replay = replay.compose(sides[side].edges[idx].realizer)
            assert product == edge.weight
            assert replay == edge.realizer


def test_budget_exhaustion_is_flagged_partial():
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(6)), Realizer.shift_by(-1))],
                 (0, 5, 6))
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(1))],
                 (5, 6))
    result = plug(f, g, max_steps=1)
    assert not result.diagnostics.complete
    assert result.diagnostics.unresolved_mass > 0


def test_exact_loop_is_settled_divergence():
    # f: 5 -> 6, g: 6 -> 5; both regions inside the cut, a pure 2-cycle
    # reachable from outside via 0 -> 5
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(6)), Realizer.shift_by(-1))],
                 (0, 5, 6))
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(1))],
                 (5, 6))
    result = plug(f, g)
    assert result.diagnostics.complete
    assert result.diagnostics.looping_mass > 0
    assert result.diagnostics.unresolved_mass == 0
    assert len(result.graphing.edges) == 0


def test_undetermined_only_when_it_could_flip():
    regions = Regions(ms(cellbox(100)), ms(cellbox(100)), ms(cellbox(101)))
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(6)), Realizer.shift_by(-1))],
                 (0, 5, 6))
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(1))],
                 (5, 6))
    starved = plug(f, g, max_steps=1)
    assert evaluate_test(starved, T_DET, regions) is Verdict.UNDETERMINED
    assert evaluate_test(starved, T_CONL, regions) is Verdict.UNDETERMINED


def test_closure_properties_random():
    for mode, wanted in [("det", GraphingClass.DETERMINISTIC),
                         ("nondet", GraphingClass.NONDETERMINISTIC),
                         ("prob", GraphingClass.PROBABILISTIC)]:
        for seed in range(40):
            f, g = random_pair(seed, mode)
            result = plug(f, g)
            assert result.diagnostics.clean()
            got = classify(result.graphing)
            assert got in (wanted, GraphingClass.DETERMINISTIC), (mode, seed)


def test_associativity_random():
    for seed in range(25):
        f, g, h = random_triple(seed, "det")
        assert f.carrier.intersect(h.carrier).is_empty()
        left = plug(plug(f, g).graphing, h)
        right = plug(f, plug(g, h).graphing)
        assert left.diagnostics.clean() and right.diagnostics.clean()
        assert left.graphing.same_as(right.graphing), seed


def _start_scan_pairs():
    """Seeded sampling pairs and the four plugs of seeded triples in every
    mode, then every shipped machine against its words up to length 2."""
    import os
    from graphvm.encodings import encode_machine, encode_word
    from graphvm.machines import load_machine, words_up_to
    for mode in ("det", "nondet", "prob"):
        for seed in range(10):
            yield random_pair(seed, mode)
            f, g, h = random_triple(seed, mode)
            fg, gh = plug(f, g).graphing, plug(g, h).graphing
            yield from ((f, g), (g, h), (fg, h), (f, gh))
    machines = os.path.join(os.path.dirname(__file__), "..", "machines")
    for name in sorted(os.listdir(machines)):
        m = encode_machine(load_machine(os.path.join(machines, name)))
        for word in words_up_to(m.spec.alphabet, 2):
            for one_way in (False, True):
                yield m.graphing, encode_word(
                    word, m.layout, len(m.spec.states), one_way).graphing


def test_starts_through_the_edge_index_match_the_per_edge_scan():
    for f, g in _start_scan_pairs():
        cut = f.carrier.intersect(g.carrier)
        for side in (f, g):
            brute = [(idx, start) for idx, e in enumerate(side.edges)
                     for start in [e.source.subtract(cut)]
                     if not start.is_empty()]
            indexed = [(idx, start) for idx, _, start
                       in side.edges_meeting(side.carrier.subtract(cut))]
            assert indexed == brute
        assert plug(f, g).graphing.carrier == \
            f.carrier.union(g.carrier).subtract(cut)


def test_weight_monoid_mismatch_rejected():
    from graphvm.graphing import TableWeights
    table = TableWeights(("e",), {("e", "e"): "e"}, "e")
    f = Graphing.make(table, Microcosm.macrocosm(), ms(cellbox(0)), ())
    g = graphing([], (0,), PROBABILITIES)
    with pytest.raises(ValueError):
        plug(f, g)


def test_forced_two_cycle():
    A, B = ms(cellbox(0)), ms(cellbox(1))
    carrier = A.union(B)
    f = Graphing.make(TRIVIAL, Microcosm.m1(), carrier,
                      [Edge(Fraction(1), A, Realizer.shift_by(1))])
    g = Graphing.make(TRIVIAL, Microcosm.m1(), carrier,
                      [Edge(Fraction(1), B, Realizer.shift_by(-1))])
    got = cycles(f, g, max_len=2)
    assert len(got) == 1
    assert got[0].support == A
    assert measurement(f, g, MeasurementMap.constant(Fraction(1)), 2) == 1
    assert measurement(f, g, MeasurementMap.constant(INFINITY), 2) is INFINITY


def test_disjoint_carriers_have_no_cycles():
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(1))],
                 (0, 1))
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(1))],
                 (5, 6))
    assert cycles(f, g, max_len=6) == []
    assert measurement(f, g, MeasurementMap.constant(Fraction(1))) == 0


def test_machine_word_runs_are_acyclic():
    from graphvm.encodings import encode_machine, encode_word
    from graphvm.machines import parse_machine
    ones = parse_machine("""
name: ones
alphabet: 0 1
heads: 1
states: s0
mode: det
twoway: true
s0, * -> reject
s0, 0 -> advance goto s0
s0, 1 -> accept
""")
    m = encode_machine(ones)
    for word in ("0", "11", "01"):
        enc = encode_word(word, m.layout)
        assert cycles(m.graphing, enc.graphing, max_len=6) == []


def test_measurement_monotone_in_cycle_length():
    A, B = ms(cellbox(0)), ms(cellbox(1))
    carrier = A.union(B)
    f = Graphing.make(TRIVIAL, Microcosm.m1(), carrier,
                      [Edge(Fraction(1), A, Realizer.shift_by(1))])
    g = Graphing.make(TRIVIAL, Microcosm.m1(), carrier,
                      [Edge(Fraction(1), B, Realizer.shift_by(-1))])
    m = MeasurementMap.constant(Fraction(1))
    values = [measurement(f, g, m, k) for k in (2, 4, 6)]
    assert values == sorted(values)


def test_measurement_symmetric_in_arguments():
    for seed in range(8):
        f, g = random_pair(seed, "det")
        m = MeasurementMap.constant(Fraction(1))
        assert measurement(f, g, m, 6) == measurement(g, f, m, 6)


def test_unit_loop_with_branch_keeps_verdict_exact():
    # inside the cut: 5 -> 6 -> 5 unit loop, but 6 also exits to 9
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(6)), Realizer.shift_by(-1)),
                  Edge(Fraction(1), ms(cellbox(6)), Realizer.shift_by(3))],
                 (0, 5, 6, 9))
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(1))],
                 (5, 6))
    result = plug(f, g)
    assert result.diagnostics.complete
    assert result.diagnostics.unresolved_mass == 0
    assert result.diagnostics.looping_mass > 0
    # the exit through cell 9 is found exactly once
    exits = [e for e in result.graphing.edges
             if list(e.target.cells()) == [9]]
    assert len(exits) == 1


def test_prob_test_verdicts():
    regions = Regions(ms(cellbox(0)), ms(cellbox(10)), ms(cellbox(11)))
    half = graphing([Edge(Fraction(1, 2), ms(cellbox(0)), Realizer.shift_by(5)),
                     Edge(Fraction(1, 2), ms(cellbox(0)), Realizer.shift_by(6))],
                    (0, 5, 6), PROBABILITIES)
    lands = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(5)),
                      Edge(Fraction(1), ms(cellbox(6)), Realizer.shift_by(5))],
                     (5, 6, 10, 11), PROBABILITIES)
    result = plug(half, lands)
    # half the mass lands in accept, half in reject
    assert accept_mass(result, regions) == Fraction(1, 2)
    assert evaluate_test(result, t_prob(Fraction(1, 2)), regions) \
        is Verdict.REJECT  # strict cutpoint
    assert evaluate_test(result, t_prob(Fraction(1, 3)), regions) \
        is Verdict.ACCEPT


def test_landed_masses_reject_a_null_launch_region():
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(10))],
                 (0, 10))
    result = plug(f, graphing([], (5,)))
    null = Regions(MeasurableSet.empty(), ms(cellbox(10)), ms(cellbox(11)))
    with pytest.raises(ValueError):
        accept_mass(result, null)
    with pytest.raises(ValueError):
        reject_mass(result, null)


def test_weightless_edge_lands_without_mass():
    regions = Regions(ms(cellbox(0)), ms(cellbox(10)), ms(cellbox(11)))
    f = graphing([Edge(Fraction(0), ms(cellbox(0)), Realizer.shift_by(10)),
                  Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(11))],
                 (0, 10, 11), PROBABILITIES)
    result = plug(f, graphing([], (5,)))
    weightless, = [e for e in result.graphing.edges if e.weight == 0]
    assert landing(weightless, regions, regions.accept) == ms(cellbox(10))
    assert accept_mass(result, regions) == 0
    assert reject_mass(result, regions) == 1


def test_decaying_revisit_is_unresolved_not_looping():
    # 0 -> 5 -> 6 -> 5: the second entry into G's edge repeats the first
    # with the same composite but half the weight
    f = graphing([Edge(Fraction(1), ms(cellbox(0)), Realizer.shift_by(5)),
                  Edge(Fraction(1, 2), ms(cellbox(6)), Realizer.shift_by(-1))],
                 (0, 5, 6), PROBABILITIES)
    g = graphing([Edge(Fraction(1), ms(cellbox(5)), Realizer.shift_by(1))],
                 (5, 6), PROBABILITIES)
    result = plug(f, g)
    diag = result.diagnostics
    assert diag.complete
    assert diag.steps_used == 3
    assert diag.unresolved_mass == Fraction(1, 2)
    assert diag.looping_mass == 0
    assert result.graphing.edges == ()


def test_cycle_closing_only_from_a_later_rotation_is_not_kept():
    # G then F returns into G's source, but the least rotation, F then G,
    # does not return into F's
    f = graphing([Edge(Fraction(1), ms(cellbox(0, "1/2", "3/4")),
                       Realizer.identity())], (0,))
    g = graphing([Edge(Fraction(1), ms(cellbox(0, "1/4", "3/4")),
                       Realizer.offset({1: Fraction(1, 4)}))], (0,))
    assert cycles(f, g, max_len=4) == []


# -- the table that language shares across its words --------------------------

def _shipped_machines():
    import os
    from graphvm.encodings import encode_machine
    from graphvm.machines import load_machine
    here = os.path.join(os.path.dirname(__file__), "..", "machines")
    for name in sorted(os.listdir(here)):
        yield name, encode_machine(load_machine(os.path.join(here, name)))


def _tests_for(mode):
    """Every test the mode allows: the prob test needs probabilities."""
    tests = [T_DET, T_NL, T_CONL]
    return tests if mode == "nondet" else tests + [t_prob()]


def test_a_shared_table_gives_the_same_results():
    from graphvm import export
    from graphvm.encodings import run_word
    from graphvm.execution import language
    from graphvm.machines import words_up_to
    for name, m in _shipped_machines():
        for one_way in (False, True):
            words = list(words_up_to(m.spec.alphabet, 4))
            memo: dict = {}
            plain = {}
            for word in words:
                alone = run_word(m, word, one_way=one_way)
                shared, _ = run_word(m, word, one_way=one_way, memo=memo)
                assert export.dumps(export.result_payload(shared)) == \
                    export.dumps(export.result_payload(alone[0])), \
                    (name, one_way, word)
                plain[word] = alone
            for test in _tests_for(m.spec.mode):
                want = {word: evaluate_test(result, test, regions)
                        for word, (result, regions) in plain.items()}
                assert language(m, test, 4, one_way=one_way).verdicts == \
                    want, (name, one_way, test)


def _counting(monkeypatch):
    """Wrap ``Realizer.compose`` and ``MeasurableSet.intersect`` so that
    each computation is logged as ``(method, a, b)``; the log and a flag
    telling whether the call came while ``run_word``'s plug ran."""
    from graphvm import encodings
    log = []
    inside = [False]
    for cls, name in ((Realizer, "compose"), (MeasurableSet, "intersect")):
        method = getattr(cls, name)

        def counted(a, b, method=method, name=name):
            log.append((name, a, b, inside[0]))
            return method(a, b)

        monkeypatch.setattr(cls, name, counted)
    real_plug = encodings.plug

    def flagged_plug(*args, **kwargs):
        inside[0] = True
        try:
            return real_plug(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(encodings, "plug", flagged_plug)
    return log


def test_language_computes_each_operand_pair_once_per_call(monkeypatch):
    from graphvm.execution import language
    machines = dict(_shipped_machines())
    log = _counting(monkeypatch)
    for name, test in (("one-then-zero.mach", T_DET), ("guess-11.mach", T_NL),
                       ("coin-flip.mach", t_prob())):
        log.clear()
        first = language(machines[name], test, 4)
        first_log = list(log)
        # evaluate_test's landing meets lie outside the table; every
        # compose and intersect a plug does goes through it
        in_plug = [(method, a, b) for method, a, b, flag in first_log if flag]
        assert in_plug and len(set(in_plug)) == len(in_plug), name
        assert any(method == "compose" for method, _, _ in in_plug), name
        # the table is dropped with the call: the same call again
        # computes everything again
        log.clear()
        again = language(machines[name], test, 4)
        assert again.verdicts == first.verdicts
        assert len(log) == len(first_log), name


def test_a_lone_plug_keeps_no_table(monkeypatch):
    from graphvm import execution
    from graphvm.encodings import encode_word
    machines = dict(_shipped_machines())
    m = machines["one-then-zero.mach"]
    word = encode_word("0110", m.layout, len(m.spec.states)).graphing
    f, g = random_pair(1, "nondet")
    log = _counting(monkeypatch)

    def no_table(*args):
        raise AssertionError("a lone plug made a table")

    monkeypatch.setattr(execution, "_memoised", no_table)
    for left, right in ((m.graphing, word), (f, g)):
        log.clear()
        first = plug(left, right)
        counted = len(log)
        log.clear()
        second = plug(left, right)
        assert counted > 0 and len(log) == counted
        assert second.graphing.same_as(first.graphing)
