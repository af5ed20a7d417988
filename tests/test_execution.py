import itertools
from collections import Counter
from fractions import Fraction

import pytest

from eagerplug import (assert_matches_eager, assert_matches_eager_at_budgets,
                       eager_plug)
from graphvm.execution import (INFINITY, T_CONL, T_DET, T_NL, Regions, Test,
                               Verdict, _split, _trail, accept_mass, cycles,
                               evaluate_test, landing, measurement, plug,
                               reject_mass, t_prob)
from graphvm.graphing import (Edge, Graphing, GraphingClass, PROBABILITIES,
                              TRIVIAL, classify, disjoint_union, validate)
from graphvm.realizers import Microcosm, Realizer
from graphvm.sampling import random_pair, random_triple
from graphvm.space import MeasurableSet, RationalBox, interval
from harness import (cellbox, graphing, log_calls, machine_run_results, ms,
                     sampled_plug_results, seeded_specs, shipped,
                     shipped_machines, whole)


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
            TRIVIAL, m, whole(source.cell, source.cell + shift),
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
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(1))], (0, 1))
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))], (5, 6))
    result = plug(f, g)
    assert result.diagnostics.clean()
    assert result.graphing.same_as(disjoint_union(f, g))


def test_two_step_composition():
    # f: 0 -> 5 (into the cut), g: 5 -> 9 (out of it)
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5))], (0, 5))
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(4))], (5, 9))
    result = plug(f, g)
    assert len(result.graphing.edges) == 1
    e = result.graphing.edges[0]
    assert e.source == whole(0)
    assert e.realizer == Realizer.shift_by(9)
    assert result.paths[0].steps == (("F", 0), ("G", 0))


def test_partial_overlap_splits_domains():
    # g continues only on the left half of the cut region
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5))], (0, 5))
    g = graphing([Edge(Fraction(1), ms(cellbox(5, 0, "1/2")),
                       Realizer.shift_by(4))], (5, 9))
    result = plug(f, g)
    assert len(result.graphing.edges) == 1
    assert result.graphing.edges[0].source == ms(cellbox(0, 0, "1/2"))
    assert result.diagnostics.dead_mass == Fraction(1, 2)
    assert result.dead_paths[0].source == ms(cellbox(0, "1/2", 1))


def test_weights_multiply_along_paths():
    f = graphing([Edge(Fraction(1, 2), whole(0), Realizer.shift_by(5))],
                 (0, 5), PROBABILITIES)
    g = graphing([Edge(Fraction(1, 3), whole(5), Realizer.shift_by(4))],
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


def _two_cycle():
    """f: 0 -> 5 and 6 -> 5, g: 5 -> 6; both of the cut's cells lie on a
    pure 2-cycle, reachable from outside via 0 -> 5."""
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5)),
                  Edge(Fraction(1), whole(6), Realizer.shift_by(-1))],
                 (0, 5, 6))
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))], (5, 6))
    return f, g


def test_budget_exhaustion_is_flagged_partial():
    f, g = _two_cycle()
    result = plug(f, g, max_steps=1)
    assert not result.diagnostics.complete
    assert result.diagnostics.unresolved_mass > 0


def test_exact_loop_is_settled_divergence():
    f, g = _two_cycle()
    result = plug(f, g)
    assert result.diagnostics.complete
    assert result.diagnostics.looping_mass > 0
    assert result.diagnostics.unresolved_mass == 0
    assert len(result.graphing.edges) == 0
    assert_matches_eager_at_budgets(f, g)


def test_undetermined_only_when_it_could_flip():
    regions = Regions(whole(100), whole(100), whole(101))
    f, g = _two_cycle()
    starved = plug(f, g, max_steps=1)
    assert evaluate_test(starved, T_DET, regions) is Verdict.UNDETERMINED
    assert evaluate_test(starved, T_CONL, regions) is Verdict.UNDETERMINED


def test_sampling_refuses_an_unknown_mode_or_property():
    from graphvm.sampling import property_holds
    # an unknown mode would draw split weights over the trivial monoid,
    # and an unknown property kind would run the associativity check
    for draw in (lambda: random_pair(1, "banana"),
                 lambda: random_triple(1, "banana"),
                 lambda: property_holds("closure", 1, "banana", 100)):
        with pytest.raises(ValueError, match="unknown mode 'banana'"):
            draw()
    with pytest.raises(ValueError, match="unknown property 'closur'"):
        property_holds("closur", 1, "det", 100)


def test_sampling_draws_what_randrange_and_choice_draw():
    # sampling reads ``getrandbits`` through ``_below``, as this
    # interpreter's ``randrange`` and ``choice`` do: if they ever draw
    # otherwise, this fails before the seeded digests move
    import random
    from graphvm.sampling import _below
    for seed in range(6):
        mine, theirs = random.Random(seed), random.Random(seed)
        bits = mine.getrandbits
        for n in range(1, 17):
            seq = list(range(100, 100 + n))
            for _ in range(3):
                assert _below(bits, n) == theirs.randrange(n)
                assert 3 + _below(bits, n) == theirs.randrange(3, 3 + n)
                assert seq[_below(bits, n)] == theirs.choice(seq)
        assert mine.getstate() == theirs.getstate()


def _held_in_part(g, hi):
    """``g`` on a carrier that holds its middle cells, 10 to 12, only on
    [0, hi) of coordinate 1: each source met with the carrier, and the
    edges whose source is then empty or whose target leaves it dropped."""
    carrier = ms(*(cellbox(b.cell, 0, hi) if b.cell in (10, 11, 12) else b
                   for b in g.carrier.boxes))
    edges = [Edge(e.weight, source, e.realizer) for e in g.edges
             for source in [e.source.intersect(carrier)]
             if not source.is_empty()
             and e.realizer.apply(source).subset_of(carrier)]
    return Graphing.make(g.weights, g.microcosm, carrier, edges)


def _partial_cell_pairs():
    """Seeded sampling pairs in every mode whose cut holds [0, 1/2) of
    each middle cell: both sides keep that part, or one keeps [0, 3/4),
    where its starts then begin and its images may exit in part."""
    for mode in ("det", "nondet", "prob"):
        for seed in range(10):
            f, g = random_pair(seed, mode)
            for f_hi, g_hi in (("1/2", "1/2"), ("1/2", "3/4"), ("3/4", "1/2")):
                yield _held_in_part(f, f_hi), _held_in_part(g, g_hi)


def _start_scan_pairs():
    """Seeded sampling pairs and the four plugs of seeded triples in every
    mode, the pairs whose cut holds part of a cell, then every shipped
    machine against its words up to length 2."""
    from graphvm.encodings import encode_machine, encode_word
    from graphvm.machines import words_up_to
    for mode in ("det", "nondet", "prob"):
        for seed in range(10):
            yield random_pair(seed, mode)
            f, g, h = random_triple(seed, mode)
            fg, gh = plug(f, g).graphing, plug(g, h).graphing
            yield from ((f, g), (g, h), (fg, h), (f, gh))
    yield from _partial_cell_pairs()
    for _, spec in shipped_machines():
        m = encode_machine(spec)
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
            # plug's own setup: the split of the carrier and of each source
            outside = _split(side.carrier, cut)[0]
            assert outside == side.carrier.subtract(cut)
            split = [(idx, start) for idx in side.edges_over(outside)
                     for start in [_split(side.edges[idx].source, cut)[0]]
                     if not start.is_empty()]
            assert split == brute
        assert plug(f, g).graphing.carrier == \
            f.carrier.union(g.carrier).subtract(cut)


def test_forced_two_cycle():
    A, B = whole(0), whole(1)
    carrier = A.union(B)
    f = Graphing.make(TRIVIAL, Microcosm.m1(), carrier,
                      [Edge(Fraction(1), A, Realizer.shift_by(1))])
    g = Graphing.make(TRIVIAL, Microcosm.m1(), carrier,
                      [Edge(Fraction(1), B, Realizer.shift_by(-1))])
    got = cycles(f, g, max_len=2)
    assert len(got) == 1
    assert got[0].support == A
    assert measurement(f, g, lambda w: INFINITY, 2) is INFINITY
    # its powers are not cycles of their own, so longer searches add none
    for k in (2, 4, 6, 8):
        assert cycles(f, g, max_len=k) == got
        assert measurement(f, g, lambda w: Fraction(1), k) == 1


def test_primitive_four_cycle_is_kept_once():
    # F: 0 -> 1 and 2 -> 3, G: 1 -> 2 and 3 -> 0
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(1)),
                  Edge(Fraction(1), whole(2), Realizer.shift_by(1))],
                 (0, 1, 2, 3))
    g = graphing([Edge(Fraction(1), whole(1), Realizer.shift_by(1)),
                  Edge(Fraction(1), whole(3), Realizer.shift_by(-3))],
                 (0, 1, 2, 3))
    got = cycles(f, g, max_len=8)
    # its square, the same word twice, is not kept
    assert [cyc.steps for cyc in got] == [
        (("F", 0), ("G", 0), ("F", 1), ("G", 1))]
    assert got[0].support == whole(0)
    assert measurement(f, g, lambda w: Fraction(1), 8) == 1


def test_measurement_monotone_in_cycle_length():
    # the F: 0 -> 1, 2 -> 3 / G: 1 -> 2, 3 -> 0 four-cycle is found from k = 4
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(1)),
                  Edge(Fraction(1), whole(2), Realizer.shift_by(1))],
                 (0, 1, 2, 3))
    g = graphing([Edge(Fraction(1), whole(1), Realizer.shift_by(1)),
                  Edge(Fraction(1), whole(3), Realizer.shift_by(-3))],
                 (0, 1, 2, 3))
    values = [measurement(f, g, lambda w: Fraction(1), k)
              for k in (2, 4, 6, 8)]
    assert values == sorted(values)
    assert values == [0, 1, 1, 1]


def test_disjoint_carriers_have_no_cycles():
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(1))], (0, 1))
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))], (5, 6))
    assert cycles(f, g, max_len=6) == []
    assert measurement(f, g, lambda w: Fraction(1)) == 0


def test_machine_word_runs_are_acyclic():
    from graphvm.encodings import encode_machine, encode_word
    m = encode_machine(shipped("ones.mach"))
    for word in ("0", "11", "01"):
        enc = encode_word(word, m.layout)
        assert cycles(m.graphing, enc.graphing, max_len=6) == []


def _feedback_pairs():
    """Pairs with alternating cycles whose laps move no point off itself,
    and the measurement each gives: cell 2 -> 3 against a nondet 3 -> 2,
    by shifts only; and (1 2)-swaps, whose laps are the identity, on one
    cell and across two."""
    up, down, swap = (Realizer.shift_by(1), Realizer.shift_by(-1),
                      Realizer.head_swap(2))
    yield (graphing([Edge(Fraction(1), whole(2), up)], (2, 3)),
           graphing([Edge(Fraction(1), whole(3), down),
                     Edge(Fraction(1), ms(cellbox(3, 0, "1/2")), down)],
                    (2, 3)),
           Fraction(9, 2))
    yield (graphing([Edge(Fraction(1), whole(2), swap)], (2,)),
           graphing([Edge(Fraction(1), whole(2), swap)], (2,)), Fraction(1))
    yield (graphing([Edge(Fraction(1), whole(2), swap)], (2,)),
           graphing([Edge(Fraction(1), ms(cellbox(2, 0, "1/2")), swap)],
                    (2,)), Fraction(1, 2))
    yield (graphing([Edge(Fraction(1), whole(2), up.compose(swap))], (2, 3)),
           graphing([Edge(Fraction(1), ms(cellbox(3, 0, "1/2")),
                          down.compose(swap))], (2, 3)), Fraction(1, 2))


def test_measurement_symmetric_in_arguments():
    def m(weight):
        return Fraction(1)

    # layered pairs have no alternating cycle: both sides are 0
    for seed in range(8):
        f, g = random_pair(seed, "det")
        assert measurement(f, g, m, 6) == measurement(g, f, m, 6)
    for f, g, want in _feedback_pairs():
        assert measurement(f, g, m) == measurement(g, f, m) == want


def test_unit_loop_with_branch_keeps_verdict_exact():
    # inside the cut: 5 -> 6 -> 5 unit loop, but 6 also exits to 9
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5)),
                  Edge(Fraction(1), whole(6), Realizer.shift_by(-1)),
                  Edge(Fraction(1), whole(6), Realizer.shift_by(3))],
                 (0, 5, 6, 9))
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))], (5, 6))
    result = plug(f, g)
    assert result.diagnostics.complete
    assert result.diagnostics.unresolved_mass == 0
    assert result.diagnostics.looping_mass > 0
    # the exit through cell 9 is found exactly once
    exits = [e for e in result.graphing.edges
             if list(e.target.cells()) == [9]]
    assert len(exits) == 1
    assert_matches_eager_at_budgets(f, g)


# launch cell 0, accept cell 10 and reject cell 11
CELLS_0_10_11 = Regions(whole(0), whole(10), whole(11))


def _half_and_half():
    """Half the launch mass lands in accept, half in reject, each in two
    steps."""
    half = graphing([Edge(Fraction(1, 2), whole(0), Realizer.shift_by(5)),
                     Edge(Fraction(1, 2), whole(0), Realizer.shift_by(6))],
                    (0, 5, 6), PROBABILITIES)
    lands = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(5)),
                      Edge(Fraction(1), whole(6), Realizer.shift_by(5))],
                     (5, 6, 10, 11), PROBABILITIES)
    return plug(half, lands)


def _two_landings(to_accept, to_reject):
    """Launch cell 0 carried whole to accept cell 10 under the weight
    ``to_accept`` and to reject cell 11 under ``to_reject``."""
    f = graphing([Edge(Fraction(to_accept), whole(0), Realizer.shift_by(10)),
                  Edge(Fraction(to_reject), whole(0), Realizer.shift_by(11))],
                 (0, 10, 11), PROBABILITIES)
    return plug(f, graphing([], (5,)))


def test_prob_test_verdicts():
    regions = CELLS_0_10_11
    result = _half_and_half()
    # half the mass lands in accept, half in reject
    assert accept_mass(result, regions) == Fraction(1, 2)
    assert evaluate_test(result, t_prob(Fraction(1, 2)), regions) \
        is Verdict.REJECT  # strict cutpoint
    assert evaluate_test(result, t_prob(Fraction(1, 3)), regions) \
        is Verdict.ACCEPT


@pytest.mark.parametrize("empty", ["launch", "accept", "reject"])
def test_regions_refuse_an_empty_region(empty):
    # a test divides by the launch measure and reads landings in the
    # accept and reject cells: none of them may be empty
    regions = {"launch": whole(0), "accept": whole(10), "reject": whole(11)}
    regions[empty] = MeasurableSet.empty()
    with pytest.raises(ValueError, match=f"^{empty} region is empty$"):
        Regions(**regions)


def test_weightless_edge_lands_without_mass():
    regions = CELLS_0_10_11
    result = _two_landings(0, 1)
    weightless, = [e for e in result.graphing.edges if e.weight == 0]
    assert landing(weightless, regions, regions.accept) == whole(10)
    assert accept_mass(result, regions) == 0
    assert reject_mass(result, regions) == 1


def test_a_weightless_landing_decides_no_verdict():
    regions = CELLS_0_10_11
    for to_accept, to_reject, det, conl in (
            (0, 1, Verdict.REJECT, Verdict.REJECT),
            (1, 0, Verdict.ACCEPT, Verdict.ACCEPT)):
        result = _two_landings(to_accept, to_reject)
        assert evaluate_test(result, T_DET, regions) is det
        assert evaluate_test(result, T_NL, regions) is det
        assert evaluate_test(result, T_CONL, regions) is conl


def test_an_edge_that_cannot_land_makes_no_apply_call(monkeypatch):
    # the only edge carries the launch cell to the reject cell: the accept
    # test reads off its source that it lands nothing there, and the conl
    # test that it lands in the reject cell, neither imaging it
    regions = CELLS_0_10_11
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(11))], (0, 11))
    result = plug(f, graphing([], (5,)))
    calls = log_calls(monkeypatch, (Realizer, "apply"))
    assert evaluate_test(result, T_DET, regions) is Verdict.REJECT
    assert evaluate_test(result, T_CONL, regions) is Verdict.REJECT
    assert calls == []


def _landed_by_image(result, regions, where):
    """Per edge: its weight and ``realizer.apply(source & launch) & where``,
    the landing the source-side rule must give."""
    return [(e.weight, e.realizer.apply(e.source.intersect(regions.launch))
             .intersect(where)) for e in result.graphing.edges]


def _verdict_by_image(result, test, regions):
    """``evaluate_test``'s verdict, read off the images of the edges."""
    pending = result.diagnostics.unresolved_mass > 0
    if test.kind in ("det", "nl", "conl"):
        where = regions.reject if test.kind == "conl" else regions.accept
        if any(w > 0 and not hit.is_empty()
               for w, hit in _landed_by_image(result, regions, where)):
            return Verdict.REJECT if test.kind == "conl" else Verdict.ACCEPT
        if pending:
            return Verdict.UNDETERMINED
        return Verdict.ACCEPT if test.kind == "conl" else Verdict.REJECT
    lam = regions.launch.measure()
    mass = sum((w * hit.measure() for w, hit in
                _landed_by_image(result, regions, regions.accept)),
               Fraction(0)) / lam
    if mass > test.cutpoint:
        return Verdict.ACCEPT
    slack = result.diagnostics.unresolved_mass / lam
    return Verdict.REJECT if mass + slack <= test.cutpoint \
        else Verdict.UNDETERMINED


def test_landings_read_off_the_source_match_the_images():
    # a machine run's exits start inside its launch region; the sampled
    # plugs' sources, of several boxes, with offsets and permutations,
    # meet a launch region of half cells, and land in even or odd cells
    halves = Regions(ms(*(cellbox(c, 0, "1/2") for c in range(-9, 19))),
                     whole(*range(-8, 19, 2)), whole(*range(-9, 19, 2)))
    runs = list(machine_run_results())
    runs += [(result, halves) for result in sampled_plug_results()]
    runs += [(_half_and_half(), CELLS_0_10_11)]
    runs += [(_two_landings(*weights), regions)
             for weights in ((0, 1), (1, 0), (0, 0), (1, 1))
             for regions in (CELLS_0_10_11, halves)]
    assert len(runs) == 1553
    kinds = Counter()
    for result, regions in runs:
        lam = regions.launch.measure()
        for where, mass in ((regions.accept, accept_mass),
                            (regions.reject, reject_mass)):
            landed = _landed_by_image(result, regions, where)
            assert [landing(e, regions, where) for e in
                    result.graphing.edges] == [hit for _, hit in landed]
            assert mass(result, regions) == sum(
                (w * hit.measure() for w, hit in landed), Fraction(0)) / lam
        for test in (T_DET, T_NL, T_CONL, t_prob(), t_prob("1/3")):
            verdict = evaluate_test(result, test, regions)
            assert verdict is _verdict_by_image(result, test, regions)
            kinds[test.kind, verdict] += 1
    # every kind gives each verdict somewhere
    assert len(kinds) == 12, kinds


def test_regions_hold_their_accept_and_reject_cells_whole():
    half_cell = ms(cellbox(10, 0, "1/2"))
    for accept, reject in ((half_cell, whole(11)), (whole(11), half_cell)):
        with pytest.raises(ValueError, match="whole cells"):
            Regions(whole(0), accept, reject)
    # the launch region may hold part of a cell
    assert Regions(half_cell, whole(10), whole(11)).launch == half_cell


def test_float_cutpoints_are_refused():
    # integer division makes a float: the slip these refuse
    for make in (lambda: Test("prob", 1 / 2), lambda: t_prob(1 / 10)):
        with pytest.raises(TypeError, match="p/q"):
            make()
    assert t_prob("1/10").cutpoint == Fraction(1, 10)
    assert t_prob(0).cutpoint == 0
    assert Test("prob", Fraction(1, 3)).cutpoint == Fraction(1, 3)
    assert Test("prob", "1/2") == t_prob(Fraction(1, 2))
    assert type(Test("prob", "1/2").cutpoint) is Fraction


def test_an_unknown_test_kind_is_refused():
    # the CLI's --test choices keep it out of the CLI
    with pytest.raises(ValueError, match="unknown test kind 'bogus'"):
        Test("bogus")


def test_decaying_revisit_is_unresolved_not_looping():
    # 0 -> 5 -> 6 -> 5: the second entry into G's edge repeats the first
    # with the same composite but half the weight
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5)),
                  Edge(Fraction(1, 2), whole(6), Realizer.shift_by(-1))],
                 (0, 5, 6), PROBABILITIES)
    g = graphing([Edge(Fraction(1), whole(5), Realizer.shift_by(1))],
                 (5, 6), PROBABILITIES)
    result = plug(f, g)
    diag = result.diagnostics
    assert diag.complete
    assert diag.steps_used == 3
    assert diag.unresolved_mass == Fraction(1, 2)
    assert diag.looping_mass == 0
    assert result.graphing.edges == ()
    assert_matches_eager_at_budgets(f, g)


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
    from graphvm.encodings import encode_machine
    for name, spec in shipped_machines():
        yield name, encode_machine(spec)


def _tests_for(mode):
    """Every test the mode allows: the prob test needs probabilities."""
    tests = [T_DET, T_NL, T_CONL]
    return tests if mode == "nondet" else tests + [t_prob()]


def _counting(monkeypatch):
    """Log every ``Realizer.compose`` and ``MeasurableSet.intersect``, and
    the ``plug`` and ``evaluate_test`` calls that tell where each came."""
    from graphvm import execution
    return log_calls(monkeypatch, (Realizer, "compose"),
                     (MeasurableSet, "intersect"), (execution, "plug"),
                     (execution, "evaluate_test"))


def _word_searches(monkeypatch):
    """Wrap ``language``'s word verdict and return the list of the
    searches it reads, one per word, in verdict order."""
    from graphvm import execution
    searches = []
    word_verdict = execution._word_verdict

    def logged(search, *args):
        searches.append(search)
        return word_verdict(search, *args)

    monkeypatch.setattr(execution, "_word_verdict", logged)
    return searches


def test_language_computes_each_operand_pair_once_per_call(monkeypatch):
    from graphvm import execution
    machines = dict(_shipped_machines())
    log = _counting(monkeypatch)
    # the landing meets of the fold lie outside the table: note where each
    # begins and ends in the log
    landed = []
    logged_landing_part = execution._landing_part

    def landing_part(*args):
        begin = len(log)
        part = logged_landing_part(*args)
        landed.append((begin, len(log)))
        return part

    monkeypatch.setattr(execution, "_landing_part", landing_part)
    searches = _word_searches(monkeypatch)
    # the machine side's meets: one per set per call
    machine_meets = log_calls(monkeypatch, (Graphing, "edges_meeting"))
    # what the call's table wraps, with the cached function it makes, and
    # the meets each drain is given
    tabled, make_table = [], execution.lru_cache

    def table(*args, **kwargs):
        def wrap(fn):
            cached = make_table(*args, **kwargs)(fn)
            tabled.append((fn, cached))
            return cached
        return wrap

    monkeypatch.setattr(execution, "lru_cache", table)
    drains = log_calls(monkeypatch, (execution._Search, "drain"))
    budget_outs = Counter()
    for (name, test), max_steps in itertools.product(
            (("one-then-zero.mach", T_DET), ("guess-11.mach", T_NL),
             ("coin-flip.mach", t_prob())), (10000, 7)):
        case = (name, max_steps)
        log.clear()
        landed.clear()
        searches.clear()
        machine_meets.clear()
        tabled.clear()
        drains.clear()
        first = execution.language(machines[name], test, 4,
                                   max_steps=max_steps)
        first_log = list(log)
        # the table holds apply, compose, the split and the machine side's
        # meets, each once, and no meet of two sets
        assert [fn for fn, _ in tabled[:3]] == [
            Realizer.apply, Realizer.compose, execution._split], case
        assert len(tabled) == 4, case
        assert {id(args[1]["F"]) for _, args in drains} == {
            id(tabled[3][1])}, case
        landings = {i for begin, end in landed for i in range(begin, end)}
        # no compose the table holds and no meet the per-set plans and
        # machine-side entry hold is made twice, the searches of words the
        # budget sends back included
        searched = [entry for i, entry in enumerate(first_log)
                    if i not in landings]
        assert searched and len(set(searched)) == len(searched), case
        assert any(method == "compose" for method, _ in searched), case
        # no word is plugged or read from a result
        assert not any(method in ("plug", "evaluate_test")
                       for method, _ in first_log), case
        # one word verdict per word, off the word's search
        assert len(searches) == len(first.verdicts), case
        budget_outs[max_steps] += sum(not search.complete
                                      for search in searches)
        met = [args[1] for _, args in machine_meets]
        assert met and len(met) == len(set(met)), case
        # the table is dropped with the call: the same call again
        # computes everything again
        log.clear()
        machine_meets.clear()
        again = execution.language(machines[name], test, 4,
                                   max_steps=max_steps)
        assert again.verdicts == first.verdicts
        assert len(log) == len(first_log), case
        assert [args[1] for _, args in machine_meets] == met, case
    # at budget 7 words are sent back; at 10000 none
    assert budget_outs[7] and not budget_outs[10000], budget_outs


def test_language_drains_nothing_below_a_settled_prefix(monkeypatch):
    """A prefix whose search is complete with nothing queued takes no more
    steps, and neither does any word below it: no drain runs on a search
    that a drain left so, nor on a fork of one.  Each word still gets one
    verdict, off the settled prefix's search."""
    from graphvm import execution
    machines = dict(_shipped_machines())
    searches = _word_searches(monkeypatch)
    fork, drain = execution._Search.fork, execution._Search.drain
    settled, again = [], []

    def logged_fork(self):
        child = fork(self)
        if any(self is s for s in settled):
            settled.append(child)
        return child

    def logged_drain(self, meets):
        if any(self is s for s in settled):
            again.append(self)
        drain(self, meets)
        if self.complete and not self.queue:
            settled.append(self)

    monkeypatch.setattr(execution._Search, "fork", logged_fork)
    monkeypatch.setattr(execution._Search, "drain", logged_drain)
    for name, one_way in (("ones.mach", False), ("one-then-zero.mach", True)):
        settled.clear()
        searches.clear()
        got = execution.language(machines[name], T_DET, 5, one_way=one_way)
        assert again == [], name
        assert len(searches) == len(got.verdicts) == 63, name
        # some settled prefix gives its search to several words
        assert len({id(search) for search in searches}) < 63, name


def _trie_machines():
    """Each spec with the longest word it runs at each budget: the shipped
    machines up to length 3, and 4 at budget 10000; then seeded specs of
    every mode, head count and direction, on one to three states, up to
    length 2."""
    shapes = [(mode, heads, 1 + i % 3, two_way) for i, (mode, heads, two_way)
              in enumerate(itertools.product(("det", "nondet", "prob"),
                                             (1, 2), (False, True)))]
    return [(spec, {0: 3, 1: 3, 7: 3, 10000: 4})
            for _, spec in shipped_machines()] + \
        [(spec, dict.fromkeys((0, 1, 7, 10000), 2))
         for spec in seeded_specs(41, len(shapes), shapes)]


def test_language_gives_each_word_the_verdict_of_its_own_plug(monkeypatch):
    """The search shared over the trie of word prefixes, through its call's
    table, budget-outs included, gives each word, in order, its own plug's
    graphing, diagnostics and verdicts, and never calls that plug, which
    keeps no table.  Each own plug of a word up to length 3 matches the
    eager reference."""
    from graphvm import encodings, execution
    from graphvm.encodings import encode_machine, run_word
    from graphvm.machines import words_up_to
    log = log_calls(monkeypatch, (encodings, "run_word"),
                    (execution, "evaluate_test"))
    searches = _word_searches(monkeypatch)
    budget_outs = Counter()
    for spec, lengths in _trie_machines():
        m = encode_machine(spec)
        for one_way, (max_steps, max_len) in itertools.product(
                (False, True), lengths.items()):
            case = (spec.name, one_way, max_steps)
            runs = {word: run_word(m, word, one_way, max_steps)
                    for word in words_up_to(spec.alphabet, max_len)}
            for word, (result, _) in runs.items():
                if len(word) <= 3:
                    assert_matches_eager(result, *result.operands, max_steps)
            budget_outs[max_steps, all(result.diagnostics.complete
                                       for result, _ in runs.values())] += 1
            for test in _tests_for(spec.mode):
                want = [(word, evaluate_test(result, test, regions))
                        for word, (result, regions) in runs.items()]
                log.clear()
                searches.clear()
                got = execution.language(m, test, max_len, one_way=one_way,
                                         max_steps=max_steps)
                assert list(got.verdicts.items()) == want, (case, test)
                # each word's verdict reads its own search, settled or
                # sent back by the budget, with no run_word or evaluate_test
                assert log == [] and len(searches) == len(runs), case
                for (word, (result, _)), search in zip(runs.items(),
                                                       searches):
                    # the search's result, built here: its diagnostics
                    # compare complete and steps_used too
                    own = search.result(result.operands)
                    assert own.graphing.same_as(result.graphing), (case, word)
                    assert own.diagnostics == result.diagnostics, (case, word)
                    assert own.diagnostics.dead_mass == \
                        result.diagnostics.dead_mass, (case, word)
    # at budget 7 some runs settle every word and some send words back
    assert budget_outs[7, True] and budget_outs[7, False], budget_outs


def test_language_decides_each_exit_once_per_length(monkeypatch):
    """A trie node folds the exits it makes, and its forks inherit what
    they landed: over one ``language`` call, ``_landing_part`` reads each
    exit of positive weight at most once, not once per word that inherits
    it, in the node that made it, only until one lands, and not at all in
    a node whose prefix already landed."""
    from graphvm import execution
    machines = dict(_shipped_machines())
    landing_part = execution._landing_part
    log = log_calls(monkeypatch, (execution, "_landing_part"))
    searches = _word_searches(monkeypatch)
    fold = execution._fold
    folds = []

    def logged_fold(landed, edges, regions, cells):
        edges = list(edges)
        begin = len(log)
        out = fold(landed, edges, regions, cells)
        folds.append((landed, edges, regions, cells, log[begin:]))
        return out

    monkeypatch.setattr(execution, "_fold", logged_fold)
    skipped = Counter()
    for name, test in itertools.product(("one-then-zero.mach",
                                         "branchy.mach"), (T_CONL, T_NL)):
        case = (name, test.kind)
        log.clear()
        searches.clear()
        folds.clear()
        got = execution.language(machines[name], test, 4)
        assert len(searches) == len(got.verdicts) == 31, case
        assert all(search.complete for search in searches), case
        exits = {id(e) for search in searches for e, _ in search.exits
                 if e.weight > 0}
        read = [id(args[0]) for _, args in log]
        assert len(read) == len(set(read)) and set(read) <= exits, case
        assert len(read) == sum(len(reads) for *_, reads in folds), case
        for landed, edges, regions, cells, reads in folds:
            if landed:
                # a landing the prefix made decides the node
                assert reads == [], case
                skipped[case] += len(edges)
                continue
            want = []
            for e in edges:
                if e.weight > 0:
                    want.append(id(e))
                    if landing_part(e, regions, cells).boxes:
                        break
            assert [id(args[0]) for _, args in reads] == want, case
        # leaves inherit exits that their prefixes made: fewer exits than
        # (leaf, exit) pairs
        pairs = sum(len(search.exits) for search in searches)
        assert len(exits) < pairs, (case, len(exits), pairs)
    # on branchy.mach under nl, nodes below one that landed make 38 exits
    # that none reads; the other cases make no exit below a landing
    assert skipped == {("branchy.mach", "nl"): 38}, skipped


def test_a_run_meets_and_subtracts_no_set_before_its_first_drain(
        monkeypatch):
    """The cut and each side's start are read off by the split: when one
    carrier holds the other's cells whole, as a machine's holds a word's
    and as the sides of a sampled pair do, setting a run up meets and
    subtracts no set."""
    from graphvm import execution
    from graphvm.encodings import encode_word
    runs = [(m.graphing, encode_word(word, m.layout,
                                     len(m.spec.states)).graphing)
            for _, m in _shipped_machines()
            for word in ("", m.spec.alphabet[0] * 3)]
    runs += [random_pair(seed, mode) for seed in range(6)
             for mode in ("det", "prob")]
    log = log_calls(monkeypatch, (MeasurableSet, "intersect"),
                    (MeasurableSet, "subtract"))
    for f, g in runs:
        # as ``plug`` does up to its first drain
        search = execution._Search(f, g, 10000, execution._ops())
        search.start("F", f)
        search.start("G", g)
        assert search.queue and log == [], [name for name, _ in log]


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

    monkeypatch.setattr(execution, "lru_cache", no_table)
    for left, right in ((m.graphing, word), (f, g)):
        # each graphing is swept on its first check only: do it first
        validate(left)
        validate(right)
        log.clear()
        first = plug(left, right)
        counted = len(log)
        log.clear()
        second = plug(left, right)
        assert counted > 0 and len(log) == counted
        assert second.graphing.same_as(first.graphing)


def test_a_plug_starts_a_whole_outside_source_from_its_kept_target(
        monkeypatch):
    # an edge whose whole source lies outside the cut starts from its
    # ``target``, which the edge keeps: a second plug of the same pair
    # applies no such edge's realizer again
    log = log_calls(monkeypatch, (Realizer, "apply"))
    for mode in ("det", "nondet", "prob"):
        for seed in range(4):
            f, g = random_pair(seed, mode)
            validate(f)
            validate(g)
            cut = f.carrier.intersect(g.carrier)
            outside = sum(e.source.intersect(cut).is_empty()
                          for side in (f, g) for e in side.edges)
            log.clear()
            first = plug(f, g)
            applied = len(log)
            log.clear()
            second = plug(f, g)
            assert outside > 0 and len(log) == applied - outside
            assert second.graphing.same_as(first.graphing)


# -- each graphing is checked once, however often it is plugged ----------------

def _counting_sweeps(monkeypatch):
    """Log the graphings ``graphing._find_problems`` sweeps."""
    from graphvm import graphing as graphing_module
    return log_calls(monkeypatch, (graphing_module, "_find_problems"))


def _shift_pair():
    """``f`` carries cell 0 to cell 1, ``g`` carries cell 1 to cell 2."""
    return (graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(1))],
                     (0, 1)),
            graphing([Edge(Fraction(1), whole(1), Realizer.shift_by(1))],
                     (1, 2)))


def test_plug_refuses_an_invalid_graphing_on_either_side():
    f, g = _shift_pair()
    # a source outside the carrier
    bad = graphing([Edge(Fraction(1), whole(1), Realizer.shift_by(1))], (2,))
    for left, right, name in ((bad, g, "first"), (f, bad, "second")):
        # the second plug reads the problems the graphing keeps
        for _ in range(2):
            with pytest.raises(ValueError, match=f"{name} graphing invalid: "
                               r"\['edge 0: source not in carrier'\]"):
                plug(left, right)


def test_a_graphing_plugged_twice_is_swept_once(monkeypatch):
    swept = _counting_sweeps(monkeypatch)
    f, g = _shift_pair()
    first = plug(f, g)
    assert [id(args[0]) for _, args in swept] == [id(f), id(g)]
    second = plug(f, g)
    assert len(swept) == 2 and second.graphing.same_as(first.graphing)
    # a plug result is a graphing like any other
    h = graphing([Edge(Fraction(1), whole(2), Realizer.shift_by(1))], (2, 3))
    for _ in range(2):
        plug(first.graphing, h)
    assert [id(args[0]) for _, args in swept] == [
        id(f), id(g), id(first.graphing), id(h)]


def test_word_graphings_are_never_swept(monkeypatch):
    from graphvm.encodings import run_word
    from graphvm.execution import language
    # each machine is swept when it is built, before the count starts
    machines = dict(_shipped_machines())
    swept = _counting_sweeps(monkeypatch)
    for m in machines.values():
        test = T_NL if m.spec.mode == "nondet" else T_DET
        language(m, test, 3)
        run_word(m, "0110")
    assert swept == []


# -- the dead part and the records, against an eager reference ----------------

def test_overlapping_sources_that_cover_part_of_a_node():
    # g's two sources on the cut overlap, and together miss [3/4, 1)
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5))], (0, 5))
    g = graphing([Edge(Fraction(1), ms(cellbox(5, 0, "1/2")),
                       Realizer.shift_by(4)),
                  Edge(Fraction(1), ms(cellbox(5, "1/4", "3/4")),
                       Realizer.shift_by(5))], (5, 9, 10))
    result = plug(f, g)
    assert classify(g) is GraphingClass.NONDETERMINISTIC
    assert result.diagnostics.dead_mass == Fraction(1, 4)
    assert [p.source for p in result.dead_paths] == [ms(cellbox(0, "3/4", 1))]
    assert_matches_eager(result, f, g)


def test_a_fully_covered_node_leaves_nothing_dead():
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5))], (0, 5))
    # one source holds the whole node; then two that only cover it together
    for sources in ([whole(5), ms(cellbox(5, 0, "1/2"))],
                    [ms(cellbox(5, 0, "1/2")), ms(cellbox(5, "1/2", 1))]):
        g = graphing([Edge(Fraction(1), src, Realizer.shift_by(4 + k))
                      for k, src in enumerate(sources)], (5, 9, 10))
        result = plug(f, g)
        assert result.diagnostics.dead_mass == 0
        assert result.dead_paths == []
        assert len(result.graphing.edges) == 2
        assert_matches_eager(result, f, g)


def test_a_budget_that_runs_out_mid_node():
    # the first hit takes the only step; the next two are unresolved, and
    # all three count as covered, so [5/8, 1) dies
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5))], (0, 5))
    g = graphing([Edge(Fraction(1), ms(cellbox(5, 0, "1/4")),
                       Realizer.shift_by(4)),
                  Edge(Fraction(1), ms(cellbox(5, "1/8", "1/2")),
                       Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(5, "1/2", "5/8")),
                       Realizer.shift_by(6))], (5, 9, 10, 11))
    result = plug(f, g, max_steps=1)
    diag = result.diagnostics
    assert not diag.complete and diag.steps_used == 1
    assert diag.unresolved_mass == Fraction(1, 2)
    assert diag.dead_mass == Fraction(3, 8)
    assert [p.source for p in result.dead_paths] == [ms(cellbox(0, "5/8", 1))]
    assert_matches_eager(result, f, g, max_steps=1)


def test_cuts_that_hold_part_of_a_cell_match_the_eager_reference():
    seen = Counter()
    for f, g in _partial_cell_pairs():
        assert validate(f) == validate(g) == []
        cut = f.carrier.intersect(g.carrier)
        assert all(b.coords for b in cut.boxes) and cut.cells() == {10, 11, 12}
        assert_matches_eager_at_budgets(f, g)
        result = plug(f, g)
        _check_targets_and_dead_mass(result)
        for node, e in zip(result.exit_nodes, result.graphing.edges):
            seen["crossing"] += node[4] is not None
            # an exit set short of its node's image: the rest went on inside
            (side, idx), region = node[:2]
            last = (f if side == "F" else g).edges[idx]
            seen["partial exit"] += last.realizer.apply(region) != e.target
            # a start beside the cut, in one of the cells it holds part of
            seen["started in a cut cell"] += bool(_trail(node)[0][1].cells()
                                                  & cut.cells())
        seen["dead"] += len(result.dead_paths)
    assert min(seen[kind] for kind in ("crossing", "started in a cut cell",
                                       "partial exit", "dead")) > 10, seen


def _fed_feedback_pairs():
    """Each of ``_feedback_pairs()``, whose cut is its whole carrier, with
    a way in and a way out on its second side: an edge from cell 0 into
    the first side's first source cell, and one from every cell the first
    side lands in to cell 9, beside the cycle's own edges."""
    for f, g, _ in _feedback_pairs():
        into = f.edges[0].source.boxes[0].cell
        lands = sorted({c for e in f.edges for c in e.target.cells()})
        edges = [*g.edges, Edge(Fraction(1), whole(0), Realizer.shift_by(into))]
        edges += [Edge(Fraction(1), whole(c), Realizer.shift_by(9 - c))
                  for c in lands]
        yield f, graphing(edges, sorted(g.carrier.cells() | {0, 9}))


def _exit_rule(result, node, e):
    """How the search read the exit's source: a path that exits whole on
    its first step exits on its ``start``, one that exits whole on its
    second step on its hit pulled back along its ``first edge``; a
    ``longer`` path, or a ``partial`` exit, is pulled back along its
    composite.  The path's depth is read off its parents."""
    (side, idx), region, _, _, parent = node
    last = result.operands[side == "G"].edges[idx]
    if last.realizer.apply(region) != e.target:
        return "partial"
    if parent is None:
        return "start"
    return "first edge" if parent[4] is None else "longer"


def _repeated_steps(node):
    """How many steps of the path ending at ``node`` take an earlier
    step's (side, edge) again with the same composite."""
    steps = [(step[0], step[2]) for step in _trail(node)]
    return len(steps) - len(set(steps))


def test_an_exit_source_is_its_target_pulled_back():
    corpora = {
        "machine runs": [result for result, _ in machine_run_results()],
        "sampled plugs": list(sampled_plug_results()),
        "partial cuts": [plug(f, g) for f, g in _partial_cell_pairs()],
        "fed feedback pairs": [plug(f, g) for f, g in _fed_feedback_pairs()],
    }
    rules = {}
    walked = Counter()
    for name, results in corpora.items():
        seen = rules[name] = Counter()
        for result in results:
            for node, e in zip(result.exit_nodes, result.graphing.edges):
                assert e.source == e.realizer.invert().apply(e.target), name
                seen[_exit_rule(result, node, e)] += 1
            # no path takes an edge twice with the same composite, so the
            # search's repeat walk may stop at the first match it meets
            ends = result.exit_nodes + [
                node for node, _, _ in result.diagnostics._open_nodes]
            assert not any(map(_repeated_steps, ends)), name
            walked[name] += len(ends)
    assert all(walked[name] for name in corpora), walked
    # each rule reads sources somewhere: the sampled plugs exit on first
    # and second steps, the machine runs and the fed feedback pairs on
    # longer paths, and the partial cuts on parts of images
    assert rules["sampled plugs"]["start"], rules
    assert rules["sampled plugs"]["first edge"], rules
    assert rules["machine runs"]["longer"], rules
    assert rules["fed feedback pairs"]["longer"], rules
    assert rules["partial cuts"]["partial"], rules


def test_exits_on_the_first_step_pull_no_source_back(monkeypatch):
    # every path of f leaves the cut, cell 2, on its first step, one of
    # them through a swap and an offset; g's only edge lies in the cut
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(1, 0, "1/2")),
                       Realizer.make(5, {1: 2, 2: 1}, {2: Fraction(1, 2)}))],
                 (0, 1, 2, 5, 6))
    g = graphing([Edge(Fraction(1), whole(2), Realizer.shift_by(1))], (2, 3))
    assert validate(f) == validate(g) == []
    calls = log_calls(monkeypatch, (Realizer, "apply"))
    result = plug(f, g)
    # one apply per path, for the image of its start, and none for a source
    assert [args for _, args in calls] == [(e.realizer, e.source)
                                           for e in f.edges]
    monkeypatch.undo()
    assert [len(_trail(node)) for node in result.exit_nodes] == [1, 1]
    for node, e in zip(result.exit_nodes, result.graphing.edges):
        assert e.source is _trail(node)[0][1]
        assert e.source == e.realizer.invert().apply(e.target)
    assert [e.source for e in result.graphing.edges] == \
        [e.source for e in f.edges]


def test_plug_matches_the_eager_reference():
    for f, g in _start_scan_pairs():
        assert_matches_eager(plug(f, g), f, g)
        assert_matches_eager(plug(f, g, max_steps=3), f, g, max_steps=3)


def test_dead_parts_are_swept_once_when_first_read(monkeypatch):
    # f carries cells 0 and 1 into the cut; g's sources on cell 5 overlap
    # and miss [3/4, 1), and on cell 6 two halves cover it only together:
    # two nodes that no hit holds whole, and one dead path
    f = graphing([Edge(Fraction(1), whole(0), Realizer.shift_by(5)),
                  Edge(Fraction(1), whole(1), Realizer.shift_by(5))],
                 (0, 1, 5, 6))
    g = graphing([Edge(Fraction(1), ms(cellbox(5, 0, "1/2")),
                       Realizer.shift_by(4)),
                  Edge(Fraction(1), ms(cellbox(5, "1/4", "3/4")),
                       Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(6, 0, "1/2")),
                       Realizer.shift_by(5)),
                  Edge(Fraction(1), ms(cellbox(6, "1/2", 1)),
                       Realizer.shift_by(6))], (5, 6, 9, 10, 11, 12))
    _, _, dead_paths, diag = eager_plug(f, g)
    assert [p.source for p in dead_paths] == [ms(cellbox(0, "3/4", 1))]
    cut = f.carrier.intersect(g.carrier)
    taken = log_calls(monkeypatch, (MeasurableSet, "subtract"))
    for order in (("dead_paths", "dead_mass"), ("dead_mass", "dead_paths")):
        result = plug(f, g)
        # the plug splits the whole-cell cut by cell: no difference at all,
        # so no dead region yet
        assert taken == []
        taken.clear()
        got = {}
        for name in order:
            owner = result if name == "dead_paths" else result.diagnostics
            got[name] = getattr(owner, name)
            # the first read sweeps both nodes, the second sweeps none
            assert len(taken) == 2, order
            assert cut not in [b for _, (_, b) in taken], order
        assert got == {"dead_paths": dead_paths,
                       "dead_mass": diag["dead_mass"]}
        taken.clear()


def _check_targets_and_dead_mass(result):
    """Each result edge keeps its exit set as its ``target``, the image of
    its source; ``dead_mass`` sums each dead region's measure times the
    weight of its path."""
    for e in result.graphing.edges:
        assert "target" in vars(e)
        assert e.target == e.realizer.apply(e.source)
    diag = result.diagnostics
    want = sum((node[3] * dead.measure() for node, dead in diag._dead),
               Fraction(0))
    assert type(diag.dead_mass) is Fraction and diag.dead_mass == want
    return len(diag._dead)


@pytest.mark.parametrize("family", ["machine_runs", "sampled_plugs"])
def test_kept_targets_and_dead_mass_match_their_definitions(family):
    results = {"machine_runs": lambda: (r for r, _ in machine_run_results()),
               "sampled_plugs": sampled_plug_results}[family]()
    assert sum(map(_check_targets_and_dead_mass, results)) > 0


def test_a_result_edge_keeps_the_part_of_its_image_that_exits():
    # f carries cells 0 and 1 to 5 and 6; the cut is the left half of 5,
    # so one image leaves the cut in two cells and goes on in one
    f = graphing([Edge(Fraction(1), whole(0, 1), Realizer.shift_by(5))],
                 (0, 1, 5, 6))
    g = Graphing.make(TRIVIAL, Microcosm.macrocosm(),
                      ms(cellbox(5, 0, "1/2"), cellbox(9)),
                      [Edge(Fraction(1), ms(cellbox(5, 0, "1/2")),
                            Realizer.shift_by(4))])
    result = plug(f, g)
    assert [e.target for e in result.graphing.edges] == [
        ms(cellbox(9, 0, "1/2")), ms(cellbox(5, "1/2", 1), cellbox(6))]
    assert _check_targets_and_dead_mass(result) == 0


def _run_the_workloads():
    """``language`` on each shipped machine with words up to length 4 under
    every test its mode allows, and the closure and associativity checks;
    returns the machine-run corpus, all 1364 runs."""
    from graphvm import sampling
    from graphvm.execution import language
    for _, m in _shipped_machines():
        for test in _tests_for(m.spec.mode):
            language(m, test, 4)
    for seed in range(6):
        for mode in ("det", "nondet", "prob"):
            assert sampling.property_holds("closure", seed, mode, 10000)
        assert sampling.property_holds("associativity", seed, "det", 10000)
    runs = [result for result, _ in machine_run_results()]
    assert len(runs) == 1364
    return runs


def test_workloads_never_sweep_a_set(monkeypatch):
    # every union, meet and difference these runs take is kept whole or
    # split by cell: none reaches the canonical sweep
    from graphvm import export, space
    sweeps = log_calls(monkeypatch, (space, "_canon_group"))
    for result in _run_the_workloads():
        export.result_payload(result)
    assert sweeps == []


def test_records_are_built_only_when_read(monkeypatch):
    from graphvm import execution

    def no_record(*args):
        raise AssertionError("a path record was built")

    def no_dead_region(diagnostics):
        raise AssertionError("a dead region was computed")

    monkeypatch.setattr(execution, "PathRecord", no_record)
    monkeypatch.setattr(execution.Diagnostics, "_dead",
                        property(no_dead_region))
    runs = _run_the_workloads()
    assert not any("paths" in vars(result) or "dead_paths" in vars(result)
                   for result in runs)
    monkeypatch.undo()
    # read afterwards, the records are the eager reference's; a run that
    # ran out of budget took exactly its budget's steps
    assert any(r.paths for r in runs) and any(r.dead_paths for r in runs)
    for result in runs:
        diag = result.diagnostics
        assert_matches_eager(result, *result.operands,
                             10000 if diag.complete else diag.steps_used)
