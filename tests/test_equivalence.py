import itertools
from fractions import Fraction

import pytest

from graphvm.encodings import EncodedMachine, encode_machine
from graphvm.equivalence import (CompilationWitness, WitnessError,
                                 WitnessPiece, _word_states, compile_graphing,
                                 is_compilable, orbit, separation_experiment,
                                 treeing_cost, unit_shift_witnesses)
from graphvm.execution import T_DET, cycles, language, measurement, plug
from graphvm.graphing import Edge, Graphing, TRIVIAL, cost, validate
from graphvm.realizers import Microcosm, Realizer, standard_generators
from graphvm.space import MeasurableSet, RationalBox, RationalInterval, interval
from harness import cellbox, ms, shipped, whole


def test_word_states_identity_only():
    words = list(_word_states([], 0, False))
    assert len(words) == 1
    assert words[0][1] == Realizer.identity()  # the composite
    assert words[0][0] == ()                   # the word


def test_word_states_involution_collapses():
    words = list(_word_states([Realizer.head_swap(2)], 2, True))
    assert len(words) == 2
    assert {c for _, c, _ in words} == {Realizer.identity(),
                                        Realizer.head_swap(2)}


def test_word_states_shift_tower():
    words = _word_states([Realizer.shift_by(1)], 3, True)
    assert sorted(c.shift for _, c, _ in words) == [0, 1, 2, 3]
    both = _word_states([Realizer.shift_by(1)], 2, False)
    assert sorted(c.shift for _, c, _ in both) == [-2, -1, 0, 1, 2]


def test_word_states_track_partial_domains():
    g = Realizer.offset({1: Fraction(1, 2)})
    words = list(_word_states([g], 2, True))
    by_len = {word: domain.coord_map for word, _, domain in words}
    assert by_len[((0, 1),)][1] == interval(0, "1/2")
    # g twice is void, so only the empty word and g survive
    assert len(words) == 2


def test_orbit_examples():
    swap = Realizer.head_swap(2)
    pts = orbit(0, {1: Fraction(1, 4), 2: Fraction(3, 4)}, [swap], 1)
    assert len(pts) == 2
    assert orbit(0, {1: Fraction(1, 4)}, [], 3) == \
        [(0, ((1, Fraction(1, 4)),))]
    forward = orbit(0, {1: Fraction(1, 4)}, [Realizer.shift_by(1)], 2,
                    positive_only=True)
    assert [p[0] for p in forward] == [0, 1, 2]
    both = orbit(0, {1: Fraction(1, 4)}, [Realizer.shift_by(1)], 2)
    assert [p[0] for p in both] == [-2, -1, 0, 1, 2]
    # a word reaches the point only where every step stays in [0, 1)
    half = Realizer.offset({1: Fraction(1, 2)})
    for quarter in (Fraction(1, 4), "1/4"):
        assert orbit(0, {1: quarter}, [half], 3) == \
            [(0, ((1, Fraction(1, 4)),)), (0, ((1, Fraction(3, 4)),))]
    with pytest.raises(ValueError):
        orbit(0, {1: Fraction(3, 2)}, [half], 1)
    with pytest.raises(TypeError, match="p/q"):
        orbit(0, {1: 1 / 2}, standard_generators(2), 1)


def test_mutually_compilable_generators_give_the_same_orbits():
    # {shift 1} and {shift 1, shift 2} compile into one another, so the
    # orbit relations coincide; at bounded depth, containment both ways
    # with a doubled bound
    small = [Realizer.shift_by(1), Realizer.shift_by(-1)]
    big = small + [Realizer.shift_by(2), Realizer.shift_by(-2)]
    for g in big:
        assert is_compilable(g, small, max_word_len=2) is not None
    for g in small:
        assert is_compilable(g, big, max_word_len=1) is not None
    p = (0, {1: Fraction(1, 3)})
    for k in (1, 2, 3):
        via_small = set(orbit(*p, small, 2 * k))
        via_big = set(orbit(*p, big, k))
        assert via_big <= via_small
        assert set(orbit(*p, small, k)) <= set(orbit(*p, big, k))


def test_orbit_symmetry_with_inverses():
    gens = [Realizer.shift_by(1), Realizer.head_swap(2)]
    p = (0, {1: Fraction(1, 8), 2: Fraction(5, 8)})
    reached = orbit(*p, gens, 3)
    for cell, items in reached:
        back = orbit(cell, dict(items), gens, 4)
        assert (p[0], tuple(sorted(p[1].items()))) in back


def test_is_compilable_shift_decomposition():
    witness = is_compilable(Realizer.shift_by(2), [Realizer.shift_by(1)],
                            max_word_len=2)
    assert witness is not None
    assert len(witness.pieces) == 1
    assert len(witness.pieces[0].word) == 2


def test_is_compilable_negative_within_bounds():
    assert is_compilable(Realizer.head_swap(2), [Realizer.shift_by(1)],
                         max_word_len=5, max_parts=4) is None


def test_is_compilable_identity_via_inverse_pair():
    g = Realizer.offset({1: Fraction(1, 2)})
    witness = is_compilable(Realizer.identity(), [g, g.invert()],
                            max_word_len=2)
    assert witness is not None


def test_is_compilable_needs_a_partition():
    # shift-with-offset generators only realize the shift piecewise
    up = Realizer.make(1, None, {1: Fraction(1, 2)})
    down = Realizer.make(0, None, {1: Fraction(-1, 2)})
    up2 = Realizer.make(1, None, {1: Fraction(-1, 2)})
    down2 = Realizer.make(0, None, {1: Fraction(1, 2)})
    witness = is_compilable(Realizer.shift_by(1), [up, down, up2, down2],
                            max_word_len=2, max_parts=4)
    assert witness is not None
    assert len(witness.pieces) == 2
    covered = MeasurableSet.empty()
    for piece in witness.pieces:
        covered = covered.union(piece.part)
    assert covered == whole(0)


def test_max_parts_bound_is_respected():
    up = Realizer.make(1, None, {1: Fraction(1, 2)})
    down = Realizer.make(0, None, {1: Fraction(-1, 2)})
    up2 = Realizer.make(1, None, {1: Fraction(-1, 2)})
    down2 = Realizer.make(0, None, {1: Fraction(1, 2)})
    assert is_compilable(Realizer.shift_by(1), [up, down, up2, down2],
                         max_word_len=2, max_parts=1) is None


ONES = shipped("ones.mach")


def test_compile_machine_into_unit_shifts_preserves_language():
    m = encode_machine(ONES)
    witnesses = unit_shift_witnesses(m.graphing)
    target = Microcosm.mi(1)
    compiled = compile_graphing(m.graphing, witnesses, target)
    assert validate(compiled) == []
    assert compiled.same_as(m.graphing)  # same partial maps, same sources
    recompiled = EncodedMachine(m.spec, m.layout, compiled)
    before = language(m, T_DET, 6)
    after = language(recompiled, T_DET, 6)
    assert before.accepted == after.accepted
    assert not after.undetermined
    assert cost(compiled) == cost(m.graphing)


def test_compile_with_source_splitting_witness_keeps_cost():
    src = whole(0)
    g = Graphing.make(TRIVIAL, Microcosm.m1(), whole(0, 1),
                      [Edge(Fraction(1), src, Realizer.shift_by(1))])
    left = ms(cellbox(0, 0, "1/2"))
    right = ms(cellbox(0, "1/2", 1))
    witness = CompilationWitness(Realizer.shift_by(1), tuple(
        WitnessPiece(part, (Realizer.shift_by(1),))
        for part in (left, right)))
    compiled = compile_graphing(g, {0: witness}, Microcosm.m1())
    assert len(compiled.edges) == 2
    assert cost(compiled) == cost(g)
    assert validate(compiled) == []


def test_compiled_edge_carries_the_checked_realizer():
    # the piece's word composes to the edge's shift 1, which the witness
    # checks prove, so the compiled edge carries that realizer
    g = Graphing.make(TRIVIAL, Microcosm.m1(), whole(0, 1, 2),
                      [Edge(Fraction(1), whole(0), Realizer.shift_by(1))])
    piece = WitnessPiece(whole(0), (Realizer.shift_by(1),))
    compiled = compile_graphing(
        g, {0: CompilationWitness(Realizer.shift_by(1), (piece,))},
        Microcosm.m1())
    assert validate(compiled) == []
    assert compiled.same_as(g)


def test_invalid_witness_names_edge_and_part():
    src = whole(0)
    g = Graphing.make(TRIVIAL, Microcosm.m1(), whole(0, 1),
                      [Edge(Fraction(1), src, Realizer.shift_by(1))])
    wrong = CompilationWitness(Realizer.shift_by(1), (
        WitnessPiece(whole(0), (Realizer.shift_by(2),)),))
    with pytest.raises(WitnessError) as err:
        compile_graphing(g, {0: wrong}, Microcosm.m1())
    assert "edge 0" in str(err.value) and "part 0" in str(err.value)
    gappy = CompilationWitness(Realizer.shift_by(1), (
        WitnessPiece(ms(cellbox(0, 0, "1/2")), (Realizer.shift_by(1),)),))
    with pytest.raises(WitnessError) as err:
        compile_graphing(g, {0: gappy}, Microcosm.m1())
    assert "cover" in str(err.value)


def _swap_parents(i: int) -> dict[tuple[int, ...], int]:
    """Breadth-first spanning tree of the permutations of 1..i under the
    head swaps: maps each non-identity ranking to the swap index moving
    it one step closer to sorted."""
    identity = tuple(range(1, i + 1))
    parents: dict[tuple[int, ...], int] = {}
    frontier = [identity]
    seen = {identity}
    while frontier:
        nxt = []
        for sigma in frontier:
            for j in range(2, i + 1):
                # left multiplication by the swap (1 j)
                child = tuple(1 if v == j else j if v == 1 else v
                              for v in sigma)
                if child not in seen:
                    seen.add(child)
                    parents[child] = j
                    nxt.append(child)
        frontier = nxt
    return parents


def build_treeing(i: int, depth: int) -> Graphing:
    """Explicit truncated treeing as a graphing: one edge per
    non-sorted ranking, sourced on the dyadic boxes of cell 0 decided
    within ``depth`` bits.  The reference for :func:`treeing_cost`,
    whose partial sum must equal its cost."""
    if i < 2:
        raise ValueError("need at least two coordinates to permute")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    parents = _swap_parents(i)
    sources: dict[tuple[int, ...], list[RationalBox]] = {
        sigma: [] for sigma in parents}

    def refine(intervals: dict[int, RationalInterval], level: int):
        groups: dict[tuple[Fraction, Fraction], list[int]] = {}
        for j, iv in intervals.items():
            groups.setdefault((iv.lo, iv.hi), []).append(j)
        tied = [g for g in groups.values() if len(g) >= 2]
        if not tied:
            order = tuple(j for _, j in sorted(
                (intervals[j].lo, j) for j in intervals))
            if order in parents:
                sources[order].append(RationalBox.make(0, intervals))
            return
        if level >= depth:
            return
        flat = [j for g in tied for j in g]
        for bits in itertools.product((0, 1), repeat=len(flat)):
            split = dict(intervals)
            for j, bit in zip(flat, bits):
                iv = intervals[j]
                mid = (iv.lo + iv.hi) / 2
                split[j] = RationalInterval(iv.lo, mid) if bit == 0 \
                    else RationalInterval(mid, iv.hi)
            refine(split, level + 1)

    refine({j: interval(0, 1) for j in range(1, i + 1)}, 0)
    edges = []
    for sigma in sorted(parents):
        boxes = sources[sigma]
        if boxes:
            edges.append(Edge(Fraction(1), MeasurableSet.from_boxes(boxes),
                              Realizer.head_swap(parents[sigma])))
    carrier = MeasurableSet.of(RationalBox.make(0))
    return Graphing.make(TRIVIAL, Microcosm.mi(i), carrier, edges)


def test_treeing_cost_closed_forms():
    partial, total = treeing_cost(2, 4)
    assert partial == Fraction(15, 32)
    assert total == Fraction(1, 2)
    assert treeing_cost(3, 0)[1] == Fraction(5, 6)
    assert treeing_cost(4, 0)[1] == Fraction(23, 24)


def test_treeing_rejects_a_negative_depth_like_its_cost():
    for fn in (treeing_cost, build_treeing):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            fn(2, -1)


def test_treeing_level_contributions_match_series():
    # level d adds 2^(d-1) prefix cells of measure 4^(-d) for two coords
    for depth in range(1, 8):
        partial, _ = treeing_cost(2, depth)
        series = sum((Fraction(2 ** (d - 1), 4 ** d)
                      for d in range(1, depth + 1)), Fraction(0))
        assert partial == series


def test_treeing_partials_monotone_and_bounded():
    for i in (2, 3, 4):
        last = Fraction(-1)
        for depth in range(0, 7):
            partial, total = treeing_cost(i, depth)
            assert last <= partial < total or (partial == 0 and depth == 0)
            last = partial


def test_explicit_treeing_matches_partial_sums():
    for i, depth in [(2, 1), (2, 3), (2, 6), (3, 2), (3, 3), (3, 4),
                     (4, 2), (5, 2)]:
        g = build_treeing(i, depth)
        assert validate(g) == []
        partial, _ = treeing_cost(i, depth)
        assert cost(g) == partial
    assert treeing_cost(4, 2)[0] == Fraction(23, 256)
    # pigeonhole: five coordinates never get distinct 2-bit prefixes
    assert treeing_cost(5, 2)[0] == 0
    assert build_treeing(5, 2).edges == ()


def test_explicit_treeing_edges_are_swaps_into_sorted_order():
    g = build_treeing(2, 2)
    for e in g.edges:
        assert e.realizer == Realizer.head_swap(2)
        for b in e.source.boxes:
            assert b.interval_at(2).hi <= b.interval_at(1).lo \
                or b.interval_at(1).hi <= b.interval_at(2).lo


def test_separation_experiment():
    report = separation_experiment(2, 3)
    assert report["treeing_total_small"] == Fraction(1, 2)
    assert report["treeing_total_large"] == Fraction(5, 6)
    assert report["totals_distinct"]
    assert report["swap_noncompilable_within_bounds"]
    report = separation_experiment(3, 4)
    assert report["treeing_total_small"] == Fraction(5, 6)
    assert report["treeing_total_large"] == Fraction(23, 24)
    with pytest.raises(ValueError):
        separation_experiment(2, 2)


def _two_cell_shift():
    return Graphing.make(TRIVIAL, Microcosm.m1(), whole(0, 1),
                         [Edge(Fraction(1), whole(0), Realizer.shift_by(1))])


@pytest.mark.parametrize("call", [
    lambda: cycles(_two_cell_shift(), _two_cell_shift(), max_len=-3),
    lambda: measurement(_two_cell_shift(), _two_cell_shift(),
                        lambda w: Fraction(1), max_len=-1),
    lambda: is_compilable(Realizer.shift_by(1), [Realizer.shift_by(1)],
                          max_word_len=-1),
    lambda: is_compilable(Realizer.shift_by(1), [Realizer.shift_by(1)],
                          max_parts=-1),
    lambda: next(_word_states([Realizer.shift_by(1)], -2, False)),
    lambda: orbit(0, {}, [Realizer.shift_by(1)], -1),
    lambda: plug(_two_cell_shift(), _two_cell_shift(), max_steps=-1),
    # the budget is checked before the operands: this one's source lies
    # outside its carrier
    lambda: plug(Graphing.make(TRIVIAL, Microcosm.m1(), whole(1),
                               _two_cell_shift().edges),
                 _two_cell_shift(), max_steps=-1),
    lambda: language(encode_machine(shipped("ones.mach")), T_DET, 2,
                     max_steps=-1),
], ids=["cycles", "measurement", "is_compilable-word-len",
        "is_compilable-parts", "word_states", "orbit", "plug",
        "plug-invalid-operand", "language"])
def test_negative_search_bound_is_an_error(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call()
