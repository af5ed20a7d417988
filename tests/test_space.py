import ast
import collections
import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gridmodel import Box, Grid, Interval, image
from graphvm import space
from graphvm.execution import _split
from graphvm.realizers import Realizer
from graphvm.space import (FULL, MeasurableSet, RationalBox, RationalInterval,
                           _box_minus, common_refinement, interval)
from harness import cellbox, log_calls, ms


def covers(a, b):
    """Whether interval ``a`` holds interval ``b``, compared in integers."""
    return a.a * b.d <= b.a * a.d and b.b * a.d <= a.b * b.d


def test_interval_invariants():
    iv = interval("1/3", "2/3")
    assert iv.length == Fraction(1, 3)
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        RationalInterval(Fraction(-1, 2), Fraction(1, 2))


def test_float_endpoints_are_refused():
    # integer division makes a float: the slip these refuse
    for lo, hi in ((1 / 10, 1 / 2), (0, 1 / 2), (Fraction(1, 10), 1 / 1)):
        with pytest.raises(TypeError, match="p/q"):
            interval(lo, hi)
        with pytest.raises(TypeError, match="p/q"):
            RationalInterval(lo, hi)
    assert interval(0, "1/2") == interval(Fraction(0), Fraction(1, 2))


def test_a_float_cell_is_refused():
    with pytest.raises(TypeError, match="cell must be an int"):
        RationalBox.make(1 / 1)
    assert RationalBox.make(1).cell == 1


def test_interval_form_is_unique():
    half = RationalInterval(Fraction(1, 2), 1)
    assert RationalInterval(Fraction(2, 4), 1) == half
    assert hash(RationalInterval(Fraction(2, 4), 1)) == hash(half)
    assert RationalInterval.over(3, 6, 6) == half
    assert hash(RationalInterval.over(3, 6, 6)) == hash(half)
    assert RationalInterval.over(2, 3, 6) != RationalInterval.over(1, 2, 4)
    with pytest.raises(ValueError):
        RationalInterval.over(2, 2, 6)
    with pytest.raises(ValueError):
        RationalInterval.over(3, 7, 6)
    with pytest.raises(AttributeError):
        half.a = 0


def test_interval_endpoints_come_back_in_lowest_terms():
    iv = RationalInterval.over(2, 4, 12)
    for got, want in ((iv.lo, Fraction(1, 6)), (iv.hi, Fraction(1, 3)),
                      (iv.length, Fraction(1, 6))):
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
    assert type(FULL.lo) is Fraction and FULL.lo == 0 and FULL.hi == 1
    assert type(MeasurableSet.of(RationalBox.make(0, {1: iv})).measure()) \
        is Fraction


def test_interval_text_is_unchanged():
    assert str(interval("2/6", "4/6")) == "[1/3,2/3)"
    assert str(FULL) == "[0,1)"
    assert str(interval(0, "1/2")) == "[0,1/2)"
    assert str(RationalBox.make(2, {1: interval("1/4", 1),
                                    3: interval(0, "5/12")})) == \
        "{cell 2: x1 in [1/4,1), x3 in [0,5/12)}"


def test_sets_built_along_different_paths_hash_alike():
    merged = ms(RationalBox.make(0, {1: interval("1/4", 1)}))
    halves = ms(RationalBox.make(0, {1: interval("1/4", "1/2")}),
                RationalBox.make(0, {1: interval("1/2", 1)}))
    difference = ms(RationalBox.make(0)).subtract(
        ms(RationalBox.make(0, {1: interval(0, "1/4")})))
    meet = ms(RationalBox.make(0, {1: interval("1/8", 1)})).intersect(
        ms(RationalBox.make(0, {1: interval("1/4", 1)}),
           RationalBox.make(1)))
    for s in (halves, difference, meet):
        assert s == merged
        assert hash(s) == hash(merged) == hash(s)
        assert {merged: "found"}[s] == "found"
    # the cached hash is no field, and equality stays structural: the raw
    # constructor trusts its input, so an unmerged split is another set
    assert [f.name for f in dataclasses.fields(MeasurableSet)] == ["boxes"]
    assert repr(merged) == f"MeasurableSet(boxes={merged.boxes!r})"
    assert MeasurableSet(halves.boxes) == merged
    assert MeasurableSet((RationalBox.make(0, {1: interval("1/4", "1/2")}),
                          RationalBox.make(0, {1: interval("1/2", 1)}))) \
        != merged


def test_common_refinement_examples():
    a = ms(RationalBox.make(0, {1: interval(0, "2/3")}))
    b = ms(RationalBox.make(0, {1: interval("1/3", 1)}))
    parts = common_refinement([a, b])
    assert [p.interval_at(1) for p in parts] == [
        interval(0, "1/3"), interval("1/3", "2/3"), interval("2/3", 1)]
    assert common_refinement([a]) == list(a.boxes)
    c = ms(RationalBox.make(5, {1: interval(0, "1/2")}))
    assert common_refinement([a, c]) == list(a.boxes) + list(c.boxes)


# Endpoints on the 1/9 grid, or each interval on the 1/4 or the 1/6 grid:
# the mixed sets make the sweep scale numerators to a common denominator.
_NINTHS = (9,)
_MIXED = (4, 6)


def _endpoints(draw, denominators):
    d = draw(st.sampled_from(denominators))
    lo = draw(st.integers(0, d - 1))
    return Fraction(lo, d), Fraction(draw(st.integers(lo + 1, d)), d)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interval_meet_and_cover_agree_with_fractions(data):
    (alo, ahi), (blo, bhi) = (_endpoints(data.draw, _MIXED)
                              for _ in range(2))
    a, b = RationalInterval(alo, ahi), RationalInterval(blo, bhi)
    lo, hi = max(alo, blo), min(ahi, bhi)
    assert a.intersect(b) == (RationalInterval(lo, hi) if lo < hi else None)
    assert covers(a, b) == (alo <= blo and bhi <= ahi)


@st.composite
def boxes(draw, cells=2, coords=2, denominators=_NINTHS):
    cell = draw(st.integers(0, cells - 1))
    constraints = {}
    for j in range(1, coords + 1):
        if draw(st.booleans()):
            constraints[j] = RationalInterval(*_endpoints(draw, denominators))
    return RationalBox.make(cell, constraints)


@st.composite
def sets(draw, denominators=_NINTHS):
    return MeasurableSet.from_boxes(
        draw(st.lists(boxes(denominators=denominators), min_size=0, max_size=4)))


def _check_against_the_model(a, b):
    grid = Grid(a.boxes + b.boxes)
    in_a, in_b = grid.bits(a.boxes), grid.bits(b.boxes)
    results = {"subtract": (a.subtract(b), in_a & ~in_b),
               "intersect": (a.intersect(b), in_a & in_b),
               "union": (a.union(b), in_a | in_b)}
    for name, (got, want) in results.items():
        assert _is_canonical(got), name
        assert grid.bits(got.boxes) == want, name
    operands = [(a, in_a), (b, in_b), *results.values()]
    for s, bits in operands:
        assert s.measure() == Fraction(*grid.measure(bits))
        for other, other_bits in operands:
            assert s.subset_of(other) == (bits & ~other_bits == 0)
    # a difference that removes nothing is its own operand
    assert (results["subtract"][0] is a) == (in_a & in_b == 0)


_BOTH_GRIDS = pytest.mark.parametrize("denominators", [_NINTHS, _MIXED],
                                      ids=["ninths", "mixed"])


@_BOTH_GRIDS
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_set_operations_agree_with_point_membership(denominators, data):
    a, b = (data.draw(sets(denominators)) for _ in range(2))
    _check_against_the_model(a, b)
    # a set against itself, and against a superset
    _check_against_the_model(a, a)
    _check_against_the_model(a, a.union(b))


_EMPTY, _UNIT = MeasurableSet.empty(), ms(cellbox(0))
_LEFT_TWO_THIRDS = ms(cellbox(0, 0, "2/3"))
_THIRDS = ms(cellbox(0, 0, "1/3"), cellbox(0, "1/3", 1))


# (a, b, operation, its value): ``a.measure()``, or ``a`` met with, less
# or joined with ``b``
@pytest.mark.parametrize("a, b, operation, want", [
    (_EMPTY, _EMPTY, "measure", 0),
    (ms(RationalBox.make(3, {1: interval(0, "1/2"),
                             2: interval("1/4", "3/4")})),
     _EMPTY, "measure", Fraction(1, 4)),
    # a partition of the unit merges to the whole cell
    (_THIRDS, _EMPTY, "union", _UNIT),
    (_THIRDS, _EMPTY, "measure", 1),
    (ms(cellbox(0, 0, "1/3")), ms(cellbox(0, "1/3", 1)), "union", _UNIT),
    (_LEFT_TWO_THIRDS, _LEFT_TWO_THIRDS, "intersect", _LEFT_TWO_THIRDS),
    (ms(cellbox(0, 0, "1/2")), ms(cellbox(1, 0, "1/2")), "intersect", _EMPTY),
    (_LEFT_TWO_THIRDS, ms(cellbox(0, "1/3", 1)), "intersect",
     ms(cellbox(0, "1/3", "2/3"))),
    (_LEFT_TWO_THIRDS, _LEFT_TWO_THIRDS, "subtract", _EMPTY),
    (_LEFT_TWO_THIRDS, _EMPTY, "subtract", _LEFT_TWO_THIRDS),
    (_UNIT, ms(cellbox(0, 0, "1/2")), "subtract", ms(cellbox(0, "1/2", 1))),
    (ms(cellbox(0, "1/2", 1)), _EMPTY, "measure", Fraction(1, 2)),
])
def test_hand_sets_agree_with_the_model(a, b, operation, want):
    _check_against_the_model(a, b)
    got = a.measure() if operation == "measure" else getattr(a, operation)(b)
    assert got == want


def test_subtract_passes_through_untouched_and_whole_cells():
    ninth = Fraction(1, 9)
    several = ms(RationalBox.make(0, {1: interval(0, 3 * ninth)}),
                 RationalBox.make(0, {1: interval(3 * ninth, 1),
                                      2: interval(0, 4 * ninth)}),
                 RationalBox.make(1, {2: interval(2 * ninth, 5 * ninth)}),
                 RationalBox.make(1, {1: interval(ninth, 2 * ninth),
                                      2: interval(6 * ninth, 1)}))
    in_cell_0 = [b for b in several.boxes if b.cell == 0]
    assert len(in_cell_0) == 2
    # other misses cell 0, which passes through box for box
    other_cell = ms(RationalBox.make(1, {1: interval(0, 5 * ninth)}))
    got = several.subtract(other_cell)
    assert [b for b in got.boxes if b.cell == 0] == in_cell_0
    _check_against_the_model(several, other_cell)
    # a whole-cell box beside a partial box in the same cell drops that
    # cell; the partial box in cell 1 is swept
    whole = ms(RationalBox.make(0),
               RationalBox.make(0, {2: interval(0, ninth)}),
               RationalBox.make(1, {1: interval(ninth, 7 * ninth)}))
    assert several.subtract(whole).cells() == {1}
    _check_against_the_model(several, whole)
    # removed boxes in cells the set lacks change nothing
    elsewhere = ms(RationalBox.make(2), RationalBox.make(3, {1: interval(0, ninth)}))
    assert several.subtract(elsewhere) is several
    _check_against_the_model(several, elsewhere)
    # nor do boxes of its cells that miss all of its boxes
    beside = ms(RationalBox.make(0, {1: interval(3 * ninth, 1),
                                     2: interval(4 * ninth, 1)}),
                RationalBox.make(1, {1: interval(2 * ninth, 1),
                                     2: interval(5 * ninth, 6 * ninth)}))
    assert several.subtract(beside) is several
    _check_against_the_model(several, beside)
    # one box less a box of its cell that misses it
    alone = ms(in_cell_0[0])
    assert alone.subtract(beside) is alone
    assert alone.subtract(ms(beside.boxes[0])) is alone
    assert alone.subtract(ms(RationalBox.make(1))) is alone


@settings(max_examples=150, deadline=None)
@given(sets(), sets())
def test_point_set_equality_gives_identical_forms(a, b):
    # build the same point set two ways: (a u b) vs (b u a) plus overlaps
    left = MeasurableSet.from_boxes(a.boxes + b.boxes)
    right = MeasurableSet.from_boxes(b.boxes + a.boxes + a.intersect(b).boxes)
    assert left.boxes == right.boxes
    assert hash(left) == hash(right)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([_NINTHS, _MIXED]).flatmap(
    lambda ds: st.tuples(sets(ds), sets(ds))))
@example((ms(RationalBox.make(0, {1: interval(0, "3/4"),
                                  2: interval("1/4", 1)})),
          ms(RationalBox.make(0, {2: interval(0, "1/2")}))))
def test_refinement_parts_are_disjoint_and_cover(pair):
    a, b = pair
    parts = common_refinement([a, b])
    assert parts == sorted(parts, key=RationalBox.key)
    grid = Grid([*a.boxes, *b.boxes, *parts])
    # the parts' bits add up to their union only when no two share a bit
    assert sum(grid.bits((p,)) for p in parts) == grid.bits(parts) == \
        grid.bits(a.boxes) | grid.bits(b.boxes)
    # each input is the union of the parts that meet it
    for original in (a, b):
        bits = grid.bits(original.boxes)
        assert grid.bits([p for p in parts if grid.bits((p,)) & bits]) == bits


@_BOTH_GRIDS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_restrict_meets_every_cell_with_the_constraints(denominators, data):
    s = data.draw(sets(denominators))
    c = data.draw(boxes(cells=1, coords=3, denominators=denominators)).coord_map
    within = tuple(RationalBox.make(cell, c) for cell in s.cells())
    got = s.restrict(c)
    assert _is_canonical(got)
    grid = Grid(s.boxes + within)
    assert grid.bits(got.boxes) == grid.bits(s.boxes) & grid.bits(within)


# -- fast paths: results that return an operand unchanged ---------------------

_ALL_GRIDS = (4, 6, 9)


def _inside_one_box_of(s, other):
    """Whether each box of ``s`` lies inside a single box of ``other``."""
    return all(any(x.cell == y.cell and
                   all(covers(y.interval_at(j), x.interval_at(j))
                       for j in (1, 2))
                   for y in other.boxes)
               for x in s.boxes)


def _is_canonical(s):
    return (MeasurableSet.from_boxes(s.boxes).boxes == s.boxes
            and list(s.boxes) == sorted(s.boxes, key=RationalBox.key))


@st.composite
def _nested_pair(draw):
    """A set ``b``, and a set ``a`` made of sub-boxes of ``b``'s boxes,
    which often lie inside one box of ``b`` each."""
    b = draw(sets(_ALL_GRIDS))
    picks = draw(st.lists(st.sampled_from(b.boxes), max_size=3)) \
        if b.boxes else []
    shrunk = [x.intersect(draw(boxes(denominators=_ALL_GRIDS)))
              for x in picks]
    a = MeasurableSet.from_boxes(x for x in shrunk if x is not None)
    return a, b


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(sets(_ALL_GRIDS), sets(_ALL_GRIDS)), _nested_pair()))
def test_intersect_returns_the_operand_when_nothing_is_cut(pair):
    a, b = pair
    grid = Grid(a.boxes + b.boxes)
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        got = x.intersect(y)
        assert grid.bits(got.boxes) == grid.bits(x.boxes) & grid.bits(y.boxes)
        assert _is_canonical(got)
        if _inside_one_box_of(x, y):
            assert got is x


@settings(max_examples=200, deadline=None)
@given(sets(_ALL_GRIDS), boxes(cells=1, coords=2, denominators=_ALL_GRIDS),
       st.booleans())
def test_restrict_returns_the_operand_when_nothing_is_cut(s, constraint_box,
                                                          inside):
    c = constraint_box.coord_map
    if inside:  # first move the set inside the constraints
        s = s.restrict(c)
    got = s.restrict(c)
    within = (RationalBox.make(0, c), RationalBox.make(1, c))
    grid = Grid(s.boxes + within)
    assert grid.bits(got.boxes) == grid.bits(s.boxes) & grid.bits(within)
    assert _is_canonical(got)
    if all(covers(c.get(j, FULL), b.interval_at(j))
           for b in s.boxes for j in (1, 2)):
        assert got is s
    assert (got is s) == (got == s)


@settings(max_examples=150, deadline=None)
@given(st.lists(boxes(cells=4, denominators=_ALL_GRIDS), max_size=4,
                unique_by=lambda b: b.cell))
def test_one_box_per_cell_is_its_own_canonical_form(one_per_cell):
    emitted = MeasurableSet.from_boxes(one_per_cell)
    # each box twice over: the same point set, swept cell by cell
    swept = MeasurableSet.from_boxes(one_per_cell + one_per_cell)
    assert emitted.boxes == swept.boxes
    assert sorted(one_per_cell, key=RationalBox.key) == list(emitted.boxes)
    assert all(any(b is x for x in one_per_cell) for b in emitted.boxes)


def test_intersect_and_restrict_keep_the_operand_examples():
    quarter = RationalBox.make(0, {1: interval("1/4", "1/2")})
    wide = ms(RationalBox.make(0, {1: interval(0, "3/4")}), RationalBox.make(2))
    narrow = ms(quarter, RationalBox.make(2, {2: interval("1/6", "5/9")}))
    assert narrow.intersect(wide) is narrow
    assert narrow.restrict({1: interval(0, "1/2")}) is not narrow
    assert narrow.restrict({2: interval(0, 1)}) is narrow
    alone = ms(quarter)
    assert alone.restrict({1: interval("1/6", "5/6")}) is alone
    assert quarter.intersect(RationalBox.make(0)) is quarter
    # a box that spans two boxes of the other set is cut in two and merged
    # back: equal, but built anew
    halves = ms(RationalBox.make(0, {1: interval(0, "1/2"), 2: interval(0, "1/2")}),
                RationalBox.make(0, {1: interval("1/2", 1)}))
    left = ms(RationalBox.make(0, {2: interval(0, "1/3")}))
    got = left.intersect(halves)
    assert got == left and got is not left


# -- the order of intervals and boxes, without Fraction -----------------------

@st.composite
def _intervals(draw, denominators=_ALL_GRIDS):
    return RationalInterval(*_endpoints(draw, denominators))


@settings(max_examples=200, deadline=None)
@given(st.lists(_intervals(), max_size=8))
def test_intervals_sort_by_their_endpoints(ivs):
    assert sorted(ivs) == sorted(ivs, key=lambda iv: (iv.lo, iv.hi))
    for x in ivs:
        for y in ivs:
            assert (x < y) == ((x.lo, x.hi) < (y.lo, y.hi))


def _fraction_key(b):
    """The box key in Fractions, as it was written before intervals
    ordered themselves."""
    return (b.cell, tuple((j, iv.lo, iv.hi) for j, iv in b.coords))


@settings(max_examples=200, deadline=None)
@given(st.lists(boxes(cells=2, coords=3, denominators=_ALL_GRIDS), max_size=8))
def test_box_keys_sort_as_their_fraction_keys(bs):
    assert sorted(bs, key=RationalBox.key) == sorted(bs, key=_fraction_key)
    for b in bs:
        cell, coords = b.key()
        assert cell == b.cell and coords is b.coords


def test_box_keys_hold_no_fractions():
    b = RationalBox.make(3, {1: interval("1/4", "1/2"), 4: interval("2/9", 1)})
    cell, coords = b.key()
    assert all(type(j) is int and type(iv) is RationalInterval
               for j, iv in coords)
    assert not any(isinstance(x, Fraction)
                   for _, iv in coords for x in (iv.a, iv.b, iv.d))
    assert RationalInterval.__lt__(FULL, 1) is NotImplemented


@settings(max_examples=150, deadline=None)
@given(st.lists(boxes(cells=2, coords=3, denominators=_ALL_GRIDS), max_size=5))
def test_measure_sums_to_the_fraction_sum(bs):
    s = MeasurableSet(tuple(bs))  # raw: the boxes may overlap
    got = s.measure()
    assert type(got) is Fraction
    assert got == sum(math.prod(iv.hi - iv.lo for _, iv in b.coords)
                      for b in bs)


# -- the box difference, and the split at a cut, against the grid model -------

def _check_box_minus(k, r):
    got = _box_minus(k, r)
    assert (got is None) == (k.intersect(r) is None)
    pieces = (k,) if got is None else got
    grid = Grid((k, r))
    assert grid.bits(pieces) == grid.bits((k,)) & ~grid.bits((r,))
    assert MeasurableSet.from_boxes(pieces).boxes == pieces
    one = MeasurableSet((k,))
    diff = one.subtract(MeasurableSet((r,)))
    assert diff.boxes == pieces
    assert (diff is one) == (got is None)


def _grid_box(rng, cell, n):
    """A box of ``cell`` on ``n`` of coordinates 1-3, each interval on the
    1/D grid for a D drawn from 1-6 and 8 (D = 1 leaves it free)."""
    coords = {}
    for j in rng.sample((1, 2, 3), n):
        d = rng.choice((1, 2, 3, 4, 5, 6, 8))
        a = rng.randrange(d)
        coords[j] = RationalInterval.over(a, rng.randrange(a + 1, d + 1), d)
    return RationalBox.make(cell, coords)


def test_one_box_less_one_box_is_the_sweep():
    rng = random.Random(27)
    kinds = collections.Counter()
    for _ in range(12000):
        k = _grid_box(rng, 0, rng.randint(0, 3))
        other = _grid_box(rng, 0, rng.randint(0, 3))
        r = rng.choice([other, k, k.intersect(other) or other,
                        RationalBox.make(0)])
        if rng.randrange(2):
            k, r = r, k
        meet = k.intersect(r)
        kinds["disjoint" if meet is None else "equal" if k == r
              else "whole cell" if not (k.coords and r.coords)
              else "nested" if meet in (k, r) else "overlapping"] += 1
        _check_box_minus(k, r)
    assert min(kinds[kind] for kind in ("disjoint", "equal", "whole cell",
                                        "nested", "overlapping")) > 100
    # a box of another cell misses it
    k = _grid_box(rng, 0, 2)
    assert MeasurableSet((k,)).subtract(ms(RationalBox.make(1))).boxes == (k,)

    # then every same-cell pair of boxes of canonical sets over 1/4 and 1/6
    @settings(max_examples=150, deadline=None)
    @given(sets(_MIXED), sets(_MIXED))
    def across_denominators(a, b):
        for k in a.boxes + b.boxes:
            for r in a.boxes + b.boxes:
                if k.cell == r.cell:
                    _check_box_minus(k, r)
    across_denominators()


def test_set_less_set_is_the_refined_difference():
    # several boxes per cell on both sides; the boxes taken away may
    # overlap, as a path's hits do when its dead region is read
    rng = random.Random(31)
    kinds = collections.Counter()
    for _ in range(700):
        cells = rng.sample(range(-1, 3), rng.randint(1, 3))
        a = MeasurableSet.from_boxes(
            _grid_box(rng, rng.choice(cells), rng.randint(1, 3))
            for _ in range(rng.randint(3, 6)))
        # two fifths of the cuts miss a: pieces of its complement, or
        # boxes of a cell it lacks
        miss = rng.randrange(5) < 2
        cut = []
        for _ in range(rng.randint(2, 5)):
            how = rng.randrange(2, 4) if miss else rng.choice((0, 0, 1, 2, 3))
            if how == 0:  # a piece of one of a's boxes
                k = rng.choice(a.boxes)
                cut.append(k.intersect(_grid_box(rng, k.cell, 2)) or k)
            elif how == 1:
                cut.append(RationalBox.make(rng.choice(cells)))
            elif how == 2:
                cut.append(_grid_box(rng, 5, rng.randint(0, 3)))
            else:
                cut += ms(RationalBox.make(rng.choice(cells))).subtract(a).boxes
        b = MeasurableSet(tuple(cut))  # raw: in any order, overlaps kept
        got = a.subtract(b)
        grid = Grid(a.boxes + b.boxes)
        assert grid.bits(got.boxes) == grid.bits(a.boxes) & ~grid.bits(b.boxes)
        assert _is_canonical(got)
        missed = all(k.intersect(r) is None for k in a.boxes for r in cut)
        assert (got is a) == missed
        per_cell = collections.Counter(k.cell for k in a.boxes)
        cut_cells = collections.Counter(r.cell for r in cut)
        kinds["misses"] += missed
        kinds["several boxes in a cell on both sides"] += any(
            n > 1 and cut_cells[cell] > 1 for cell, n in per_cell.items())
        kinds["overlapping cuts"] += any(
            r.intersect(q) is not None for r, q in itertools.combinations(cut, 2))
        kinds["whole cells"] += any(not r.coords for r in cut)
        kinds["several cells"] += len(per_cell) > 1
    assert min(kinds.values()) > 300, kinds


def test_the_grid_model_is_point_membership():
    # a square's midpoint lies in the sources whose bits hold the square
    rng = random.Random(33)
    seen = collections.Counter()
    for _ in range(300):
        sources = [[_grid_box(rng, rng.randrange(2), rng.randint(0, 2))
                    for _ in range(rng.randint(1, 3))] for _ in range(3)]
        grid = Grid(b for boxes in sources for b in boxes)
        bits = [grid.bits(boxes) for boxes in sources]
        held = set()
        for k, (cell, ends) in enumerate(grid.squares()):
            middle = {j: Fraction(lo + hi, 2 * grid.scale[j])
                      for j, (lo, hi) in ends.items()}
            over = tuple(i for i, boxes in enumerate(sources) if any(
                b.cell == cell and all(iv.lo <= middle[j] < iv.hi
                                       for j, iv in b.coords) for b in boxes))
            assert tuple(i for i, b in enumerate(bits) if b >> k & 1) == over
            held.add(over)
            seen[len(over)] += 1
        assert k + 1 == grid.size * len(grid.cells)
        # each source weighs its index
        loads = grid.loads(enumerate(sources))
        assert sorted(map(tuple, loads)) == sorted(held - {()})
    assert min(seen[n] for n in range(4)) > 300, seen


def test_the_model_image_holds_each_mapped_midpoint():
    # a midpoint moved by hand lies in the model's image, and a refused box
    # has one that the offset it names pushes out of [0, 1)
    rng = random.Random(34)
    seen = collections.Counter()
    for _ in range(400):
        b = _grid_box(rng, 0, rng.randint(0, 3))
        r = Realizer.make(rng.randrange(-2, 3), rng.choice(
            ({}, {1: 2, 2: 1}, {1: 3, 3: 1}, {1: 2, 2: 3, 3: 1})),
            {j: Fraction(rng.randrange(1 - d, d), d) for j, d in zip(
                rng.sample((1, 2, 3), rng.randint(0, 2)),
                rng.choices((2, 3, 4, 6, 8), k=2))})
        perm, back = dict(r.perm), {k: j for j, k in r.perm}
        # each moved axis is cut where its input leaves [0, 1)
        ends = [Box(0, {back.get(j, j): Interval(max(0, -p), min(q, q - p), q)})
                for j, p, q in r.offsets]
        grid = Grid([b, *ends, _grid_box(rng, 0, 3)])
        inside, want = grid.bits((b,)), image(r, b)
        pushed = set()
        for k, (_, sides) in enumerate(grid.squares()):
            if not inside >> k & 1:
                continue
            point = dict.fromkeys((1, 2, 3), Fraction(1, 2)) | {
                j: Fraction(lo + hi, 2 * grid.scale[j])
                for j, (lo, hi) in sides.items()}
            moved = {perm.get(j, j): v for j, v in point.items()}
            for j, p, q in r.offsets:
                moved[j] += Fraction(p, q)
            pushed |= {j for j, _, _ in r.offsets if not 0 <= moved[j] < 1}
            assert type(want) is int or all(
                iv.a <= moved[j] * iv.d < iv.b for j, iv in want.coords)
        if type(want) is int:
            assert want == back.get(min(pushed), min(pushed))
        else:
            assert not pushed and want.cell == r.shift
            mapped = Grid((want,))
            assert Fraction(*grid.measure(inside)) == math.prod(
                iv.hi - iv.lo for _, iv in b.coords) == \
                Fraction(*mapped.measure(mapped.bits((want,))))
        seen[type(want), bool(r.perm)] += 1
        seen["up"] += any(p > 0 for _, p, _ in r.offsets)
        seen["down"] += any(p < 0 for _, p, _ in r.offsets)
    assert len(seen) == 6 and min(seen.values()) > 40, seen


def test_the_grid_model_imports_nothing_from_graphvm():
    """The model is the reference the set algebra and the realizers are
    checked against, in integers alone, so it imports ``itertools`` and
    ``math`` and nothing else."""
    with open(sys.modules[Grid.__module__].__file__) as f:
        nodes = list(ast.walk(ast.parse(f.read())))
    imported = [alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in nodes
                 if isinstance(node, ast.ImportFrom)]
    assert imported and set(imported) <= {"itertools", "math"}, imported


def test_union_is_the_sweep_of_both_sets_boxes(monkeypatch):
    # sets that share no cell are merged by cell, with no sweep
    rng = random.Random(29)
    swept = log_calls(monkeypatch, (space, "_canonicalize"))
    kinds = collections.Counter()
    for _ in range(3000):
        pool = rng.sample(range(-2, 4), 4)
        disjoint = rng.randrange(2)
        a, b = (MeasurableSet.from_boxes(
                    _grid_box(rng, rng.choice(cells), rng.randint(0, 3))
                    for _ in range(rng.randint(0, 4)))
                for cells in ((pool[:2], pool[2:]) if disjoint
                              else (pool, pool)))
        want = MeasurableSet.from_boxes(a.boxes + b.boxes).boxes
        swept.clear()
        assert a.union(b).boxes == want
        shared = not a.cells().isdisjoint(b.cells())
        assert bool(swept) == shared
        kinds["shared" if shared else "disjoint"] += 1
        # a cell of several boxes keeps their canonical order in the merge
        kinds["merged several boxes of a cell"] += not shared and any(
            len(s.boxes) > len(s.cells()) for s in (a, b))
    assert min(kinds.values()) > 300, kinds


def test_intersect_sweeps_only_meets_that_share_a_cell(monkeypatch):
    # the meets of box pairs come in cell order: one per cell is canonical
    rng = random.Random(30)
    swept = log_calls(monkeypatch, (space, "_canonicalize"))
    kinds = collections.Counter()
    for _ in range(3000):
        one_per_cell = rng.randrange(2)
        a, b = (MeasurableSet.from_boxes(
                    _grid_box(rng, cell, rng.randint(0, 3))
                    for cell in (rng.sample(range(-2, 3), rng.randint(1, 4))
                                 if one_per_cell else
                                 rng.choices(range(-1, 1), k=rng.randint(1, 5))))
                for _ in range(2))
        hits = [got for p in a.boxes for q in b.boxes
                if (got := p.intersect(q)) is not None]
        want = MeasurableSet.from_boxes(hits).boxes
        swept.clear()
        got = a.intersect(b)
        assert got.boxes == want
        shared = len({h.cell for h in hits}) < len(hits)
        # a set whose every box lies whole in one of the other's is kept
        assert bool(swept) == (shared and got is not a)
        kinds["kept" if got is a else "swept" if shared
              else "several cells" if len(hits) > 1 else "at most one"] += 1
    assert min(kinds.values()) > 300, kinds


@st.composite
def _image_and_cut(draw):
    """A set over cells 0-2, and a cut that holds each of those cells
    whole, misses it, or holds part of it."""
    image = MeasurableSet.from_boxes(draw(st.lists(
        boxes(cells=3, denominators=_ALL_GRIDS), max_size=4)))
    cut = []
    for cell in range(3):
        how = draw(st.sampled_from(("whole", "absent", "partial")))
        if how == "whole":
            cut.append(RationalBox.make(cell))
        elif how == "partial":
            cut += [RationalBox(cell, b.coords) for b in draw(st.lists(
                boxes(cells=1, denominators=_ALL_GRIDS), min_size=1,
                max_size=2))]
    return image, MeasurableSet.from_boxes(cut)


@settings(max_examples=300, deadline=None)
@given(_image_and_cut())
def test_split_is_the_difference_and_the_meet(pair):
    image, cut = pair
    exits, inside = _split(image, cut)
    grid = Grid(image.boxes + cut.boxes)
    bits, cut_bits = grid.bits(image.boxes), grid.bits(cut.boxes)
    assert grid.bits(exits.boxes) == bits & ~cut_bits
    assert grid.bits(inside.boxes) == bits & cut_bits
    assert _is_canonical(exits) and _is_canonical(inside)


def test_split_parts_whole_cells_and_sweeps_partial_ones(monkeypatch):
    half = interval(0, "1/2")
    image = ms(RationalBox.make(0, {1: half}), RationalBox.make(1),
               RationalBox.make(2, {2: half}))
    swept = log_calls(monkeypatch, (MeasurableSet, "subtract"),
                      (MeasurableSet, "intersect"))
    # whole cells: the boxes are parted by cell, with no set operation
    exits, inside = _split(image, ms(RationalBox.make(0), RationalBox.make(2),
                                     RationalBox.make(5)))
    assert (exits.boxes, inside.boxes) == (image.boxes[1:2],
                                           image.boxes[::2])
    assert _split(image, ms(RationalBox.make(4)))[0] is image
    assert _split(image, ms(*(RationalBox.make(c) for c in range(3))))[1] \
        is image
    assert swept == []
    # a cut that holds part of cell 1 is subtracted and met
    part = ms(RationalBox.make(0), RationalBox.make(1, {1: half}))
    assert _split(image, part) == (
        ms(RationalBox.make(1, {1: interval("1/2", 1)}), image.boxes[2]),
        ms(image.boxes[0], RationalBox.make(1, {1: half})))
    assert [name for name, _ in swept] == ["subtract", "intersect"]
