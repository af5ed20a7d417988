from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphvm.space import (MeasurableSet, RationalBox, RationalInterval,
                           common_refinement, interval)


def ms(*boxes):
    return MeasurableSet.from_boxes(boxes)


def test_interval_invariants():
    iv = interval("1/3", "2/3")
    assert iv.length == Fraction(1, 3)
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        RationalInterval(Fraction(-1, 2), Fraction(1, 2))


def test_measure_examples():
    assert MeasurableSet.empty().measure() == 0
    b = RationalBox.make(3, {1: interval(0, "1/2"), 2: interval("1/4", "3/4")})
    assert ms(b).measure() == Fraction(1, 4)
    left = RationalBox.make(0, {1: interval(0, "1/3")})
    right = RationalBox.make(0, {1: interval("1/3", 1)})
    assert ms(left, right).measure() == 1


def test_partition_of_unit_merges_to_full_box():
    left = RationalBox.make(0, {1: interval(0, "1/3")})
    right = RationalBox.make(0, {1: interval("1/3", 1)})
    assert ms(left, right) == ms(RationalBox.make(0))


def test_intersect_examples():
    a = ms(RationalBox.make(0, {1: interval(0, "2/3")}))
    b = ms(RationalBox.make(0, {1: interval("1/3", 1)}))
    assert a.intersect(a) == a
    other_cell = ms(RationalBox.make(1, {1: interval(0, "1/2")}))
    assert ms(RationalBox.make(0, {1: interval(0, "1/2")})) \
        .intersect(other_cell).is_empty()
    assert a.intersect(b) == ms(RationalBox.make(0, {1: interval("1/3", "2/3")}))


def test_subtract_examples():
    a = ms(RationalBox.make(0, {1: interval(0, "2/3")}))
    assert a.subtract(a).is_empty()
    assert a.subtract(MeasurableSet.empty()) == a
    unit = ms(RationalBox.make(0))
    left_half = ms(RationalBox.make(0, {1: interval(0, "1/2")}))
    right_half = unit.subtract(left_half)
    assert right_half == ms(RationalBox.make(0, {1: interval("1/2", 1)}))
    assert right_half.measure() == Fraction(1, 2)


def test_common_refinement_examples():
    a = ms(RationalBox.make(0, {1: interval(0, "2/3")}))
    b = ms(RationalBox.make(0, {1: interval("1/3", 1)}))
    parts = common_refinement([a, b])
    assert [p.interval_at(1) for p in parts] == [
        interval(0, "1/3"), interval("1/3", "2/3"), interval("2/3", 1)]
    assert common_refinement([a]) == list(a.boxes)
    c = ms(RationalBox.make(5, {1: interval(0, "1/2")}))
    assert common_refinement([a, c]) == list(a.boxes) + list(c.boxes)


def test_common_refinement_restores_inputs():
    a = ms(RationalBox.make(0, {1: interval(0, "3/4"), 2: interval("1/4", 1)}))
    b = ms(RationalBox.make(0, {2: interval(0, "1/2")}))
    parts = common_refinement([a, b])
    for original in (a, b):
        covered = MeasurableSet.from_boxes(
            p for p in parts if MeasurableSet.of(p).subset_of(original))
        assert covered == original


_frac = st.integers(0, 8)


@st.composite
def boxes(draw, cells=2, coords=2):
    cell = draw(st.integers(0, cells - 1))
    constraints = {}
    for j in range(1, coords + 1):
        if draw(st.booleans()):
            lo = draw(_frac)
            hi = draw(st.integers(lo + 1, 9))
            constraints[j] = RationalInterval(Fraction(lo, 9), Fraction(hi, 9))
    return RationalBox.make(cell, constraints)


@st.composite
def sets(draw):
    return MeasurableSet.from_boxes(
        draw(st.lists(boxes(), min_size=0, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(sets(), sets())
def test_inclusion_exclusion(a, b):
    assert a.measure() + b.measure() == \
        a.union(b).measure() + a.intersect(b).measure()


# Every endpoint drawn by ``boxes`` is a multiple of 1/9, so each midpoint
# (2k+1)/18 of the 1/9 grid stands for its whole grid square: membership
# at these points decides the point set exactly.
_MIDPOINTS = [Fraction(2 * k + 1, 18) for k in range(9)]
_GRID = [(cell, {1: x, 2: y}) for cell in range(2)
         for x in _MIDPOINTS for y in _MIDPOINTS]


def _contains(s, cell, point):
    return any(b.cell == cell and all(iv.lo <= point[j] < iv.hi
                                      for j, iv in b.coords)
               for b in s.boxes)


def _check_against_points(a, b):
    results = {"subtract": (a.subtract(b), lambda x, y: x and not y),
               "intersect": (a.intersect(b), lambda x, y: x and y),
               "union": (a.union(b), lambda x, y: x or y)}
    for name, (got, rule) in results.items():
        assert MeasurableSet.from_boxes(got.boxes).boxes == got.boxes, name
        for cell, point in _GRID:
            want = rule(_contains(a, cell, point), _contains(b, cell, point))
            assert _contains(got, cell, point) == want, (name, cell, point)


@settings(max_examples=300, deadline=None)
@given(sets(), sets())
def test_set_operations_agree_with_point_membership(a, b):
    _check_against_points(a, b)


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
    _check_against_points(several, other_cell)
    # a whole-cell box beside a partial box in the same cell drops that
    # cell; the partial box in cell 1 is swept
    whole = ms(RationalBox.make(0),
               RationalBox.make(0, {2: interval(0, ninth)}),
               RationalBox.make(1, {1: interval(ninth, 7 * ninth)}))
    assert several.subtract(whole).cells() == {1}
    _check_against_points(several, whole)
    # removed boxes in cells the set lacks change nothing
    elsewhere = ms(RationalBox.make(2), RationalBox.make(3, {1: interval(0, ninth)}))
    assert several.subtract(elsewhere).boxes == several.boxes
    _check_against_points(several, elsewhere)


@settings(max_examples=150, deadline=None)
@given(sets(), sets())
def test_subtract_measure_identity(a, b):
    assert a.subtract(b).measure() == a.measure() - a.intersect(b).measure()


@settings(max_examples=150, deadline=None)
@given(sets(), sets())
def test_subset_of_agrees_with_the_measure_identity(a, b):
    assert a.subset_of(b) == (a.intersect(b).measure() == a.measure())
    assert a.intersect(b).subset_of(a)
    assert a.subset_of(a.union(b))


@settings(max_examples=100, deadline=None)
@given(sets(), sets(), sets())
def test_boolean_laws(a, b, c):
    assert a.intersect(b) == b.intersect(a)
    assert a.union(b) == b.union(a)
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
    assert a.subtract(b).subtract(c) == a.subtract(b.union(c))
    assert a.union(a) == a
    assert a.intersect(a) == a


@settings(max_examples=150, deadline=None)
@given(sets())
def test_canonicalization_is_retraction(a):
    again = MeasurableSet.from_boxes(a.boxes)
    assert again == a
    assert again.boxes == a.boxes


@settings(max_examples=150, deadline=None)
@given(sets(), sets())
def test_point_set_equality_gives_identical_forms(a, b):
    # build the same point set two ways: (a u b) vs (b u a) plus overlaps
    left = MeasurableSet.from_boxes(a.boxes + b.boxes)
    right = MeasurableSet.from_boxes(b.boxes + a.boxes + a.intersect(b).boxes)
    assert left.boxes == right.boxes


@settings(max_examples=100, deadline=None)
@given(sets(), sets())
def test_refinement_parts_are_disjoint_and_cover(a, b):
    parts = common_refinement([a, b])
    total = MeasurableSet.from_boxes(parts)
    assert total == a.union(b)
    assert sum((p.measure() for p in parts), Fraction(0)) == total.measure()


def test_pairwise_disjointness_of_canonical_boxes():
    a = ms(RationalBox.make(0, {1: interval(0, "2/3")}),
           RationalBox.make(0, {1: interval("1/3", 1)}),
           RationalBox.make(0, {2: interval(0, "1/2")}))
    for i, x in enumerate(a.boxes):
        for y in a.boxes[i + 1:]:
            assert x.intersect(y) is None


@settings(max_examples=150, deadline=None)
@given(sets(), boxes(cells=1, coords=3))
def test_restrict_meets_every_cell_with_the_constraints(s, constraint_box):
    c = constraint_box.coord_map
    expected = MeasurableSet.empty()
    for cell in s.cells():
        expected = expected.union(
            s.intersect(MeasurableSet.of(RationalBox.make(cell, c))))
    assert s.restrict(c) == expected
