import dataclasses
import itertools
import random
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gridmodel import Grid, image
import graphvm.realizers as realizer_module
from graphvm.realizers import (DomainViolation, Microcosm, Realizer,
                               preimage_within, standard_generators)
from graphvm.encodings import TapeLayout, encode_word
from graphvm.sampling import random_pair, random_triple
from graphvm.space import MeasurableSet, RationalBox, interval
from harness import log_calls, ms


def test_apply_box_raises_exactly_past_the_boundary():
    # the offset's denominator differs from the intervals', so the check
    # runs over their common denominator
    up, down = Realizer.offset({1: Fraction(1, 4)}), \
        Realizer.offset({1: Fraction(-1, 4)})
    assert up.apply_box(RationalBox.make(0, {1: interval("1/2", "3/4")})) == \
        RationalBox.make(0, {1: interval("3/4", 1)})
    assert down.apply_box(RationalBox.make(0, {1: interval("1/4", "5/6")})) == \
        RationalBox.make(0, {1: interval(0, "7/12")})
    for r, b in ((up, RationalBox.make(0, {1: interval("1/2", "5/6")})),
                 (down, RationalBox.make(0, {1: interval("1/6", "1/2")}))):
        with pytest.raises(DomainViolation):
            r.apply_box(b)
    # through a permutation the violation names the input coordinate
    swap_up = Realizer.make(0, {1: 2, 2: 1}, {2: Fraction(1, 3)})
    assert swap_up.apply_box(RationalBox.make(0, {1: interval(0, "2/3")})) == \
        RationalBox.make(0, {2: interval("1/3", 1)})
    with pytest.raises(DomainViolation) as err:
        swap_up.apply_box(RationalBox.make(0, {1: interval(0, "5/6")}))
    assert err.value.coordinate == 1


def test_float_offsets_are_refused():
    # integer division makes a float: the slip these refuse
    with pytest.raises(TypeError, match="p/q"):
        Realizer.make(0, None, {1: 1 / 10})
    with pytest.raises(TypeError, match="p/q"):
        Realizer.offset({2: 1 / 2})
    assert Realizer.make(0, None, {1: "1/10"}) \
        == Realizer.make(0, None, {1: Fraction(1, 10)})
    assert Realizer.make(0, None, {1: 0}) == Realizer.identity()
    quarter = Realizer.offset({1: Fraction(1, 4)})
    with pytest.raises(TypeError, match="p/q"):
        quarter.apply_point(0, {1: 1 / 2})
    assert quarter.apply_point(0, {1: "1/2"}) == (0, {1: Fraction(3, 4)})


def test_a_float_shift_is_refused():
    with pytest.raises(TypeError, match="shift must be an int"):
        Realizer.make(1 / 1)
    assert Realizer.make(1) == Realizer.shift_by(1)


def test_realizers_built_along_different_paths_hash_alike():
    quarter = Fraction(1, 4)
    made = Realizer.make(3, {1: 2, 2: 1}, {2: quarter})
    composed = Realizer.shift_by(1).compose(Realizer.head_swap(2)).compose(
        Realizer.make(2, None, {2: quarter}))
    inverted = Realizer.make(-3, {1: 2, 2: 1}, {1: -quarter}).invert()
    for r in (composed, inverted):
        assert r == made
        assert hash(r) == hash(made) == hash(r)
    swap = Realizer.head_swap(3)
    assert swap.compose(swap) == Realizer.identity()
    assert hash(swap.compose(swap)) == hash(Realizer.identity())
    # the cached hash is no field, and the repr is the dataclass's own
    assert [f.name for f in dataclasses.fields(Realizer)] == \
        ["shift", "perm", "offsets"]
    assert repr(made) == ("Realizer(shift=3, perm=((1, 2), (2, 1)), "
                          "offsets=((2, 1, 4),))")


def test_domain_of_examples():
    full = ms(RationalBox.make(0))
    assert Realizer.identity().domain_within(full) == full
    half = Realizer.offset({1: Fraction(1, 2)})
    assert half.domain_within(full) == \
        ms(RationalBox.make(0, {1: interval(0, "1/2")}))
    gone = Realizer.offset({1: Fraction(1)})
    assert gone.domain_within(full).is_empty()
    assert gone.input_constraints() is None


def test_preimage_within():
    r = Realizer.offset({1: Fraction(1, 4)})
    src = ms(RationalBox.make(0))
    target = ms(RationalBox.make(0, {1: interval("1/2", 1)}))
    got = preimage_within(r, src, target)
    assert got == ms(RationalBox.make(0, {1: interval("1/4", "3/4")}))


def test_microcosm_memberships():
    assert Microcosm.m1().contains(Realizer.shift_by(5))
    assert not Microcosm.mi(2).contains(Realizer.head_swap(3))
    assert Microcosm.mi(3).contains(Realizer.head_swap(3))
    assert Microcosm.m_infinity().contains(Realizer.head_swap(3))
    word_edge = Realizer.make(1, None, {1: Fraction(1, 3)})
    for m in (Microcosm.m1(), Microcosm.mi(4), Microcosm.m_infinity()):
        assert not m.contains(word_edge)
    assert Microcosm.macrocosm().contains(word_edge)


# the chain, listed from smallest to largest
CHAIN = [Microcosm.m1(), *(Microcosm.mi(i) for i in range(2, 6)),
         Microcosm.m_infinity(), Microcosm.macrocosm()]


def test_microcosm_join_of_named_families_is_commutative():
    # the join is the later of the two
    for (i, a), (j, b) in itertools.product(enumerate(CHAIN), repeat=2):
        assert a.join(b) == b.join(a) == CHAIN[max(i, j)]


def test_microcosm_describe():
    assert Microcosm.mi(3).describe() == "mi(3)"
    assert Microcosm.m_infinity().describe() == "minf"


def _random_mi_member(rng: random.Random, arity: int) -> Realizer:
    r = Realizer.shift_by(rng.randrange(-3, 4))
    for _ in range(rng.randrange(0, 4)):
        j = rng.randrange(2, arity + 1)
        r = r.compose(Realizer.head_swap(j))
    return r


def test_membership_is_upward_closed_along_the_chain():
    rng = random.Random(15)
    draws = [_random_mi_member(rng, arity)
             for arity in range(2, 8) for _ in range(8)]
    draws += [r.compose(Realizer.offset({rng.randrange(1, 4):
                                         Fraction(rng.randrange(1, 8), 8)}))
              for r in draws[::4]]
    # every family of the chain holds a draw that the one below it lacks
    for below, above in zip(CHAIN, CHAIN[1:]):
        assert any(above.contains(r) and not below.contains(r)
                   for r in draws)
    for a, b in itertools.product(CHAIN, repeat=2):
        for r in draws:
            if a.contains(r):
                assert a.join(b).contains(r)


def test_mi_members_form_a_group():
    rng = random.Random(7)
    arity = 3
    m = Microcosm.mi(arity)
    members = [_random_mi_member(rng, arity) for _ in range(25)]
    for r in members:
        assert m.contains(r)
        assert m.contains(r.invert())
        assert r.compose(r.invert()) == Realizer.identity()
    for a in members[:10]:
        for b in members[:10]:
            assert m.contains(a.compose(b))
    # associativity on composites
    for a, b, c in zip(members, members[1:], members[2:]):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


_frac9 = st.integers(0, 8)
COORDS = (1, 2, 3)


@st.composite
def realizers(draw, permute=True):
    shift = draw(st.integers(-3, 3))
    perm = (dict(zip(COORDS, draw(st.permutations(COORDS)))) if permute
            else None)
    offsets = {}
    for j in COORDS:
        if draw(st.booleans()):
            num = draw(st.integers(-8, 8))
            if num:
                offsets[j] = Fraction(num, 9)
    return Realizer.make(shift, perm, offsets)


@st.composite
def boxes(draw):
    cell = draw(st.integers(-1, 1))
    constraints = {}
    for j in COORDS:
        if draw(st.booleans()):
            lo = draw(_frac9)
            hi = draw(st.integers(lo + 1, 9))
            constraints[j] = interval(Fraction(lo, 9), Fraction(hi, 9))
    return RationalBox.make(cell, constraints)


# ``realizers()`` permutes nothing one time in six; this draws both kinds
# alike
any_realizers = st.one_of(realizers(), realizers(permute=False))


def _check_image(got, boxes, *maps):
    """``got`` has the bits of the model's image of ``boxes`` under each
    of ``maps`` in turn, and the measure of both."""
    want = boxes
    for r in maps:
        want = [image(r, b) for b in want]
        assert not any(type(x) is int for x in want), want
    grid = Grid([*got.boxes, *want, *boxes])
    assert grid.bits(got.boxes) == grid.bits(want)
    assert got.measure() == Fraction(*grid.measure(grid.bits(want))) == \
        Fraction(*grid.measure(grid.bits(boxes)))


@settings(max_examples=200, deadline=None)
@given(any_realizers, any_realizers, boxes())
# the composite acts left to right: the offset, then the swap
@example(Realizer.offset({1: Fraction(1, 4)}), Realizer.head_swap(2),
         RationalBox.make(0, {1: interval(0, "1/4")}))
def test_compose_matches_sequential_application(r1, r2, b):
    s = ms(b)
    s = r1.domain_within(s)
    image1 = r1.apply(s)
    s = r1.invert().apply(r2.domain_within(image1))
    _check_image(r1.compose(r2).apply(s), s.boxes, r1, r2)


@settings(max_examples=200, deadline=None)
@given(any_realizers, boxes())
@example(Realizer.make(1, {1: 2, 2: 1}, {2: Fraction(1, 3)}),
         RationalBox.make(0, {1: interval(0, "1/3"), 2: interval(0, 1)}))
def test_invert_round_trips(r, b):
    s = r.domain_within(ms(b))
    _check_image(r.apply(s), s.boxes, r)
    _check_image(r.invert().apply(r.apply(s)), s.boxes, r, r.invert())
    _check_image(s, s.boxes, r, r.invert())
    back = r.invert().invert()
    assert back == r and hash(back) == hash(r)


@settings(max_examples=300, deadline=None)
@given(any_realizers, boxes(), st.none())
# the identity, a shift and a head swap, each with the image of the box
@example(Realizer.identity(), RationalBox.make(3, {1: interval(0, "1/2")}),
         RationalBox.make(3, {1: interval(0, "1/2")}))
@example(Realizer.shift_by(2), RationalBox.make(3, {1: interval(0, "1/2")}),
         RationalBox.make(5, {1: interval(0, "1/2")}))
@example(Realizer.head_swap(2),
         RationalBox.make(0, {1: interval(0, "1/2"), 2: interval("1/2", 1)}),
         RationalBox.make(0, {1: interval("1/2", 1), 2: interval(0, "1/2")}))
def test_a_one_box_image_is_the_swept_one(r, b, want):
    for box in r.domain_within(ms(b)).boxes:
        got = r.apply_box(box)
        assert got == RationalBox.make(got.cell, got.coord_map)
        _check_image(MeasurableSet((got,)), (box,), r)
        # one box skips the sweep, and the box given twice goes through it
        assert r.apply(ms(box)).boxes == \
            MeasurableSet.from_boxes([got]).boxes == \
            MeasurableSet.from_boxes([got, got]).boxes
    if want is not None:
        assert r.apply(ms(b)) == ms(want)


@settings(max_examples=300, deadline=None)
@given(any_realizers, boxes(), st.none())
# a half offset on the whole cell leaves the domain on coordinate 1
@example(Realizer.offset({1: Fraction(1, 2)}), RationalBox.make(0), 1)
def test_a_violation_names_the_input_coordinate(r, b, coordinate):
    want = image(r, b)
    assert coordinate in (None, want)
    if type(want) is not int:
        _check_image(r.apply(ms(b)), (b,), r)
        return
    for call in (r.apply_box, lambda box: r.apply(ms(box))):
        with pytest.raises(DomainViolation) as err:
            call(b)
        assert (err.value.box, err.value.coordinate) == (b, want)


@st.composite
def several_boxes(draw):
    """Two to four boxes across cells, or moved into the first one's
    cell."""
    drawn = draw(st.lists(boxes(), min_size=2, max_size=4))
    if draw(st.booleans()):
        drawn = [RationalBox(drawn[0].cell, b.coords) for b in drawn]
    return drawn


@settings(max_examples=300, deadline=None)
@given(any_realizers, several_boxes())
def test_a_several_box_image_matches_the_model(r, drawn):
    s = r.domain_within(ms(*drawn))
    assume(len(s.boxes) >= 2)
    _check_image(r.apply(s), s.boxes, r)


def test_one_box_images_and_composites_take_the_direct_path(monkeypatch):
    # the realizers and one-box sets of seeded pairs, in every mode
    edges = [e for seed in range(6) for mode in ("det", "nondet", "prob")
             for graphing in random_pair(seed, mode) for e in graphing.edges]
    images = [(e.realizer, MeasurableSet((b,)),
               MeasurableSet.from_boxes([e.realizer.apply_box(b)]))
              for e in edges for b in e.source.boxes]
    realizers_met = {e.realizer for e in edges}
    free_pairs = {(bool(r1.offsets), bool(r2.offsets))
                  for r1 in realizers_met for r2 in realizers_met
                  if not (r1.perm or r2.perm)}
    assert len(free_pairs) == 4
    assert any(r.perm for r, _, _ in images)
    assert any(not r.perm for r, _, _ in images)
    # (permutes, call, want); each inverse is of a copy that has none cached
    cases = ([(r.perm, partial(r.apply, s), want) for r, s, want in images]
             + [(r1.perm or r2.perm, partial(r1.compose, r2),
                 _reference_compose(r1, r2))
                for r1 in realizers_met for r2 in realizers_met]
             + [(r.perm, r.invert, _reference_invert(r))
                for r in map(dataclasses.replace, realizers_met)])
    calls = log_calls(monkeypatch, (MeasurableSet, "from_boxes"),
                      (realizer_module, "_normalize_perm"))
    lookups = log_calls(monkeypatch, (Realizer, "perm_image"),
                        (Realizer, "perm_preimage"))
    free = []  # the lookups of maps and pairs that permute nothing
    for permutes, call, want in cases:
        start = len(lookups)
        assert call() == want
        if not permutes:
            free += lookups[start:]
    assert calls == [] and free == [] and lookups


# Grid points sit on multiples of 1/18; every interval the strategies make
# has endpoints on multiples of 1/9, so a side of 1/36 from a grid point
# stays on the same side of every endpoint.
_SIDE = Fraction(1, 36)


def _grid_points(b):
    """The corners and centres of ``b`` on each coordinate in COORDS,
    with zero coordinates left out."""
    choices = [(iv.lo, (iv.lo + iv.hi) / 2)
               for iv in (b.interval_at(j) for j in COORDS)]
    for values in itertools.product(*choices):
        yield {j: v for j, v in zip(COORDS, values) if v != 0}


def _point_box(cell, values):
    """The box of side _SIDE whose lowest corner is the point."""
    return RationalBox.make(cell, {
        j: interval(values.get(j, 0), values.get(j, 0) + _SIDE)
        for j in COORDS})


@settings(max_examples=200, deadline=None)
@given(realizers(), boxes())
def test_apply_point_agrees_with_apply_box(r, b):
    constraints = r.input_constraints()
    for values in _grid_points(b):
        inside = constraints is not None and all(
            iv.lo <= values.get(j, 0) < iv.hi for j, iv in constraints.items())
        image = r.apply_point(b.cell, values)
        assert (image is not None) == inside
        if image is None:
            with pytest.raises(DomainViolation):
                r.apply_box(_point_box(b.cell, values))
            continue
        assert r.apply_box(_point_box(b.cell, values)) == _point_box(*image)
        assert r.invert().apply_point(*image) == (b.cell, values)


def test_text_form():
    r = Realizer.make(2, {1: 2, 2: 1}, {1: Fraction(1, 3)})
    assert r.text() == "shift=2; perm=(1 2); offsets=1:1/3"
    assert Realizer.identity().text() == "shift=0"


def test_standard_generators():
    gens = standard_generators(3)
    assert gens[0] == Realizer.shift_by(1)
    assert gens[1] == Realizer.shift_by(-1)
    assert gens[2:] == [Realizer.head_swap(2), Realizer.head_swap(3)]


# -- integer offset arithmetic against a Fraction reference -------------------

@st.composite
def mixed_realizers(draw, permute=True):
    """Realizers whose offsets lie on the 1/4, 1/6 or 1/9 grid and often
    cancel, or overflow [0, 1), once composed."""
    shift = draw(st.integers(-2, 2))
    perm = (dict(zip(COORDS, draw(st.permutations(COORDS)))) if permute
            else None)
    offsets = {}
    for j in COORDS:
        d = draw(st.sampled_from((4, 6, 9)))
        num = draw(st.integers(-d, d))
        if num:
            offsets[j] = Fraction(num, d)
    return Realizer.make(shift, perm, offsets)


def _reference_compose(first, then):
    """``first.compose(then)`` in Fraction arithmetic, through ``make``."""
    p, q = dict(first.perm), dict(then.perm)
    perm = {j: q.get(p.get(j, j), p.get(j, j)) for j in set(p) | set(q)}
    offsets = {}
    for j, num, den in first.offsets:
        k = q.get(j, j)
        offsets[k] = offsets.get(k, Fraction(0)) + Fraction(num, den)
    for j, num, den in then.offsets:
        offsets[j] = offsets.get(j, Fraction(0)) + Fraction(num, den)
    return Realizer.make(first.shift + then.shift, perm, offsets)


def _reference_invert(r):
    back = {k: j for j, k in r.perm}
    return Realizer.make(-r.shift, back,
                         {back.get(j, j): Fraction(-p, q)
                          for j, p, q in r.offsets})


def _check_normal(r):
    """Each offset an integer triple ``(j, p, q)``: p/q nonzero and in
    lowest terms with q positive, on a positive coordinate j, the
    coordinates strictly ascending; the moved pairs sorted."""
    assert all(type(j) is type(p) is type(q) is int and j >= 1 and q >= 1
               and p != 0 and gcd(abs(p), q) == 1 for j, p, q in r.offsets)
    coords = [j for j, _, _ in r.offsets]
    assert all(a < b for a, b in zip(coords, coords[1:]))
    assert all(j != k for j, k in r.perm)
    assert list(r.perm) == sorted(r.perm)


# permuting and permutation-free maps alike, as ``any_realizers`` draws them
any_mixed_realizers = st.one_of(mixed_realizers(),
                                mixed_realizers(permute=False))


@settings(max_examples=300, deadline=None)
@given(any_mixed_realizers, any_mixed_realizers)
@example(Realizer.make(2, {1: 2, 2: 1}, {1: Fraction(1, 3)}),
         Realizer.identity())
@example(Realizer.make(1, {1: 2, 2: 1}, {2: Fraction(1, 3)}),
         Realizer.make(-1, {1: 2, 2: 1}, {1: Fraction(-1, 3)}))
# pairs of maps each the other's inverse
@example(Realizer.identity(), Realizer.identity())
@example(Realizer.shift_by(1), Realizer.shift_by(-1))
@example(Realizer.shift_by(3), Realizer.shift_by(-3))
@example(Realizer.head_swap(2), Realizer.head_swap(2))
@example(Realizer.offset({1: Fraction(1, 3)}),
         Realizer.offset({1: Fraction(-1, 3)}))
def test_compose_and_invert_match_a_fraction_reference(r1, r2):
    identity = Realizer.identity()
    for got, want in ((r1.compose(r2), _reference_compose(r1, r2)),
                      (r2.compose(r1), _reference_compose(r2, r1)),
                      (r1.compose(r1.invert()), identity),
                      (r1.invert(), _reference_invert(r1))):
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        _check_normal(got)
    assert r1.compose(identity) == r1 == identity.compose(r1)
    # the inverse is the one map whose composite with r1 is the identity
    assert (r1.compose(r2) == identity) == (r2 == r1.invert())


# mixed realizers draw offsets of both signs, +-1 (void maps) included
@settings(max_examples=400, deadline=None)
@given(st.one_of(realizers(), mixed_realizers()), boxes())
def test_defined_on_is_exactly_where_apply_box_does_not_raise(r, b):
    try:
        r.apply_box(b)
        applies = True
    except DomainViolation:
        applies = False
    assert (type(image(r, b)) is not int) == r.defined_on(b) == applies
    assert r.defined_on(b) == (r.domain_within(ms(b)) == ms(b))
    # the part of b in the domain reaches the domain's edge exactly
    for part in r.domain_within(ms(b)).boxes:
        assert r.defined_on(part)
        r.apply_box(part)


def test_make_keeps_its_checks_and_wraps_only_what_is_no_fraction():
    third = Fraction(1, 3)
    r = Realizer.make(0, None, {2: third, 1: 0, 3: "1/6"})
    assert r.offsets == ((2, 1, 3), (3, 1, 6))
    _check_normal(r)
    with pytest.raises(ValueError):
        Realizer.make(0, None, {0: third})
    with pytest.raises(ValueError):
        Realizer.make(0, {1: 2, 2: 3})
    with pytest.raises(ValueError):
        Realizer.make(0, {0: 1, 1: 0})


def test_compose_cancels_offsets_exactly():
    up = Realizer.offset({1: Fraction(1, 4), 2: Fraction(1, 6)})
    down = Realizer.offset({1: Fraction(-2, 8), 2: Fraction(1, 3)})
    both = up.compose(down)
    assert both.offsets == ((2, 1, 2),)
    _check_normal(both)
    assert up.compose(up.invert()) == Realizer.identity()


def test_offsets_on_both_sides_sum_per_coordinate(monkeypatch):
    # seeded pairs of maps that permute nothing, each with offsets; in
    # every other pair the two cancel on one coordinate
    rng = random.Random(44)

    def offsets():
        return {j: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9),
                            rng.choice((4, 6, 9)))
                for j in rng.sample(COORDS, rng.randrange(1, 4))}

    pairs = []
    for n in range(120):
        first, then = offsets(), offsets()
        if n % 2:
            j = rng.choice(COORDS)
            first[j] = -then.setdefault(j, Fraction(rng.randrange(1, 9), 9))
        pairs.append((Realizer.make(rng.randrange(-2, 3), None, first),
                      Realizer.make(rng.randrange(-2, 3), None, then)))
    lookups = log_calls(monkeypatch, (Realizer, "perm_image"),
                        (Realizer, "perm_preimage"))
    cancelled = 0
    for r1, r2 in pairs:
        assert r1.offsets and r2.offsets and not (r1.perm or r2.perm)
        got = r1.compose(r2)
        want = _reference_compose(r1, r2)
        assert got == want and hash(got) == hash(want)
        _check_normal(got)
        coords = [{j for j, _, _ in r.offsets} for r in (r1, r2, got)]
        cancelled += len(coords[0] & coords[1] - coords[2])
    assert cancelled >= 60
    assert lookups == []


def test_inverse_is_cached_and_matches_the_reference():
    rng = random.Random(16)
    draws = [_random_mi_member(rng, arity)
             for arity in range(2, 6) for _ in range(8)]
    draws += [r.compose(Realizer.offset(
        {j: Fraction(rng.randrange(-8, 9), rng.choice((4, 6, 9)))
         for j in rng.sample(COORDS, rng.randrange(1, 4))}))
        for r in draws]
    assert any(r.offsets and r.perm for r in draws)
    for r in draws:
        inverse = r.invert()
        assert inverse is r.invert()
        assert inverse == _reference_invert(r)
        assert hash(inverse) == hash(_reference_invert(r))
        assert inverse.invert() == r
        _check_normal(inverse)


def test_sampled_and_word_realizers_are_in_normal_form():
    # sampling builds its realizers from its table of offsets and word
    # edges are built through ``make``; both must be in make's normal form
    drawn = {e.realizer for seed in range(20)
             for mode in ("det", "nondet", "prob")
             for g in (*random_pair(seed, mode), *random_triple(seed, mode))
             for e in g.edges}
    layout = TapeLayout(("0", "1"))
    words = {e.realizer for word in ("", "0", "01", "0110", "10101")
             for rows in (1, 3) for one_way in (False, True)
             for e in encode_word(word, layout, rows, one_way).graphing.edges}
    assert any(r.offsets and r.perm for r in drawn)
    # k/8 reduces to halves and quarters too
    assert {q for r in drawn for _, _, q in r.offsets} == {2, 4, 8}
    assert any(r.offsets for r in words)
    for r in drawn | words:
        _check_normal(r)


def test_offset_arithmetic_builds_no_fraction(monkeypatch):
    # seeded maps with offsets, some permuting, composed both ways; most
    # composites sum two offsets on one coordinate
    rng = random.Random(58)

    def draw():
        perm = rng.choice((None, None, {1: 2, 2: 1}, {1: 2, 2: 3, 3: 1}))
        return Realizer.make(rng.randrange(-2, 3), perm, {
            j: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9),
                        rng.choice((4, 6, 9)))
            for j in COORDS if rng.randrange(3)} or {1: Fraction(1, 2)})

    pairs = [(draw(), draw()) for _ in range(150)]
    boxes = []
    for _ in range(40):
        ends = {j: sorted(rng.sample(range(37), 2))
                for j in rng.sample(COORDS, rng.randrange(1, 4))}
        boxes.append(RationalBox.make(rng.randrange(-1, 2), {
            j: interval(Fraction(a, 36), Fraction(b, 36))
            for j, (a, b) in ends.items()}))
    # copies with no hash or inverse cached
    fresh = [dataclasses.replace(r) for pair in pairs for r in pair]
    built = log_calls(monkeypatch, (Fraction, "__new__"))
    composites = [(r1, r2, r1.compose(r2)) for a, b in pairs
                  for r1, r2 in ((a, b), (b, a))]
    inverses = [(r, r.invert()) for r in fresh]
    keys = [(r, r.key(), hash(r)) for r in fresh]
    images = [(r, b, r.apply_box(b)) for r in fresh for b in boxes
              if r.defined_on(b)]
    assert built == []
    monkeypatch.undo()
    assert all(r1.offsets and r2.offsets for r1, r2, _ in composites)
    assert sum(len(r.offsets) < len(r1.offsets) + len(r2.offsets)
               for r1, r2, r in composites) >= 200
    for r1, r2, got in composites:
        assert got == _reference_compose(r1, r2)
    for r, got in inverses:
        assert got == _reference_invert(r)
    for r, key, h in keys:
        assert key == (r.shift, r.perm, r.offsets) and h == hash(
            (r.shift, r.perm, r.offsets))
    assert len(images) >= 400
    for r, b, got in images:
        _check_image(MeasurableSet((got,)), (b,), r)
