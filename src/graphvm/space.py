"""Exact measurable sets over the space Z x [0,1]^N.

A point has one integer cell coordinate and a sequence of cube
coordinates indexed by positive integers, almost all of which are
irrelevant.  A measurable set is kept as a finite union of boxes; each
box fixes one cell and constrains finitely many cube coordinates to
half-open rational intervals [lo, hi).  The measure is counting measure
on cells times Lebesgue measure on the cube, so a box has measure equal
to the product of its constrained interval lengths.

Everything here is immutable and exact, and set operations never
approximate.  Inside, an interval is two integer numerators over one
integer denominator, and comparisons, sort keys, intersections, sweeps
and measures run on plain integers; at the API, endpoints, lengths and
measures are ``fractions.Fraction``.  Since everything is immutable, an
operation whose result equals an operand returns the operand itself: a
meet of boxes that cuts nothing, a set meet or restriction that leaves
every box whole, a difference that removes nothing.  Half-open
intervals make finite partitions exact rather than almost-everywhere,
so emptiness checks replace null-measure conditions.

The value types built at every step (boxes and sets here; realizers,
microcosms, edges, graphings, actions and machine specs elsewhere) are
declared with ``value_type``: frozen dataclasses whose fields are
``__slots__``, stored through the slot descriptors by a generated
``__init__``.  Intervals are written the same way, by hand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational, Real
from typing import Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def _exact(value) -> Fraction:
    """``value`` as a ``Fraction``, refusing a binary floating value."""
    if isinstance(value, Real) and not isinstance(value, Rational):
        raise TypeError(f"{value!r} is a binary approximation: use p/q")
    return Fraction(value)


class lazy:
    """A per-instance attribute computed on first read and stored in the
    instance ``__dict__``, where every later read finds it without
    calling back here.  ``value_type`` keeps ``"__dict__"`` among the
    slots of a class with a lazy attribute, for it.

    Unlike ``functools.cached_property`` on Python 3.11 it takes no
    lock: two threads racing on a first read both compute the value,
    and, since every use here is a pure function of a frozen instance,
    both store equal values.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class RationalInterval:
    """Half-open interval [lo, hi) with 0 <= lo < hi <= 1.

    Stored as integers ``a < b`` over one denominator ``d`` in lowest
    terms (``gcd(a, b, d) == 1``), so that lo = a/d and hi = b/d.  The
    form is unique, so equality and hashing on ``(a, b, d)`` are
    equality of the rationals.  Instances are immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, lo, hi):
        lo, hi = _exact(lo), _exact(hi)
        # over the lcm of two reduced denominators the form is lowest terms
        d = lcm(lo.denominator, hi.denominator)
        _set_a(self, lo.numerator * (d // lo.denominator))
        _set_b(self, hi.numerator * (d // hi.denominator))
        _set_d(self, d)
        self.__post_init__()

    @classmethod
    def over(cls, a: int, b: int, d: int) -> "RationalInterval":
        """The interval [a/d, b/d) for integers a, b and d."""
        g = gcd(a, b, d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        iv = _new(cls)
        _set_a(iv, a)
        _set_b(iv, b)
        _set_d(iv, d)
        iv.__post_init__()
        return iv

    # Every constructor runs this check; perfbench's tracer wraps it to
    # count constructions.
    def __post_init__(self):
        if not 0 <= self.a < self.b <= self.d:
            raise ValueError(
                f"invalid interval [{self.a}/{self.d}, {self.b}/{self.d})")

    def __setattr__(self, name, value):
        raise AttributeError("RationalInterval is immutable")

    # copy and pickle rebuild an interval through ``over``, as
    # ``__setattr__`` refuses the slot state they would restore
    def __reduce__(self):
        return RationalInterval.over, (self.a, self.b, self.d)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def length(self) -> Fraction:
        return Fraction(self.b - self.a, self.d)

    def __eq__(self, other):
        if not isinstance(other, RationalInterval):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def intersect(self, other: "RationalInterval") -> "RationalInterval | None":
        # both intervals' endpoints as numerators over self.d * other.d
        a, b = self.a * other.d, self.b * other.d
        oa, ob = other.a * self.d, other.b * self.d
        if a >= oa and b <= ob:
            return self
        if oa >= a and ob <= b:
            return other
        lo, hi = max(a, oa), min(b, ob)
        if lo >= hi:
            return None
        return RationalInterval.over(lo, hi, self.d * other.d)

    def __lt__(self, other):
        """Order by ``(lo, hi)``, compared by cross-multiplication."""
        if not isinstance(other, RationalInterval):
            return NotImplemented
        lo, other_lo = self.a * other.d, other.a * self.d
        if lo != other_lo:
            return lo < other_lo
        return self.b * other.d < other.b * self.d

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"

    def __repr__(self) -> str:
        return f"RationalInterval(lo={self.lo!r}, hi={self.hi!r})"


# Construction writes the slots past the immutability guard.
_new = object.__new__
_set_a = RationalInterval.a.__set__
_set_b = RationalInterval.b.__set__
_set_d = RationalInterval.d.__set__

FULL = RationalInterval(0, 1)


def interval(lo, hi) -> RationalInterval:
    return RationalInterval(lo, hi)


def _scaled(iv: RationalInterval, scale: int) -> tuple[int, int]:
    """The endpoints of ``iv`` as numerators over ``scale``, a multiple
    of its denominator."""
    m = scale // iv.d
    return iv.a * m, iv.b * m


def value_type(cls):
    """Declare ``cls`` one of the value types built at every step.

    It becomes a frozen dataclass whose fields are its ``__slots__``, with
    an ``__init__`` that stores each field through its slot descriptor,
    past the frozen guard: a frozen dataclass's own ``__init__`` pays an
    ``object.__setattr__`` per field.  A default in the class body is
    that parameter's default, and a class with a ``lazy`` attribute keeps
    a ``"__dict__"`` slot for it.  ``copy`` and ``pickle`` rebuild an
    instance through ``__init__``, so its lazy attributes are computed
    afresh.  As under ``dataclass(slots=True)``, which keeps no
    ``"__dict__"`` slot, the class is built anew, since a default and a
    slot of one name conflict.
    """
    body = dict(cls.__dict__)
    names = tuple(body["__annotations__"])
    defaults = {name: body.pop(name) for name in names if name in body}
    has_lazy = any(isinstance(value, lazy) for value in body.values())
    del body["__dict__"], body["__weakref__"]
    body["__slots__"] = names + ("__dict__",) * has_lazy
    cls = dataclass(frozen=True, init=False)(
        type(cls)(cls.__name__, cls.__bases__, body))
    env = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    env.update({f"_default_{name}": value
                for name, value in defaults.items()})
    params = ", ".join(f"{name}=_default_{name}" if name in defaults
                       else name for name in names)
    exec(f"def __init__(self, {params}):\n" + "".join(
        f"    _set_{name}(self, {name})\n" for name in names), env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __reduce__(self):
        return cls, tuple([getattr(self, name) for name in names])

    cls.__reduce__ = __reduce__
    return cls


@value_type
class RationalBox:
    """One cell of Z with finitely many constrained cube coordinates.

    ``coords`` maps coordinate index (positive integer) to an interval;
    unmentioned coordinates span the full [0, 1).  Full constraints are
    normalised away so structural equality matches point-set equality
    for single boxes.
    """

    cell: int
    coords: tuple[tuple[int, RationalInterval], ...]

    @staticmethod
    def make(cell: int, coords: Mapping[int, RationalInterval] | None = None) -> "RationalBox":
        if type(cell) is not int:
            raise TypeError(f"cell must be an int, got {cell!r}")
        items = []
        for j, iv in sorted((coords or {}).items()):
            if j < 1:
                raise ValueError(f"coordinate index must be positive, got {j}")
            if iv.d != 1:  # [0, 1) is the one interval over denominator 1
                items.append((j, iv))
        return RationalBox(cell, tuple(items))

    @property
    def coord_map(self) -> dict[int, RationalInterval]:
        return dict(self.coords)

    def interval_at(self, j: int) -> RationalInterval:
        for idx, iv in self.coords:
            if idx == j:
                return iv
        return FULL

    def measure(self) -> Fraction:
        return Fraction(*self._measure_ratio())

    def _measure_ratio(self) -> tuple[int, int]:
        """The measure as an integer numerator over an integer
        denominator, not reduced."""
        num = den = 1
        for _, iv in self.coords:
            num *= iv.b - iv.a
            den *= iv.d
        return num, den

    def intersect(self, other: "RationalBox") -> "RationalBox | None":
        """The meet of two boxes, None when it is empty, and ``self``
        itself when every interval of ``other`` covers its own."""
        if self.cell != other.cell:
            return None
        coords: dict[int, RationalInterval] = dict(self.coords)
        changed = False
        for j, iv in other.coords:
            mine = coords.get(j, FULL)
            got = mine.intersect(iv)
            if got is None:
                return None
            if got is not mine:
                coords[j] = got
                changed = True
        if not changed:
            return self
        # already normalised: every index comes from a normalised box, and
        # a meet with an interval short of [0, 1) falls short of it too
        return RationalBox(self.cell, tuple(sorted(coords.items())))

    def key(self):
        """Sort key: ``(cell, coords)``.  Coordinate indices compare as
        integers and intervals by ``(lo, hi)`` (``RationalInterval.__lt__``),
        so no ``Fraction`` is built or compared."""
        return (self.cell, self.coords)

    def __str__(self) -> str:
        inner = ", ".join(f"x{j} in {iv}" for j, iv in self.coords)
        return f"{{cell {self.cell}" + (f": {inner}}}" if inner else "}")


# -- canonical form ---------------------------------------------------------
#
# One sweep gives the canonical form of a union of boxes of one cell.  Its
# items are the coordinate maps of the boxes.  It recurses over the
# constrained coordinates in fixed ascending order: slice the first
# coordinate at every endpoint of every item, sweep each slice over the
# remaining coordinates with the items that cover it, and merge adjacent
# slices whose canonical content coincides.  A slice with no coordinate left
# survives when some item covers it.  The outcome depends only on the point
# set, so point-set-equal inputs produce identical tuples of boxes; a
# difference is the union of the pieces that ``_box_minus`` leaves.

_CoordMap = tuple[tuple[int, RationalInterval], ...]


def _canon_group(items: list[dict[int, RationalInterval]],
                 axes: list[int]) -> list[_CoordMap]:
    if not items:
        return []
    if not axes:
        return [()]
    j, rest = axes[0], axes[1:]
    intervals = [item.get(j, FULL) for item in items]
    scale = lcm(*(iv.d for iv in intervals))
    spans = [_scaled(iv, scale) for iv in intervals]
    cuts = sorted({0, scale}.union(*spans))
    runs: list[list] = []  # [lo, hi, canonical slice], numerators over scale
    for lo, hi in zip(cuts, cuts[1:]):
        content = _canon_group(
            [item for item, (a, b) in zip(items, spans)
             if a <= lo and hi <= b],
            rest)
        if runs and runs[-1][2] == content:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, content])
    out: list[_CoordMap] = []
    for lo, hi, content in runs:
        if lo == 0 and hi == scale:
            out.extend(content)
        elif content:
            iv = RationalInterval.over(lo, hi, scale)
            # every axis in ``sub`` comes after j, so the pair goes first
            out.extend(((j, iv),) + sub for sub in content)
    return out


def _box_minus(k: RationalBox,
               r: RationalBox) -> tuple[RationalBox, ...] | None:
    """The canonical boxes of ``k`` less ``r``, a box of its cell, built
    with no sweep, or None when ``r`` misses ``k``; empty when ``r`` covers
    ``k``.  Per ascending axis, the part below the overlap comes first, the
    part above it last, and the overlap goes on to the next axis."""
    axes = sorted({j for j, _ in k.coords + r.coords})
    meets = [k.interval_at(j).intersect(r.interval_at(j)) for j in axes]
    if None in meets:
        return None
    below, above = [], []
    for n, (j, m) in enumerate(zip(axes, meets)):
        iv = k.interval_at(j)
        head = tuple(zip(axes[:n], meets[:n]))
        tail = tuple(pair for pair in k.coords if pair[0] > j)
        for part, lo, hi in ((below, iv.a * m.d, m.a * iv.d),
                             (above, m.b * iv.d, iv.b * m.d)):
            if lo < hi:
                iv_part = RationalInterval.over(lo, hi, iv.d * m.d)
                part.append(RationalBox(k.cell, head + ((j, iv_part),) + tail))
    return tuple(below + above[::-1])


def _ratio_sum(ratios: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of integer ratios as a running numerator over the lcm of
    their denominators, not reduced."""
    num, den = 0, 1
    for bnum, bden in ratios:
        if den % bden:
            scale = bden // gcd(den, bden)
            num, den = num * scale, den * scale
        num += bnum * (den // bden)
    return num, den


def _canonicalize(boxes: Iterable[RationalBox]) -> tuple[RationalBox, ...]:
    """Canonical boxes of the points in some of ``boxes``.

    They come out in ``RationalBox.key`` order with no sort: cells are
    swept in ascending order, and the sweep emits a cell's boxes in
    ascending order of their first constrained axis, then of the next.
    """
    boxes = list(boxes)
    if len(boxes) <= 1:
        return tuple(boxes)  # a single normalised box is its canonical form
    by_cell: dict[int, list[RationalBox]] = {}
    for b in boxes:
        by_cell.setdefault(b.cell, []).append(b)
    out: list[RationalBox] = []
    for cell in sorted(by_cell):
        group = by_cell[cell]
        if len(group) == 1:
            out.append(group[0])  # a cell's only box is its canonical form
            continue
        axes = sorted({j for b in group for j, _ in b.coords})
        for coords in _canon_group([b.coord_map for b in group], axes):
            out.append(RationalBox(cell, coords))
    return tuple(out)


@value_type
class MeasurableSet:
    """Finite union of pairwise-disjoint boxes in canonical order.

    Construct through :meth:`from_boxes`, which canonicalises; the raw
    constructor trusts its input.  Canonical form is unique per point
    set, so ``==`` is point-set equality.
    """

    boxes: tuple[RationalBox, ...]

    # Sets are hashed as memo keys over and over; equality stays the
    # dataclass's structural one.
    @lazy
    def _hash(self) -> int:
        return hash(self.boxes)

    def __hash__(self):
        return self._hash

    @staticmethod
    def from_boxes(boxes: Iterable[RationalBox]) -> "MeasurableSet":
        return MeasurableSet(_canonicalize(boxes))

    @staticmethod
    def empty() -> "MeasurableSet":
        return _EMPTY

    @staticmethod
    def of(*boxes: RationalBox) -> "MeasurableSet":
        return MeasurableSet.from_boxes(boxes)

    def is_empty(self) -> bool:
        return not self.boxes

    def measure(self) -> Fraction:
        return Fraction(*self._measure_ratio())

    def _measure_ratio(self) -> tuple[int, int]:
        """The measure as a running numerator over the lcm of the boxes'
        denominators, not reduced."""
        return _ratio_sum(map(RationalBox._measure_ratio, self.boxes))

    @lazy
    def _by_cell(self) -> dict[int, list[RationalBox]]:
        by_cell: dict[int, list[RationalBox]] = {}
        for b in self.boxes:
            by_cell.setdefault(b.cell, []).append(b)
        return by_cell

    def intersect(self, other: "MeasurableSet") -> "MeasurableSet":
        """The meet, and ``self`` itself when each of its boxes lies
        inside one box of ``other``.  The meets of box pairs come in cell
        order, so when no two share a cell they are canonical as they
        stand, one box per cell; else they are swept."""
        hits = []
        unchanged = True
        theirs = other._by_cell
        for a in self.boxes:
            for b in theirs.get(a.cell, ()):
                got = a.intersect(b)
                if got is not None:
                    hits.append(got)
                    unchanged = unchanged and got is a
        # other's boxes are pairwise disjoint, so a box that one of them
        # holds whole meets no other: when every box is hit so, it is self
        if unchanged and len(hits) == len(self.boxes):
            return self
        if len(hits) <= 1 or len({b.cell for b in hits}) == len(hits):
            return MeasurableSet(tuple(hits))
        return MeasurableSet.from_boxes(hits)

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        """The union: when the two share no cell, their boxes merged by
        cell with no sweep, as canonical form is per cell; else swept."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        boxes = self.boxes + other.boxes
        if self._by_cell.keys().isdisjoint(other._by_cell):
            # a stable sort keeps each cell's boxes in their canonical order
            return MeasurableSet(tuple(sorted(boxes, key=lambda b: b.cell)))
        return MeasurableSet.from_boxes(boxes)

    def subtract(self, other: "MeasurableSet") -> "MeasurableSet":
        """``self`` less ``other``, and ``self`` itself when nothing goes.
        Each box of ``other`` is taken from every piece of its cell with
        ``_box_minus``, and each cell that lost points is swept."""
        if self.is_empty() or other.is_empty():
            return self
        out: list[RationalBox] = []
        theirs = other._by_cell
        # self's cells come in ascending order, so appending keeps the order
        for cell, mine in self._by_cell.items():
            pieces = mine
            for r in theirs.get(cell, ()):  # a miss (None) keeps the piece
                cuts = [(k, _box_minus(k, r)) for k in pieces]
                pieces = [p for k, got in cuts
                          for p in ((k,) if got is None else got)]
            # a piece that lost points equals no box of self
            out.extend(mine if pieces == mine else _canonicalize(pieces))
        got = tuple(out)  # canonical: equal to self's boxes when all is kept
        return self if got == self.boxes else MeasurableSet(got)

    def restrict(self, constraints: Mapping[int, RationalInterval]) -> "MeasurableSet":
        """The part of the set whose coordinates lie in ``constraints``:
        its meet with the constraint box in each of its cells."""
        meet = RationalBox.make(0, constraints).coords
        return self.intersect(MeasurableSet(
            tuple(RationalBox(cell, meet) for cell in self._by_cell)))

    def subset_of(self, other: "MeasurableSet") -> bool:
        return self.intersect(other) == self

    def cells(self) -> set[int]:
        return {b.cell for b in self.boxes}

    def __str__(self) -> str:
        if not self.boxes:
            return "{}"
        return " u ".join(str(b) for b in self.boxes)


_EMPTY = MeasurableSet(())


def whole_cells(cells: Iterable[int]) -> MeasurableSet:
    """The union of the given cells, each whole, in ascending order:
    already canonical, so built without a sweep."""
    return MeasurableSet(tuple(RationalBox(cell, ()) for cell in cells))


def common_refinement(sets: Sequence[MeasurableSet]) -> list[RationalBox]:
    """Partition the union of ``sets`` so each input is a union of parts.

    Returns plain boxes (a partition, not a canonical set): adjacent
    parts are deliberately left unmerged so every input set is exactly
    a union of whole parts.  Every endpoint of every box cuts its cell's
    grid, so a part lies inside a box or misses it.  The parts come in
    ``RationalBox.key`` order: cells ascend, and each cell's grid is
    walked in ascending lexicographic order of its constrained axes.
    """
    by_cell: dict[int, list[RationalBox]] = {}
    for s in sets:
        for b in s.boxes:
            by_cell.setdefault(b.cell, []).append(b)
    parts = []
    for cell in sorted(by_cell):
        group = by_cell[cell]
        axes = sorted({j for b in group for j, _ in b.coords})
        grids = []
        for j in axes:
            intervals = [b.interval_at(j) for b in group]
            scale = lcm(*(iv.d for iv in intervals))
            cuts = sorted({0, scale}.union(
                *(_scaled(iv, scale) for iv in intervals)))
            grids.append([RationalInterval.over(lo, hi, scale)
                          for lo, hi in zip(cuts, cuts[1:])])
        for combo in itertools.product(*grids):
            part = RationalBox.make(cell, dict(zip(axes, combo)))
            if any(part.intersect(b) is part for b in group):
                parts.append(part)
    return parts
