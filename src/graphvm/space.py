"""Exact measurable sets over the space Z x [0,1]^N.

A point has one integer cell coordinate and a sequence of cube
coordinates indexed by positive integers, almost all of which are
irrelevant.  A measurable set is kept as a finite union of boxes; each
box fixes one cell and constrains finitely many cube coordinates to
half-open rational intervals [lo, hi).  The measure is counting measure
on cells times Lebesgue measure on the cube, so a box has measure equal
to the product of its constrained interval lengths.

Everything here is immutable and exact: endpoints are
``fractions.Fraction`` and set operations never approximate.  Half-open
intervals make finite partitions exact rather than almost-everywhere,
so emptiness checks replace null-measure conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RationalInterval:
    """Half-open interval [lo, hi) with 0 <= lo < hi <= 1."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (ZERO <= self.lo < self.hi <= ONE):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi})")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def intersect(self, other: "RationalInterval") -> "RationalInterval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RationalInterval(lo, hi) if lo < hi else None

    def covers(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"


FULL = RationalInterval(ZERO, ONE)


def interval(lo, hi) -> RationalInterval:
    return RationalInterval(Fraction(lo), Fraction(hi))


@dataclass(frozen=True)
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
        items = []
        for j, iv in sorted((coords or {}).items()):
            if j < 1:
                raise ValueError(f"coordinate index must be positive, got {j}")
            if iv != FULL:
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
        m = ONE
        for _, iv in self.coords:
            m *= iv.length
        return m

    def intersect(self, other: "RationalBox") -> "RationalBox | None":
        if self.cell != other.cell:
            return None
        coords: dict[int, RationalInterval] = dict(self.coords)
        for j, iv in other.coords:
            got = coords.get(j, FULL).intersect(iv)
            if got is None:
                return None
            coords[j] = got
        return RationalBox.make(self.cell, coords)

    def key(self):
        return (self.cell, tuple((j, iv.lo, iv.hi) for j, iv in self.coords))

    def __str__(self) -> str:
        inner = ", ".join(f"x{j} in {iv}" for j, iv in self.coords)
        return f"{{cell {self.cell}" + (f": {inner}}}" if inner else "}")


def box(cell: int, coords: Mapping[int, RationalInterval] | None = None) -> RationalBox:
    return RationalBox.make(cell, coords)


# -- canonical form ---------------------------------------------------------
#
# One sweep gives the canonical form of both a union and a difference.  Its
# items are the coordinate maps of boxes, each kept or removed.  It recurses
# over the constrained coordinates in fixed ascending order: slice the first
# coordinate at every endpoint of every item, sweep each slice over the
# remaining coordinates with the items that cover it, and merge adjacent
# slices whose canonical content coincides.  A slice with no coordinate left
# survives when some kept item covers it and no removed item does.  The
# outcome depends only on the point set, so point-set-equal inputs produce
# identical tuples of boxes.

_CoordMap = tuple[tuple[int, RationalInterval], ...]


def _canon_group(kept: list[dict[int, RationalInterval]],
                 removed: list[dict[int, RationalInterval]],
                 axes: list[int]) -> list[_CoordMap]:
    if all(item in removed for item in kept):
        return []
    if not axes:
        return [] if removed else [()]
    j, rest = axes[0], axes[1:]
    points = {ZERO, ONE}
    for item in itertools.chain(kept, removed):
        iv = item.get(j, FULL)
        points.add(iv.lo)
        points.add(iv.hi)
    cuts = sorted(points)
    runs: list[list] = []  # [lo, hi, canonical slice]
    for lo, hi in zip(cuts, cuts[1:]):
        piece = RationalInterval(lo, hi)
        content = _canon_group(
            [item for item in kept if item.get(j, FULL).covers(piece)],
            [item for item in removed if item.get(j, FULL).covers(piece)],
            rest)
        if runs and runs[-1][1] == lo and runs[-1][2] == content:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, content])
    out: list[_CoordMap] = []
    for lo, hi, content in runs:
        iv = RationalInterval(lo, hi)
        for sub in content:
            # every axis in ``sub`` comes after j, so the pair goes first
            out.append(sub if iv == FULL else ((j, iv),) + sub)
    return out


def _canonicalize(boxes: Iterable[RationalBox],
                  removed: Mapping[int, list[RationalBox]]) -> tuple[RationalBox, ...]:
    """Canonical boxes of the points in some of ``boxes`` and in none of
    the boxes that ``removed`` lists for their cell."""
    boxes = list(boxes)
    if not removed and len(boxes) <= 1:
        return tuple(boxes)  # a single normalised box is its canonical form
    by_cell: dict[int, list[RationalBox]] = {}
    for b in boxes:
        by_cell.setdefault(b.cell, []).append(b)
    out: list[RationalBox] = []
    for cell in sorted(by_cell):
        group, minus = by_cell[cell], removed.get(cell, [])
        axes = sorted({j for b in group + minus for j, _ in b.coords})
        for coords in _canon_group([b.coord_map for b in group],
                                   [b.coord_map for b in minus], axes):
            out.append(RationalBox(cell, coords))
    out.sort(key=RationalBox.key)
    return tuple(out)


@dataclass(frozen=True)
class MeasurableSet:
    """Finite union of pairwise-disjoint boxes in canonical order.

    Construct through :meth:`from_boxes`, which canonicalises; the raw
    constructor trusts its input.  Canonical form is unique per point
    set, so ``==`` is point-set equality.
    """

    boxes: tuple[RationalBox, ...]

    @staticmethod
    def from_boxes(boxes: Iterable[RationalBox]) -> "MeasurableSet":
        return MeasurableSet(_canonicalize(boxes, {}))

    @staticmethod
    def empty() -> "MeasurableSet":
        return _EMPTY

    @staticmethod
    def of(*boxes: RationalBox) -> "MeasurableSet":
        return MeasurableSet.from_boxes(boxes)

    def is_empty(self) -> bool:
        return not self.boxes

    def measure(self) -> Fraction:
        return sum((b.measure() for b in self.boxes), ZERO)

    @cached_property
    def _by_cell(self) -> dict[int, list[RationalBox]]:
        by_cell: dict[int, list[RationalBox]] = {}
        for b in self.boxes:
            by_cell.setdefault(b.cell, []).append(b)
        return by_cell

    def intersect(self, other: "MeasurableSet") -> "MeasurableSet":
        hits = []
        theirs = other._by_cell
        for a in self.boxes:
            for b in theirs.get(a.cell, ()):
                got = a.intersect(b)
                if got is not None:
                    hits.append(got)
        if len(hits) <= 1:
            return MeasurableSet(tuple(hits))
        return MeasurableSet.from_boxes(hits)

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return MeasurableSet.from_boxes(self.boxes + other.boxes)

    def subtract(self, other: "MeasurableSet") -> "MeasurableSet":
        if self.is_empty() or other.is_empty():
            return self
        out: list[RationalBox] = []
        theirs = other._by_cell
        # self's cells come in ascending order, so appending keeps the order
        for cell, mine in self._by_cell.items():
            cut = theirs.get(cell)
            if cut is None:
                out.extend(mine)  # untouched: already canonical
            elif all(b.coords for b in cut):  # a box with no coords fills the cell
                out.extend(_canonicalize(mine, theirs))
        return MeasurableSet(tuple(out))

    def restrict(self, constraints: Mapping[int, RationalInterval]) -> "MeasurableSet":
        """The part of the set whose coordinates lie in ``constraints``,
        in every cell."""
        if not constraints:
            return self
        meet = RationalBox.make(0, constraints).coords
        kept = []
        for b in self.boxes:
            got = b.intersect(RationalBox(b.cell, meet))
            if got is not None:
                kept.append(got)
        return MeasurableSet.from_boxes(kept)

    def subset_of(self, other: "MeasurableSet") -> bool:
        return self.intersect(other) == self

    def cells(self) -> set[int]:
        return {b.cell for b in self.boxes}

    def __str__(self) -> str:
        if not self.boxes:
            return "{}"
        return " u ".join(str(b) for b in self.boxes)


_EMPTY = MeasurableSet(())


def common_refinement(sets: Sequence[MeasurableSet]) -> list[RationalBox]:
    """Partition the union of ``sets`` so each input is a union of parts.

    Returns plain boxes (a partition, not a canonical set): adjacent
    parts are deliberately left unmerged so every input set is exactly
    a union of whole parts.
    """
    by_cell: dict[int, list[RationalBox]] = {}
    for s in sets:
        for b in s.boxes:
            by_cell.setdefault(b.cell, []).append(b)
    parts: list[RationalBox] = []
    for cell in sorted(by_cell):
        group = by_cell[cell]
        axes = sorted({j for b in group for j, _ in b.coords})
        cuts: dict[int, list[Fraction]] = {}
        for j in axes:
            points = {ZERO, ONE}
            for b in group:
                iv = b.interval_at(j)
                points.add(iv.lo)
                points.add(iv.hi)
            cuts[j] = sorted(points)
        grids = [
            [RationalInterval(lo, hi) for lo, hi in zip(cuts[j], cuts[j][1:])]
            for j in axes
        ]
        for combo in itertools.product(*grids) if axes else [()]:
            candidate = RationalBox.make(cell, dict(zip(axes, combo)))
            if any(all(b.interval_at(j).covers(iv) for j, iv in zip(axes, combo))
                   for b in group):
                parts.append(candidate)
    parts.sort(key=RationalBox.key)
    return parts
