"""A reference model of point sets in Z x [0,1]^N, in integers alone.

A test case's grid cuts each axis at every endpoint of the case's boxes,
as integers over the lcm of the axis's denominators, so each square lies
inside a box or misses it.  A set of boxes is one bitmask per cell, one
bit per square, laid end to end in one integer: union, meet and
difference are ``|``, ``&`` and ``& ~``.  Of a box the model reads only
``cell`` and ``coords``, pairs of an axis and an interval with integer
fields ``a < b`` over ``d``, and of a realizer only ``shift``, the pairs
of ``perm`` and the integer triples ``(j, p, q)`` of ``offsets``; it
imports nothing from graphvm.
"""

from itertools import product
from math import lcm, prod


class Grid:
    """The squares that the endpoints of ``boxes`` cut.  Bit ``rank *
    size + k`` is square ``k`` of the cell of that rank among ``cells``;
    ``k`` counts through ``axes`` in order, the last axis fastest."""

    def __init__(self, boxes):
        boxes = list(boxes)
        self.cells = sorted({box.cell for box in boxes})
        ends: dict[int, list] = {}
        for box in boxes:
            for j, iv in box.coords:
                ends.setdefault(j, []).append(iv)
        self.axes = sorted(ends)
        self.scale = {j: lcm(*(iv.d for iv in ends[j])) for j in self.axes}
        self.cuts = {j: sorted({0, self.scale[j]}.union(
            *((iv.a * (self.scale[j] // iv.d), iv.b * (self.scale[j] // iv.d))
              for iv in ends[j]))) for j in self.axes}
        self.size = prod(len(self.cuts[j]) - 1 for j in self.axes)

    def bits(self, boxes) -> int:
        """The squares inside some of ``boxes``."""
        out = 0
        for box in boxes:
            coords = dict(box.coords)
            assert coords.keys() <= set(self.axes), f"{box} cuts an uncut axis"
            mask, width = 1, 1  # the squares so far, over the later axes
            for j in reversed(self.axes):
                cuts = self.cuts[j]
                lo, hi = 0, len(cuts) - 1
                if j in coords:
                    iv = coords[j]
                    assert self.scale[j] % iv.d == 0, f"{box} is off the grid"
                    m = self.scale[j] // iv.d
                    lo, hi = cuts.index(iv.a * m), cuts.index(iv.b * m)
                # one copy of the mask per square lo..hi-1 of axis j
                mask *= ((1 << width * (hi - lo)) - 1) // ((1 << width) - 1) \
                    << width * lo
                width *= len(cuts) - 1
            out |= mask << self.size * self.cells.index(box.cell)
        return out

    def measure(self, bits) -> tuple[int, int]:
        """The volume of the squares in ``bits``: a numerator over the
        product of the axes' scales."""
        volumes = [prod(hi - lo for lo, hi in ends.values())
                   for _, ends in self.squares()]
        held = format(bits, "b")[::-1]  # digit k is bit k
        return (sum(v for v, digit in zip(volumes, held) if digit == "1"),
                prod(self.scale.values()))

    def squares(self):
        """Each square in bit order: its cell, and per axis its ends as
        numerators over ``scale``."""
        spans = [list(zip(self.cuts[j], self.cuts[j][1:])) for j in self.axes]
        return [(cell, dict(zip(self.axes, ends)))
                for cell in self.cells for ends in product(*spans)]

    def loads(self, sources) -> list[list]:
        """The weights over the squares that ``sources``, pairs of a weight
        and the boxes of one source, cover: one list per class of squares
        that the same sources cover."""
        classes = [((1 << self.size * len(self.cells)) - 1, [])]
        for weight, boxes in sources:
            inside = self.bits(boxes)
            classes = [(part, over) for region, weights in classes
                       for part, over in ((region & inside, weights + [weight]),
                                          (region & ~inside, weights))
                       if part]
        return [weights for _, weights in classes if weights]


class Interval:
    """[a/d, b/d), in integers that need not be reduced."""
    def __init__(self, a: int, b: int, d: int):
        self.a, self.b, self.d = a, b, d


class Box:
    """A cell and pairs of an axis and an ``Interval``: a box as ``Grid``
    reads one."""
    def __init__(self, cell: int, coords: dict):
        self.cell, self.coords = cell, tuple(coords.items())


def image(realizer, box):
    """The image of ``box``: its axes moved by ``perm``, each offset
    ``p/q`` added on its axis and the cell moved by ``shift``; or, when an
    offset pushes the box out of [0, 1), the input axis of the first such
    offset in offset order."""
    perm, back = dict(realizer.perm), {k: j for j, k in realizer.perm}
    coords = {perm.get(j, j): iv for j, iv in box.coords}
    for j, p, q in realizer.offsets:
        iv = coords.get(j, Interval(0, 1, 1))
        lo, hi = iv.a * q + p * iv.d, iv.b * q + p * iv.d
        if lo < 0 or hi > q * iv.d:
            return back.get(j, j)
        coords[j] = Interval(lo, hi, q * iv.d)
    return Box(box.cell + realizer.shift, coords)
