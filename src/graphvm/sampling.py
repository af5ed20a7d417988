"""Seeded random graphings for the closure and associativity checks.

The generated instances are layered: every realizer strictly increases
the cell index, so alternating paths always terminate and diagnostics
stay clean, which is what the closure and associativity statements
assume.  Sources are dyadic boxes, offsets dyadic rationals, and a
transposition is thrown in now and then so permutation realizers get
exercised too.  Realizers are built in the normal form ``make`` gives,
each offset the integer triple ``(j, p, q)`` with p/q in lowest terms,
read from a table of the ``(p, q)`` pairs.

Every draw comes straight from ``random.Random(seed).getrandbits``
through ``_below``, which makes the draws ``randrange`` and ``choice``
make, so a seed gives the graphings it always gave.  Edges are emitted
in ``Edge.key`` order, so a graphing is built with no sort.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .space import MeasurableSet, RationalBox, RationalInterval, whole_cells
from .realizers import Microcosm, Realizer
from .graphing import (Edge, Graphing, GraphingClass, PROBABILITIES, TRIVIAL,
                       UNIT, classify)
from .execution import plug


# denominator of every sampled interval endpoint and offset
GRID = 8
# the offsets k/GRID, k nonzero, as the (p, q) pairs in lowest terms that
# a realizer keeps, and the branch splits (k/4, 1 - k/4), as the exact
# Fractions every edge would otherwise build again
_OFFSETS = {k: (k // gcd(k, GRID), GRID // gcd(k, GRID))
            for k in range(1 - GRID, GRID) if k}
_SPLITS = {k: (Fraction(k, 4), 1 - Fraction(k, 4)) for k in range(1, 4)}


def _below(bits, n: int) -> int:
    """A draw below ``n`` from ``bits``, a generator's ``getrandbits``:
    the draws of ``Random._randbelow_with_getrandbits``, which
    ``randrange`` and ``choice`` make, with none of their checks."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _dyadic_interval(bits) -> RationalInterval:
    lo = _below(bits, GRID - 1)
    hi = lo + 1 + _below(bits, GRID - 1 - lo)
    return RationalInterval.over(lo, hi, GRID)


def _disjoint_intervals(bits, count: int) -> list[RationalInterval]:
    # the draws of ``rng.sample(range(GRID + 1), count + 1)``: its pool
    # algorithm, one ``randrange`` per cut, with no ``Sequence`` check
    pool = list(range(GRID + 1))
    cuts = []
    for i in range(count + 1):
        j = _below(bits, GRID + 1 - i)
        cuts.append(pool[j])
        pool[j] = pool[GRID - i]
    cuts.sort()
    return [RationalInterval.over(a, b, GRID) for a, b in zip(cuts, cuts[1:])]


def _random_realizer(bits, src_cell: int, dst_cell: int,
                     source_interval: RationalInterval) -> Realizer:
    """A realizer from src_cell to dst_cell whose domain covers the
    given coordinate-1 interval, built in normal form: the one
    transposition as its moved pairs, a nonzero offset or none."""
    perm = ((1, 2), (2, 1)) if _below(bits, 4) == 0 else ()
    coord = 2 if perm else 1  # either way the constraint lands on input 1
    if _below(bits, 2) == 0:
        # the offsets k/GRID that keep the interval inside [0, 1]; the
        # floors are exact bounds on the integer k
        iv = source_interval
        room_down = iv.a * GRID // iv.d
        room_up = (iv.d - iv.b) * GRID // iv.d
        choices = [k for k in range(-room_down, room_up + 1) if k != 0]
        offsets = ((coord, *_OFFSETS[choices[_below(bits, len(choices))]]),) \
            if choices else ()
    else:
        offsets = ()
    return Realizer(dst_cell - src_cell, perm, offsets)


def _layered_graphing(bits, left_cells, right_cells, mode: str) -> Graphing:
    """Edges from the left layer into the right layer, plus a few inside
    the right layer, all strictly increasing in cell index.  Sources
    ascend by cell, the left layer's first, and within a cell by their
    disjoint intervals, so the edges come in ``Edge.key`` order."""
    edges = []
    for src in left_cells:
        intervals = _disjoint_intervals(bits, 1 + _below(bits, 2))
        for iv in intervals:
            dst = right_cells[_below(bits, len(right_cells))]
            _emit(bits, edges, src, dst, iv, mode)
    for src in right_cells[:-1]:
        if _below(bits, 2) == 0:
            iv = _dyadic_interval(bits)
            later = [c for c in right_cells if c > src]
            dst = later[_below(bits, len(later))]
            _emit(bits, edges, src, dst, iv, mode)
    carrier = whole_cells(list(left_cells) + list(right_cells))
    monoid = PROBABILITIES if mode == "prob" else TRIVIAL
    return Graphing(monoid, Microcosm.macrocosm(), carrier, tuple(edges))


def _emit(bits, edges, src, dst, iv, mode):
    # a normal box leaves [0, 1) out, and one normal box is canonical
    box = RationalBox(src, () if iv.d == 1 else ((1, iv),))
    source = MeasurableSet((box,))
    realizer = _random_realizer(bits, src, dst, iv)
    if mode == "prob":
        split, rest = _SPLITS[1 + _below(bits, 3)]
    elif mode == "nondet" and _below(bits, 2) == 0:
        split = rest = UNIT
    else:
        edges.append(Edge(UNIT, source, realizer))
        return
    # the pair in ``Edge.key`` order: the plain shift sorts first, unless
    # the drawn realizer is one too; then the lighter weight, the drawn
    # edge on a tie
    drawn = Edge(split, source, realizer)
    shift = Edge(rest, source, Realizer.shift_by(dst - src))
    if realizer.perm or realizer.offsets or split > rest:
        edges += (shift, drawn)
    else:
        edges += (drawn, shift)


def _chain(seed: int, mode: str, *layers) -> tuple[Graphing, ...]:
    """One layered graphing per pair of consecutive layers, all drawn
    from one generator seeded with ``seed``."""
    if mode not in _CLASS_OF_MODE:
        raise ValueError(f"unknown mode {mode!r}")
    bits = random.Random(seed).getrandbits
    return tuple(_layered_graphing(bits, left, right, mode)
                 for left, right in zip(layers, layers[1:]))


def random_pair(seed: int, mode: str) -> tuple[Graphing, Graphing]:
    """Two layered graphings sharing a middle region: their default cut."""
    return _chain(seed, mode, [0, 1], [10, 11, 12], [20, 21])


def random_triple(seed: int, mode: str = "det"):
    """Three layered graphings chained through two disjoint cuts; the
    outer carriers never meet, as associativity requires."""
    return _chain(seed, mode, [0, 1], [10, 11, 12], [20, 21, 22], [30, 31])


_CLASS_OF_MODE = {"det": GraphingClass.DETERMINISTIC,
                  "nondet": GraphingClass.NONDETERMINISTIC,
                  "prob": GraphingClass.PROBABILISTIC}


def property_holds(kind: str, seed: int, mode: str, max_steps: int) -> bool:
    """One seeded check, every plug within ``max_steps``.  ``closure``:
    plugging a random pair gives clean diagnostics and a graphing of the
    mode's class (or deterministic).  ``associativity``: all four plugs
    of the two nestings of a random triple are clean, and the nestings
    give the same graphing."""
    if kind not in ("closure", "associativity"):
        raise ValueError(f"unknown property {kind!r}")
    if kind == "closure":
        f, g = random_pair(seed, mode)
        result = plug(f, g, max_steps=max_steps)
        got = classify(result.graphing)
        return result.diagnostics.clean() and (
            got == _CLASS_OF_MODE[mode] or got == GraphingClass.DETERMINISTIC)
    f, g, h = random_triple(seed, mode)
    fg = plug(f, g, max_steps=max_steps)
    gh = plug(g, h, max_steps=max_steps)
    left = plug(fg.graphing, h, max_steps=max_steps)
    right = plug(f, gh.graphing, max_steps=max_steps)
    return (all(r.diagnostics.clean() for r in (fg, gh, left, right))
            and left.graphing.same_as(right.graphing))
