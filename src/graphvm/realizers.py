"""Symbolic partial maps of Z x [0,1]^N and the microcosms that admit them.

A realizer acts on a point (n, x) by permuting finitely many cube
coordinates, adding a rational offset to finitely many of them, and
shifting the cell: the output's coordinate j is ``x[perm^-1(j)] +
offset[j]`` and the cell becomes ``n + shift``.  The map is defined
exactly where every offset keeps its coordinate inside [0, 1); on that
domain it is invertible and measure-preserving.  Each offset is kept as
an integer triple ``(j, p, q)``, the rational p/q in lowest terms with
q > 0, as an interval keeps integer endpoints, so no ``Fraction`` is
built, read or hashed when maps are applied, composed or inverted.

The fixed order of action (permute, then offset, then shift) makes
composition closed-form, so membership in the coordinate-permutation
microcosms is decidable by inspection rather than word search.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .space import (FULL, MeasurableSet, RationalBox, RationalInterval, ZERO,
                    ONE, _exact, lazy, value_type)


class DomainViolation(ValueError):
    """A realizer was applied outside its domain."""

    def __init__(self, box: RationalBox, coordinate: int):
        self.box = box
        self.coordinate = coordinate
        super().__init__(
            f"realizer undefined on {box}: coordinate {coordinate} leaves [0,1)")


def _normalize_perm(perm: dict[int, int]) -> tuple[tuple[int, int], ...]:
    moved = {j: k for j, k in perm.items() if j != k}
    if sorted(moved) != sorted(moved.values()):
        raise ValueError(f"not a permutation: {perm}")
    if any(j < 1 for j in moved):
        raise ValueError("permutation must move positive coordinates only")
    return tuple(sorted(moved.items()))


@value_type
class Realizer:
    """A map of the cells: permute ``perm``'s coordinates, add each
    offset ``(j, p, q)``'s p/q to coordinate j, then shift the cell by
    ``shift``; defined where every offset keeps its coordinate in [0, 1)."""

    shift: int
    perm: tuple[tuple[int, int], ...] = ()
    offsets: tuple[tuple[int, int, int], ...] = ()

    # Realizers are memo keys, hashed at every lookup, so the hash of the
    # nested field tuples is worked out once; equality stays the
    # dataclass's structural one.
    @lazy
    def _hash(self) -> int:
        return hash((self.shift, self.perm, self.offsets))

    def __hash__(self):
        return self._hash

    @staticmethod
    def make(shift: int = 0,
             perm: dict[int, int] | None = None,
             offsets: dict[int, Fraction] | None = None) -> "Realizer":
        if type(shift) is not int:
            raise TypeError(f"shift must be an int, got {shift!r}")
        exact = ((j, c if type(c) is Fraction else _exact(c))
                 for j, c in (offsets or {}).items())
        norm_off = tuple(sorted((j, c.numerator, c.denominator)
                                for j, c in exact if c != 0))
        if any(j < 1 for j, _, _ in norm_off):
            raise ValueError("offsets apply to positive coordinates only")
        return Realizer(shift, _normalize_perm(perm or {}), norm_off)

    @staticmethod
    def identity() -> "Realizer":
        return _IDENTITY

    @staticmethod
    def shift_by(k: int) -> "Realizer":
        return Realizer(k)

    @staticmethod
    def transposition(a: int, b: int) -> "Realizer":
        if a == b:
            return _IDENTITY
        return Realizer.make(0, {a: b, b: a})

    @staticmethod
    def head_swap(j: int) -> "Realizer":
        """The coordinate swap activating head j (the map exchanging 1 and j)."""
        return Realizer.transposition(1, j)

    @staticmethod
    def offset(coords: dict[int, Fraction]) -> "Realizer":
        return Realizer.make(0, None, coords)

    def perm_image(self, j: int) -> int:
        for a, b in self.perm:
            if a == j:
                return b
        return j

    def perm_preimage(self, j: int) -> int:
        for a, b in self.perm:
            if b == j:
                return a
        return j

    def input_constraints(self) -> dict[int, RationalInterval] | None:
        """Per input coordinate, the interval on which the map is defined.

        Returns None when the map is void (an offset of magnitude >= 1
        leaves no admissible inputs; such composites arise in word
        searches and are dropped there).
        """
        out: dict[int, RationalInterval] = {}
        for j, p, q in self.offsets:
            if not -q < p < q:
                return None
            # [max(0, -c), min(1, 1 - c)) for the offset c = p/q
            out[self.perm_preimage(j)] = (RationalInterval.over(0, q - p, q)
                                          if p > 0 else
                                          RationalInterval.over(-p, q, q))
        return out

    def defined_on(self, b: RationalBox) -> bool:
        """Whether the map is defined on all of ``b``, so that
        ``apply_box(b)`` does not raise: each offset keeps the input
        interval it moves inside [0, 1), compared in integers."""
        for j, p, q in self.offsets:
            iv = b.interval_at(self.perm_preimage(j))
            if iv.a * q + p * iv.d < 0 or iv.b * q + p * iv.d > q * iv.d:
                return False
        return True

    def apply_box(self, b: RationalBox) -> RationalBox:
        # coords[j] is the input interval at perm_preimage(j)
        coords = ({self.perm_image(j): iv for j, iv in b.coords}
                  if self.perm else dict(b.coords))
        for j, p, q in self.offsets:
            src = coords.get(j, FULL)
            scale = lcm(src.d, q)
            m, k = scale // src.d, p * (scale // q)
            lo, hi = src.a * m + k, src.b * m + k
            if lo < 0 or hi > scale:
                raise DomainViolation(b, self.perm_preimage(j))
            coords[j] = RationalInterval.over(lo, hi, scale)
        # The image is normal once its indices are sorted: the permutation
        # moves positive indices only, an offset on a coordinate b leaves
        # free has raised above, and a nonzero offset never yields [0, 1).
        # So with no permutation the offsets rewrote coordinates of b in
        # place, and b's order is the sorted one.
        return RationalBox(b.cell + self.shift,
                           tuple(sorted(coords.items())) if self.perm
                           else tuple(coords.items()))

    def apply(self, s: MeasurableSet) -> MeasurableSet:
        """The image of ``s``.  A one-box set maps to its box's image,
        a normal box and so already canonical; the images of several
        boxes are swept into canonical form."""
        if len(s.boxes) == 1:
            return MeasurableSet((self.apply_box(s.boxes[0]),))
        return MeasurableSet.from_boxes(self.apply_box(b) for b in s.boxes)

    def apply_point(self, cell: int, values: dict[int, Fraction]):
        """Image of a point, or None when outside the domain."""
        out = {self.perm_image(j): _exact(v) for j, v in values.items()}
        for j, p, q in self.offsets:
            out[j] = out.get(j, ZERO) + Fraction(p, q)
        if not all(ZERO <= v < ONE for v in out.values()):
            return None
        return (cell + self.shift, {j: v for j, v in out.items() if v != 0})

    def domain_within(self, within: MeasurableSet) -> MeasurableSet:
        constraints = self.input_constraints()
        if constraints is None:
            return MeasurableSet.empty()
        return within.restrict(constraints)

    def compose(self, then: "Realizer") -> "Realizer":
        """The map acting as ``then`` after ``self``, built in normal
        form: a composite of permutations is one, so its moved pairs need
        no check, and the offsets are summed in integers."""
        shift = self.shift + then.shift
        if not self.perm and not then.perm:
            # shifts and offsets alone: one side's offsets, if only one
            # has any, are the composite's as they stand, and both sides'
            # are summed per coordinate
            if not then.offsets:
                return Realizer(shift, (), self.offsets)
            if not self.offsets:
                return Realizer(shift, (), then.offsets)
            perm, offs = (), {t[0]: t for t in self.offsets}
        else:
            support = ({j for j, _ in self.perm} | {j for j, _ in then.perm}
                       | {k for _, k in self.perm} | {k for _, k in then.perm})
            perm = tuple(sorted(
                (j, k) for j in support
                if (k := then.perm_image(self.perm_image(j))) != j))
            offs = ({(k := then.perm_image(j)): (k, p, q)
                     for j, p, q in self.offsets}
                    if then.perm else {t[0]: t for t in self.offsets})
        for t in then.offsets:
            j, r, s = t
            mine = offs.get(j)
            if mine is None:
                offs[j] = t
                continue
            # p/q + r/s over q*s, reduced by their gcd
            _, p, q = mine
            p = p * s + r * q
            if p:
                q *= s
                g = gcd(p, q)
                offs[j] = (j, p // g, q // g)
            else:
                del offs[j]
        # every offset is a nonzero p/q in lowest terms on a positive
        # coordinate, and no two share one, so the triples sort by it
        return Realizer(shift, perm, tuple(sorted(offs.values())))

    def invert(self) -> "Realizer":
        return self._inverse

    # One inverse per realizer, so a memo table meets the same object
    # every time the inverse is a key.
    @lazy
    def _inverse(self) -> "Realizer":
        if not self.perm:
            # the offsets negated keep their coordinates and order
            return Realizer(-self.shift, (),
                            tuple([(j, -p, q) for j, p, q in self.offsets]))
        # the inverse of a normal permutation is normal
        perm = tuple(sorted((k, j) for j, k in self.perm))
        offs = tuple(sorted((self.perm_preimage(j), -p, q)
                            for j, p, q in self.offsets))
        return Realizer(-self.shift, perm, offs)

    def key(self):
        return (self.shift, self.perm, self.offsets)

    def text(self) -> str:
        """Stable textual form: ``shift=k; perm=(a b)...; offsets=j:p/q,...``"""
        parts = [f"shift={self.shift}"]
        if self.perm:
            cycles = []
            seen: set[int] = set()
            pm = dict(self.perm)
            for start in sorted(pm):
                if start in seen:
                    continue
                cyc = [start]
                seen.add(start)
                nxt = pm[start]
                while nxt != start:
                    cyc.append(nxt)
                    seen.add(nxt)
                    nxt = pm[nxt]
                if len(cyc) > 1:
                    cycles.append("(" + " ".join(map(str, cyc)) + ")")
            parts.append("perm=" + "".join(cycles))
        if self.offsets:
            parts.append("offsets=" + ",".join(
                f"{j}:{p}/{q}" for j, p, q in self.offsets))
        return "; ".join(parts)

    def __str__(self) -> str:
        return self.text()


_IDENTITY = Realizer(0)


def preimage_within(r: Realizer, source: MeasurableSet,
                    target: MeasurableSet) -> MeasurableSet:
    """Subset of ``source`` that r maps into ``target``."""
    hit = r.apply(r.domain_within(source)).intersect(target)
    return r.invert().apply(hit)


# -- microcosms --------------------------------------------------------------

_KIND_ORDER = {"m1": 0, "mi": 1, "minf": 2, "macro": 3}


@value_type
class Microcosm:
    """A named composition-closed family of realizers, on the chain
    m1 < mi(2) < mi(3) < ... < minf < macro.

    The families: translations only (m1); translations plus permutations
    of the first i coordinates (mi); translations plus all finite-support
    permutations (minf); everything (macro).  Membership is decided by
    inspecting the realizer.
    """

    kind: str
    arity: int = 0

    @staticmethod
    def m1() -> "Microcosm":
        return Microcosm("m1")

    @staticmethod
    def mi(i: int) -> "Microcosm":
        if i < 1:
            raise ValueError("arity must be at least 1")
        return Microcosm("m1") if i == 1 else Microcosm("mi", i)

    @staticmethod
    def m_infinity() -> "Microcosm":
        return Microcosm("minf")

    @staticmethod
    def macrocosm() -> "Microcosm":
        return Microcosm("macro")

    def contains(self, r: Realizer) -> bool:
        if self.kind == "macro":
            return True
        if self.kind == "minf":
            return not r.offsets
        if self.kind == "m1":
            return not r.offsets and not r.perm
        return not r.offsets and all(
            j <= self.arity and k <= self.arity for j, k in r.perm)

    def join(self, other: "Microcosm") -> "Microcosm":
        """The least family of the chain that contains both."""
        return max(self, other, key=lambda m: (_KIND_ORDER[m.kind], m.arity))

    def describe(self) -> str:
        if self.kind == "mi":
            return f"mi({self.arity})"
        return self.kind


def standard_generators(i: int) -> list[Realizer]:
    """Unit translations plus the head swaps up to coordinate i."""
    gens = [Realizer.shift_by(1), Realizer.shift_by(-1)]
    gens.extend(Realizer.head_swap(j) for j in range(2, i + 1))
    return gens
