"""Compilation preorder, generator-word orbits, treeings and cost.

Compilability asks whether a map agrees piecewise, over a finite
partition of its domain, with words in a generator set.  For the
affine-permutation realizers used here two maps agree on a set of
positive measure exactly when their symbolic data coincide, so the
search reduces to covering the target's domain with the domains of
generator words that compose to the same symbol.  Searches are bounded
and three-valued: a negative only means nothing was found within the
bounds.

The cost side is the canonical treeing of the coordinate-permutation
action: boxes of dyadic ranks, refined wherever prefixes tie, each box
carried by the head swap that moves its rank pattern one step closer to
the sorted one.  Its cost is computed in closed form, without building
the treeing: the full treeing costs 1 - 1/i!; its truncation at dyadic
depth d costs that times perm(2^d, i) / 2^(d i), the measure of the
points whose coordinates have pairwise distinct d-bit prefixes.  The
tests build the treeing box by box as the reference for that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm

from .space import MeasurableSet, RationalBox, ONE, ZERO, _exact
from .realizers import Microcosm, Realizer, standard_generators
from .graphing import Edge, Graphing


def _word_states(generators, k: int, positive_only: bool):
    """Breadth-first words up to length k with their composites and
    stepwise domains (boxes at cell 0), deduplicated by (composite,
    domain).  Iterating raises ValueError when k is negative."""
    if k < 0:
        raise ValueError("word length bound must be nonnegative")
    letters = [(idx, 1, g) for idx, g in enumerate(generators)]
    if not positive_only:
        letters += [(idx, -1, g.invert()) for idx, g in enumerate(generators)]
    start = ((), Realizer.identity(), RationalBox.make(0))
    seen = {(Realizer.identity().key(), start[2])}
    frontier = [start]
    yield start
    for _ in range(k):
        nxt = []
        for word, comp, dom in frontier:
            for idx, exp, g in letters:
                # dom lies in comp's domain, so stepping on through g keeps
                # exactly the points of dom in the composite's domain
                new_comp = comp.compose(g)
                constraints = new_comp.input_constraints()
                if constraints is None:
                    continue
                new_dom = dom.intersect(RationalBox.make(0, constraints))
                if new_dom is None:
                    continue
                state = (word + ((idx, exp),), new_comp, new_dom)
                key = (new_comp.key(), new_dom)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(state)
                yield state
        frontier = nxt


def orbit(cell: int, values: dict[int, Fraction], generators,
          k: int, positive_only: bool = False) -> list:
    """Points reachable from (cell, values) by generator words of length
    <= k; with inverses this samples the orbit equivalence, positive
    words sample the reachability preorder.  A word reaches the point
    when the point lies in the word's stepwise domain."""
    values = {j: _exact(v) for j, v in values.items()}
    if not all(ZERO <= v < ONE for v in values.values()):
        raise ValueError("point coordinates must lie in [0, 1)")
    reached = set()
    for _, comp, dom in _word_states(list(generators), k, positive_only):
        if all(iv.lo <= values.get(j, ZERO) < iv.hi for j, iv in dom.coords):
            image_cell, image = comp.apply_point(cell, values)
            reached.add((image_cell, tuple(sorted(image.items()))))
    return sorted(reached)


@dataclass(frozen=True)
class WitnessPiece:
    """A part of the target's domain and a generator word that realizes
    the target on it."""

    part: MeasurableSet                 # cell-free constraints, kept at cell 0
    word: tuple[Realizer, ...]


@dataclass(frozen=True)
class CompilationWitness:
    """A partition of ``target``'s domain into pieces, each realized by a
    generator word."""

    target: Realizer
    pieces: tuple[WitnessPiece, ...]


def is_compilable(target: Realizer, generators, max_word_len: int = 6,
                  max_parts: int = 8) -> CompilationWitness | None:
    """Search for a finite partition of the target's domain on which
    generator words realize the same map.  None means nothing was found
    within the bounds, not that no witness exists."""
    if min(max_word_len, max_parts) < 0:
        raise ValueError("search bounds must be nonnegative")
    target_constraints = target.input_constraints()
    if target_constraints is None:
        raise ValueError("target realizer is void")
    remaining = MeasurableSet.of(RationalBox.make(0, target_constraints))
    gens = list(generators)
    pieces: list[WitnessPiece] = []
    for word, comp, dom in _word_states(gens, max_word_len, True):
        if comp != target:
            continue
        part = remaining.intersect(MeasurableSet.of(dom))
        if part.is_empty():
            continue
        pieces.append(WitnessPiece(
            part, tuple(gens[idx] if exp == 1 else gens[idx].invert()
                        for idx, exp in word)))
        remaining = remaining.subtract(part)
        if remaining.is_empty():
            break
    if not remaining.is_empty() or len(pieces) > max_parts or not pieces:
        return None
    return CompilationWitness(target, tuple(pieces))


class WitnessError(ValueError):
    pass


def _witness_sources(edge_index: int, edge: Edge,
                     witness: CompilationWitness) -> list[MeasurableSet]:
    """Check the witness against the edge; return the edge's source
    restricted to each witness part."""
    if witness.target != edge.realizer:
        raise WitnessError(f"edge {edge_index}: witness target differs "
                           f"from the edge realizer")
    sources = []
    covered = MeasurableSet.empty()
    for part_index, piece in enumerate(witness.pieces):
        comp = Realizer.identity()
        for letter in piece.word:
            comp = comp.compose(letter)
        if comp != edge.realizer:
            raise WitnessError(f"edge {edge_index}, part {part_index}: "
                               f"word composes to a different map")
        source = MeasurableSet.empty()
        for pb in piece.part.boxes:
            source = source.union(edge.source.restrict(pb.coord_map))
        sources.append(source)
        covered = covered.union(source)
    if covered != edge.source:
        raise WitnessError(f"edge {edge_index}: parts do not cover the source")
    return sources


def compile_graphing(g: Graphing, witnesses: dict[int, CompilationWitness],
                     target_microcosm: Microcosm) -> Graphing:
    """Replace each edge by one edge per witness part.  Each part keeps
    the edge's realizer, which its generator word was checked to compose
    to, so executions and cost are preserved."""
    new_edges = []
    for idx, edge in enumerate(g.edges):
        witness = witnesses.get(idx)
        if witness is None:
            new_edges.append(edge)
            continue
        sources = _witness_sources(idx, edge, witness)
        for source in sources:
            if source.is_empty():
                continue
            new_edges.append(Edge(edge.weight, source, edge.realizer))
    return Graphing.make(g.weights, target_microcosm, g.carrier, new_edges)


def unit_shift_witnesses(g: Graphing) -> dict[int, CompilationWitness]:
    """Witnesses decomposing every pure-shift edge into unit shifts."""
    out = {}
    gens = [Realizer.shift_by(1), Realizer.shift_by(-1)]
    for idx, edge in enumerate(g.edges):
        r = edge.realizer
        if r.perm or r.offsets:
            raise WitnessError(f"edge {idx}: not a pure shift")
        witness = is_compilable(r, gens, max_word_len=max(1, abs(r.shift)))
        if witness is None:
            raise WitnessError(f"edge {idx}: no unit-shift decomposition")
        out[idx] = witness
    return out


# -- treeings and cost --------------------------------------------------------

def treeing_cost(i: int, depth: int) -> tuple[Fraction, Fraction]:
    """(partial sum up to dyadic depth, closed-form total) of the cost
    of the treeing of the i-coordinate permutation action.

    A point is decided within ``depth`` bits exactly when its i
    coordinates have pairwise distinct ``depth``-bit prefixes: measure
    perm(2^depth, i) / 2^(depth i), 0 when i > 2^depth.  The i! rankings
    share that measure evenly and all but the sorted one carry an edge,
    so the partial sum is the total times the decided measure."""
    if i < 2:
        raise ValueError("need at least two coordinates to permute")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    total = 1 - Fraction(1, factorial(i))
    decided = Fraction(perm(2 ** depth, i), 2 ** (depth * i))
    return total * decided, total


def separation_experiment(i: int, j: int, max_word_len: int = 6,
                          max_parts: int = 8) -> dict:
    """Bounded consistency check that the microcosms of i and j heads
    are not compilation-equivalent: their treeings have distinct fixed
    costs and the extra head swap resists compilation into the smaller
    generator set within the bounds."""
    if not (2 <= i < j):
        raise ValueError("need 2 <= i < j")
    total_i = treeing_cost(i, 0)[1]
    total_j = treeing_cost(j, 0)[1]
    witness = is_compilable(Realizer.head_swap(j), standard_generators(i),
                            max_word_len, max_parts)
    return {
        "pair": (i, j),
        "treeing_total_small": total_i,
        "treeing_total_large": total_j,
        "totals_distinct": total_i != total_j,
        "swap_noncompilable_within_bounds": witness is None,
        "max_word_len": max_word_len,
        "max_parts": max_parts,
        "note": ("bounded consistency check, not a proof: the negative "
                 "holds only within the stated search bounds"),
    }
