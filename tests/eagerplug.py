"""An eager reference for ``plug``: the path search as a plain loop over
every edge, with every record built when the path is met."""

from collections import deque
from fractions import Fraction

from graphvm.execution import PathRecord, plug
from graphvm.graphing import Edge, join_monoids
from graphvm.space import MeasurableSet


def eager_plug(f, g, max_steps=10000):
    """The path search as a plain loop over every edge: it builds each
    record when it meets the path, and unions a node's hits one by one
    into the part that does not die.  Returns the sorted edges, their
    records, the dead records and the diagnostics."""
    monoid = join_monoids(f.weights, g.weights)
    cut = f.carrier.intersect(g.carrier)
    sides = {"F": f, "G": g}
    found, dead_paths = [], []
    diag = {"steps_used": 0, "unresolved_mass": Fraction(0),
            "looping_mass": Fraction(0), "dead_mass": Fraction(0)}

    def record(trail, source):
        return PathRecord(tuple(step[0] for step in trail),
                          tuple(step[1] for step in trail),
                          source, trail[-1][2], trail[-1][3])

    queue = deque()
    for side, graphing in sides.items():
        for idx, e in enumerate(graphing.edges):
            start = e.source.subtract(cut)
            if not start.is_empty():
                queue.append((e.realizer.apply(start),
                              (((side, idx), start, e.realizer, e.weight),)))
    while queue:
        image, trail = queue.popleft()
        (side, _), _, composite, weight = trail[-1]
        exits = image.subtract(cut)
        if not exits.is_empty():
            src = composite.invert().apply(exits)
            found.append((Edge(weight, src, composite), record(trail, src)))
        inside = image.intersect(cut)
        if inside.is_empty():
            continue
        other = "G" if side == "F" else "F"
        covered = MeasurableSet.empty()
        for idx, e in enumerate(sides[other].edges):
            hit = inside.intersect(e.source)
            if hit.is_empty():
                continue
            covered = covered.union(hit)
            if diag["steps_used"] >= max_steps:
                diag["unresolved_mass"] += weight * hit.measure()
                continue
            diag["steps_used"] += 1
            comp = composite.compose(e.realizer)
            w = monoid.product(weight, e.weight)
            repeat = next((rw for key, region, rc, rw in trail
                           if key == (other, idx) and rc == comp
                           and hit.subset_of(region)), None)
            if repeat is not None:
                kind = "looping_mass" if w == repeat else "unresolved_mass"
                diag[kind] += w * hit.measure()
                continue
            queue.append((e.realizer.apply(hit),
                          trail + (((other, idx), hit, comp, w),)))
        dead = inside.subtract(covered)
        if not dead.is_empty():
            diag["dead_mass"] += weight * dead.measure()
            dead_paths.append(record(trail, composite.invert().apply(dead)))
    found.sort(key=lambda pair: pair[0].key())
    return ([e for e, _ in found], [r for _, r in found], dead_paths, diag)


def assert_matches_eager(result, f, g, max_steps=10000):
    edges, paths, dead_paths, diag = eager_plug(f, g, max_steps)
    assert list(result.graphing.edges) == edges
    assert result.paths == paths
    assert result.dead_paths == dead_paths
    got = result.diagnostics
    assert (got.steps_used, got.unresolved_mass, got.looping_mass,
            got.dead_mass) == (diag["steps_used"], diag["unresolved_mass"],
                               diag["looping_mass"], diag["dead_mass"])


def assert_matches_eager_at_budgets(f, g):
    for max_steps in (10000, 1, 3):
        assert_matches_eager(plug(f, g, max_steps=max_steps), f, g,
                             max_steps)
