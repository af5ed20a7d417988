"""Deterministic serialization: JSON payloads with p/q rationals, DOT.

Every rational is rendered as the string "p/q" (denominator always
written), never as a float; a weight that is no rational, from a
table monoid, is written as its ``str``.  Exports carry no wall-clock
data, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .space import MeasurableSet, RationalBox
from .realizers import Microcosm, Realizer
from .graphing import Graphing, cost
from .execution import INFINITY, PathRecord, PlugResult


def frac_str(value) -> str:
    """``p/q`` for a rational (a ``Fraction`` or an ``int``), read off
    its own numerator and denominator; ``inf`` for INFINITY; and
    ``str(value)`` for anything else, such as the element of a
    ``TableWeights`` monoid that an edge may weigh."""
    if value is INFINITY:
        return "inf"
    if isinstance(value, (Fraction, int)):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _ratio_str(num: int, den: int) -> str:
    """``frac_str(Fraction(num, den))`` for a positive ``den``, without
    building the Fraction."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def box_payload(b: RationalBox) -> dict:
    return {
        "cell": b.cell,
        "coords": {str(j): [_ratio_str(iv.a, iv.d), _ratio_str(iv.b, iv.d)]
                   for j, iv in b.coords},
    }


def set_payload(s: MeasurableSet) -> dict:
    return {
        "boxes": [box_payload(b) for b in s.boxes],
        "measure": frac_str(s.measure()),
    }


def realizer_payload(r: Realizer) -> dict:
    return {
        "text": r.text(),
        "shift": r.shift,
        "perm": {str(j): k for j, k in r.perm},
        "offsets": {str(j): frac_str(c) for j, c in r.offsets},
    }


def microcosm_payload(m: Microcosm) -> dict:
    payload = {"kind": m.kind}
    if m.kind == "mi":
        payload["arity"] = m.arity
    return payload


def graphing_payload(g: Graphing) -> dict:
    return {
        "weights": g.weights.name,
        "microcosm": microcosm_payload(g.microcosm),
        "carrier": set_payload(g.carrier),
        "edges": [
            {
                "weight": frac_str(e.weight),
                "source": set_payload(e.source),
                "target": set_payload(e.target),
                "realizer": realizer_payload(e.realizer),
            }
            for e in g.edges
        ],
        "cost": frac_str(cost(g)),
    }


def path_payload(p: PathRecord) -> dict:
    return {
        "steps": [
            {"side": side, "edge": idx, "region": set_payload(region)}
            for (side, idx), region in zip(p.steps, p.regions)
        ],
        "source": set_payload(p.source),
        "realizer": realizer_payload(p.realizer),
        "weight": frac_str(p.weight),
    }


def result_payload(result: PlugResult) -> dict:
    d = result.diagnostics
    return {
        "graphing": graphing_payload(result.graphing),
        "paths": [path_payload(p) for p in result.paths],
        "dead_paths": [path_payload(p) for p in result.dead_paths],
        "diagnostics": {
            "complete": d.complete,
            "steps_used": d.steps_used,
            "unresolved_mass": frac_str(d.unresolved_mass),
            "looping_mass": frac_str(d.looping_mass),
            "dead_mass": frac_str(d.dead_mass),
            "notes": list(d.notes),
        },
    }


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, payloads) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for payload in payloads:
            fh.write(dumps(payload) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- DOT ----------------------------------------------------------------------

def _node_id(name: str) -> str:
    return '"' + name.replace('"', "'") + '"'


def graphing_dot(g: Graphing, names: dict[int, str]) -> str:
    """Quotient picture of a graphing: one node per cell, dashed for
    permutation-realized edges."""
    lines = ['digraph "graphing" {', "  rankdir=LR;"]
    cells = sorted(g.carrier.cells() | {
        c for e in g.edges for c in (e.source.cells() | e.target.cells())})
    for cell in cells:
        label = names.get(cell, f"cell{cell}")
        lines.append(f"  {_node_id(label)};")
    for e in g.edges:
        for src_cell in sorted(e.source.cells()):
            for dst_cell in sorted(e.target.cells()):
                attrs = []
                if e.realizer.perm:
                    attrs.append("style=dashed")
                if e.weight != 1:
                    attrs.append(f'label="{frac_str(e.weight)}"')
                attr = (" [" + ",".join(attrs) + "]") if attrs else ""
                lines.append(f"  {_node_id(names.get(src_cell, f'cell{src_cell}'))}"
                             f" -> {_node_id(names.get(dst_cell, f'cell{dst_cell}'))}"
                             f"{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_dot(result: PlugResult, names: dict[int, str], accepting_steps) -> str:
    """Computation picture: the machine and word edges the result was
    plugged from, with the accepting path's steps drawn bold when there
    is one."""
    bold = set(accepting_steps or ())
    lines = ['digraph "run" {', "  rankdir=LR;"]
    seen_nodes = set()

    def node(cell):
        label = names.get(cell, f"cell{cell}")
        if label not in seen_nodes:
            seen_nodes.add(label)
            lines.append(f"  {_node_id(label)};")
        return _node_id(label)

    for tag, side, graphing in zip(("machine", "word"), "FG", result.operands):
        for idx, e in enumerate(graphing.edges):
            for src_cell in sorted(e.source.cells()):
                for dst_cell in sorted(e.target.cells()):
                    attrs = [f'class="{tag}"']
                    if e.realizer.perm:
                        attrs.append("style=dashed")
                    if tag == "word":
                        attrs.append("color=gray40")
                    if (side, idx) in bold:
                        attrs.append("penwidth=3")
                    lines.append(f"  {node(src_cell)} -> {node(dst_cell)}"
                                 f" [{','.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
