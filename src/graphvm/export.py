"""Deterministic serialization: JSON payloads with p/q rationals, DOT.

Every rational, weights included, is rendered as the string "p/q"
(denominator always written), never as a float.  Each ``*_payload`` returns
compact JSON text, the bytes ``json.dumps`` gives with ``sort_keys``
(coordinate keys sort as strings) and no spaces; ``dumps`` passes it
through, and ``encode --out`` re-indents it.  Exports carry no
wall-clock data, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .space import MeasurableSet, RationalBox
from .realizers import Microcosm, Realizer
from .graphing import Graphing, cost
from .execution import INFINITY, PathRecord, PlugResult


def frac_str(value) -> str:
    """``p/q`` for a rational (a ``Fraction`` or an ``int``), read off
    its own numerator and denominator, and ``inf`` for INFINITY."""
    if value is INFINITY:
        return "inf"
    return f"{value.numerator}/{value.denominator}"


def _ratio_str(num: int, den: int) -> str:
    """``frac_str(Fraction(num, den))`` for a positive ``den``, without
    building the Fraction."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _by_index(pairs) -> str:
    """A JSON object of ``(index, value text)`` pairs, keys sorted as
    strings: a key's closing quote sorts before any digit."""
    return "{" + ",".join(sorted(f'"{j}":{v}' for j, v in pairs)) + "}"


def box_payload(b: RationalBox) -> str:
    coords = _by_index((j, f"[{_quote(_ratio_str(iv.a, iv.d))},"
                           f"{_quote(_ratio_str(iv.b, iv.d))}]")
                       for j, iv in b.coords)
    return f'{{"cell":{b.cell},"coords":{coords}}}'


def set_payload(s: MeasurableSet) -> str:
    boxes = ",".join(map(box_payload, s.boxes))
    measure = _quote(_ratio_str(*s._measure_ratio()))
    return f'{{"boxes":[{boxes}],"measure":{measure}}}'


def realizer_payload(r: Realizer) -> str:
    offsets = _by_index((j, _quote(frac_str(c))) for j, c in r.offsets)
    return (f'{{"offsets":{offsets},"perm":{_by_index(r.perm)},'
            f'"shift":{r.shift},"text":{_quote(r.text())}}}')


def microcosm_payload(m: Microcosm) -> str:
    arity = f'"arity":{m.arity},' if m.kind == "mi" else ""
    return f'{{{arity}"kind":{_quote(m.kind)}}}'


def graphing_payload(g: Graphing) -> str:
    edges = ",".join(
        f'{{"realizer":{realizer_payload(e.realizer)},'
        f'"source":{set_payload(e.source)},'
        f'"target":{set_payload(e.target)},'
        f'"weight":{_quote(frac_str(e.weight))}}}' for e in g.edges)
    return (f'{{"carrier":{set_payload(g.carrier)},'
            f'"cost":{_quote(frac_str(cost(g)))},"edges":[{edges}],'
            f'"microcosm":{microcosm_payload(g.microcosm)},'
            f'"weights":{_quote(g.weights.name)}}}')


def path_payload(p: PathRecord) -> str:
    steps = ",".join(
        f'{{"edge":{idx},"region":{set_payload(region)},'
        f'"side":{_quote(side)}}}'
        for (side, idx), region in zip(p.steps, p.regions))
    return (f'{{"realizer":{realizer_payload(p.realizer)},'
            f'"source":{set_payload(p.source)},"steps":[{steps}],'
            f'"weight":{_quote(frac_str(p.weight))}}}')


def result_payload(result: PlugResult) -> str:
    d = result.diagnostics
    dead = ",".join(map(path_payload, result.dead_paths))
    paths = ",".join(map(path_payload, result.paths))
    notes = ",".join(map(_quote, d.notes))
    return (f'{{"dead_paths":[{dead}],"diagnostics":{{'
            f'"complete":{"true" if d.complete else "false"},'
            f'"dead_mass":{_quote(frac_str(d.dead_mass))},'
            f'"looping_mass":{_quote(frac_str(d.looping_mass))},'
            f'"notes":[{notes}],"steps_used":{d.steps_used},'
            f'"unresolved_mass":{_quote(frac_str(d.unresolved_mass))}}},'
            f'"graphing":{graphing_payload(result.graphing)},'
            f'"paths":[{paths}]}}')


def dumps(payload: str) -> str:
    """A payload's JSON text, unchanged: the name perfbench's op calls."""
    return payload


def write_jsonl(path, payloads) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for payload in payloads:
            fh.write(payload + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- DOT ----------------------------------------------------------------------

def _node_id(name: str) -> str:
    return '"' + name.replace('"', "'") + '"'


def _arrows(e):
    """One arrow per source cell and target cell of ``e``, in cell order,
    with its style: dashed when the realizer permutes coordinates."""
    style = ["style=dashed"] if e.realizer.perm else []
    return [(src_cell, dst_cell, style) for src_cell in sorted(e.source.cells())
            for dst_cell in sorted(e.target.cells())]


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
        weight = [f'label="{frac_str(e.weight)}"'] if e.weight != 1 else []
        for src_cell, dst_cell, style in _arrows(e):
            attrs = style + weight
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
            for src_cell, dst_cell, style in _arrows(e):
                attrs = [f'class="{tag}"'] + style
                if tag == "word":
                    attrs.append("color=gray40")
                if (side, idx) in bold:
                    attrs.append("penwidth=3")
                lines.append(f"  {node(src_cell)} -> {node(dst_cell)}"
                             f" [{','.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
