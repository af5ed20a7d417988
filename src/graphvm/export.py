"""Deterministic serialization: JSON payloads with p/q rationals, DOT.

Every rational, weights included, is rendered as the string "p/q"
(denominator always written), never as a float.  Each ``*_payload`` returns
compact JSON text, the bytes ``json.dumps`` gives with ``sort_keys``
(coordinate keys sort as strings) and no spaces; ``dumps`` passes it
through, and ``encode --out`` re-indents it.  Exports carry no
wall-clock data, so identical inputs produce byte-identical files.

Rationals are written from integers, with no ``Fraction`` built: a set
in one pass over its boxes, each interval endpoint from its ``(a, b,
d)`` with one gcd and the measure summed in the same loop, and a
realizer's offsets as the ``(j, p, q)`` triples it keeps in lowest terms.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .space import MeasurableSet
from .realizers import Microcosm, Realizer
from .graphing import Graphing, cost
from .execution import INFINITY, PathRecord, PlugResult


def frac_str(value) -> str:
    """``p/q`` for a rational (a ``Fraction`` or an ``int``), read off
    its own numerator and denominator, and ``inf`` for INFINITY."""
    if value is INFINITY:
        return "inf"
    return f"{value.numerator}/{value.denominator}"


def _by_index(pairs) -> str:
    """A JSON object of ``(index, value text)`` pairs, keys sorted as
    strings: a key's closing quote sorts before any digit."""
    return "{" + ",".join(sorted(f'"{j}":{v}' for j, v in pairs)) + "}"


def _boxes(boxes) -> tuple[list[str], int, int]:
    """Each box's text and, summed in the same pass, their measure as a
    numerator over the lcm of the boxes' denominators, not reduced.  An
    interval ``(a, b, d)`` is written as ``a/d`` and ``b/d``, each reduced
    by its own gcd."""
    texts = []
    num, den = 0, 1
    for box in boxes:
        if not box.coords:  # a whole cell, of measure 1
            texts.append(f'{{"cell":{box.cell},"coords":{{}}}}')
            num += den
            continue
        coords = []
        bnum = bden = 1
        for j, iv in box.coords:
            a, b, d = iv.a, iv.b, iv.d
            g, h = gcd(a, d), gcd(b, d)
            coords.append(f'"{j}":["{a // g}/{d // g}","{b // h}/{d // h}"]')
            bnum *= b - a
            bden *= d
        # a normal box's indices ascend, and while each is one digit they
        # sort as strings the same way
        if box.coords[-1][0] > 9:
            coords.sort()
        texts.append(f'{{"cell":{box.cell},"coords":{{{",".join(coords)}}}}}')
        if den % bden:
            scale = bden // gcd(den, bden)
            num, den = num * scale, den * scale
        num += bnum * (den // bden)
    return texts, num, den


def set_payload(s: MeasurableSet) -> str:
    """The set's boxes and its measure, written in one pass over them.
    The measure is reduced here, and written with no escape: its digits
    and slash need none."""
    texts, num, den = _boxes(s.boxes)
    g = gcd(num, den)
    return (f'{{"boxes":[{",".join(texts)}],'
            f'"measure":"{num // g}/{den // g}"}}')


def realizer_payload(r: Realizer) -> str:
    """A realizer's fields and text.  Its offsets are in lowest terms, as
    its normal form keeps them, so each ``p/q`` is written as it stands."""
    offsets = (_by_index((j, f'"{p}/{q}"') for j, p, q in r.offsets)
               if r.offsets else "{}")
    perm = _by_index(r.perm) if r.perm else "{}"
    return (f'{{"offsets":{offsets},"perm":{perm},'
            f'"shift":{r.shift},"text":{_quote(r.text())}}}')


def microcosm_payload(m: Microcosm) -> str:
    arity = f'"arity":{m.arity},' if m.kind == "mi" else ""
    return f'{{{arity}"kind":{_quote(m.kind)}}}'


def graphing_payload(g: Graphing) -> str:
    return _graphing(g, set_payload, realizer_payload)


def _graphing(g: Graphing, set_text, realizer_text) -> str:
    """``graphing_payload``, with sets and realizers written by
    ``set_text`` and ``realizer_text``."""
    edges = ",".join(
        f'{{"realizer":{realizer_text(e.realizer)},'
        f'"source":{set_text(e.source)},'
        f'"target":{set_text(e.target)},'
        f'"weight":{_quote(frac_str(e.weight))}}}' for e in g.edges)
    return (f'{{"carrier":{set_text(g.carrier)},'
            f'"cost":{_quote(frac_str(cost(g)))},"edges":[{edges}],'
            f'"microcosm":{microcosm_payload(g.microcosm)},'
            f'"weights":{_quote(g.weights.name)}}}')


def _step(key: tuple[str, int], region: str) -> str:
    """One step of a path: its (side, edge index) and its region's text."""
    side, idx = key
    return f'{{"edge":{idx},"region":{region},"side":{_quote(side)}}}'


def _path(realizer: str, source: str, steps: str, weight) -> str:
    """One path record from the texts of its realizer, source and steps."""
    return (f'{{"realizer":{realizer},"source":{source},"steps":[{steps}],'
            f'"weight":{_quote(frac_str(weight))}}}')


def path_payload(p: PathRecord) -> str:
    steps = ",".join(_step(key, set_payload(region))
                     for key, region in zip(p.steps, p.regions))
    return _path(realizer_payload(p.realizer), set_payload(p.source), steps,
                 p.weight)


def result_payload(result: PlugResult) -> str:
    """The result's dead paths, diagnostics, graphing and paths, the
    records ``path_payload`` writes, written from the search's nodes.

    Each piece is written once per call.  The text of a set, a realizer
    or a step is kept in one table by its identity: every one written
    stays alive for the call.  A path's steps are the kept texts of its
    nodes, walked up from its last and joined: paths that share a step
    share its node, so each step is written once."""
    texts: dict[int, str] = {}
    kept = texts.get

    def set_text(s: MeasurableSet) -> str:
        got = kept(id(s))
        if got is None:
            got = texts[id(s)] = set_payload(s)
        return got

    def realizer_text(r: Realizer) -> str:
        got = kept(id(r))
        if got is None:
            got = texts[id(r)] = realizer_payload(r)
        return got

    def path(node, source) -> str:
        steps, last = [], node
        while node is not None:
            got = kept(id(node))
            if got is None:
                got = texts[id(node)] = _step(node[0], set_text(node[1]))
            steps.append(got)
            node = node[4]
        steps.reverse()
        return _path(realizer_text(last[2]), set_text(source),
                     ",".join(steps), last[3])

    d = result.diagnostics
    dead_text = ",".join([path(node, source)
                          for node, source in result._dead_ends])
    # an exit's edge takes its source and composite, written here first
    graphing = _graphing(result.graphing, set_text, realizer_text)
    paths = ",".join([path(node, e.source) for node, e in
                      zip(result.exit_nodes, result.graphing.edges)])
    notes = ",".join(map(_quote, d.notes))
    return (f'{{"dead_paths":[{dead_text}],"diagnostics":{{'
            f'"complete":{"true" if d.complete else "false"},'
            f'"dead_mass":{_quote(frac_str(d.dead_mass))},'
            f'"looping_mass":{_quote(frac_str(d.looping_mass))},'
            f'"notes":[{notes}],"steps_used":{d.steps_used},'
            f'"unresolved_mass":{_quote(frac_str(d.unresolved_mass))}}},'
            f'"graphing":{graphing},"paths":[{paths}]}}')


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
