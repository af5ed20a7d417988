"""Compiler front-end: words and machine specs become graphings.

A word ``w`` over the alphabet is laid out as a marked cyclic list
``* w[0] w[1] ...``: every symbol owns an In and an Out cell, the unit
interval of coordinate 1 is sliced into ``len(w)+1`` equal rational
addresses, and edge ``p -> p+1`` carries the Out region of the symbol
at position p (at address slice p) to the In region of the next symbol
(at slice p+1), wrapping at the marker.  Two-way words also carry the
inverse edges.  With ``state_rows`` > 1 the whole picture is duplicated
once per machine state at a fixed cell stride.

A machine becomes a graphing over the same cells: a starter edge from
its accept cell into the marker's Out region poses the first question,
and each transition responds from the region where its observation
arrives (the In cell after an advance, the Out cell after a retreat).
Activating head j composes the response with the coordinate swap
(1 j) and emits into the marker's region, so the freshly active head
must sit on the marker for the run to survive.  The active head's
address always lives on coordinate 1; parked heads keep theirs on
higher coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .space import MeasurableSet, RationalBox, RationalInterval
from .realizers import Microcosm, Realizer
from .graphing import (Edge, Graphing, PROBABILITIES, TRIVIAL)
from .machines import ACCEPT, ADVANCE, MARKER, MachineSpec, validate_spec
from .execution import PlugResult, Regions, accept_mass, reject_mass

IN = "in"
OUT = "out"


@dataclass(frozen=True)
class TapeLayout:
    """Deterministic assignment of named regions to integer cells.

    Per state row: the marker's In/Out cells, then In/Out per alphabet
    symbol, then the accept and reject cells; rows repeat at
    ``row_stride``.
    """

    alphabet: tuple[str, ...]

    def __post_init__(self):
        if MARKER in self.alphabet:
            raise ValueError("alphabet must not contain the marker")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet has duplicates")

    @property
    def row_stride(self) -> int:
        return 2 * len(self.alphabet) + 4

    def symbol_cell(self, symbol: str, kind: str, row: int = 0) -> int:
        if symbol == MARKER:
            base = 0
        else:
            base = 2 + 2 * self.alphabet.index(symbol)
        return row * self.row_stride + base + (0 if kind == IN else 1)

    def accept_cell(self, row: int = 0) -> int:
        return row * self.row_stride + 2 * len(self.alphabet) + 2

    def reject_cell(self, row: int = 0) -> int:
        return row * self.row_stride + 2 * len(self.alphabet) + 3

    def tape_boxes(self, rows: int = 1) -> list[RationalBox]:
        """The In and Out cells of the marker and of every symbol, per
        row: the carrier of a word, and the tape part of a machine's."""
        return [RationalBox.make(self.symbol_cell(symbol, kind, row))
                for row in range(rows)
                for symbol in (MARKER,) + self.alphabet
                for kind in (IN, OUT)]

    def accept_boxes(self, rows: int = 1) -> list[RationalBox]:
        return [RationalBox.make(self.accept_cell(row)) for row in range(rows)]

    def reject_boxes(self, rows: int = 1) -> list[RationalBox]:
        return [RationalBox.make(self.reject_cell(row)) for row in range(rows)]

    def cell_names(self, rows: int = 1) -> dict[int, str]:
        names = {}
        for row in range(rows):
            suffix = f"@r{row}" if rows > 1 else ""
            for symbol in (MARKER,) + self.alphabet:
                tag = "star" if symbol == MARKER else symbol
                names[self.symbol_cell(symbol, IN, row)] = f"{tag}.in{suffix}"
                names[self.symbol_cell(symbol, OUT, row)] = f"{tag}.out{suffix}"
            names[self.accept_cell(row)] = f"accept{suffix}"
            names[self.reject_cell(row)] = f"reject{suffix}"
        return names


def slice_interval(position: int, cells: int) -> RationalInterval:
    return RationalInterval(Fraction(position, cells),
                            Fraction(position + 1, cells))


@dataclass(frozen=True)
class WordEncoding:
    word: str
    layout: TapeLayout
    state_rows: int
    one_way: bool
    graphing: Graphing

    @property
    def slices(self) -> int:
        return len(self.word) + 1


def encode_word(word: str, layout: TapeLayout, state_rows: int = 1,
                one_way: bool = False) -> WordEncoding:
    """Graphing of the marked cyclic word, duplicated across state rows."""
    for ch in word:
        if ch not in layout.alphabet:
            raise ValueError(f"symbol {ch!r} not in alphabet")
    if state_rows < 1:
        raise ValueError("need at least one state row")
    cells = len(word) + 1
    symbols = [MARKER] + list(word)
    edges = []
    for row in range(state_rows):
        for pos in range(cells):
            nxt = (pos + 1) % cells
            src_cell = layout.symbol_cell(symbols[pos], OUT, row)
            dst_cell = layout.symbol_cell(symbols[nxt], IN, row)
            offset = Fraction(nxt - pos, cells)
            realizer = Realizer.make(dst_cell - src_cell,
                                     None, {1: offset} if offset else None)
            source = MeasurableSet.of(RationalBox.make(
                src_cell, {1: slice_interval(pos, cells)}))
            forward = Edge(Fraction(1), source, realizer)
            edges.append(forward)
            if not one_way:
                edges.append(Edge(Fraction(1), forward.target,
                                  realizer.invert()))
    graphing = Graphing.make(TRIVIAL, Microcosm.macrocosm(),
                             MeasurableSet.from_boxes(
                                 layout.tape_boxes(state_rows)),
                             edges)
    return WordEncoding(word, layout, state_rows, one_way, graphing)


@dataclass(frozen=True)
class EncodedMachine:
    spec: MachineSpec
    layout: TapeLayout
    graphing: Graphing

    @property
    def initial_row(self) -> int:
        return 0

    @cached_property
    def accept_region(self) -> MeasurableSet:
        return MeasurableSet.from_boxes(
            self.layout.accept_boxes(len(self.spec.states)))

    @cached_property
    def reject_region(self) -> MeasurableSet:
        return MeasurableSet.from_boxes(
            self.layout.reject_boxes(len(self.spec.states)))

    def launch_region(self, word_len: int) -> MeasurableSet:
        """Accept region of the initial row with every head's address on
        the marker slice; runs that honour the automaton semantics start
        exactly here."""
        cells = word_len + 1
        coords = {j: slice_interval(0, cells)
                  for j in range(1, self.spec.heads + 1)}
        return MeasurableSet.of(RationalBox.make(
            self.layout.accept_cell(self.initial_row), coords))

    def regions_for(self, word_len: int) -> Regions:
        return Regions(self.launch_region(word_len),
                       self.accept_region, self.reject_region)


def _response_edges(spec: MachineSpec, layout: TapeLayout,
                    row_of: dict[str, int]) -> list[Edge]:
    edges = []
    retreat_entered = spec.retreat_entered_states()
    for (state, symbol), actions in spec.transitions:
        arrival_kinds = [IN]
        if state in retreat_entered:
            arrival_kinds.append(OUT)
        for kind in arrival_kinds:
            src_cell = layout.symbol_cell(symbol, kind, row_of[state])
            source = MeasurableSet.of(RationalBox.make(src_cell))
            for action in actions:
                perm = {1: action.swap, action.swap: 1} if action.swap else None
                if action.is_terminal():
                    dst = (layout.accept_cell(row_of[state])
                           if action.kind == ACCEPT
                           else layout.reject_cell(row_of[state]))
                elif action.kind == ADVANCE:
                    target_symbol = MARKER if action.swap else symbol
                    dst = layout.symbol_cell(target_symbol, OUT,
                                             row_of[action.goto])
                else:  # retreat exits through the word's reverse edges
                    target_symbol = MARKER if action.swap else symbol
                    dst = layout.symbol_cell(target_symbol, IN,
                                             row_of[action.goto])
                realizer = Realizer.make(dst - src_cell, perm)
                edges.append(Edge(action.weight, source, realizer))
    return edges


def encode_machine(spec: MachineSpec,
                   layout: TapeLayout | None = None) -> EncodedMachine:
    """Compile a machine spec into a graphing in the microcosm of its
    head count."""
    problems = validate_spec(spec)
    if problems:
        raise ValueError("; ".join(problems))
    layout = layout or TapeLayout(tuple(spec.alphabet))
    row_of = {state: i for i, state in enumerate(spec.states)}
    init_row = row_of[spec.initial]

    edges = [Edge(Fraction(1),
                  MeasurableSet.of(RationalBox.make(layout.accept_cell(init_row))),
                  Realizer.shift_by(layout.symbol_cell(MARKER, OUT, init_row)
                                    - layout.accept_cell(init_row)))]
    edges.extend(_response_edges(spec, layout, row_of))

    rows = len(spec.states)
    carrier = MeasurableSet.from_boxes(layout.tape_boxes(rows)
                                       + layout.accept_boxes(rows)
                                       + layout.reject_boxes(rows))
    monoid = PROBABILITIES if spec.mode == "prob" else TRIVIAL
    graphing = Graphing.make(monoid, Microcosm.mi(spec.heads), carrier, edges)
    return EncodedMachine(spec, layout, graphing)


def run_word(machine: EncodedMachine, word: str, one_way: bool = False,
             max_steps: int = 10000):
    """Plug the machine against the word; returns the plug result and
    the regions the tests need."""
    from .execution import plug

    enc = encode_word(word, machine.layout,
                      state_rows=len(machine.spec.states), one_way=one_way)
    result = plug(machine.graphing, enc.graphing, max_steps=max_steps)
    return result, machine.regions_for(len(word))


def classify_result(result: PlugResult, regions: Regions) -> str:
    """Boolean reading of an execution result: 'true' when all launch
    mass lands in accept and none in reject, 'false' when some lands in
    reject, 'other' otherwise."""
    if reject_mass(result, regions) > 0:
        return "false"
    if accept_mass(result, regions) == 1:
        return "true"
    return "other"
