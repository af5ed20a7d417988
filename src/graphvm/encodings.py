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
higher coordinates.  A run takes the starter edge from the launch region
only, every head on the marker's slice (``EncodedMachine.graphing_for``),
so each of its paths is a run of the automaton.  ``EncodedMachine``
refuses a graphing that is not normative, so each box a run meets is one
configuration, and ``WordSide`` reads its word edge off its slice.

Both compilers emit their edges in ``Edge.key`` order, cell by cell, and
record the graphing's cell index as they go, so neither sorts its edges
nor sweeps them for the index.  A word graphing is valid by construction;
a machine graphing is validated once, by ``EncodedMachine``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .space import (MeasurableSet, RationalBox, RationalInterval, lazy,
                    whole_cells)
from .realizers import Microcosm, Realizer
from .graphing import Edge, Graphing, PROBABILITIES, TRIVIAL, UNIT, validate
from .machines import (ACCEPT, ADVANCE, MARKER, REJECT, MachineSpec,
                       alphabet_problems, validate_spec)
from .execution import PlugResult, Regions, accept_mass, plug, reject_mass

IN = "in"
OUT = "out"


@dataclass(frozen=True)
class TapeLayout:
    """Deterministic assignment of named regions to integer cells: the one
    description of the tape that words and machines are compiled onto.

    Per state row: the marker's In/Out cells, then In/Out per alphabet
    symbol, then the accept and reject cells; rows repeat at
    ``row_stride``.
    """

    alphabet: tuple[str, ...]

    def __post_init__(self):
        problems = alphabet_problems(self.alphabet)
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def row_stride(self) -> int:
        return 2 * len(self.alphabet) + 4

    @lazy
    def in_cells(self) -> dict[str, int]:
        """Row 0's In cell of the marker and of each symbol, in that order;
        each Out cell is the one after its In cell."""
        return {s: 2 * i for i, s in enumerate((MARKER,) + self.alphabet)}

    def symbol_cell(self, symbol: str, kind: str, row: int = 0) -> int:
        return row * self.row_stride + self.in_cells[symbol] + (kind != IN)

    def word_cells(self, rows: int, one_way: bool):
        """``(cell, row base, symbol, Out flag)`` of each cell with word
        edges on ``rows`` state rows, ascending, as ``Edge.key`` orders
        their edges; a one-way word has no In edges."""
        for base in range(0, rows * self.row_stride, self.row_stride):
            for symbol, cell in self.in_cells.items():
                for out in (1,) if one_way else (0, 1):
                    yield base + cell + out, base, symbol, out

    def accept_cell(self, row: int = 0) -> int:
        return row * self.row_stride + 2 * len(self.alphabet) + 2

    def reject_cell(self, row: int = 0) -> int:
        return row * self.row_stride + 2 * len(self.alphabet) + 3

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
    return RationalInterval.over(position, position + 1, cells)


@dataclass(frozen=True)
class WordEncoding:
    """The graphing of a marked cyclic word, as ``encode_word`` builds it."""

    graphing: Graphing


# Word edges kept for reuse; every word up to length 10 over ``0 1`` and
# over ``a b c``, on three state rows and two-way, uses 3590 of them.
WORD_EDGE_CACHE = 4096


@lru_cache(maxsize=WORD_EDGE_CACHE)
def _word_edge(src_cell: int, src_pos: int, dst_cell: int, dst_pos: int,
               cells: int) -> Edge:
    """Carry the address slice of ``src_pos`` in ``src_cell`` onto that of
    ``dst_pos`` in ``dst_cell``, with the unit sliced into ``cells``."""
    realizer = Realizer.make(dst_cell - src_cell, None,
                             {1: Fraction(dst_pos - src_pos, cells)})
    return Edge(UNIT, MeasurableSet.of(RationalBox.make(
        src_cell, {1: slice_interval(src_pos, cells)})), realizer)


def _edge_from(cell: int, pos: int, out: int, base: int, symbols,
               cells: int, in_cells: dict[str, int]) -> Edge | None:
    """The word edge that leaves the slice of ``pos`` in ``cell``, the In
    (``out`` 0) or Out (``out`` 1) cell of its symbol in the row at
    ``base``: Out carries a position to the next In, In back to the last
    Out.  ``symbols`` is the marked word, ``cells`` long, or a prefix of
    it; None when the edge leads to a position past the prefix."""
    to = (pos + 1 if out else pos - 1) % cells
    if to >= len(symbols):
        return None
    return _word_edge(cell, pos, base + in_cells[symbols[to]] + 1 - out, to,
                      cells)


@lru_cache(maxsize=64)
def _tape_carrier(layout: TapeLayout, rows: int) -> MeasurableSet:
    """The In and Out cells of the marker and of every symbol, per row:
    every cell but the accept and reject cells."""
    return whole_cells(cell for cell, *_ in layout.word_cells(rows, False))


@lru_cache(maxsize=64)
def _launch_set(cell: int, heads: int, cells: int) -> MeasurableSet:
    coords = {j: slice_interval(0, cells) for j in range(1, heads + 1)}
    return MeasurableSet.of(RationalBox.make(cell, coords))


def encode_word(word: str, layout: TapeLayout, state_rows: int = 1,
                one_way: bool = False) -> WordEncoding:
    """Graphing of the marked cyclic word, duplicated across state rows.
    Its edges and carrier are built once per key and shared between calls:
    an edge depends on its cells, its slices and the word length only.
    No two sources share a (cell, slice), so emitting by cell, then by
    position, gives ``Edge.key`` order and the cell index, unswept."""
    for ch in word:
        if ch not in layout.alphabet:
            raise ValueError(f"symbol {ch!r} not in alphabet")
    if state_rows < 1:
        raise ValueError("need at least one state row")
    cells = len(word) + 1
    symbols = (MARKER,) + tuple(word)
    in_cells = layout.in_cells
    at = {s: [p for p, x in enumerate(symbols) if x == s] for s in in_cells}
    edges, by_cell = [], {}
    for cell, base, symbol, out in layout.word_cells(state_rows, one_way):
        new = [_edge_from(cell, pos, out, base, symbols, cells, in_cells)
               for pos in at[symbol]]
        if new:
            by_cell[cell] = list(range(len(edges), len(edges) + len(new)))
            edges += new
    graphing = Graphing(TRIVIAL, Microcosm.macrocosm(),
                        _tape_carrier(layout, state_rows), tuple(edges))
    vars(graphing)["edges_by_cell"] = by_cell
    vars(graphing)["_problems"] = ()      # valid by construction
    return WordEncoding(graphing)


class WordSide:
    """The word side of one search shared by the words of one length, on
    ``rows`` state rows: the word edges that a path meets, read off a
    prefix of the word, each keyed by its (cell, position), which name it
    in every word that has it.  Every set a machine run meets is one box,
    one configuration (``EncodedMachine`` refuses any other machine), so
    it lies in one word edge's source slice or misses them all: a prefix
    reads the slice's symbol, with no meet and nothing kept."""

    weights = TRIVIAL

    def __init__(self, layout: TapeLayout, rows: int, one_way: bool,
                 length: int):
        self.cells = length + 1
        self.carrier = _tape_carrier(layout, rows)
        self.microcosm = Microcosm.macrocosm()
        self.in_cells = layout.in_cells
        # per cell with word edges: its row's base, symbol and Out flag
        self.kinds = {cell: (base, symbol, out) for cell, base, symbol, out
                      in layout.word_cells(rows, one_way)}

    def meets(self, prefix: str):
        """For the words that begin with ``prefix``: the ``meets`` of a
        search, which gives ``((cell, position), edge, s)`` for the word
        edge whose source slice holds the configuration ``s``, ``()`` when
        no word edge leaves its slice, or None, to park the path, when the
        slice's symbol or the one its edge leads to lies past the prefix.
        The position is the slice that coordinate 1 holds; a box with no
        coordinate, as on the empty word, is at position 0."""
        symbols = (MARKER,) + tuple(prefix)
        known, in_cells, cells, kinds = (len(symbols), self.in_cells,
                                         self.cells, self.kinds)

        def meets(s: MeasurableSet):
            (b,) = s.boxes
            kind = kinds.get(b.cell)
            if kind is None:
                return ()
            base, symbol, out = kind
            pos = 0
            if b.coords:  # coordinate 1's, the first
                iv = b.coords[0][1]
                pos = iv.a * cells // iv.d
            # the marker's cells have a slice at position 0 only, a
            # symbol's past it
            if (pos == 0) != (symbol == MARKER):
                return ()
            if pos >= known:
                return None
            if symbols[pos] != symbol:
                return ()
            edge = _edge_from(b.cell, pos, out, base, symbols, cells,
                              in_cells)
            return None if edge is None else (((b.cell, pos), edge, s),)

        return meets


@dataclass(frozen=True)
class EncodedMachine:
    """A machine spec with its graphing, checked here, once, whoever built
    it: runs plug it without sweeping it again.  Beyond ``validate``, the
    graphing must be normative: in mi(heads) at most, so no realizer
    offsets a coordinate or swaps one past the heads; no carrier or source
    box constrains a coordinate; one edge, the start edge, leaves row 0's
    accept cell.  From the launch region each box a run meets is then one
    configuration: a cell, with coordinates 1..heads each on one slice."""

    spec: MachineSpec
    layout: TapeLayout
    graphing: Graphing

    def __post_init__(self):
        g, mi = self.graphing, Microcosm.mi(self.spec.heads)
        problems = validate(g)
        if problems:
            raise ValueError(f"machine graphing invalid: {problems}")
        if g.microcosm.join(mi) != mi:
            raise ValueError(f"machine graphing in {g.microcosm.describe()}, "
                             f"above {mi.describe()}")
        if any(b.coords for s in (g.carrier, *(e.source for e in g.edges))
               for b in s.boxes):
            raise ValueError("machine graphing constrains a coordinate in "
                             "its carrier or an edge source")
        if len(g.edges_by_cell.get(self.layout.accept_cell(), ())) != 1:
            raise ValueError("machine graphing needs one edge out of row "
                             "0's accept cell")

    @lazy
    def accept_region(self) -> MeasurableSet:
        return whole_cells(map(self.layout.accept_cell,
                               range(len(self.spec.states))))

    @lazy
    def reject_region(self) -> MeasurableSet:
        return whole_cells(map(self.layout.reject_cell,
                               range(len(self.spec.states))))

    def launch_region(self, word_len: int) -> MeasurableSet:
        """Accept region of the initial state's row, row 0, with every
        head's address on the marker slice; runs that honour the
        automaton semantics start exactly here."""
        return _launch_set(self.layout.accept_cell(), self.spec.heads,
                           word_len + 1)

    def graphing_for(self, word_len: int) -> Graphing:
        """``graphing`` with its start edge, the one edge out of row 0's
        accept cell, starting from ``launch_region(word_len)`` only: every
        path is then a run of the automaton.  Built once per length; the
        start edge keeps its place in ``Edge.key`` order and its cells."""
        scoped = vars(self).setdefault("_scoped", {})
        if word_len not in scoped:
            g = self.graphing
            [idx] = g.edges_by_cell[self.layout.accept_cell()]
            edges = list(g.edges)
            edges[idx] = Edge(edges[idx].weight, self.launch_region(word_len),
                              edges[idx].realizer)
            scoped[word_len] = Graphing(g.weights, g.microcosm, g.carrier,
                                        tuple(edges))
            vars(scoped[word_len]).update(edges_by_cell=g.edges_by_cell,
                                          _problems=())
        return scoped[word_len]

    def regions_for(self, word_len: int) -> Regions:
        return Regions(self.launch_region(word_len),
                       self.accept_region, self.reject_region)


# Structural caches, keyed by an alphabet and by a cell count: the layout
# of an alphabet, whose check then runs once per alphabet, and the carrier
# of a machine's rows, every cell whole.
@lru_cache(maxsize=64)
def _layout(alphabet: tuple[str, ...]) -> TapeLayout:
    return TapeLayout(alphabet)


@lru_cache(maxsize=64)
def _machine_carrier(cells: int) -> MeasurableSet:
    return whole_cells(range(cells))


def encode_machine(spec: MachineSpec) -> EncodedMachine:
    """Compile a machine spec into a graphing in the microcosm of its
    head count.  Each state owns the row of its index, so the initial
    state, the first, owns row 0.

    ``Edge.key`` compares the sources' boxes, then the realizers' shift,
    perm and offsets, then the weights.  Every source here is one whole
    cell and no realizer has an offset, so emitting the cells in ascending
    order, each with its ``(shift, perm, weight)`` triples sorted, is that
    order: the edges need no sort, and the cell index is filled as they
    are emitted, with no sweep."""
    problems = validate_spec(spec)
    if problems:
        raise ValueError("; ".join(problems))
    layout = _layout(tuple(spec.alphabet))
    stride = layout.row_stride
    base_of = {state: i * stride for i, state in enumerate(spec.states)}
    in_cells = layout.in_cells  # a symbol's Out cell is the next one
    accept = layout.accept_cell()
    retreat_entered = spec.retreat_entered_states()

    # per source cell, its edges' (shift, perm, weight): the starter edge,
    # then each transition's response from where its observation arrives
    by_source = {accept: [(in_cells[MARKER] + 1 - accept, (), UNIT)]}
    for (state, symbol), actions in spec.transitions:
        base = base_of[state]
        for out in (0, 1) if state in retreat_entered else (0,):
            cell = base + in_cells[symbol] + out
            triples = by_source.setdefault(cell, [])
            for a in actions:
                j = a.swap  # the transposition (1 j), pairs ascending
                if a.kind == ACCEPT:
                    dst = base + accept
                elif a.kind == REJECT:
                    dst = base + accept + 1
                else:  # a retreat exits through the word's reverse edges
                    dst = (base_of[a.goto] + in_cells[MARKER if j else symbol]
                           + (a.kind == ADVANCE))
                triples.append((dst - cell, ((1, j), (j, 1)) if j else (),
                                a.weight))
    # the layout fills every cell of its rows, so box ``cell`` of the
    # carrier is that cell whole: each source is one of its boxes
    carrier = _machine_carrier(len(spec.states) * stride)
    edges, by_cell = [], {}
    for cell in sorted(by_source):
        source = MeasurableSet(carrier.boxes[cell:cell + 1])
        triples = sorted(by_source[cell])
        by_cell[cell] = list(range(len(edges), len(edges) + len(triples)))
        edges += [Edge(weight, source, Realizer(shift, perm))
                  for shift, perm, weight in triples]
    monoid = PROBABILITIES if spec.mode == "prob" else TRIVIAL
    graphing = Graphing(monoid, Microcosm.mi(spec.heads), carrier,
                        tuple(edges))
    vars(graphing)["edges_by_cell"] = by_cell
    machine = EncodedMachine(spec, layout, graphing)
    # every row's accept and reject cells, whole, are carrier boxes too
    vars(machine)["accept_region"] = MeasurableSet(
        carrier.boxes[accept::stride])
    vars(machine)["reject_region"] = MeasurableSet(
        carrier.boxes[accept + 1::stride])
    return machine


def run_word(machine: EncodedMachine, word: str, one_way: bool = False,
             max_steps: int = 10000):
    """Plug the machine, its start edge scoped to the word's launch region,
    against the word, a lone plug with no table.  Neither side is swept
    again: the machine was when it was built, and ``encode_word`` records
    that its graphings have no problems.  Returns the plug result and the
    regions the tests need.  ``language`` gives each word the verdict of
    this plug without calling it."""
    enc = encode_word(word, machine.layout,
                      state_rows=len(machine.spec.states), one_way=one_way)
    result = plug(machine.graphing_for(len(word)), enc.graphing, max_steps)
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
