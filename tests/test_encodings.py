from fractions import Fraction

import pytest

from graphvm import encodings, graphing
from graphvm.encodings import (IN, OUT, WORD_EDGE_CACHE, EncodedMachine,
                               TapeLayout, classify_result, encode_machine,
                               encode_word, run_word, slice_interval)
from graphvm.execution import (T_CONL, T_DET, T_NL, Verdict, evaluate_test,
                               language, t_prob)
from graphvm.graphing import Edge, Graphing, GraphingClass, classify, validate
from graphvm.machines import (MARKER, MachineSpec, parse_machine,
                              validate_spec)
from graphvm.oracle import dfa_accepts, words_up_to
from graphvm.realizers import Realizer
from graphvm.space import MeasurableSet, RationalBox
from harness import (load_machinegen, log_calls, seeded_specs, shipped,
                     shipped_machines, whole)

LAYOUT = TapeLayout(("0", "1"))

ONES = shipped("ones.mach")
ONE_THEN_ZERO = shipped("one-then-zero.mach")


def test_layout_cells_pairwise_distinct():
    """On alphabets of 0-3 symbols and 1-3 rows, the layout's cells fill
    its rows exactly, each Out cell is its In cell plus one, and the tape
    carrier is every cell but the accept and reject cells."""
    for alphabet in ((), ("0",), ("0", "1"), ("a", "b", "c")):
        layout = TapeLayout(alphabet)
        for rows in (1, 2, 3):
            cells, terminal = [], set()
            for row in range(rows):
                for symbol in (MARKER,) + alphabet:
                    in_cell = layout.symbol_cell(symbol, IN, row)
                    assert layout.symbol_cell(symbol, OUT, row) == in_cell + 1
                    cells += [in_cell, in_cell + 1]
                terminal |= {layout.accept_cell(row), layout.reject_cell(row)}
            cells += sorted(terminal)
            assert sorted(cells) == list(range(rows * layout.row_stride))
            assert encodings._tape_carrier(layout, rows) == whole(
                *(set(cells) - terminal)), (alphabet, rows)


def test_encode_single_zero_word():
    enc = encode_word("0", LAYOUT)
    g = enc.graphing
    assert len(g.edges) == 4  # 2 forward + 2 backward
    sources = {(b.cell, b.interval_at(1)) for e in g.edges for b in e.source.boxes}
    assert (LAYOUT.symbol_cell(MARKER, OUT), slice_interval(0, 2)) in sources
    assert (LAYOUT.symbol_cell("0", OUT), slice_interval(1, 2)) in sources
    # forward edge star.out@0 -> 0.in@1
    fwd = [e for e in g.edges
           if e.source.boxes[0].cell == LAYOUT.symbol_cell(MARKER, OUT)][0]
    assert fwd.target == MeasurableSet.of(RationalBox.make(
        LAYOUT.symbol_cell("0", IN), {1: slice_interval(1, 2)}))


def test_encode_word_01_has_three_slices():
    enc = encode_word("01", LAYOUT)
    assert len(enc.graphing.edges) == 6
    widths = {iv.length for e in enc.graphing.edges
              for b in e.source.boxes for _, iv in b.coords}
    assert widths == {Fraction(1, 3)}


def test_encode_word_rows_duplicate():
    enc = encode_word("0", LAYOUT, state_rows=2)
    assert len(enc.graphing.edges) == 8
    rows = {b.cell // LAYOUT.row_stride
            for e in enc.graphing.edges for b in e.source.boxes}
    assert rows == {0, 1}


def test_one_way_word_drops_reverse_edges():
    enc = encode_word("01", LAYOUT, one_way=True)
    assert len(enc.graphing.edges) == 3


def test_word_encoding_is_deterministic_graphing():
    # encode_word records that its graphings have no problems, so sweep
    # every shape here
    for word in words_up_to(LAYOUT.alphabet, 3):
        for rows in (1, 2, 3):
            for one_way in (False, True):
                enc = encode_word(word, LAYOUT, state_rows=rows,
                                  one_way=one_way)
                assert vars(enc.graphing)["_problems"] == ()
                assert graphing._find_problems(enc.graphing) == []
                assert classify(enc.graphing) == GraphingClass.DETERMINISTIC
                if not one_way:
                    # each reverse edge inverts a forward edge
                    forward = encode_word(word, LAYOUT, state_rows=rows,
                                          one_way=True).graphing.edges
                    inverses = [Edge(Fraction(1), e.target, e.realizer.invert())
                                for e in forward]
                    assert list(enc.graphing.edges) == sorted(
                        list(forward) + inverses, key=Edge.key)


@pytest.mark.parametrize("alphabet", [("0", "1"), ("a", "b", "c")])
def test_cached_word_encodings_equal_fresh_ones(alphabet, monkeypatch):
    layout = TapeLayout(alphabet)
    shapes = [(word, rows, one_way) for word in words_up_to(alphabet, 4)
              for rows in (1, 2, 3) for one_way in (False, True)]
    cached = [encode_word(w, layout, rows, one_way).graphing
              for w, rows, one_way in shapes]
    monkeypatch.setattr(encodings, "_word_edge",
                        encodings._word_edge.__wrapped__)
    monkeypatch.setattr(encodings, "_tape_carrier",
                        encodings._tape_carrier.__wrapped__)
    fresh = [encode_word(w, layout, rows, one_way).graphing
             for w, rows, one_way in shapes]
    assert all(c.same_as(f) for c, f in zip(cached, fresh, strict=True))


def _per_position_edges(word, layout, rows, one_way):
    """The word edges built position by position, unsorted: the Out edge
    of each position and, two-way, the In edge back to it."""
    cells = len(word) + 1
    symbols = [MARKER] + list(word)
    edges = []
    for row in range(rows):
        for pos in range(cells):
            nxt = (pos + 1) % cells
            out_cell = layout.symbol_cell(symbols[pos], OUT, row)
            in_cell = layout.symbol_cell(symbols[nxt], IN, row)
            edges.append(encodings._word_edge(out_cell, pos, in_cell, nxt,
                                              cells))
            if not one_way:
                edges.append(encodings._word_edge(in_cell, nxt, out_cell, pos,
                                                  cells))
    return edges


@pytest.mark.parametrize("alphabet, max_len",
                         [(("0", "1"), 8), (("a", "b", "c"), 5)])
def test_word_graphings_come_in_key_order_with_their_index(alphabet, max_len):
    layout = TapeLayout(alphabet)
    for word in words_up_to(alphabet, max_len):
        for rows in (1, 2, 3):
            for one_way in (False, True):
                g = encode_word(word, layout, rows, one_way).graphing
                made = Graphing.make(g.weights, g.microcosm, g.carrier,
                                     _per_position_edges(word, layout, rows,
                                                         one_way))
                assert g.edges == made.edges, (word, rows, one_way)
                # the index a fresh graphing sweeps for, in the same order
                swept = Graphing(g.weights, g.microcosm, g.carrier,
                                 g.edges).edges_by_cell
                assert list(g.edges_by_cell.items()) == list(swept.items())


def test_machine_graphings_come_in_key_order_with_their_index(monkeypatch):
    """``encode_machine`` builds each graphing as ``encode_word`` does: in
    ``Edge.key`` order with its cell index, and no ``Graphing.make`` sort.
    ``EncodedMachine`` still validates it.  Every shipped machine and 20
    seeded specs of each (mode, heads, states, two-way) shape."""
    gen = load_machinegen()
    shapes = [(mode, heads, states, two_way) for mode in gen.MODES
              for heads in range(1, gen.MAX_HEADS + 1)
              for states in range(1, gen.MAX_STATES + 1)
              for two_way in (False, True)]
    specs = [spec for _, spec in shipped_machines()]
    specs += seeded_specs(7, 20 * len(shapes), shapes)
    made = log_calls(monkeypatch, (Graphing, "make"))
    graphings = []
    for spec in specs:
        g = encode_machine(spec).graphing
        assert "edges_by_cell" in vars(g), spec.name
        graphings.append(g)
    assert made == []
    for spec, g in zip(specs, graphings):
        assert g.edges == Graphing.make(g.weights, g.microcosm, g.carrier,
                                        g.edges).edges, spec.name
        # the index a fresh graphing sweeps for, in the same order
        swept = Graphing(g.weights, g.microcosm, g.carrier,
                         g.edges).edges_by_cell
        assert list(g.edges_by_cell.items()) == list(swept.items()), \
            spec.name
        assert validate(g) == [], spec.name


def test_the_word_side_meets_the_edges_of_the_encoded_word(monkeypatch):
    """For every prefix of a word, ``WordSide`` parks a set or gives the
    word graphing's own edges and meets, keyed by (cell, position); a
    whole cell of a symbol parks until the word is known.  One
    ``WordSide`` meets each set with each slice at most once, over all
    the prefixes it serves."""
    cases = []
    for word in ("", "0", "10", "0110"):
        for one_way in (False, True):
            for rows in (1, 2):
                g = encode_word(word, LAYOUT, rows, one_way).graphing
                cells = len(word) + 1
                sets = [whole(cell) for cell in sorted(g.carrier.cells())]
                sets += [MeasurableSet.of(RationalBox.make(
                    cell, {1: slice_interval(pos, cells)}))
                    for cell in sorted(g.edges_by_cell)
                    for pos in range(cells)]
                sets.append(g.carrier)
                symbol_cells = [whole(cell) for cell in g.edges_by_cell
                                if cell % LAYOUT.row_stride > 1]
                # the word graphing's own meets, built before the log is
                wants = [[(e, hit) for _, e, hit in g.edges_meeting(s)]
                         for s in sets]
                cases.append(((word, one_way, rows), sets, wants,
                              symbol_cells))
    met = log_calls(monkeypatch, (MeasurableSet, "intersect"))
    for case, sets, wants, symbol_cells in cases:
        word, one_way, rows = case
        cells = len(word) + 1
        side = encodings.WordSide(LAYOUT, rows, one_way, len(word))
        met.clear()
        for s, want in zip(sets, wants):
            got = side.meets(word)(s)
            assert [(e, hit) for _, e, hit in got] == want, (case, s)
            for (cell, pos), e, _ in got:
                assert e.source == MeasurableSet.of(RationalBox.make(
                    cell, {1: slice_interval(pos, cells)}))
            for k in range(len(word)):
                part = side.meets(word[:k])(s)
                assert part is None or part == got, (case, k, s)
                if s in symbol_cells:
                    assert part is None, (case, k, s)
        pairs = [args for _, args in met]
        assert pairs and len(pairs) == len(set(pairs)), case


def _covering_words(alphabet, length):
    """Words of the given length that put every symbol, and every pair of
    symbols, at every position: each word edge key of the length once."""
    base = alphabet[0] * length
    words = {base[:i] + a + base[i + 1:]
             for i in range(length) for a in alphabet}
    words |= {base[:i] + a + b + base[i + 2:]
              for i in range(length - 1) for a in alphabet for b in alphabet}
    return sorted(words) or [""]


def test_word_edges_up_to_length_ten_fit_in_the_cache():
    encodings._word_edge.cache_clear()
    for alphabet in (("0", "1"), ("a", "b", "c")):
        layout = TapeLayout(alphabet)
        for length in range(11):
            for word in _covering_words(alphabet, length):
                encode_word(word, layout, state_rows=3)
    info = encodings._word_edge.cache_info()
    # every miss is still held: nothing was evicted
    assert info.misses == info.currsize <= WORD_EDGE_CACHE


def test_repeated_word_encoding_builds_no_set_or_realizer(monkeypatch):
    encode_word("0110", LAYOUT, state_rows=2)
    calls = log_calls(monkeypatch, (MeasurableSet, "from_boxes"),
                      (Realizer, "make"))
    again = encode_word("0110", LAYOUT, state_rows=2)
    assert calls == []
    assert len(again.graphing.edges) == 2 * 2 * 5


def test_word_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        encode_word("2", LAYOUT)


def test_word_slices_tile_the_interval():
    for word in ("0", "01", "1101"):
        enc = encode_word(word, LAYOUT)
        n = len(word) + 1
        # images of all forward edges per In-cell tile [0,1) per row
        per_cell = {}
        for e in enc.graphing.edges:
            for b in e.target.boxes:
                per_cell.setdefault(b.cell, []).append(b)
        for cell, boxes in per_cell.items():
            covered = MeasurableSet.from_boxes(boxes)
            assert covered.measure() == Fraction(len(boxes), n)


def test_ones_machine_has_the_four_drawn_edges():
    m = encode_machine(ONES)
    g = m.graphing
    assert len(g.edges) == 4
    hops = {(e.source.boxes[0].cell, e.target.boxes[0].cell) for e in g.edges}
    assert hops == {
        (LAYOUT.accept_cell(0), LAYOUT.symbol_cell(MARKER, OUT)),   # starter
        (LAYOUT.symbol_cell(MARKER, IN), LAYOUT.reject_cell(0)),
        (LAYOUT.symbol_cell("0", IN), LAYOUT.symbol_cell("0", OUT)),
        (LAYOUT.symbol_cell("1", IN), LAYOUT.accept_cell(0)),
    }
    assert validate(g) == []
    assert classify(g) == GraphingClass.DETERMINISTIC
    assert all(g.microcosm.contains(e.realizer) for e in g.edges)


def test_one_then_zero_machine_has_two_dashed_edges():
    m = encode_machine(ONE_THEN_ZERO)
    g = m.graphing
    assert len(g.edges) == 5
    dashed = [e for e in g.edges if e.realizer.perm]
    assert len(dashed) == 2
    hops = {(e.source.boxes[0].cell, e.target.boxes[0].cell) for e in dashed}
    # the head-activation edge emits into the marker's Out region of the
    # next state's row; the accepting edge swaps the heads back
    assert (LAYOUT.symbol_cell("1", IN, 0),
            LAYOUT.symbol_cell(MARKER, OUT, 1)) in hops
    assert (LAYOUT.symbol_cell("0", IN, 1), LAYOUT.accept_cell(1)) in hops
    assert g.microcosm.arity == 2
    assert validate(g) == []


def test_machine_with_no_transitions_is_starter_only():
    spec = parse_machine("""
name: empty
alphabet: 0
heads: 1
states: s
mode: det
twoway: true
""")
    m = encode_machine(spec)
    assert len(m.graphing.edges) == 1
    got = language(m, T_DET, 2)
    assert got.accepted == [] and not got.undetermined


def test_machine_classification_follows_mode():
    nondet = parse_machine("""
name: n
alphabet: 0
heads: 1
states: s
mode: nondet
twoway: true
s, 0 -> advance goto s
s, 0 -> accept
""")
    assert classify(encode_machine(nondet).graphing) == \
        GraphingClass.NONDETERMINISTIC
    prob = parse_machine("""
name: p
alphabet: 0
heads: 1
states: s
mode: prob
twoway: true
s, 0 -> 1/2 advance goto s
s, 0 -> 1/3 accept
""")
    assert classify(encode_machine(prob).graphing) == \
        GraphingClass.PROBABILISTIC


def test_head_swap_path_continues_after_permutation():
    m = encode_machine(ONE_THEN_ZERO)

    def crosses_swap(p):
        return any(m.graphing.edges[idx].realizer.perm
                   for side, idx in p.steps if side == "F")

    # on 01 the accepting path runs through the swap and completes
    result, _ = run_word(m, "01")
    assert any(crosses_swap(p) for p in result.paths)
    # on 11 the post-swap path is nonempty but dies scanning for a '0'
    result, _ = run_word(m, "11")
    swapped = [p for p in result.dead_paths if crosses_swap(p)]
    assert swapped
    assert max(len(p.steps) for p in swapped) > 4  # it keeps walking after s2


def test_retreat_on_one_way_word_is_a_runtime_diagnostic():
    spec = parse_machine("""
name: back
alphabet: 0 1
heads: 1
states: sweep check
mode: det
twoway: true
sweep, 0 -> advance goto sweep
sweep, 1 -> advance goto sweep
sweep, * -> retreat goto check
check, 1 -> accept
check, 0 -> reject
check, * -> reject
""")
    m = encode_machine(spec)
    result, regions = run_word(m, "01", one_way=True)
    # the retreat emission finds no reverse edge: the run dies cleanly
    assert evaluate_test(result, T_DET, regions) is Verdict.REJECT
    assert result.diagnostics.dead_mass > 0
    assert result.diagnostics.complete
    # against the two-way word the same machine accepts
    result, regions = run_word(m, "01", one_way=False)
    assert evaluate_test(result, T_DET, regions) is Verdict.ACCEPT


def test_one_way_words_change_nothing_without_retreats():
    """A machine that never retreats never takes a reverse word edge, so
    dropping them changes no verdict: why ``language --one-way`` refuses
    only machines that retreat."""
    tests_of = {"det": (T_DET, T_CONL), "nondet": (T_NL, T_CONL),
                "prob": (t_prob(),)}
    checked = []
    for name, spec in shipped_machines():
        if spec.retreat_entered_states():
            continue
        m = encode_machine(spec)
        for test in tests_of[spec.mode]:
            assert (language(m, test, 4, one_way=True).verdicts
                    == language(m, test, 4).verdicts), (name, test.kind)
        checked.append(name)
    assert checked


def test_classify_result_tracks_the_oracle():
    for spec in (ONES, ONE_THEN_ZERO):
        m = encode_machine(spec)
        for word in words_up_to(spec.alphabet, 4):
            result, regions = run_word(m, word)
            accepts = dfa_accepts(spec, word)
            assert evaluate_test(result, T_DET, regions) is (
                Verdict.ACCEPT if accepts else Verdict.REJECT)
            assert (classify_result(result, regions) == "true") == accepts
    empty = parse_machine("""
name: empty
alphabet: 0 1
heads: 1
states: s
mode: det
twoway: true
""")
    # the empty word runs on the bare marker; with no transition, no
    # launch mass lands
    for spec, word, want in ((ONES, "11", "true"), (ONES, "0", "false"),
                             (ONES, "", "false"), (empty, "0", "other")):
        result, regions = run_word(encode_machine(spec), word)
        assert classify_result(result, regions) == want, (spec.name, word)


@pytest.mark.parametrize("alphabet", [("0", MARKER), ("0", "01"),
                                      ("0", "1", "0")])
def test_tape_layout_refuses_what_a_spec_refuses(alphabet):
    problems = validate_spec(MachineSpec("m", alphabet, 1, ("s",), "det",
                                         False))
    assert len(problems) == 1
    with pytest.raises(ValueError) as refused:
        TapeLayout(alphabet)
    assert str(refused.value) == problems[0]


def test_machine_graphing_is_validated_when_built():
    m = encode_machine(ONES)
    stray = Edge(Fraction(1), whole(0), Realizer.shift_by(100))
    bad = Graphing.make(m.graphing.weights, m.graphing.microcosm,
                        m.graphing.carrier, m.graphing.edges + (stray,))
    with pytest.raises(ValueError, match="machine graphing invalid"):
        EncodedMachine(m.spec, m.layout, bad)


def test_language_refuses_the_prob_test_before_any_run():
    nondet = parse_machine("""
name: n
alphabet: 0 1
heads: 1
states: q0
mode: nondet
twoway: true
q0, 0 -> accept
q0, 0 -> advance goto q0
q0, 1 -> advance goto q0
q0, * -> accept
""")
    with pytest.raises(ValueError, match="need a det or prob machine"):
        language(encode_machine(nondet), t_prob(), 2)
