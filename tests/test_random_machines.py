"""Seeded random machines: the VM's verdicts against the oracle's.

The machines come from ``perfbench/machinegen.py``, which is loaded
from its file and only read.  Every (mode, heads, states, one/two-way)
shape is drawn at least once, and every word of length <= 3 is run.

- det and nondet machines: ``language`` under the mode's own test and
  under ``T_CONL`` equals ``oracle_language`` in mode ``"accept"`` and
  ``"co"``, and leaves no word undetermined.
- prob machines: the accept mass never exceeds the oracle's exact
  acceptance probability, and equals it when the run is clean.  Runs
  with probabilistic loops only reach a lower bound today.
- every machine: a run, which starts from the launch region only, meets
  the machine's edges on exactly the oracle's configurations, and keeps
  every det and nondet verdict that a start from the whole accept cell
  decides.
"""

import pytest

from eagerplug import assert_matches_eager
from graphvm.encodings import (IN, OUT, _tape_carrier, encode_machine,
                               encode_word, run_word, slice_interval)
from graphvm.execution import (T_CONL, T_DET, T_NL, Verdict, accept_mass,
                               evaluate_test, language, plug, reject_mass,
                               t_prob)
from graphvm.graphing import PROBABILITIES, TRIVIAL, Edge, Graphing
from graphvm.machines import MARKER, format_machine, parse_machine
from graphvm.oracle import (_chain, oracle_language, pfa_accept_prob,
                            words_up_to)
from graphvm.realizers import Microcosm, Realizer
from harness import (load_machinegen, log_calls, seeded_specs,
                     shipped_machines, whole)

SEED = 1
COUNT = 60
MAX_LEN = 3


def _machines():
    gen = load_machinegen()
    shapes = [(mode, heads, states, two_way)
              for mode in gen.MODES
              for heads in range(1, gen.MAX_HEADS + 1)
              for states in range(1, gen.MAX_STATES + 1)
              for two_way in (False, True)]
    return seeded_specs(SEED, COUNT, shapes)


MACHINES = _machines()


def _id(spec):
    way = "2way" if spec.two_way else "1way"
    return (f"{spec.name}-{spec.mode}-{spec.heads}h-"
            f"{len(spec.states)}s-{way}")


@pytest.mark.parametrize("spec", MACHINES, ids=[_id(s) for s in MACHINES])
def test_random_machine_agrees_with_oracle(spec):
    # perfbench's single-runs writes each machine out with format_machine
    assert parse_machine(format_machine(spec)) == spec
    machine = encode_machine(spec)
    one_way = not spec.two_way
    if spec.mode == "prob":
        for word in words_up_to(spec.alphabet, MAX_LEN):
            result, regions = run_word(machine, word, one_way=one_way)
            mass = accept_mass(result, regions)
            prob = pfa_accept_prob(spec, word)
            assert mass <= prob, word
            if result.diagnostics.clean():
                assert mass == prob, word
        return
    own = T_DET if spec.mode == "det" else T_NL
    for test, mode in ((own, "accept"), (T_CONL, "co")):
        got = language(machine, test, MAX_LEN, one_way=one_way)
        assert got.undetermined == [], test.kind
        assert got.accepted == oracle_language(spec, MAX_LEN, mode), test.kind


def test_repeats_by_key_match_the_full_trail_scan():
    """Every word up to length 3 on every seeded machine, run in its own
    direction: the plug, whose repeat test walks up a path's nodes and
    stops at the first step with the same edge key and composite whose
    region holds the hit, equals the eager reference, which scans every
    trail from its first step.  The runs include exact loops and decaying
    revisits."""
    looping = decaying = 0
    for spec in MACHINES:
        machine = encode_machine(spec)
        for word in words_up_to(spec.alphabet, MAX_LEN):
            result, _ = run_word(machine, word, not spec.two_way)
            assert_matches_eager(result, *result.operands)
            diag = result.diagnostics
            looping += diag.looping_mass > 0
            decaying += diag.complete and diag.unresolved_mass > 0
    assert looping and decaying


def _by_landed_mass(result, test, regions):
    """The det/nl/conl verdict by the landed mass: accept when
    ``accept_mass > 0`` (det, nl), reject when ``reject_mass > 0`` (conl)."""
    pending = result.diagnostics.unresolved_mass > 0
    if test.kind == "conl":
        if reject_mass(result, regions) > 0:
            return Verdict.REJECT
        return Verdict.UNDETERMINED if pending else Verdict.ACCEPT
    if accept_mass(result, regions) > 0:
        return Verdict.ACCEPT
    return Verdict.UNDETERMINED if pending else Verdict.REJECT


SHIPPED_SPECS = [spec for _, spec in shipped_machines()]


@pytest.mark.parametrize(
    "spec, max_len", [(s, 4) for s in SHIPPED_SPECS]
    + [(s, MAX_LEN) for s in MACHINES],
    ids=[s.name for s in SHIPPED_SPECS] + [_id(s) for s in MACHINES])
def test_verdicts_by_existence_match_the_landed_mass(spec, max_len):
    machine = encode_machine(spec)
    for word in words_up_to(spec.alphabet, max_len):
        # a budget of 5 leaves mass pending on the longer words
        for max_steps in (10000, 5):
            result, regions = run_word(machine, word, not spec.two_way,
                                       max_steps)
            for test in (T_DET, T_NL, T_CONL):
                assert evaluate_test(result, test, regions) \
                    is _by_landed_mass(result, test, regions), (word, test)


def test_machines_are_built_in_the_swept_normal_form():
    """``encode_machine`` builds its sets and realizers directly: each
    equals what the canonicalising constructors make of the same cells
    and the same transposition, and so does the whole graphing."""
    for spec in SHIPPED_SPECS + MACHINES:
        machine = encode_machine(spec)
        g, layout, rows = machine.graphing, machine.layout, len(spec.states)
        carrier = whole(*range(rows * layout.row_stride))
        assert g.carrier == carrier, spec.name
        assert machine.accept_region == whole(
            *(layout.accept_cell(r) for r in range(rows)))
        assert machine.reject_region == whole(
            *(layout.reject_cell(r) for r in range(rows)))
        assert _tape_carrier(layout, rows) == whole(
            *(layout.symbol_cell(symbol, kind, r) for r in range(rows)
              for symbol in (MARKER,) + layout.alphabet for kind in (IN, OUT)))
        swept = []
        for e in g.edges:
            source = whole(*e.source.cells())
            realizer = Realizer.make(e.realizer.shift, dict(e.realizer.perm))
            assert e.source == source and e.realizer == realizer, spec.name
            swept.append(Edge(e.weight, source, realizer))
        monoid = PROBABILITIES if spec.mode == "prob" else TRIVIAL
        assert g == Graphing.make(monoid, Microcosm.mi(spec.heads), carrier,
                                  swept), spec.name


def _configuration(box, machine, word):
    """The oracle configuration, (state, head positions), that a box the
    machine's edges meet stands for, or None when it is not exactly one:
    the box's row names the state, the slice that coordinate j holds is
    head j's position, and its cell is the In or Out cell of the symbol
    under head 1."""
    spec, layout, cells = machine.spec, machine.layout, len(word) + 1
    if any(j > spec.heads for j, _ in box.coords):
        return None
    slices = {slice_interval(pos, cells): pos for pos in range(cells)}
    positions = tuple(slices.get(box.interval_at(j))
                      for j in range(1, spec.heads + 1))
    if None in positions:
        return None
    row, cell = divmod(box.cell, layout.row_stride)
    symbol = MARKER if positions[0] == 0 else word[positions[0] - 1]
    if cell - layout.in_cells[symbol] not in (0, 1):
        return None
    return spec.states[row], positions


def test_each_box_a_run_meets_is_one_configuration(monkeypatch):
    """A run starts from the launch region only, so it walks the
    automaton's configurations: on every shipped and seeded machine and
    every word up to length 3, each box of each set met with the machine's
    edges is one configuration, and they are the configurations that the
    oracle reaches from the initial one."""
    met = log_calls(monkeypatch, (Graphing, "edges_meeting"))
    for spec in SHIPPED_SPECS + MACHINES:
        machine = encode_machine(spec)
        for word in words_up_to(spec.alphabet, MAX_LEN):
            met.clear()
            run_word(machine, word, not spec.two_way)
            scoped = machine.graphing_for(len(word))
            configs = [_configuration(box, machine, word)
                       for _, (g, s) in met if g is scoped for box in s.boxes]
            assert None not in configs, (spec.name, word)
            assert set(configs) == set(_chain(spec, word)), (spec.name, word)


def test_the_launch_region_decides_what_the_whole_cell_leaves_open():
    """Head 2 never moves.  Started from the whole accept cell, its
    coordinate spans the unit, so the decaying revisit of the loop
    through the marker counts the whole launch mass as unresolved, twice
    what the launch region puts there, and accept mass 0 plus that could
    pass the cutpoint 1/2.  From the launch region it counts 1/2, and the
    word is rejected, as the oracle's acceptance probability 0 says, by
    ``run_word`` and ``language`` alike."""
    spec = parse_machine("""
name: parked
alphabet: 0
heads: 2
states: s
mode: prob
twoway: false
s, * -> advance goto s
s, 0 -> 1/2 advance goto s
s, 0 -> 1/2 reject
""")
    machine = encode_machine(spec)
    whole_cell = plug(machine.graphing,
                      encode_word("0", machine.layout, one_way=True).graphing)
    scoped, regions = run_word(machine, "0", one_way=True)
    assert whole_cell.diagnostics.unresolved_mass == regions.launch.measure()
    assert scoped.diagnostics.unresolved_mass == regions.launch.measure() / 2
    assert evaluate_test(whole_cell, t_prob(), regions) \
        is Verdict.UNDETERMINED
    assert evaluate_test(scoped, t_prob(), regions) is Verdict.REJECT
    assert language(machine, t_prob(), 1, one_way=True).verdicts["0"] \
        is Verdict.REJECT
    assert pfa_accept_prob(spec, "0") == 0


def test_a_run_from_the_launch_region_changes_no_decided_verdict():
    """On every shipped and seeded det and nondet machine and every word
    up to length 3, under the mode's own test and ``T_CONL``: a verdict
    that the run from the whole accept cell decides, the run from the
    launch region gives too."""
    for spec in SHIPPED_SPECS + MACHINES:
        if spec.mode == "prob":
            continue
        machine, one_way = encode_machine(spec), not spec.two_way
        own = T_DET if spec.mode == "det" else T_NL
        for word in words_up_to(spec.alphabet, MAX_LEN):
            enc = encode_word(word, machine.layout, len(spec.states), one_way)
            whole_cell = plug(machine.graphing, enc.graphing)
            scoped, regions = run_word(machine, word, one_way)
            for test in (own, T_CONL):
                before = evaluate_test(whole_cell, test, regions)
                if before is not Verdict.UNDETERMINED:
                    assert evaluate_test(scoped, test, regions) is before, \
                        (spec.name, word, test.kind)
