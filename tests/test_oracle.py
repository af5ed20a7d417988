import ast
import collections
import os
from fractions import Fraction

import pytest

from graphvm import oracle
from graphvm.machines import MARKER, Action, MachineSpec, parse_machine
from graphvm.oracle import (conl_accepts, dfa_accepts, initial_config,
                            nfa_accepts, oracle_language, pfa_accept_prob,
                            pfa_outcome_probs, successors, words_up_to)
from harness import log_calls, seeded_specs, shipped, shipped_machines

ONES = shipped("ones.mach")
ONE_THEN_ZERO = shipped("one-then-zero.mach")
GUESS_11 = shipped("guess-11.mach")
COIN_FLIP = shipped("coin-flip.mach")


def test_dfa_examples():
    assert dfa_accepts(ONES, "11")
    assert not dfa_accepts(ONES, "0")
    assert dfa_accepts(ONE_THEN_ZERO, "01")
    assert not dfa_accepts(ONE_THEN_ZERO, "11")
    assert not dfa_accepts(ONE_THEN_ZERO, "0")


SPINNER = MachineSpec("spin", ("0",), 1, ("s",), "det", True, (
    (("s", "0"), (Action("advance", goto="s"),)),
    (("s", "*"), (Action("advance", goto="s"),)),
))


def test_dfa_divergence_rejects():
    assert not dfa_accepts(SPINNER, "00")


def test_nfa_agrees_with_dfa_on_det_specs():
    for word in words_up_to(("0", "1"), 5):
        assert nfa_accepts(ONES, word) == dfa_accepts(ONES, word)


def _enumerate_runs(spec, word, config, depth):
    """Independent exhaustive branch enumeration, bounded by depth."""
    if depth == 0:
        return set()
    outcomes = set()
    for step in successors(spec, word, config):
        if step.outcome == "cont":
            outcomes |= _enumerate_runs(spec, word, step.config, depth - 1)
        else:
            outcomes.add(step.outcome)
    return outcomes


def test_nfa_guesser_against_run_enumeration():
    for word, want in [("011", True), ("010", False), ("110", True),
                       ("0", False), ("11", True)]:
        assert nfa_accepts(GUESS_11, word) == want
        runs = _enumerate_runs(GUESS_11, word,
                               initial_config(GUESS_11, word), 40)
        assert ("accept" in runs) == want


def test_unreachable_accept_state():
    spec = MachineSpec("n", ("0",), 1, ("s", "dead"), "nondet", True, (
        (("s", "0"), (Action("advance", goto="s"),)),
        (("s", "*"), (Action("reject"),)),
        (("dead", "0"), (Action("accept"),)),
    ))
    assert oracle_language(spec, 3) == []


def test_conl_is_no_rejecting_branch():
    assert not conl_accepts(GUESS_11, "11")  # the scan branch still rejects
    skip = parse_machine("""
name: skip
alphabet: 0 1
heads: 1
states: s
mode: nondet
twoway: true
s, 0 -> reject
s, 0 -> advance goto s
s, 1 -> advance goto s
s, * -> accept
""")
    assert conl_accepts(skip, "111")
    assert not conl_accepts(skip, "101")
    assert oracle_language(skip, 2, "co") == ["", "1", "11"]


def test_pfa_examples():
    # two flips: 1/2 + 1/4
    assert pfa_accept_prob(COIN_FLIP, "01") == Fraction(3, 4)
    assert pfa_accept_prob(COIN_FLIP, "1") == Fraction(1, 2)
    assert pfa_accept_prob(COIN_FLIP, "") == 0
    all_reject = MachineSpec("r", ("0",), 1, ("s",), "prob", False, (
        (("s", "0"), (Action("reject"),)),
        (("s", "*"), (Action("reject"),)),
    ))
    assert pfa_accept_prob(all_reject, "00") == 0


def test_det_embedded_as_prob_is_zero_one():
    embedded = MachineSpec("d", ("0", "1"), 1, ("s0",), "prob", True, (
        (("s0", "*"), (Action("reject"),)),
        (("s0", "0"), (Action("advance", goto="s0"),)),
        (("s0", "1"), (Action("accept"),)),
    ))
    for word in words_up_to(("0", "1"), 4):
        p = pfa_accept_prob(embedded, word)
        assert p in (0, 1)
        assert (p == 1) == dfa_accepts(ONES, word)


def test_outcome_probabilities_sum_to_one():
    looper = MachineSpec("l", ("0", "1"), 1, ("s",), "prob", True, (
        (("s", "0"), (Action("accept", Fraction(1, 3)),
                      Action("advance", Fraction(1, 3), None, "s"),
                      Action("retreat", Fraction(1, 3), None, "s"))),
        (("s", "1"), (Action("advance", Fraction(1, 2), None, "s"),)),
        (("s", "*"), (Action("reject", Fraction(1, 2)),
                      Action("advance", Fraction(1, 2), None, "s"))),
    ))
    for word in words_up_to(("0", "1"), 3):
        acc, rej, dead, div = pfa_outcome_probs(looper, word)
        assert acc + rej + dead + div == 1
        assert all(0 <= x <= 1 for x in (acc, rej, dead, div))


def test_two_way_pfa_needs_the_linear_solve():
    # advance/retreat forever with a small accept leak:
    # p = 1/4 + (1/4)(p_back) with the back state returning; the solve
    # must handle the recurrence exactly
    spec = MachineSpec("rw", ("0",), 1, ("s", "t"), "prob", True, (
        (("s", "0"), (Action("accept", Fraction(1, 4)),
                      Action("retreat", Fraction(3, 4), None, "t"))),
        (("t", "*"), (Action("advance", Fraction(1, 2), None, "s"),)),
        (("t", "0"), (Action("advance", Fraction(1, 2), None, "s"),)),
    ))
    p = pfa_accept_prob(spec, "0")
    # p = 1/4 + 3/4 * 1/2 * p  =>  p = 2/5
    assert p == Fraction(2, 5)


SWAP_AWAY = MachineSpec("sw", ("0", "1"), 2, ("a", "b"), "det", True, (
    (("a", "0"), (Action("advance", swap=2, goto="b"),)),
    (("b", "0"), (Action("advance", swap=2, goto="a"),)),
    (("b", "1"), (Action("accept"),)),
))


def test_swap_away_from_marker_dies():
    # first swap is fine (head 2 rests on the marker), the second is not
    # (head 1 was parked at position 1)
    assert not dfa_accepts(SWAP_AWAY, "01")


def _stepped_run(spec, word):
    """How the det run of ``spec`` on ``word`` ends, taken one step at a
    time from the rules: accept, reject, dead (no rule, or a head
    activated away from the marker) or loop (a configuration recurs)."""
    cells = len(word) + 1
    state, pos = spec.initial, [1 % cells] + [0] * (spec.heads - 1)
    seen = set()
    while (state, tuple(pos)) not in seen:
        seen.add((state, tuple(pos)))
        acts = spec.actions(state, MARKER if pos[0] == 0 else word[pos[0] - 1])
        if not acts:
            return "dead"
        (act,) = acts
        if act.kind in ("accept", "reject"):
            return act.kind
        if act.swap is not None:
            k = act.swap - 1
            pos[0], pos[k] = pos[k], pos[0]
            if pos[0] != 0:
                return "dead"
        pos[0] = (pos[0] + (1 if act.kind == "advance" else -1)) % cells
        state = act.goto
    return "loop"


def _shipped_and_seeded(mode, count):
    """The shipped machines of ``mode``, then ``count`` seeded specs of
    ``perfbench/machinegen.py`` in that mode, over every shape."""
    shapes = [(mode, heads, states, two_way) for heads in (1, 2)
              for states in (1, 2, 3) for two_way in (False, True)]
    return [spec for _, spec in shipped_machines() if spec.mode == mode] + \
        seeded_specs(7, count, shapes)


def test_dfa_run_is_the_stepped_run():
    specs = _shipped_and_seeded("det", 300) + [SPINNER, SWAP_AWAY]
    ends = collections.Counter()
    outcomes = ("accept", "reject", "dead", "loop")
    for spec in specs:
        for word in words_up_to(spec.alphabet, 4):
            end = _stepped_run(spec, word)
            assert dfa_accepts(spec, word) == (end == "accept"), (spec, word)
            assert pfa_outcome_probs(spec, word) == tuple(
                int(end == outcome) for outcome in outcomes), (spec, word)
            ends[end] += 1
    assert min(ends[end] for end in outcomes) > 300, ends
    # a missing entry halts dead in prob mode too; a deficit rejects
    half = MachineSpec("half", ("0", "1"), 1, ("s",), "prob", True, (
        (("s", "0"), (Action("advance", Fraction(1, 2), None, "s"),)),
        (("s", "*"), (Action("accept"),)),
    ))
    assert pfa_outcome_probs(half, "1") == (0, 0, 1, 0)
    assert pfa_outcome_probs(half, "0") == (Fraction(1, 2),) * 2 + (0, 0)
    assert pfa_outcome_probs(half, "01") == (0,) + (Fraction(1, 2),) * 2 \
        + (0,)


def _reference_outcome(spec, word, outcome):
    """The probability that the run halts with ``outcome``, solved on its
    own: a reachability fixpoint over the configurations, then one
    elimination.  A configuration with no step halts dead; a step whose
    weights sum below 1 files the rest as a rejection."""
    start = initial_config(spec, word)
    chain, todo = {}, [start]
    while todo:
        config = todo.pop()
        if config not in chain:
            chain[config] = successors(spec, word, config)
            todo.extend(s.config for s in chain[config] if s.outcome == "cont")

    def direct(steps):
        mass = sum((s.weight for s in steps if s.outcome == outcome),
                   Fraction(0))
        if outcome == ("reject" if steps else "dead"):
            mass += 1 - sum(s.weight for s in steps)
        return mass

    reach = {c for c, steps in chain.items() if direct(steps) > 0}
    changed = True
    while changed:
        grown = {c for c, steps in chain.items()
                 if any(s.outcome == "cont" and s.config in reach
                        for s in steps)}
        changed = not grown <= reach
        reach |= grown
    if start not in reach:
        return Fraction(0)
    index = {c: i for i, c in enumerate(reach)}
    n = len(index)
    rows = []
    for config, i in index.items():
        row = [Fraction(int(i == j)) for j in range(n)]
        for s in chain[config]:
            if s.outcome == "cont" and s.config in index:
                row[index[s.config]] -= s.weight
        rows.append(row + [direct(chain[config])])
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return rows[index[start]][n]


def test_outcome_probs_match_a_solve_per_outcome(monkeypatch):
    """Every prob run of the shipped machines and of 150 seeded prob
    specs, words up to length 3: the one joint solve equals a separate
    fixpoint and elimination per outcome, and each call of
    ``pfa_outcome_probs`` or ``pfa_accept_prob`` solves at most once,
    with one right-hand-side column per outcome asked."""
    specs = _shipped_and_seeded("prob", 150)
    solves = log_calls(monkeypatch, (oracle, "_solve_linear"))

    def columns():
        return [{len(row) for row in rhs} for _, (_, rhs) in solves]
    solved = 0
    for spec in specs:
        for word in words_up_to(spec.alphabet, 3):
            solves.clear()
            probs = pfa_outcome_probs(spec, word)
            assert columns() in ([], [{3}])
            solved += len(solves)
            solves.clear()
            acc = pfa_accept_prob(spec, word)
            assert columns() in ([], [{1}])
            want = tuple(_reference_outcome(spec, word, outcome)
                         for outcome in ("accept", "reject", "dead"))
            assert probs == want + (1 - sum(want),), (spec.name, word)
            assert all(0 <= p <= 1 for p in probs) and sum(probs) == 1
            assert probs[0] == acc
    assert solved > 1000, solved


def test_the_oracle_imports_only_the_machine_specs():
    """The oracle is the reference the VM's verdicts are checked
    against, so it shares no code with the VM's own modules."""
    path = os.path.join(os.path.dirname(__file__), "..", "src", "graphvm",
                        "oracle.py")
    with open(path) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            imported.add(name.replace("graphvm.", ".", 1))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported
            if name.startswith((".", "graphvm"))} == {".machines"}


def test_language_enumeration_order():
    got = oracle_language(ONES, 3)
    assert got == ["1", "01", "10", "11", "001", "010", "011",
                   "100", "101", "110", "111"]
    assert oracle_language(ONE_THEN_ZERO, 2) == ["01", "10"]


def test_words_up_to_order():
    assert list(words_up_to(("0", "1"), 2)) == ["", "0", "1", "00", "01",
                                                "10", "11"]


def test_probabilities_of_a_nondet_machine_are_refused():
    spec = MachineSpec("n", ("0", "1"), 1, ("q0",), "nondet", True, (
        (("q0", "*"), (Action("advance", goto="q0"), Action("accept"))),
        (("q0", "0"), (Action("advance", goto="q0"),)),
        (("q0", "1"), (Action("advance", goto="q0"),)),
    ))
    with pytest.raises(ValueError):
        pfa_accept_prob(spec, "01")
    with pytest.raises(ValueError):
        pfa_outcome_probs(spec, "01")
