from fractions import Fraction

import pytest

from graphvm.machines import Action, MachineSpec, parse_machine
from graphvm.oracle import (conl_accepts, dfa_accepts, initial_config,
                            nfa_accepts, oracle_language, pfa_accept_prob,
                            pfa_outcome_probs, successors, words_up_to)

ONES = parse_machine("""
name: ones
alphabet: 0 1
heads: 1
states: s0
mode: det
twoway: true
s0, * -> reject
s0, 0 -> advance goto s0
s0, 1 -> accept
""")

ONE_THEN_ZERO = parse_machine("""
name: one-then-zero
alphabet: 0 1
heads: 2
states: L1 L0
mode: det
twoway: true
L1, 0 -> advance goto L1
L1, 1 -> advance swap 2 goto L0
L0, 0 -> accept swap 2
L0, 1 -> advance goto L0
""")

GUESS_11 = parse_machine("""
name: guess-11
alphabet: 0 1
heads: 1
states: scan commit
mode: nondet
twoway: true
scan, 0 -> advance goto scan
scan, 1 -> advance goto scan
scan, 1 -> advance goto commit
scan, * -> reject
commit, 1 -> accept
commit, 0 -> reject
commit, * -> reject
""")

COIN_FLIP = parse_machine("""
name: coin-flip
alphabet: 0 1
heads: 1
states: s
mode: prob
twoway: false
s, * -> reject
s, 0 -> 1/2 accept
s, 0 -> 1/2 advance goto s
s, 1 -> 1/2 accept
s, 1 -> 1/2 advance goto s
""")


def test_dfa_examples():
    assert dfa_accepts(ONES, "11")
    assert not dfa_accepts(ONES, "0")
    assert dfa_accepts(ONE_THEN_ZERO, "01")
    assert not dfa_accepts(ONE_THEN_ZERO, "11")
    assert not dfa_accepts(ONE_THEN_ZERO, "0")


def test_dfa_divergence_rejects():
    spinner = MachineSpec("spin", ("0",), 1, ("s",), "det", True, (
        (("s", "0"), (Action("advance", goto="s"),)),
        (("s", "*"), (Action("advance", goto="s"),)),
    ))
    assert not dfa_accepts(spinner, "00")


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


def test_swap_away_from_marker_dies():
    spec = MachineSpec("sw", ("0", "1"), 2, ("a", "b"), "det", True, (
        (("a", "0"), (Action("advance", swap=2, goto="b"),)),
        (("b", "0"), (Action("advance", swap=2, goto="a"),)),
        (("b", "1"), (Action("accept"),)),
    ))
    # first swap is fine (head 2 rests on the marker), the second is not
    # (head 1 was parked at position 1)
    assert not dfa_accepts(spec, "01")


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
