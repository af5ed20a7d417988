import itertools
import random
import re
from fractions import Fraction

import pytest

from graphvm.machines import (Action, MachineParseError, MachineSpec,
                              MachineSpecError, format_machine, parse_machine,
                              validate_spec)
from harness import (load_machinegen, log_calls, seeded_specs,
                     shipped_machines)

ONES = """
name: ones
alphabet: 0 1
heads: 1
states: s0
mode: det
twoway: true

s0, * -> reject
s0, 0 -> advance goto s0
s0, 1 -> accept
"""


def test_parse_round_trip():
    spec = parse_machine(ONES)
    assert spec.name == "ones"
    assert spec.alphabet == ("0", "1")
    assert spec.initial == "s0"
    assert spec.actions("s0", "0") == (Action("advance", Fraction(1), None, "s0"),)
    assert spec.actions("s0", "1") == (Action("accept"),)
    assert parse_machine(format_machine(spec)) == spec


def test_parse_weights_and_swap():
    spec = parse_machine("""
name: w
alphabet: a
heads: 2
states: p q
mode: prob
twoway: true
p, a -> 1/3 advance swap 2 goto q
p, a -> 2/3 reject
q, * -> accept
""")
    acts = spec.actions("p", "a")
    assert acts[0] == Action("advance", Fraction(1, 3), 2, "q")
    assert acts[1] == Action("reject", Fraction(2, 3))
    assert parse_machine(format_machine(spec)) == spec


def test_float_weights_are_refused():
    # integer division makes a float: the slip this refuses
    from graphvm.encodings import encode_machine
    det = MachineSpec("m", ("0",), 1, ("s",), "det", True,
                      ((("s", "0"), (Action("accept", 1 / 1),)),))
    prob = MachineSpec("m", ("0",), 1, ("s",), "prob", True,
                       ((("s", "0"), (Action("accept", 1 / 2),
                                      Action("reject", Fraction(1, 2)))),))
    for spec, shown in ((det, "1.0"), (prob, "0.5")):
        problem = f"transition (s, 0): weight {shown} is not a p/q rational"
        assert validate_spec(spec) == [problem]
        with pytest.raises(ValueError, match="not a p/q rational"):
            encode_machine(spec)


def _fraction_weight_problems(mode, weights, where):
    """The weight rules decided on Fractions, as a reference for the
    rules ``validate_spec`` decides in integers."""
    problems = []
    total = Fraction(0)
    for w in weights:
        if mode in ("det", "nondet") and w != 1:
            problems.append(f"{where}: weight {w} in {mode} mode")
        if not (0 < w <= 1):
            problems.append(f"{where}: weight {w} outside (0,1]")
        total += w
    if mode == "prob" and total > 1:
        problems.append(f"{where}: weights sum to {total} > 1")
    return problems


# p/q for 1 <= q <= 6 and 0 <= p <= 2q, and the integer 1
_WEIGHTS = sorted({Fraction(p, q) for q in range(1, 7)
                   for p in range(2 * q + 1)}) + [1]


@pytest.mark.parametrize("mode", ["det", "nondet", "prob"])
def test_integer_weight_rules_match_the_fraction_rules(mode):
    where = "transition (s, 0)"
    for n in (1, 2, 3):
        for weights in itertools.product(_WEIGHTS, repeat=n):
            spec = MachineSpec("m", ("0",), 1, ("s",), mode, True, (
                (("s", "0"), tuple(Action("reject", w) for w in weights)),))
            expected = _fraction_weight_problems(mode, weights, where)
            if mode == "det" and n != 1:
                expected.insert(
                    0, f"{where}: det mode allows exactly one action")
            assert validate_spec(spec) == expected, weights


def test_a_parsed_spec_is_validated_once(monkeypatch):
    from graphvm import machines
    from graphvm.encodings import encode_machine
    checked = log_calls(monkeypatch, (machines, "_find_problems"))
    spec = parse_machine(ONES)
    encode_machine(spec)
    assert checked == [("_find_problems", (spec,))]
    # each caller gets a list of its own
    first = validate_spec(spec)
    first.append("scribble")
    assert validate_spec(spec) == [] and len(checked) == 1


def test_a_hand_built_invalid_spec_is_refused_when_encoded():
    """Each spec has exactly its one problem.  No text gives the last two:
    the parser refuses an empty action set and an unknown action before a
    spec exists."""
    from graphvm.encodings import encode_machine
    for bad, problem in [
        (_spec(two_way=False, transitions=(
            (("s", "0"), (Action("retreat", goto="s"),)),)),
         "transition (s, 0): retreat in a one-way machine"),
        (_spec(alphabet=("0", "0")), "duplicate alphabet symbols"),
        (_spec(mode="nondet", transitions=((("s", "0"), ()),)),
         "transition (s, 0): empty action set"),
        (_spec(transitions=((("s", "0"), (Action("jump", goto="s"),)),)),
         "transition (s, 0): unknown action 'jump'"),
    ]:
        assert validate_spec(bad) == [problem]
        with pytest.raises(ValueError, match=re.escape(problem)):
            encode_machine(bad)
        # again, from the problems the spec keeps
        with pytest.raises(ValueError, match=re.escape(problem)):
            encode_machine(bad)


@pytest.mark.parametrize("old, new, message, error", [
    # a symbol is one character of a word, so an ``ab`` transition could
    # never fire
    ("alphabet: 0 1", "alphabet: 0 1 ab", "single characters",
     MachineSpecError),
    # ``two_way`` is not ``twoway``: the machine would stay two-way
    ("twoway: true", "two_way: false", "line 7: unknown header 'two_way'",
     MachineParseError),
    # the second name would win silently
    ("mode: det", "mode: det\nname: other", "line 7: repeated header 'name'",
     MachineParseError),
    ("states: s0", "states:", "at least one state is required",
     MachineSpecError),
    ("heads: 1", "heads: 0", "heads must be at least 1", MachineSpecError),
    ("states: s0", "states: s0 s0", "duplicate state names", MachineSpecError),
    ("s0, 1 -> accept", "s0, 1 -> 1/2 accept", "weight 1/2 in det mode",
     MachineSpecError),
    ("s0, 1 -> accept", "s0, 1 -> accept goto s0", "terminal action with goto",
     MachineSpecError),
    ("s0, 0 -> advance goto s0", "s0, 0 -> advance", "move without goto",
     MachineSpecError),
    ("s0, 1 -> accept", "s0, 1 -> 1/2", "line 11: missing action keyword",
     MachineParseError),
    ("s0, 0 -> advance goto s0", "s0, 0 -> advance goto s0 swap",
     "line 10: swap needs a head number", MachineParseError),
    ("s0, 0 -> advance goto s0", "s0, 0 -> advance swap x goto s0",
     "line 10: bad head number 'x'", MachineParseError),
    ("s0, 1 -> accept", "s0, 1 -> accept now",
     "line 11: unexpected token 'now'", MachineParseError),
    ("s0, 1 -> accept", "s0, 1 -> accept\ns0 1 accept",
     "line 12: cannot parse 's0 1 accept'", MachineParseError),
    ("heads: 1", "heads: one", "heads must be an integer", MachineParseError),
    ("twoway: true", "twoway: yes", "twoway must be true or false",
     MachineParseError),
    ("alphabet: 0 1", "", "missing header 'alphabet'", MachineParseError),
    ("mode: det", "mode: banana", "unknown mode 'banana'", MachineSpecError),
    ("alphabet: 0 1", "alphabet: 0 0", "duplicate alphabet", MachineSpecError),
    ("twoway: true\n\ns0, * -> reject\ns0, 0 -> advance",
     "twoway: false\n\ns0, * -> reject\ns0, 0 -> retreat",
     "retreat in a one-way machine", MachineSpecError),
    ("s0, 1 -> accept", "s0, 1 -> accept\ns0, 1 -> reject",
     "det mode allows exactly one action", MachineSpecError),
    ("mode: det\ntwoway: true\n\ns0, * -> reject",
     "mode: prob\ntwoway: true\n\ns0, * -> 2/3 reject\ns0, * -> 2/3 accept",
     "weights sum to 4/3 > 1", MachineSpecError),
    ("s0, 0 -> advance goto s0", "s0, 0 -> advance swap 2 goto s0",
     "swap target 2 out of range", MachineSpecError),
])
def test_malformed_machine_file_is_a_parse_error(old, new, message, error,
                                                 tmp_path, capsys):
    from graphvm.cli import EXIT_PARSE, main
    text = ONES.replace(old, new)
    with pytest.raises(error, match=message):
        parse_machine(text)
    path = tmp_path / "bad.mach"
    path.write_text(text)
    for argv in (["validate", str(path)],
                 ["language", str(path), "--max-len", "1"]):
        assert main(argv) == EXIT_PARSE
        assert message in capsys.readouterr().err


def test_zero_weight_action_is_refused(tmp_path, capsys):
    # a zero-weight branch carries no mass in the graphing, yet the
    # oracle would still count where it leads
    from graphvm.cli import EXIT_PARSE, main
    text = """
name: zero
alphabet: 0 1
heads: 1
states: s
mode: prob
twoway: true
s, * -> reject
s, 0 -> 0/1 accept
s, 0 -> 1/1 reject
s, 1 -> reject
"""
    with pytest.raises(MachineSpecError, match="weight 0"):
        parse_machine(text)
    path = tmp_path / "zero.mach"
    path.write_text(text)
    argv = ["language", str(path), "--test", "nl", "--max-len", "2"]
    assert main(argv) == EXIT_PARSE
    assert "weight 0" in capsys.readouterr().err


def test_retreat_entered_states():
    spec = parse_machine("""
name: r
alphabet: 0
heads: 1
states: a b
mode: det
twoway: true
a, 0 -> retreat goto b
b, 0 -> advance goto a
""")
    assert spec.retreat_entered_states() == {"b"}


@pytest.mark.parametrize("line, message", [
    ("s0 0 -> accept", "transition needs 'state, symbol' before '->'"),
    ("s0, -> accept", "transition needs 'state, symbol' before '->'"),
    (", 0 -> accept", "transition needs 'state, symbol' before '->'"),
    ("s0, 0, 1 -> accept", "transition needs 'state, symbol' before '->'"),
    ("s0, 0 -> accept goto", "goto needs a state name"),
    ("s0, 0 -> advance goto", "goto needs a state name"),
    ("s0, 0 -> bogus", "unknown action 'bogus'"),
    ("s0, 0 -> bogus goto s0", "unknown action 'bogus'"),
    ("s0, 1 -> acceptx", "unknown action 'acceptx'"),
    ("s0, 0 -> ", "missing action keyword"),
    ("s0, 0 -> 1/0 accept", "bad rational '1/0'"),
    ("s0, 0 -> advance stay s0", "unexpected token 'stay'"),
])
def test_a_malformed_transition_line_keeps_its_line_and_message(line,
                                                                message):
    text = ONES.replace("s0, 1 -> accept", f"s0, 1 -> accept\n{line}")
    with pytest.raises(MachineParseError) as err:
        parse_machine(text)
    assert (err.value.line_no, err.value.message) == (12, message)
    assert str(err.value) == f"line 12: {message}"


def _spec(**fields):
    base = dict(name="m", alphabet=("0",), heads=1, states=("s",),
                mode="det", two_way=True,
                transitions=((("s", "0"), (Action("accept"),)),))
    return MachineSpec(**{**base, **fields})


@pytest.mark.parametrize("spec, problem", [
    (_spec(name="x#1"), "name 'x#1' cannot be written in the text format"),
    (_spec(name="a->b"), "name 'a->b' cannot be written in the text format"),
    (_spec(name=" m"), "name ' m' cannot be written in the text format"),
    (_spec(name="m\nn"), "name 'm\\nn' cannot be written in the text "
                         "format"),
    (_spec(states=("q,1",), transitions=(
        (("q,1", "0"), (Action("accept"),)),)),
     "state 'q,1' cannot be written in the text format"),
    (_spec(states=("s 0",), transitions=(
        (("s 0", "0"), (Action("accept"),)),)),
     "state 's 0' cannot be written in the text format"),
    (_spec(states=("s#",), transitions=(
        (("s#", "0"), (Action("accept"),)),)),
     "state 's#' cannot be written in the text format"),
    (_spec(alphabet=("#",), transitions=()),
     "alphabet symbol '#' cannot be written in the text format"),
    (_spec(alphabet=(",",), transitions=()),
     "alphabet symbol ',' cannot be written in the text format"),
    (_spec(alphabet=(" ",), transitions=()),
     "alphabet symbol ' ' cannot be written in the text format"),
    (_spec(mode="nondet", transitions=(
        (("s", "0"), (Action("accept"),)),
        (("s", "0"), (Action("reject"),)))),
     "transition (s, 0): listed twice"),
])
def test_a_spec_the_text_format_cannot_write_back_is_refused(spec, problem):
    from graphvm.encodings import encode_machine
    assert validate_spec(spec) == [problem]
    with pytest.raises(ValueError, match="cannot be written|listed twice"):
        encode_machine(spec)
    # what its text reads back as is refused or another spec
    try:
        back = parse_machine(format_machine(spec))
    except (MachineParseError, MachineSpecError):
        return
    assert back != spec


# characters that the text format gives a meaning, with plain ones
_PIECES = ("a", "q1", "x y", "#", ",", "->", "-", ">", ":", "*", " ", "\t",
           "\n", "")
_SYMBOLS = ("0", "1", "a", "#", ",", " ", "\t", "-", ">", ":", "*")


def _renamed(spec, rng):
    """``spec`` with its name, and each state and symbol with even odds,
    renamed to a draw that may carry such characters."""
    def draw(pieces, count):
        return "".join(rng.choice(pieces) for _ in range(count))

    name = draw(_PIECES, rng.randint(1, 3)) if rng.randrange(2) else spec.name
    state = {s: draw(_PIECES, rng.randint(1, 2)) if rng.randrange(2) else s
             for s in spec.states}
    symbol = {x: draw(_SYMBOLS, 1) if rng.randrange(2) else x
              for x in spec.alphabet}
    symbol["*"] = "*"
    transitions = tuple(
        ((state[s], symbol[x]),
         tuple(Action(a.kind, a.weight, a.swap,
                      None if a.goto is None else state[a.goto])
               for a in acts))
        for (s, x), acts in spec.transitions)
    return MachineSpec(name, tuple(symbol[x] for x in spec.alphabet),
                       spec.heads, tuple(state[s] for s in spec.states),
                       spec.mode, spec.two_way, transitions)


def test_a_spec_is_valid_exactly_when_its_text_reads_back_as_it():
    """``parse_machine`` checks the spec it builds, so an invalid spec
    never reads back as itself; the check refuses each spec whose text
    reads back as another, over seeded specs of every shape, renamed."""
    gen = load_machinegen()
    shapes = [(mode, heads, states, two_way) for mode in gen.MODES
              for heads in range(1, gen.MAX_HEADS + 1)
              for states in range(1, gen.MAX_STATES + 1)
              for two_way in (False, True)]
    specs = seeded_specs(7, 2 * len(shapes), shapes)
    rng = random.Random(7)
    renamed = [_renamed(spec, rng) for spec in specs for _ in range(4)]
    shipped = [spec for _, spec in shipped_machines()]
    valid = 0
    for spec in specs + shipped + renamed:
        try:
            reads_back = parse_machine(format_machine(spec)) == spec
        except (MachineParseError, MachineSpecError):
            reads_back = False
        assert (validate_spec(spec) == []) == reads_back, spec
        valid += reads_back
    # the renamed specs hold both kinds
    assert len(specs) + len(shipped) < valid < len(specs + shipped + renamed)
