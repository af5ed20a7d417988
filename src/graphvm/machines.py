"""Multihead automaton specifications and their text format.

A machine walks a cyclic word marked with ``*`` at position 0.  It has
i heads, of which exactly one is active; it observes the symbol under
the active head and responds with a weighted action: advance or retreat
the head (retreat needs a two-way machine), optionally activating
another head first, or halt with accept/reject.  Activating a head
requires that head to sit on the marker; otherwise the run dies, which
is neither accepting nor rejecting.

Text format, one machine per file::

    name: ones
    alphabet: 0 1
    heads: 1
    states: s0
    mode: det
    twoway: true

    # transitions: state, symbol -> [weight] action [swap j] [goto state]
    s0, * -> reject
    s0, 0 -> advance goto s0
    s0, 1 -> accept

Each header appears once (``twoway`` may be left out, and is then
true).  Symbols are single characters; ``*`` stands for the marker.
Weights are positive ``p/q`` rationals, only meaningful in ``prob``
mode.  ``accept``/``reject`` are terminal and take no ``goto``.
Missing (state, symbol) entries halt the run dead.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from numbers import Rational

from .space import ONE, lazy, value_type

MARKER = "*"

ADVANCE = "advance"
RETREAT = "retreat"
ACCEPT = "accept"
REJECT = "reject"

_MOVES = (ADVANCE, RETREAT)
_TERMINALS = (ACCEPT, REJECT)
_KINDS = _MOVES + _TERMINALS
_MODES = ("det", "nondet", "prob")
_HEADERS = ("name", "alphabet", "heads", "states", "mode", "twoway")


class MachineParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class MachineSpecError(ValueError):
    pass


@value_type
class Action:
    """One weighted response to an observation: a move to ``goto``,
    activating head ``swap`` first if given, or a halt."""

    kind: str                    # advance | retreat | accept | reject
    weight: Fraction = ONE
    swap: int | None = None      # head to activate first
    goto: str | None = None      # next state, None for terminals

    def is_terminal(self) -> bool:
        return self.kind in _TERMINALS


@value_type
class MachineSpec:
    """A multihead automaton: its header fields and, per (state, symbol)
    observed, its actions, in the order they were given."""

    name: str
    alphabet: tuple[str, ...]
    heads: int
    states: tuple[str, ...]      # first entry is the initial state
    mode: str                    # det | nondet | prob
    two_way: bool
    transitions: tuple[tuple[tuple[str, str], tuple[Action, ...]], ...] = ()

    @property
    def initial(self) -> str:
        return self.states[0]

    @lazy
    def transition_map(self) -> dict[tuple[str, str], tuple[Action, ...]]:
        return dict(self.transitions)

    def actions(self, state: str, symbol: str) -> tuple[Action, ...]:
        return self.transition_map.get((state, symbol), ())

    def retreat_entered_states(self) -> set[str]:
        """States that can be entered through a retreat step."""
        return {a.goto for _, acts in self.transitions for a in acts
                if a.kind == RETREAT and a.goto is not None}

    # once per spec, which the parser and the encoder both check
    @lazy
    def _problems(self) -> tuple[str, ...]:
        return tuple(_find_problems(self))


def require_probabilities(spec: MachineSpec) -> None:
    """Raise unless the spec's branch weights are probabilities: a nondet
    configuration's unit weights can sum past 1."""
    if spec.mode == "nondet":
        raise ValueError("outcome probabilities need a det or prob machine")


def validate_spec(spec: MachineSpec) -> list[str]:
    """The spec's problems, in a list of its own; empty when it is valid."""
    return list(spec._problems)


def alphabet_problems(alphabet) -> list[str]:
    """The alphabet rules that a spec and a ``TapeLayout`` both enforce."""
    problems = []
    if MARKER in alphabet:
        problems.append("alphabet must not contain the marker")
    if any(len(symbol) != 1 for symbol in alphabet):
        problems.append("alphabet symbols must be single characters")
    if len(set(alphabet)) != len(alphabet):
        problems.append("duplicate alphabet symbols")
    return problems


def _find_problems(spec: MachineSpec) -> list[str]:
    problems = []
    if spec.heads < 1:
        problems.append("heads must be at least 1")
    if not spec.states:
        problems.append("at least one state is required")
    if spec.mode not in _MODES:
        problems.append(f"unknown mode {spec.mode!r}")
    problems.extend(alphabet_problems(spec.alphabet))
    if len(set(spec.states)) != len(spec.states):
        problems.append("duplicate state names")
    symbols = set(spec.alphabet) | {MARKER}
    for (state, symbol), acts in spec.transitions:
        where = f"transition ({state}, {symbol})"
        if state not in spec.states:
            problems.append(f"{where}: unknown state")
        if symbol not in symbols:
            problems.append(f"{where}: symbol not in alphabet")
        if not acts:
            problems.append(f"{where}: empty action set")
        if spec.mode == "det" and len(acts) != 1:
            problems.append(f"{where}: det mode allows exactly one action")
        num, den = 0, 1  # the weights' running sum, decided in integers
        for a in acts:
            if a.kind not in _KINDS:
                problems.append(f"{where}: unknown action {a.kind!r}")
                continue
            w = a.weight
            # a Fraction is let through before the dearer ABC check
            if not (type(w) is Fraction or isinstance(w, Rational)):
                problems.append(f"{where}: weight {w!r} is not a p/q rational")
            else:  # the denominator q is positive
                p, q = w.numerator, w.denominator
                if spec.mode in ("det", "nondet") and p != q:
                    problems.append(f"{where}: weight {w} in {spec.mode} mode")
                if not 0 < p <= q:
                    problems.append(f"{where}: weight {w} outside (0,1]")
                num, den = num * q + p * den, den * q
            if a.kind == RETREAT and not spec.two_way:
                problems.append(f"{where}: retreat in a one-way machine")
            if a.swap is not None and not (2 <= a.swap <= spec.heads):
                problems.append(f"{where}: swap target {a.swap} out of range")
            if a.kind in _TERMINALS:
                if a.goto is not None:
                    problems.append(f"{where}: terminal action with goto")
            elif a.goto is None:
                problems.append(f"{where}: move without goto")
            elif a.goto not in spec.states:
                problems.append(f"{where}: goto unknown state {a.goto!r}")
        if spec.mode == "prob" and num > den:
            problems.append(
                f"{where}: weights sum to {Fraction(num, den)} > 1")
    problems.extend(_text_problems(spec))
    return problems


def _are_words(words) -> bool:
    """Whether ``words`` read back as themselves from a blank-separated
    list: joined by blanks they split back into themselves, and none has
    a ``#``, which starts a comment, a ``,``, which ends a transition's
    state, or a ``->``."""
    text = " ".join(words)
    return (text.split() == list(words) and "#" not in text
            and "," not in text and "->" not in text)


def _text_problems(spec: MachineSpec) -> list[str]:
    """What ``format_machine`` could not write so that ``parse_machine``
    reads it back: a name that is not one line, stripped, with no ``#``
    or ``->``, a state or an alphabet symbol that is not a word, and a
    (state, symbol) listed twice, whose actions would read back as one
    list."""
    problems = []
    name = spec.name
    if ("#" in name or "->" in name or name != name.strip()
            or len(name.splitlines()) > 1):
        problems.append(f"name {name!r} cannot be written in the text format")
    if not _are_words((*spec.states, *spec.alphabet)):
        problems += [f"{kind} {word!r} cannot be written in the text format"
                     for kind, words in (("state", spec.states),
                                         ("alphabet symbol", spec.alphabet))
                     for word in words if not _are_words((word,))]
    if len({key for key, _ in spec.transitions}) != len(spec.transitions):
        seen = set()
        for (state, symbol), _ in spec.transitions:
            if (state, symbol) in seen:
                problems.append(f"transition ({state}, {symbol}): listed twice")
            seen.add((state, symbol))
    return problems


def words_up_to(alphabet, max_len: int):
    """All words of length <= max_len in (length, alphabet-order) order."""
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield "".join(combo)


def parse_rational(text: str) -> Fraction:
    """An integer or ``p/q`` as an exact rational; ValueError otherwise,
    a zero denominator included."""
    p, slash, q = text.partition("/")
    try:
        return Fraction(int(p), int(q) if slash else 1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"{text!r} is not an integer or p/q") from None


def _parse_action(tokens: list[str], line_no: int) -> Action:
    idx = 0
    weight = ONE
    if tokens and (tokens[0][0].isdigit() or "/" in tokens[0]):
        try:
            weight = parse_rational(tokens[0])
        except ValueError:
            raise MachineParseError(
                line_no, f"bad rational {tokens[0]!r}") from None
        idx = 1
    if idx >= len(tokens):
        raise MachineParseError(line_no, "missing action keyword")
    kind = tokens[idx]
    idx += 1
    if kind not in _KINDS:
        raise MachineParseError(line_no, f"unknown action {kind!r}")
    swap = None
    goto = None
    while idx < len(tokens):
        word = tokens[idx]
        if word == "swap":
            if idx + 1 >= len(tokens):
                raise MachineParseError(line_no, "swap needs a head number")
            try:
                swap = int(tokens[idx + 1])
            except ValueError:
                raise MachineParseError(
                    line_no, f"bad head number {tokens[idx + 1]!r}") from None
            idx += 2
        elif word == "goto":
            if idx + 1 >= len(tokens):
                raise MachineParseError(line_no, "goto needs a state name")
            goto = tokens[idx + 1]
            idx += 2
        else:
            raise MachineParseError(line_no, f"unexpected token {word!r}")
    return Action(kind, weight, swap, goto)


def parse_machine(text: str) -> MachineSpec:
    headers: dict[str, str] = {}
    transitions: dict[tuple[str, str], list[Action]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (raw.partition("#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        lhs, arrow, rhs = line.partition("->")
        if arrow:
            state, _, symbol = lhs.partition(",")
            state, symbol = state.strip(), symbol.strip()
            if not (state and symbol) or "," in symbol:
                raise MachineParseError(
                    line_no, "transition needs 'state, symbol' before '->'")
            transitions.setdefault((state, symbol), []).append(
                _parse_action(rhs.split(), line_no))
        elif ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            if key not in _HEADERS or key in headers:
                problem = "repeated" if key in headers else "unknown"
                raise MachineParseError(line_no, f"{problem} header {key!r}")
            headers[key] = value.strip()
        else:
            raise MachineParseError(line_no, f"cannot parse {line!r}")

    def need(key: str) -> str:
        if key not in headers:
            raise MachineParseError(0, f"missing header {key!r}")
        return headers[key]

    name = need("name")
    alphabet = tuple(need("alphabet").split())
    states = tuple(need("states").split())
    mode = need("mode")
    try:
        heads = int(need("heads"))
    except ValueError:
        raise MachineParseError(0, "heads must be an integer") from None
    two_way_text = headers.get("twoway", "true").lower()
    if two_way_text not in ("true", "false"):
        raise MachineParseError(0, "twoway must be true or false")
    two_way = two_way_text == "true"
    spec = MachineSpec(name, alphabet, heads, states, mode, two_way,
                       tuple((k, tuple(acts))
                             for k, acts in transitions.items()))
    problems = validate_spec(spec)
    if problems:
        raise MachineSpecError("; ".join(problems))
    return spec


def load_machine(path) -> MachineSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read())


def format_machine(spec: MachineSpec) -> str:
    lines = [
        f"name: {spec.name}",
        f"alphabet: {' '.join(spec.alphabet)}",
        f"heads: {spec.heads}",
        f"states: {' '.join(spec.states)}",
        f"mode: {spec.mode}",
        f"twoway: {'true' if spec.two_way else 'false'}",
        "",
    ]
    for (state, symbol), acts in spec.transitions:
        for a in acts:
            parts = []
            if a.weight.numerator != a.weight.denominator:
                parts.append(f"{a.weight.numerator}/{a.weight.denominator}")
            parts.append(a.kind)
            if a.swap is not None:
                parts.append(f"swap {a.swap}")
            if a.goto is not None:
                parts.append(f"goto {a.goto}")
            lines.append(f"{state}, {symbol} -> {' '.join(parts)}")
    return "\n".join(lines) + "\n"
