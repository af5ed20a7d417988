"""Reference simulators for multihead automata on marked cyclic words.

These walk the same action vocabulary as the machine specs (advance,
retreat, head activation, accept, reject) directly on configurations,
so any disagreement with the compiled graphings isolates the graphing
semantics.  A configuration is the control state plus one position per
head on the cyclic word; position 0 carries the marker.  The run starts
with an implicit advance of the first head, i.e. the machine's first
observation is the word's first symbol (or the marker for the empty
word).

Outcomes: ``accept`` and ``reject`` are the explicit terminals, ``dead``
is a halt with no verdict (missing transition, or activating a head
that is not on the marker) and divergence is an endless run.  Exact
rational absorption probabilities come from one elimination over the
finite configuration chain, for every outcome asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .machines import (ACCEPT, ADVANCE, MARKER, REJECT, MachineSpec,
                       require_probabilities, words_up_to)

Config = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class Step:
    """One weighted successor of a configuration: its outcome, and the
    configuration it continues in when the outcome is ``'cont'``."""

    weight: Fraction
    outcome: str          # 'accept' | 'reject' | 'dead' | 'cont'
    config: Config | None


def _symbol_at(word: str, pos: int) -> str:
    return MARKER if pos == 0 else word[pos - 1]


def initial_config(spec: MachineSpec, word: str) -> Config:
    cells = len(word) + 1
    positions = (1 % cells,) + (0,) * (spec.heads - 1)
    return (spec.initial, positions)


def successors(spec: MachineSpec, word: str, config: Config) -> list[Step]:
    cells = len(word) + 1
    state, positions = config
    symbol = _symbol_at(word, positions[0])
    steps: list[Step] = []
    for action in spec.actions(state, symbol):
        if action.is_terminal():
            steps.append(Step(action.weight, action.kind, None))
            continue
        pos = list(positions)
        if action.swap is not None:
            k = action.swap - 1
            pos[0], pos[k] = pos[k], pos[0]
            if pos[0] != 0:
                # activating a head away from the marker kills the run
                steps.append(Step(action.weight, "dead", None))
                continue
        delta = 1 if action.kind == ADVANCE else -1
        pos[0] = (pos[0] + delta) % cells
        steps.append(Step(action.weight, "cont", (action.goto, tuple(pos))))
    return steps


def _chain(spec: MachineSpec, word: str) -> dict[Config, list[Step]]:
    """Every configuration reachable from the initial one, which comes
    first, mapped to its single steps."""
    chain: dict[Config, list[Step]] = {}
    stack = [initial_config(spec, word)]
    while stack:
        config = stack.pop()
        if config in chain:
            continue
        steps = chain[config] = successors(spec, word, config)
        stack.extend(step.config for step in steps
                     if step.outcome == "cont" and step.config not in chain)
    return chain


def _outcome_reachable(spec: MachineSpec, word: str, outcome: str) -> bool:
    return any(step.outcome == outcome
               for steps in _chain(spec, word).values() for step in steps)


def nfa_accepts(spec: MachineSpec, word: str) -> bool:
    """Some branch reaches an accept terminal."""
    return _outcome_reachable(spec, word, ACCEPT)


def dfa_accepts(spec: MachineSpec, word: str) -> bool:
    """Deterministic run; a revisited configuration counts as rejection.
    A det configuration has one step, so the chain is the run up to its
    first repeat, and the run accepts when the chain reaches accept."""
    if spec.mode != "det":
        raise ValueError("dfa_accepts needs a det machine")
    return _outcome_reachable(spec, word, ACCEPT)


def rejection_possible(spec: MachineSpec, word: str) -> bool:
    return _outcome_reachable(spec, word, REJECT)


def conl_accepts(spec: MachineSpec, word: str) -> bool:
    """No branch reaches a reject terminal (dead or divergent runs do
    not reject)."""
    return not rejection_possible(spec, word)


def _solve_linear(matrix: list[list[Fraction]],
                  rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan elimination of ``matrix x = rhs`` for every
    right-hand-side column at once: ``rhs`` and the result hold one row
    per equation.  ArithmeticError on a singular system."""
    n = len(matrix)
    a = [row + rhs_row for row, rhs_row in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular absorption system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _absorption(spec: MachineSpec, chain: dict[Config, list[Step]],
                outcomes: tuple[str, ...]) -> tuple[Fraction, ...]:
    """Exact probabilities that the run explored by ``chain`` halts with
    each of ``outcomes``, from one elimination over the configurations
    that reach one of them.  Each of those halts with positive
    probability, so their ``I - P`` is nonsingular."""
    require_probabilities(spec)
    direct: dict[Config, list[Fraction]] = {}
    preds: dict[Config, list[Config]] = {c: [] for c in chain}
    for config, steps in chain.items():
        total = sum((step.weight for step in steps), Fraction(0))
        # no step halts dead; a prob step's deficit halts with a rejection
        rest = REJECT if steps and spec.mode == "prob" else "dead"
        direct[config] = [sum((step.weight for step in steps
                               if step.outcome == outcome), Fraction(0))
                          + (1 - total if outcome == rest else 0)
                          for outcome in outcomes]
        for step in steps:
            if step.outcome == "cont" and step.weight > 0:
                preds[step.config].append(config)
    # one backward walk from the configurations that halt directly
    reaching = {c for c, row in direct.items() if any(row)}
    stack = list(reaching)
    while stack:
        fresh = set(preds[stack.pop()]) - reaching
        reaching |= fresh
        stack.extend(fresh)
    start = next(iter(chain))
    if start not in reaching:
        return (Fraction(0),) * len(outcomes)
    order = [c for c in chain if c in reaching]
    pos = {c: i for i, c in enumerate(order)}
    matrix = [[Fraction(int(c == d)) for d in order] for c in order]
    for i, c in enumerate(order):
        for step in chain[c]:
            if step.outcome == "cont" and step.config in pos:
                matrix[i][pos[step.config]] -= step.weight
    solution = _solve_linear(matrix, [direct[c] for c in order])
    return tuple(solution[pos[start]])


def pfa_accept_prob(spec: MachineSpec, word: str) -> Fraction:
    return _absorption(spec, _chain(spec, word), (ACCEPT,))[0]


def pfa_outcome_probs(spec: MachineSpec, word: str):
    """(accept, reject, dead, diverge) probabilities, summing to 1.

    The first three come from one absorption solve on the run's chain;
    divergence is the remaining mass, never negative for a
    substochastic machine.
    """
    acc, rej, dead = _absorption(spec, _chain(spec, word),
                                 (ACCEPT, REJECT, "dead"))
    return acc, rej, dead, Fraction(1) - acc - rej - dead


def oracle_language(spec: MachineSpec, max_len: int,
                    mode: str = "accept") -> list[str]:
    """Accepted words of length <= max_len.

    mode 'accept': det simulation or branch reachability; mode 'co':
    no rejecting branch.
    """
    if mode == "accept":
        accepts = dfa_accepts if spec.mode == "det" else nfa_accepts
    elif mode == "co":
        accepts = conl_accepts
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")
    return [w for w in words_up_to(spec.alphabet, max_len) if accepts(spec, w)]
