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
rational absorption probabilities are computed by solving the finite
configuration chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .machines import ACCEPT, ADVANCE, MARKER, REJECT, MachineSpec

Config = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class Step:
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


def dfa_accepts(spec: MachineSpec, word: str) -> bool:
    """Deterministic run; a revisited configuration counts as rejection."""
    if spec.mode != "det":
        raise ValueError("dfa_accepts needs a det machine")
    config = initial_config(spec, word)
    seen = {config}
    while True:
        steps = successors(spec, word, config)
        if not steps:
            return False
        step = steps[0]
        if step.outcome == ACCEPT:
            return True
        if step.outcome in (REJECT, "dead"):
            return False
        config = step.config
        if config in seen:
            return False
        seen.add(config)


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


def rejection_possible(spec: MachineSpec, word: str) -> bool:
    return _outcome_reachable(spec, word, REJECT)


def conl_accepts(spec: MachineSpec, word: str) -> bool:
    """No branch reaches a reject terminal (dead or divergent runs do
    not reject)."""
    return not rejection_possible(spec, word)


def _solve_linear(matrix: list[list[Fraction]],
                  rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination; the caller guarantees nonsingularity."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
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
    return [a[i][n] for i in range(n)]


def _absorption(spec: MachineSpec, chain: dict[Config, list[Step]],
                outcome: str) -> Fraction:
    """Exact probability that the run explored by ``chain`` halts with
    ``outcome``."""
    if spec.mode == "nondet":
        # branches of a nondet machine carry no probabilities, and a
        # configuration's unit weights can sum past 1
        raise ValueError("outcome probabilities need a det or prob machine")
    direct: dict[Config, Fraction] = {}
    for config, steps in chain.items():
        direct[config] = sum((step.weight for step in steps
                              if step.outcome == outcome), Fraction(0))
        # substochastic deficit halts with a rejection in prob mode
        total = sum((step.weight for step in steps), Fraction(0))
        if outcome == REJECT and spec.mode == "prob" and total < 1:
            direct[config] += 1 - total
    # keep only configurations from which the outcome is reachable;
    # the rest absorb with probability zero and would make the system
    # singular if retained
    reaching = {c for c in chain if direct[c] > 0}
    changed = True
    while changed:
        changed = False
        for c, steps in chain.items():
            if c in reaching:
                continue
            if any(step.outcome == "cont" and step.weight > 0
                   and step.config in reaching for step in steps):
                reaching.add(c)
                changed = True
    start = next(iter(chain))
    if start not in reaching:
        return Fraction(0)
    order = [c for c in chain if c in reaching]
    pos = {c: i for i, c in enumerate(order)}
    n = len(order)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [direct[c] for c in order]
    for c in order:
        i = pos[c]
        matrix[i][i] += 1
        for step in chain[c]:
            if step.outcome == "cont" and step.config in pos:
                matrix[i][pos[step.config]] -= step.weight
    solution = _solve_linear(matrix, rhs)
    return solution[pos[start]]


def pfa_accept_prob(spec: MachineSpec, word: str) -> Fraction:
    return _absorption(spec, _chain(spec, word), ACCEPT)


def pfa_outcome_probs(spec: MachineSpec, word: str):
    """(accept, reject, dead, diverge) probabilities, summing to 1.

    The first three are independent absorption solves on one chain;
    divergence is the remaining mass, never negative for a
    substochastic machine.
    """
    chain = _chain(spec, word)
    acc, rej, dead = (_absorption(spec, chain, outcome)
                      for outcome in (ACCEPT, REJECT, "dead"))
    return acc, rej, dead, Fraction(1) - acc - rej - dead


def words_up_to(alphabet, max_len: int):
    """All words of length <= max_len in (length, alphabet-order) order."""
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield "".join(combo)


def oracle_language(spec: MachineSpec, max_len: int,
                    mode: str = "accept",
                    cutpoint: Fraction = Fraction(1, 2)) -> list[str]:
    """Accepted words of length <= max_len.

    mode 'accept': det simulation or branch reachability; mode 'co':
    no rejecting branch; mode 'prob': acceptance probability strictly
    above the cutpoint.
    """
    out = []
    for word in words_up_to(spec.alphabet, max_len):
        if mode == "accept":
            ok = dfa_accepts(spec, word) if spec.mode == "det" \
                else nfa_accepts(spec, word)
        elif mode == "co":
            ok = conl_accepts(spec, word)
        elif mode == "prob":
            ok = pfa_accept_prob(spec, word) > cutpoint
        else:
            raise ValueError(f"unknown oracle mode {mode!r}")
        if ok:
            out.append(word)
    return out
