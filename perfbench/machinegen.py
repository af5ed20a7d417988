"""Seeded random multihead machines for the single-runs workload.

Every machine has alphabet ``0 1``, one or two heads, one to three
states, a mode drawn from det/nondet/prob, and is one- or two-way.
Probabilistic branches weigh 1/2.  The draw uses only the ``Random``
instance it is given, so it never depends on timing.  The generated
spec is rendered with ``format_machine``; the workload parses that text
back inside each op so the parser is exercised too.
"""

from __future__ import annotations

import random
from fractions import Fraction

from graphvm.machines import MARKER, Action, MachineSpec, validate_spec

ALPHABET = ("0", "1")
MODES = ("det", "nondet", "prob")
MAX_HEADS = 2
MAX_STATES = 3
MAX_WORD_LEN = 6
HALF = Fraction(1, 2)


def _action(rng: random.Random, states, heads: int, two_way: bool,
            weight: Fraction):
    kinds = ["advance", "advance", "accept", "reject"]
    if two_way:
        kinds.append("retreat")
    kind = rng.choice(kinds)
    swap = None
    if heads > 1 and rng.randrange(4) == 0:
        swap = rng.randrange(2, heads + 1)
    goto = None if kind in ("accept", "reject") else rng.choice(states)
    return Action(kind, weight, swap, goto)


def random_spec(rng: random.Random, index: int, mode: str, heads: int,
                n_states: int, two_way: bool) -> MachineSpec:
    """A random machine with the given shape; ``index`` only names it.

    Each (state, symbol) entry is missing with probability 1/6 (the run
    halts dead there); otherwise it holds one action (det), one or two
    (nondet), or one or two branches of weight 1/2 (prob).
    """
    states = tuple(f"q{k}" for k in range(n_states))
    transitions = []
    for state in states:
        for symbol in (MARKER,) + ALPHABET:
            if rng.randrange(6) == 0:
                continue  # a missing entry halts the run dead
            if mode == "det":
                count, weight = 1, Fraction(1)
            elif mode == "nondet":
                count, weight = rng.randint(1, 2), Fraction(1)
            else:
                count, weight = rng.randint(1, 2), HALF
            acts = tuple(_action(rng, states, heads, two_way, weight)
                         for _ in range(count))
            transitions.append(((state, symbol), acts))
    spec = MachineSpec(f"rand{index}", ALPHABET, heads, states, mode,
                       two_way, tuple(transitions))
    problems = validate_spec(spec)
    if problems:
        raise ValueError(f"generator built an invalid machine: {problems}")
    return spec


def random_word(rng: random.Random, alphabet, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))
