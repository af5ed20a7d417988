"""The three benchmark workloads, driven through graphvm's public API.

Each workload turns a seed and a run length into a fixed list of ops
(``build``), runs one op (``run``, the only timed part), checks its
output against the oracle or the property it tests (``check``), and
names what goes into the determinism digest (``digest_item``).  The
number of ops is the run length times the workload's nominal rate, so
both commits of a comparison do exactly the same work on the same
inputs, and attempted and failed counts repeat exactly.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

from graphvm import encodings, execution, export, graphing, machines, \
    oracle, sampling

import machinegen

HALF = Fraction(1, 2)
TESTS = {"det": execution.T_DET, "nl": execution.T_NL,
         "conl": execution.T_CONL, "prob": execution.t_prob(HALF)}


def _expected_verdict(spec, word: str, test_kind: str):
    """The oracle's verdict, and its exact accept probability in prob mode."""
    if test_kind == "det":
        ok = oracle.dfa_accepts(spec, word)
    elif test_kind == "nl":
        ok = oracle.nfa_accepts(spec, word)
    elif test_kind == "conl":
        ok = oracle.conl_accepts(spec, word)
    else:
        prob = oracle.pfa_accept_prob(spec, word)
        verdict = execution.Verdict.ACCEPT if prob > HALF \
            else execution.Verdict.REJECT
        return verdict, prob
    return (execution.Verdict.ACCEPT if ok else execution.Verdict.REJECT), None


class LanguageEnum:
    """One op is one ``execution.language()`` call.

    A pass is the six criterion-2 cases under det plus three
    nondeterministic machines under nl and under conl, in a seeded
    order.  The machine stays fixed for every word of a call, so
    word-independent work and canonicalisation dominate.
    """

    name = "language-enum"
    det_max_len = 5
    nondet_max_len = 4
    cases = [  # (file, test, one-way words)
        ("ones.mach", "det", False),
        ("one-then-zero.mach", "det", False),
        ("last-is-one.mach", "det", False),
        ("ends-with-zero.mach", "det", True),
        ("even-ones.mach", "det", True),
        ("one-then-zero.mach", "det", True),
    ] + [(f, t, False) for f in ("guess-11.mach", "branchy.mach",
                                 "skip-or-reject.mach")
         for t in ("nl", "conl")]
    block_size = len(cases)
    nominal_ops_per_s = 6.0

    def __init__(self, machines_dir: str):
        self.encoded = {}
        for fname in sorted({f for f, _, _ in self.cases}):
            spec = machines.load_machine(os.path.join(machines_dir, fname))
            self.encoded[fname] = encodings.encode_machine(spec)

    def build(self, rng: random.Random, seconds: int) -> list:
        passes = max(1, round(seconds * self.nominal_ops_per_s
                              / len(self.cases)))
        ops = []
        for _ in range(passes):
            order = list(self.cases)
            rng.shuffle(order)
            for fname, test, one_way in order:
                max_len = self.det_max_len if test == "det" \
                    else self.nondet_max_len
                ops.append((fname, test, one_way, max_len))
        return ops

    def run(self, op):
        fname, test, one_way, max_len = op
        return execution.language(self.encoded[fname], TESTS[test], max_len,
                                  one_way=one_way)

    def check(self, op, out) -> str | None:
        fname, test, _, max_len = op
        mode = "co" if test == "conl" else "accept"
        want = oracle.oracle_language(self.encoded[fname].spec, max_len, mode)
        if out.undetermined:
            return f"{test}-undetermined"
        if out.accepted != want:
            return f"{test}-language-mismatch"
        return None

    def units(self, op, out) -> int:
        return len(out.verdicts)

    def digest_item(self, op, out) -> str:
        return repr((op, out.accepted, out.undetermined))


class SingleRuns:
    """One op is what ``graphvm run`` does for one (machine text, word).

    Machines are the shipped ``.mach`` files plus seeded random ones,
    drawn in blocks that hold every (mode, heads, states, one/two-way)
    combination once and every shipped machine once; word lengths 0-6
    rotate so that every seven blocks pair each kind with each length.
    Only the transitions, words and order are random, which keeps the
    mix, and so the timings, alike from seed to seed.  Each machine gets one word, so the per-machine work is
    paid on every op.
    """

    name = "single-runs"
    strata = [(mode, heads, states, two_way)
              for mode in machinegen.MODES
              for heads in range(1, machinegen.MAX_HEADS + 1)
              for states in range(1, machinegen.MAX_STATES + 1)
              for two_way in (False, True)]
    nominal_ops_per_s = 170

    def __init__(self, machines_dir: str):
        self.shipped = []
        for fname in sorted(os.listdir(machines_dir)):
            if fname.endswith(".mach"):
                with open(os.path.join(machines_dir, fname),
                          encoding="utf-8") as fh:
                    text = fh.read()
                self.shipped.append((text, machines.parse_machine(text)))
        self.block_size = len(self.strata) + len(self.shipped)

    def build(self, rng: random.Random, seconds: int) -> list:
        kinds = [("random", s) for s in self.strata]
        kinds += [("shipped", s) for s in self.shipped]
        lengths = machinegen.MAX_WORD_LEN + 1
        rotations = math.ceil(seconds * self.nominal_ops_per_s
                              / (len(kinds) * lengths))
        ops = []
        for b in range(rotations * lengths):
            # kind k gets length (k + b) mod 7: each block has every kind
            # once, and every 7 blocks pair each kind with each length
            block = [(kind, (k + b) % lengths)
                     for k, kind in enumerate(kinds)]
            rng.shuffle(block)
            for (source, what), length in block:
                if source == "random":
                    spec = machinegen.random_spec(rng, len(ops), *what)
                    text = machines.format_machine(spec)
                else:
                    text, spec = what
                word = machinegen.random_word(rng, spec.alphabet, length)
                if spec.mode == "det":
                    test = "det"
                elif spec.mode == "nondet":
                    test = rng.choice(("nl", "conl"))
                else:
                    test = "prob"
                ops.append((text, spec, word, test))
        return ops

    def run(self, op):
        text, _, word, test = op
        spec = machines.parse_machine(text)
        machine = encodings.encode_machine(spec)
        result, regions = encodings.run_word(machine, word,
                                             one_way=not spec.two_way)
        verdict = execution.evaluate_test(result, TESTS[test], regions)
        mass = execution.accept_mass(result, regions) \
            if test == "prob" else None
        payload = export.dumps(export.result_payload(result))
        return verdict, mass, payload

    def check(self, op, out) -> str | None:
        _, spec, word, test = op
        verdict, mass, _ = out
        want, prob = _expected_verdict(spec, word, test)
        if verdict is not want:
            return f"{test}-{verdict.value}-where-oracle-{want.value}"
        if prob is not None and mass != prob:
            return f"{test}-mass-{'below' if mass < prob else 'above'}-oracle"
        return None

    def units(self, op, out) -> int:
        return 1

    def digest_item(self, op, out) -> str:
        verdict, mass, payload = out
        return f"{verdict.value} {mass} {payload}"


class PlugProps:
    """One op is one property check, including generating its inputs.

    Blocks of seven checks: closure under plugging for two seeded pairs
    in each of det, nondet and prob mode, and one associativity check
    of a seeded det triple.  These are generic layered graphings with
    permutations and dyadic offsets; neither ``encodings`` nor
    ``oracle`` is involved.
    """

    name = "plug-props"
    block = [("closure", m) for m in ("det", "nondet", "prob")] * 2 \
        + [("associativity", "det")]
    block_size = len(block)
    nominal_ops_per_s = 138

    def __init__(self, machines_dir: str):
        self.wanted = {"det": graphing.GraphingClass.DETERMINISTIC,
                       "nondet": graphing.GraphingClass.NONDETERMINISTIC,
                       "prob": graphing.GraphingClass.PROBABILISTIC}

    def build(self, rng: random.Random, seconds: int) -> list:
        count = math.ceil(seconds * self.nominal_ops_per_s)
        ops = []
        while len(ops) < count:
            block = list(self.block)
            rng.shuffle(block)
            ops.extend((kind, mode, rng.randrange(2 ** 32))
                       for kind, mode in block)
        return ops[:count]

    def run(self, op):
        kind, mode, seed = op
        if kind == "closure":
            f, g = sampling.random_pair(seed, mode)
            result = execution.plug(f, g)
            return result.diagnostics.clean(), graphing.classify(result.graphing)
        f, g, h = sampling.random_triple(seed, mode)
        left = execution.plug(execution.plug(f, g).graphing, h)
        right = execution.plug(f, execution.plug(g, h).graphing)
        clean = left.diagnostics.clean() and right.diagnostics.clean()
        return clean, left.graphing.same_as(right.graphing)

    def check(self, op, out) -> str | None:
        kind, mode, _ = op
        clean, got = out
        if not clean:
            return f"{kind}-{mode}-diagnostics-not-clean"
        if kind == "closure":
            if got not in (self.wanted[mode],
                           graphing.GraphingClass.DETERMINISTIC):
                return f"closure-{mode}-class-{got.value}"
        elif not got:
            return f"associativity-{mode}-not-same"
        return None

    def units(self, op, out) -> int:
        return 1

    def digest_item(self, op, out) -> str:
        return f"{op} {self.check(op, out) is None}"


WORKLOADS = {w.name: w for w in (LanguageEnum, SingleRuns, PlugProps)}
