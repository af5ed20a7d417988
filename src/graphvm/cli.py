"""Batch front door: run machines on words, enumerate and diff
languages against the reference simulators, run the equivalence
experiments, dump encodings.

Exit codes: 0 success (determinate verdict, empty diff), 2 language
mismatch against the oracle, 3 undetermined verdicts, 4 parse errors,
5 validation failures and usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import equivalence, export, oracle, sampling
from .execution import (Test, Verdict, evaluate_test, landing, language,
                        accept_mass, t_prob)
from .encodings import (EncodedMachine, TapeLayout, encode_machine,
                        encode_word, run_word)
from .graphing import classify, cost
from .machines import (MachineParseError, MachineSpecError, load_machine,
                       parse_rational)
from .realizers import Microcosm

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_UNDETERMINED = 3
EXIT_PARSE = 4
EXIT_INVALID = 5


def _test_from_args(args) -> Test:
    if args.test == "prob":
        return t_prob(parse_rational(args.cutpoint))
    return Test(args.test)


def _load(path: str) -> EncodedMachine:
    spec = load_machine(path)
    return encode_machine(spec)


def _ensure_out(args) -> str | None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_run(args) -> int:
    machine = _load(args.machine)
    test = _test_from_args(args)
    if test.kind == "prob":
        oracle.require_probabilities(machine.spec)
    result, regions = run_word(machine, args.word, one_way=args.one_way,
                               max_steps=args.max_steps)
    verdict = evaluate_test(result, test, regions)
    print(f"{machine.spec.name} on {args.word!r}: {verdict.value}")
    if test.kind == "prob":
        print(f"accept mass: {export.frac_str(accept_mass(result, regions))}")
    out = _ensure_out(args)
    if out:
        export.write_jsonl(os.path.join(out, "trace.jsonl"),
                           [export.result_payload(result)])
        accepting = None
        for record, edge in zip(result.paths, result.graphing.edges):
            if not landing(edge, regions, regions.accept).is_empty():
                accepting = record.steps
                break
        if verdict is not Verdict.ACCEPT:
            accepting = None
        names = machine.layout.cell_names(len(machine.spec.states))
        dot = export.run_dot(result, names, accepting)
        with open(os.path.join(out, "run.dot"), "w", encoding="utf-8") as fh:
            fh.write(dot)
    if verdict is Verdict.UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_language(args) -> int:
    machine = _load(args.machine)
    test = _test_from_args(args)
    if args.one_way and machine.spec.retreat_entered_states():
        # a one-way word lets each retreat die, which the oracle does not
        # model: the two languages would differ on every such word
        raise ValueError(f"{machine.spec.name} retreats: --one-way needs "
                         f"a machine that never retreats")
    got = language(machine, test, args.max_len, one_way=args.one_way,
                   max_steps=args.max_steps)
    spec = machine.spec
    if test.kind == "prob":
        probabilities = {
            w: oracle.pfa_accept_prob(spec, w)
            for w in oracle.words_up_to(spec.alphabet, args.max_len)}
        expected = [w for w, p in probabilities.items() if p > test.cutpoint]
    else:
        expected = oracle.oracle_language(
            spec, args.max_len, "co" if test.kind == "conl" else "accept")
    print(f"graphing language ({len(got.accepted)} words): "
          + " ".join(repr(w) for w in got.accepted))
    print(f"oracle language   ({len(expected)} words): "
          + " ".join(repr(w) for w in expected))
    payload = {
        "machine": machine.spec.name,
        "test": test.kind,
        "max_len": args.max_len,
        "graphing": got.accepted,
        "oracle": expected,
        "undetermined": got.undetermined,
    }
    if test.kind == "prob":
        payload["probabilities"] = {
            w: export.frac_str(p) for w, p in probabilities.items()}
    out = _ensure_out(args)
    if out:
        export.write_json(os.path.join(out, "language.json"), payload)
    if got.undetermined:
        print("undetermined words: " + " ".join(repr(w) for w in got.undetermined))
        return EXIT_UNDETERMINED
    if got.accepted != expected:
        only_graphing = sorted(set(got.accepted) - set(expected))
        only_oracle = sorted(set(expected) - set(got.accepted))
        print(f"MISMATCH; graphing-only: {only_graphing}, "
              f"oracle-only: {only_oracle}")
        return EXIT_MISMATCH
    print("languages agree")
    return EXIT_OK


def cmd_experiment(args) -> int:
    out = _ensure_out(args)
    code = EXIT_OK
    if args.kind == "cost":
        heads, depth = args.heads, args.depth
        limit = sys.get_int_max_str_digits()
        too_long = ValueError(
            f"--heads {heads} --depth {depth}: the exact cost has more than "
            f"{limit} digits, the limit for writing an integer")
        # for 2 <= heads <= 2^depth the 2-part of the partial's reduced
        # denominator is 2^(depth (heads - 1) + v2(heads)), known up front;
        # the total's is heads!, multiplied up only until it passes the bound
        if limit and heads >= 2:
            bound = 10 ** limit
            if (heads - 1).bit_length() <= depth and \
                    depth * (heads - 1) + (heads & -heads).bit_length() - 1 \
                    >= bound.bit_length():
                raise too_long
            product = 1
            for k in range(2, heads + 1):
                product *= k
                if product >= bound:
                    raise too_long
        partial, total = equivalence.treeing_cost(heads, depth)
        try:
            partial_text = export.frac_str(partial)
            total_text = export.frac_str(total)
        except ValueError:
            # the interpreter caps int-to-str conversion, which is quadratic
            raise too_long from None
        payload = {
            "experiment": "cost",
            "heads": heads,
            "depth": depth,
            "partial": partial_text,
            "total": total_text,
        }
        print(f"treeing cost, {heads} coordinates: partial "
              f"{partial_text} at depth {depth}, total {total_text}")
    elif args.kind == "separation":
        report = equivalence.separation_experiment(
            args.small, args.large, args.max_word_len, args.max_parts)
        payload = {
            "experiment": "separation",
            **{k: (export.frac_str(v) if isinstance(v, Fraction) else v)
               for k, v in report.items()},
        }
        print(f"separation {args.small} vs {args.large}: totals "
              f"{export.frac_str(report['treeing_total_small'])} vs "
              f"{export.frac_str(report['treeing_total_large'])}, "
              f"swap noncompilable within bounds: "
              f"{report['swap_noncompilable_within_bounds']}")
    elif args.kind == "compile":
        machine = _load(args.machine)
        witnesses = equivalence.unit_shift_witnesses(machine.graphing)
        compiled = equivalence.compile_graphing(machine.graphing, witnesses,
                                                Microcosm.mi(1))
        recompiled = EncodedMachine(machine.spec, machine.layout, compiled)
        test = _test_from_args(args)
        before, after = (language(m, test, args.max_len,
                                  max_steps=args.max_steps)
                         for m in (machine, recompiled))
        undetermined = [w for w, v in before.verdicts.items()
                        if Verdict.UNDETERMINED in (v, after.verdicts[w])]
        if undetermined:
            print("undetermined words: "
                  + " ".join(repr(w) for w in undetermined))
            return EXIT_UNDETERMINED
        same = before.accepted == after.accepted
        payload = {
            "experiment": "compile",
            "machine": machine.spec.name,
            "max_len": args.max_len,
            "language_before": before.accepted,
            "language_after": after.accepted,
            "unchanged": same,
            "cost_before": export.frac_str(cost(machine.graphing)),
            "cost_after": export.frac_str(cost(compiled)),
        }
        print(f"compile {machine.spec.name} into unit shifts: language "
              f"{'unchanged' if same else 'CHANGED'} up to length {args.max_len}")
        if not same:
            code = EXIT_MISMATCH
    else:  # closure or associativity, the only other kinds argparse admits
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        seeds = range(args.seed, args.seed + args.count)
        failures = [seed for seed in seeds if not sampling.property_holds(
            args.kind, seed, args.mode, args.max_steps)]
        passes = args.count - len(failures)
        payload = {
            "experiment": args.kind,
            "mode": args.mode,
            "seed": args.seed,
            "count": args.count,
            "passes": passes,
            "failures": failures,
        }
        print(f"{args.kind}: {passes}/{args.count} passed")
        if failures:
            code = EXIT_MISMATCH
    if out:
        export.write_json(os.path.join(out, "experiment.json"), payload)
    return code


def cmd_encode(args) -> int:
    out = _ensure_out(args)
    if args.what == "word":
        layout = TapeLayout(tuple(args.alphabet.split()))
        enc = encode_word(args.value, layout, state_rows=args.rows,
                          one_way=args.one_way)
        graphing = enc.graphing
        names = layout.cell_names(args.rows)
    else:
        machine = _load(args.value)
        graphing = machine.graphing
        names = machine.layout.cell_names(len(machine.spec.states))
    print(f"{len(graphing.edges)} edges, classified "
          f"{classify(graphing).value}, cost {export.frac_str(cost(graphing))}")
    if out:
        export.write_json(os.path.join(out, "encoding.json"),
                          json.loads(export.graphing_payload(graphing)))
        with open(os.path.join(out, "encoding.dot"), "w", encoding="utf-8") as fh:
            fh.write(export.graphing_dot(graphing, names))
    return EXIT_OK


def cmd_validate(args) -> int:
    machine = _load(args.machine)
    _ensure_out(args)
    print(f"{machine.spec.name}: ok "
          f"({len(machine.graphing.edges)} edges, "
          f"{classify(machine.graphing).value})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphvm",
        description="exact virtual machine for weighted graphings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, test=True):
        p.add_argument("--out", default=None, help="output directory")
        if test:
            p.add_argument("--max-steps", type=int, default=10000)
            p.add_argument("--test", choices=["det", "nl", "conl", "prob"],
                           default="det")
            p.add_argument("--cutpoint", default="1/2")

    p = sub.add_parser("run", help="run a machine on one word")
    p.add_argument("machine")
    p.add_argument("word")
    p.add_argument("--one-way", action="store_true")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("language", help="enumerate and diff against the oracle")
    p.add_argument("machine")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--one-way", action="store_true")
    common(p)
    p.set_defaults(func=cmd_language)

    p = sub.add_parser("experiment", help="equivalence-lab experiments")
    ex = p.add_subparsers(dest="kind", required=True)

    q = ex.add_parser("cost")
    q.add_argument("--heads", type=int, required=True)
    q.add_argument("--depth", type=int, required=True)
    common(q, test=False)
    q.set_defaults(func=cmd_experiment)

    q = ex.add_parser("separation")
    q.add_argument("small", type=int)
    q.add_argument("large", type=int)
    q.add_argument("--max-word-len", type=int, default=6)
    q.add_argument("--max-parts", type=int, default=8)
    common(q, test=False)
    q.set_defaults(func=cmd_experiment)

    q = ex.add_parser("compile")
    q.add_argument("machine")
    q.add_argument("--max-len", type=int, default=6)
    common(q)
    q.set_defaults(func=cmd_experiment)

    for kind in ("closure", "associativity"):
        q = ex.add_parser(kind)
        q.add_argument("--mode", choices=["det", "nondet", "prob"],
                       default="det")
        q.add_argument("--seed", type=int, default=1)
        q.add_argument("--count", type=int, default=100)
        q.add_argument("--max-steps", type=int, default=10000)
        common(q, test=False)
        q.set_defaults(func=cmd_experiment)

    p = sub.add_parser("encode", help="dump a word or machine graphing")
    p.add_argument("what", choices=["word", "machine"])
    p.add_argument("value", help="the word itself, or a machine file")
    p.add_argument("--alphabet", default="0 1")
    p.add_argument("--rows", type=int, default=1)
    p.add_argument("--one-way", action="store_true")
    common(p, test=False)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("validate", help="check a machine file and its graphing")
    p.add_argument("machine")
    common(p, test=False)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help, or its usage and error
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return args.func(args)
    except (MachineParseError, MachineSpecError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
