"""graphvm benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload single-runs --seed 1 --seconds 20 \\
        --trace 0

Run from anywhere inside a checkout of the repository: the benchmark
imports graphvm from the checkout's ``src`` directory and reads the
shipped machines from ``machines``.  It runs in one process and one
thread, as a closed loop with one client: each op starts when the
previous one has returned.  Only the setup probes run in child
processes, one after another, before the workload starts.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from time import perf_counter_ns

from gauge import SpeedGauge, scale_for

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MACHINES = os.path.join(ROOT, "machines")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
RECHECK_SHARE = 50      # 1/RECHECK_SHARE of the ops run again at the end
TRACE_SHARE = 4         # the traced run covers 1/TRACE_SHARE of the ops
CAP_FACTOR = 1.5        # a run stops after 1.5 times its nominal length ...
CAP_LIMIT_S = 150       # ... and never later than this


class SetupError(RuntimeError):
    """The checkout lacks the program or its machines."""


def setup(workload: str, seed: int, seconds: int):
    """Import graphvm, read the machines and build the seeded op list.

    Everything a run does before its first op happens here, so that
    ``setup_s`` shows work moved out of the ops.
    """
    if not os.path.isfile(os.path.join(SRC, "graphvm", "__init__.py")):
        raise SetupError(f"no graphvm package under {SRC}")
    if not os.path.isdir(MACHINES):
        raise SetupError(f"no machines directory at {MACHINES}")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import graphvm
    if not os.path.abspath(graphvm.__file__).startswith(SRC + os.sep):
        raise SetupError(f"graphvm imported from {graphvm.__file__}, "
                         f"not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload](MACHINES)
    ops = wl.build(random.Random(seed), seconds)
    return wl, ops


def timed_setup(workload: str, seed: int, seconds: int):
    started = perf_counter_ns()
    wl, ops = setup(workload, seed, seconds)
    return wl, ops, perf_counter_ns() - started


def probe_setup_ns(args, gauge) -> tuple[list[int], list[float]]:
    """Setup time of fresh processes, measured inside each of them, raw
    and scaled by the speed gauge sampled around each probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        gauge.sample()
        started = perf_counter_ns()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60, check=True)
        ended = perf_counter_ns()
        gauge.sample()
        ns = int(done.stdout.split()[-1])
        raw.append(ns)
        scaled.append(ns * gauge.scale(started, ended))
    return raw, scaled


class Pass:
    """Outcome of running a list of ops once."""

    def __init__(self):
        self.start_ns = array("q")
        self.latency_ns = array("q")
        self.kernel_ns: list[float] = []   # gauge kernel time near each op
        self.scaled_ns: list[float] = []
        self.units = array("q")
        self.failures: Counter = Counter()
        self.item_digests: list[bytes] = []
        self.digest = hashlib.sha256()
        self.first_error: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_ops(wl, ops, gauge: SpeedGauge,
            deadline_ns: int | None = None) -> Pass:
    """Run ops in order, timing only ``wl.run``; check each output.

    The gauge is sampled between ops, never inside one."""
    result = Pass()
    gauge.sample()
    for op in ops:
        gauge.maybe_sample()
        started = perf_counter_ns()
        try:
            out = wl.run(op)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, exc
        result.latency_ns.append(perf_counter_ns() - started)
        result.start_ns.append(started)
        if error is not None:
            result.failures[f"exception-{type(error).__name__}"] += 1
            result.units.append(0)
            item = f"{op!r} raised {type(error).__name__}"
            if result.first_error is None:
                result.first_error = "".join(
                    traceback.format_exception(error))
        else:
            cause = wl.check(op, out)
            if cause is not None:
                result.failures[cause] += 1
            result.units.append(wl.units(op, out))
            item = wl.digest_item(op, out)
        item_digest = hashlib.sha256(item.encode()).digest()
        result.item_digests.append(item_digest)
        result.digest.update(item_digest)
        if deadline_ns is not None and perf_counter_ns() > deadline_ns:
            break
    gauge.sample()
    result.kernel_ns = [gauge.kernel_near(start, start + lat)
                        for start, lat in zip(result.start_ns,
                                              result.latency_ns)]
    result.scaled_ns = [lat * scale_for(kernel) for lat, kernel
                        in zip(result.latency_ns, result.kernel_ns)]
    return result


def repeat_medians(ops, times) -> list[float]:
    """Each op's time replaced by the median over the identical ops of
    the run, so an op repeated in every pass counts as one steadier
    measurement instead of several noisy ones."""
    groups: dict = {}
    for op, t in zip(ops, times):
        groups.setdefault(op, []).append(t)
    medians = {op: statistics.median(ts) for op, ts in groups.items()}
    return [medians[op] for op in ops[:len(times)]]


def percentile(sorted_values, q: int):
    """Nearest-rank q-th percentile of a sorted sample."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values) / 100)) - 1]


def block_throughput(done: Pass, block: int, times) -> float:
    """Median over whole blocks of consecutive ops of units per second.

    A block holds one of each kind of op the workload mixes, so the
    median is not moved by the rare op that runs a hundred times longer
    than the rest."""
    blocks = max(1, done.attempted // block)
    rates = []
    for b in range(blocks):
        lo, hi = b * block, min((b + 1) * block, done.attempted)
        rates.append(sum(done.units[lo:hi]) / (sum(times[lo:hi]) / 1e9))
    return statistics.median(rates)


def end_to_end(args, wl, ops) -> dict:
    gauge = SpeedGauge()
    setup_raw, setup_scaled = probe_setup_ns(args, gauge)
    gc.collect()
    nominal_s = max(args.seconds, len(ops) / wl.nominal_ops_per_s)
    cap_s = min(CAP_FACTOR * nominal_s, CAP_LIMIT_S)
    started = perf_counter_ns()
    done = run_ops(wl, ops, gauge, deadline_ns=started + int(cap_s * 1e9))
    recheck = run_ops(wl, ops[:max(1, done.attempted // RECHECK_SHARE)],
                      gauge)
    reproduced = recheck.item_digests == done.item_digests[:recheck.attempted]
    op_ns = repeat_medians(ops, done.scaled_ns)
    scaled = sorted(op_ns)
    raw = sorted(done.latency_ns)
    metrics = {
        "setup_s": (statistics.median(setup_scaled) / 1e9, "s"),
        "throughput_per_s": (block_throughput(done, wl.block_size, op_ns),
                             "1/s"),
        "op_p50_ms": (statistics.median(scaled) / 1e6, "ms"),
        "op_p90_ms": (percentile(scaled, 90) / 1e6, "ms"),
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "ops_planned": len(ops), "ops": done.attempted,
        "units": sum(done.units), "failures": dict(sorted(
            done.failures.items())),
        "digest": done.digest.hexdigest(), "reproduced": reproduced,
        "scaled_ms": {f"p{q}": percentile(scaled, q) / 1e6
                      for q in (95, 99)},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": {"setup_s": statistics.median(setup_raw) / 1e9,
                "throughput_per_s": block_throughput(
                    done, wl.block_size, done.latency_ns),
                "op_p50_ms": statistics.median(raw) / 1e6,
                "op_p90_ms": percentile(raw, 90) / 1e6,
                "busy_s": sum(raw) / 1e9},
        "gauge_samples": len(gauge.kernel_ns),
        "gauge_kernel_ns_median": statistics.median(gauge.kernel_ns),
    }
    _write_samples(args, done, wl.block_size)
    return _result(done, reproduced, metrics, summary)


def _write_samples(args, done: Pass, block: int) -> None:
    """Raw samples in integer ns, for comparing runs after the fact."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"samples-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "block": block, "latency_ns": list(done.latency_ns),
                   "kernel_ns": [int(k) for k in done.kernel_ns],
                   "units": list(done.units)}, fh)
        fh.write("\n")


def traced(args, wl, ops) -> dict:
    """Run a slice of the ops untraced, then the same slice traced."""
    from tracer import Tracer

    share = ops[:math.ceil(len(ops) / TRACE_SHARE)]
    gauge = SpeedGauge()
    gc.collect()
    plain = run_ops(wl, share, gauge)
    tracer = Tracer()
    gc.collect()
    with tracer:
        traced_pass = run_ops(wl, share, gauge)
    reproduced = plain.item_digests == traced_pass.item_digests
    # spans are raw; one scale per pass brings them to nominal speed
    traced_scale = sum(traced_pass.scaled_ns) / sum(traced_pass.latency_ns)
    metrics = layer_metrics(tracer, len(share), traced_scale,
                            sum(plain.scaled_ns), sum(traced_pass.scaled_ns))
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "ops": len(share), "spans": tracer.span_count(),
        "failures": dict(sorted(traced_pass.failures.items())),
        "digest": traced_pass.digest.hexdigest(),
        "untraced_digest": plain.digest.hexdigest(),
        "reproduced": reproduced,
        "raw_overhead": (sum(traced_pass.latency_ns)
                         / sum(plain.latency_ns)),
    }
    tracer.write(os.path.join(OUT, f"trace-{args.workload}"),
                 {"summary": summary, "metrics": metrics})
    return _result(traced_pass, reproduced, metrics, summary)


def layer_metrics(tracer, ops: int, scale: float, plain_ns: float,
                  traced_ns: float) -> dict:
    """Per-op averages of the per-layer metrics from one traced pass.

    Span times are multiplied by ``scale`` to bring them to the gauge's
    nominal speed; ``plain_ns`` and ``traced_ns`` are already scaled."""
    spans = tracer.summary()
    counts = tracer.counts

    def row(name):
        return spans.get(name, {"calls": 0, "ns": 0, "self_ns": 0})

    def per_op(value):
        return value / ops

    def per_op_ns(value):
        return value * scale / ops

    def calls(name):
        return (per_op(row(name)["calls"]), "count/op")

    def ns(name, key="ns"):
        return (per_op_ns(row(name)[key]), "ns/op")

    def counted(name):
        return (per_op(counts[name]), "count/op")

    steps = counts["execution.steps"]
    oracle_ns = tracer.outermost_ns({n for n in spans
                                     if n.startswith("oracle.")})
    return {
        "machines.parse_ns": ns("machines.parse_machine"),
        "encodings.encode_word_ns": ns("encodings.encode_word"),
        "encodings.encode_machine_ns": ns("encodings.encode_machine"),
        "encodings.word_boxes": counted("encodings.word_boxes"),
        "graphing.validate_ns": ns("graphing.validate"),
        "graphing.validate_calls": calls("graphing.validate"),
        "graphing.classify_ns": ns("graphing.classify"),
        "graphing.same_as_ns": ns("graphing.Graphing.same_as"),
        "execution.plug_self_ns": ns("execution.plug", "self_ns"),
        "execution.plug_calls": calls("execution.plug"),
        "execution.steps": counted("execution.steps"),
        "execution.result_edges": counted("execution.result_edges"),
        "execution.dead_paths": counted("execution.dead_paths"),
        "execution.edges_per_step": (
            counts["execution.result_edges"] / steps if steps else 0.0,
            "ratio"),
        "execution.evaluate_ns": (per_op_ns(tracer.outermost_ns(
            {"execution.evaluate_test", "execution.accept_mass"})), "ns/op"),
        "execution.language_self_ns": ns("execution.language", "self_ns"),
        "space.from_boxes_calls": calls("space.MeasurableSet.from_boxes"),
        "space.from_boxes_boxes_in": counted("space.from_boxes_boxes_in"),
        "space.from_boxes_ns": ns("space.MeasurableSet.from_boxes"),
        "space.intersect_calls": calls("space.MeasurableSet.intersect"),
        "space.intersect_ns": ns("space.MeasurableSet.intersect"),
        "space.subtract_calls": calls("space.MeasurableSet.subtract"),
        "space.subtract_ns": ns("space.MeasurableSet.subtract"),
        "space.union_calls": calls("space.MeasurableSet.union"),
        "space.subset_of_calls": calls("space.MeasurableSet.subset_of"),
        "space.subset_of_ns": ns("space.MeasurableSet.subset_of"),
        "space.intervals_built": counted("space.intervals_built"),
        "space.common_refinement_ns": ns("space.common_refinement"),
        "realizers.apply_calls": calls("realizers.Realizer.apply"),
        "realizers.apply_ns": ns("realizers.Realizer.apply"),
        "realizers.compose_calls": calls("realizers.Realizer.compose"),
        "realizers.compose_ns": ns("realizers.Realizer.compose"),
        "realizers.invert_calls": calls("realizers.Realizer.invert"),
        "realizers.domain_within_ns": ns("realizers.Realizer.domain_within"),
        "sampling.generate_ns": (per_op_ns(tracer.outermost_ns(
            {"sampling.random_pair", "sampling.random_triple"})), "ns/op"),
        "export.payload_ns": (per_op_ns(tracer.outermost_ns(
            {"export.result_payload", "export.dumps"})), "ns/op"),
        "export.payload_bytes": counted("export.payload_bytes"),
        "oracle.check_ns": (per_op_ns(oracle_ns), "ns/op"),
        "oracle.vm_over_oracle": (
            plain_ns / (oracle_ns * scale) if oracle_ns else 0.0, "ratio"),
        "trace.untraced_op_ns": (per_op(plain_ns), "ns/op"),
        "trace.traced_op_ns": (per_op(traced_ns), "ns/op"),
        "trace.overhead": (traced_ns / plain_ns, "ratio"),
        "trace.spans": (per_op(tracer.span_count()), "count/op"),
    }


def _result(done: Pass, reproduced: bool, metrics: dict, summary: dict):
    if done.first_error is not None:
        print(done.first_error, file=sys.stderr, end="")
    print("summary " + json.dumps(summary, sort_keys=True))
    return {
        "correct": reproduced,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["language-enum", "single-runs", "plug-props"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, ops, setup_ns = timed_setup(args.workload, args.seed,
                                        args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_ns)
        return 0
    run = traced if args.trace else end_to_end
    print(json.dumps(run(args, wl, ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
