"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from graphvm import execution, machines  # noqa: E402

import machinegen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gauge import SpeedGauge  # noqa: E402
from tracer import Tracer  # noqa: E402

MACHINES = os.path.join(ROOT, "machines")


def _ops(workload, count, seed=7):
    wl = workloads.WORKLOADS[workload](MACHINES)
    return wl, wl.build(random.Random(seed), 1)[:count]


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_run_prints_every_metric():
    spec = _benchmark_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             "plug-props", "--seed", "3", "--seconds", "1", "--trace",
             str(trace)],
            capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in _benchmark_spec()["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_generator_yields_valid_machines_that_round_trip():
    rng = random.Random(11)
    for index in range(300):
        shape = workloads.SingleRuns.strata[index % len(
            workloads.SingleRuns.strata)]
        spec = machinegen.random_spec(rng, index, *shape)
        assert machines.validate_spec(spec) == []
        assert machines.parse_machine(machines.format_machine(spec)) == spec


def test_op_lists_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        _, first = _ops(name, 50, seed=5)
        _, again = _ops(name, 50, seed=5)
        _, other = _ops(name, 50, seed=6)
        assert first == again
        assert first != other


class _FlippedVerdicts(workloads.SingleRuns):
    def run(self, op):
        verdict, mass, payload = super().run(op)
        flipped = {execution.Verdict.ACCEPT: execution.Verdict.REJECT,
                   execution.Verdict.REJECT: execution.Verdict.ACCEPT}
        return flipped.get(verdict, verdict), mass, payload


def test_flipped_verdict_counts_as_failure():
    wl, ops = _ops("single-runs", 40)
    honest = run.run_ops(wl, ops, SpeedGauge())
    flipped_wl = _FlippedVerdicts(MACHINES)
    flipped = run.run_ops(flipped_wl, ops, SpeedGauge())
    decided = [op for op in ops
               if wl.check(op, wl.run(op)) is None]
    assert flipped.failed >= len(decided) > 0
    assert flipped.attempted == honest.attempted == len(ops)


def test_raising_op_counts_as_failure():
    class Raises(workloads.PlugProps):
        def run(self, op):
            raise ValueError("boom")

    wl, ops = _ops("plug-props", 3)
    done = run.run_ops(Raises(MACHINES), ops, SpeedGauge())
    assert done.failed == done.attempted == 3
    assert done.failures == {"exception-ValueError": 3}


def test_traced_and_untraced_runs_give_the_same_digests():
    for name, count in (("single-runs", 30), ("plug-props", 20),
                        ("language-enum", 2)):
        wl, ops = _ops(name, count)
        plain = run.run_ops(wl, ops, SpeedGauge())
        again = run.run_ops(wl, ops, SpeedGauge())
        with Tracer() as tracer:
            traced = run.run_ops(wl, ops, SpeedGauge())
        assert tracer.span_count() > 0
        assert plain.digest.hexdigest() == again.digest.hexdigest()
        assert plain.digest.hexdigest() == traced.digest.hexdigest()
        assert plain.failures == traced.failures


def _graphvm_bindings():
    """Every attribute of every graphvm module and class, by identity."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "graphvm"
                                  or name.startswith("graphvm.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    seen[(name, attr, cattr)] = id(cvalue)
    return seen


def test_wrappers_are_restored_after_tracing():
    wl, ops = _ops("single-runs", 5)
    before = _graphvm_bindings()
    with Tracer():
        assert _graphvm_bindings() != before
        run.run_ops(wl, ops, SpeedGauge())
    assert _graphvm_bindings() == before


def test_tracer_rebinds_imported_names_and_methods():
    from graphvm import graphing, space
    original_validate = graphing.validate
    original_intersect = space.MeasurableSet.__dict__["intersect"]
    with Tracer():
        assert execution.validate is graphing.validate
        assert graphing.validate is not original_validate
        assert space.MeasurableSet.__dict__["intersect"] \
            is not original_intersect
    assert execution.validate is original_validate


def test_traced_counts_repeat_exactly():
    wl, ops = _ops("plug-props", 14)
    results = []
    for _ in range(2):
        with Tracer() as tracer:
            run.run_ops(wl, ops, SpeedGauge())
        summary = tracer.summary()
        results.append((dict(tracer.counts),
                        {n: row["calls"] for n, row in summary.items()}))
    assert results[0] == results[1]
    assert results[0][0]["execution.steps"] > 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 121))
    assert run.percentile(values, 90) == 108
    assert run.percentile(values, 50) == 60
    assert run.percentile([7], 90) == 7


def test_repeat_medians_pools_identical_ops():
    ops = ["a", "b", "a", "a", "c"]
    times = [1.0, 5.0, 3.0, 2.0, 7.0]
    assert run.repeat_medians(ops, times) == [2.0, 5.0, 2.0, 2.0, 7.0]
    assert run.repeat_medians(ops, times[:2]) == [1.0, 5.0]
