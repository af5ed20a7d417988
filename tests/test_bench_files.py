"""The committed ``BENCH_<n>_parent.json`` / ``BENCH_<n>_change.json``
pairs: each records the same benchmark runs on two commits, and a speed
claim resting on them holds only if both sides did the same work.

Per pair: the same command and Python, different commits, the same
(workload, seed) runs, and per run the same determinism digest (from
perfbench's summary line) and the same ``attempted``, ``failed`` and
``correct`` (from its result line).  The pair alternated: per (workload,
seed) exactly one side ran first, and per workload each side ran first
equally often, give or take one.
"""

import collections
import glob
import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
PARENTS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*_parent.json")))


def _runs(bench):
    """Per (workload, seed): the digest, attempted, failed and correct."""
    out = {}
    for run in bench["runs"]:
        key = (run["workload"], run["seed"])
        assert key not in out, key
        summary = json.loads(run["summary_line"].removeprefix("summary "))
        result = json.loads(run["result_line"])
        out[key] = (summary["digest"], result["attempted"], result["failed"],
                    result["correct"])
    return out


def test_there_are_bench_files():
    assert PARENTS


def _pair(parent_path):
    n = re.fullmatch(r"BENCH_(\d+)_parent\.json",
                     os.path.basename(parent_path)).group(1)
    change_path = os.path.join(ROOT, f"BENCH_{n}_change.json")
    assert os.path.exists(change_path), f"BENCH_{n}_change.json is missing"
    with open(parent_path, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(change_path, encoding="utf-8") as fh:
        change = json.load(fh)
    return parent, change


@pytest.mark.parametrize("parent_path", PARENTS, ids=os.path.basename)
def test_a_bench_pair_ran_the_same_work(parent_path):
    parent, change = _pair(parent_path)
    assert parent["command"] == change["command"]
    assert parent["python"] == change["python"]
    assert parent["commit"] != change["commit"]
    assert _runs(parent) == _runs(change)


@pytest.mark.parametrize("parent_path", PARENTS, ids=os.path.basename)
def test_a_bench_pair_alternated_the_side_that_ran_first(parent_path):
    pair = _pair(parent_path)
    first = collections.defaultdict(list)  # (workload, seed) -> sides
    for side, bench in zip(("parent", "change"), pair):
        for run in bench["runs"]:
            if run["ran_first"]:
                first[run["workload"], run["seed"]].append(side)
    runs = {(run["workload"], run["seed"])
            for bench in pair for run in bench["runs"]}
    assert {key: len(sides) for key, sides in first.items()} == \
        dict.fromkeys(runs, 1)
    led = collections.Counter((workload, sides[0])
                              for (workload, _), sides in first.items())
    for workload in {workload for workload, _ in runs}:
        assert abs(led[workload, "parent"] - led[workload, "change"]) <= 1, \
            workload
