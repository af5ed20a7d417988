"""Same-bytes corpus: one SHA-256 per family of outputs.

Each family hashes, line by line, an output that a change of how the
program computes (not of what it computes) must leave byte for byte
the same:

- ``machine_runs``: the exported plug result of every shipped machine
  on every word up to length 4, one-way and two-way, at ``max_steps``
  10000 and 5;
- ``sampled_plugs``: the exported plug results of ``random_pair`` at
  seeds 0-5 in every mode and of both nestings of ``random_triple``,
  at budgets 10000 and 3;
- ``checks``: ``validate`` and ``classify`` on the seeded graphings that
  ``test_graphing`` compares with the grid model, invalid ones included.

The corpora come from ``harness.py``.

The digests were recorded before the export writer emitted text
directly; an intended change of output bytes updates them here.  Each
exported payload must also be the compact sorted-key text that
``json.dumps`` gives for its own data.
"""

import functools
import hashlib
import random

import pytest

from graphvm.export import dumps, result_payload
from graphvm.graphing import classify, validate
from harness import (canonical, machine_run_results, random_graphing,
                     sampled_graphings, sampled_plug_results,
                     with_a_corner_cut)


def _machine_runs():
    for result, _ in machine_run_results():
        yield dumps(result_payload(result))


def _sampled_plugs():
    for result in sampled_plug_results():
        yield dumps(result_payload(result))


def _checks():
    rng = random.Random(23)
    corpus = [random_graphing(rng) for _ in range(1500)]
    sampled = list(sampled_graphings())
    corpus += sampled + [with_a_corner_cut(g, rng) for g in sampled]
    for g in corpus:
        yield f"{validate(g)!r} {classify(g).value}"


FAMILIES = {
    "machine_runs": (_machine_runs, "753244feaba4433939744553f9374213"
                                    "210fb7dea7a1c65be4c1618cbdaa77da"),
    "sampled_plugs": (_sampled_plugs, "988d478cb3f3fcffa2e94ac8f18a83b1"
                                      "383b3a69ce4be0294aacad650b7fefaf"),
    "checks": (_checks, "fc01d6f6be6b0263f3c94692c560b785"
                        "0bfaf485edb15089b96b74788237b962"),
}


@functools.cache
def _lines(family):
    return list(FAMILIES[family][0]())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_family_keeps_its_bytes(family):
    digest = hashlib.sha256()
    for line in _lines(family):
        digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == FAMILIES[family][1]


@pytest.mark.parametrize("family", ["machine_runs", "sampled_plugs"])
def test_an_exported_payload_is_in_canonical_form(family):
    for text in _lines(family):
        canonical(text)
