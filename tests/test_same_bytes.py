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
- ``checks``: ``validate`` and ``classify`` on the seeded graphings of
  ``test_graphing``'s reference corpus, invalid ones included.

The digests were recorded before the export writer emitted text
directly; an intended change of output bytes updates them here.  Each
exported payload must also be the compact sorted-key text that
``json.dumps`` gives for its own data.
"""

import functools
import hashlib
import random

import pytest

from graphvm.encodings import encode_machine, run_word
from graphvm.execution import plug
from graphvm.export import dumps, result_payload
from graphvm.graphing import classify, validate
from graphvm.machines import words_up_to
from graphvm.sampling import random_pair, random_triple

from harness import shipped_machines
from test_export import canonical
from test_graphing import (_random_graphing, _sampled_graphings,
                           _with_a_corner_cut)

MODES = ("det", "nondet", "prob")


def machine_run_results():
    """The plug results whose payloads make the ``machine_runs`` family."""
    for _, spec in shipped_machines():
        machine = encode_machine(spec)
        for word in words_up_to(machine.spec.alphabet, 4):
            for one_way in (True, False):
                for max_steps in (10000, 5):
                    result, _ = run_word(machine, word, one_way=one_way,
                                         max_steps=max_steps)
                    yield result


def sampled_plug_results():
    """The plug results whose payloads make the ``sampled_plugs`` family."""
    for max_steps in (10000, 3):
        for mode in MODES:
            for seed in range(6):
                f, g = random_pair(seed, mode)
                yield plug(f, g, max_steps=max_steps)
                f, g, h = random_triple(seed, mode)
                fg = plug(f, g, max_steps=max_steps)
                gh = plug(g, h, max_steps=max_steps)
                yield from (fg, gh,
                            plug(fg.graphing, h, max_steps=max_steps),
                            plug(f, gh.graphing, max_steps=max_steps))


def _machine_runs():
    for result in machine_run_results():
        yield dumps(result_payload(result))


def _sampled_plugs():
    for result in sampled_plug_results():
        yield dumps(result_payload(result))


def _checks():
    rng = random.Random(23)
    corpus = [_random_graphing(rng) for _ in range(1500)]
    sampled = list(_sampled_graphings())
    corpus += sampled + [_with_a_corner_cut(g, rng) for g in sampled]
    for g in corpus:
        yield f"{validate(g)!r} {classify(g).value}"


FAMILIES = {
    "machine_runs": (_machine_runs, "48b81a6e9ef6f39a5d006cdc2c37f09f"
                                    "949c1b8f43705ce0f5772cf10fa48beb"),
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
