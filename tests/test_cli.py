import json
import math
import os
import sys
from fractions import Fraction

import pytest

from graphvm import (cli, encodings, equivalence, export, load_machine,
                     pfa_accept_prob)
from graphvm.cli import (EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE,
                         EXIT_UNDETERMINED, main)
from harness import MACHINES, log_calls, shipped_machines


def mach(name):
    return os.path.join(MACHINES, name)


def test_run_accept(tmp_path, capsys):
    code = main(["run", mach("ones.mach"), "11", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "accept" in capsys.readouterr().out
    dot = (tmp_path / "run.dot").read_text()
    assert "penwidth" in dot  # accepting path drawn bold
    trace = [json.loads(line)
             for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert trace[0]["diagnostics"]["complete"] is True


def test_run_reject_has_no_bold_path(tmp_path, capsys):
    code = main(["run", mach("ones.mach"), "0", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "reject" in capsys.readouterr().out
    assert "penwidth" not in (tmp_path / "run.dot").read_text()


def test_run_empty_word(capsys):
    assert main(["run", mach("ones.mach"), ""]) == EXIT_OK
    assert "reject" in capsys.readouterr().out


def test_run_second_machine_verdicts(capsys):
    assert main(["run", mach("one-then-zero.mach"), "0"]) == EXIT_OK
    assert "reject" in capsys.readouterr().out
    assert main(["run", mach("one-then-zero.mach"), "01"]) == EXIT_OK
    assert "accept" in capsys.readouterr().out


def test_run_undetermined_exit_code(capsys):
    code = main(["run", mach("ones.mach"), "0101", "--max-steps", "2"])
    assert code == EXIT_UNDETERMINED
    assert "undetermined" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mach"
    bad.write_text("name: x\nalphabet: 0\nheads: 1\nstates: s\nmode: det\n"
                   "twoway: true\ns, 0 -> floop\n")
    assert main(["run", str(bad), "0"]) == EXIT_PARSE
    assert "line 7" in capsys.readouterr().err


def test_repeated_alphabet_symbol_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "twice.mach"
    bad.write_text("name: x\nalphabet: 0 0\nheads: 1\nstates: s\nmode: det\n"
                   "twoway: true\ns, * -> reject\ns, 0 -> accept\n")
    for argv in (["validate", str(bad)], ["run", str(bad), "0"],
                 ["language", str(bad), "--max-len", "1"]):
        assert main(argv) == EXIT_PARSE
        assert "duplicate alphabet symbols" in capsys.readouterr().err


def test_run_out_encodes_the_word_once(tmp_path, monkeypatch):
    calls = log_calls(monkeypatch, (encodings, "encode_word"))
    assert main(["run", mach("one-then-zero.mach"), "0110",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert [args[0] for _, args in calls] == ["0110"]
    assert (tmp_path / "run.dot").read_text().startswith('digraph "run"')


def test_language_agreement(tmp_path, capsys):
    code = main(["language", mach("even-ones.mach"), "--max-len", "4",
                 "--one-way", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "languages agree" in out
    payload = json.loads((tmp_path / "language.json").read_text())
    assert payload["graphing"] == payload["oracle"]


def test_language_mismatch_lists_the_words_of_each_side(tmp_path, monkeypatch,
                                                        capsys):
    oracle_language = cli.oracle.oracle_language

    def skewed(spec, max_len, mode):
        # the oracle loses '00' and gains '1', which the machine rejects
        words = oracle_language(spec, max_len, mode)
        return sorted(set(words) - {"00"} | {"1"}, key=lambda w: (len(w), w))

    monkeypatch.setattr(cli.oracle, "oracle_language", skewed)
    code = main(["language", mach("even-ones.mach"), "--max-len", "2",
                 "--out", str(tmp_path)])
    assert code == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "MISMATCH; graphing-only: ['00'], oracle-only: ['1']" in out
    assert "languages agree" not in out
    payload = json.loads((tmp_path / "language.json").read_text())
    assert payload["graphing"] == ["", "0", "00", "11"]
    assert payload["oracle"] == ["", "0", "1", "11"]


def test_language_one_way_refuses_a_machine_that_retreats(capsys):
    argv = ["language", mach("last-is-one.mach"), "--one-way",
            "--max-len", "3"]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "last-is-one retreats" in captured.err
    assert captured.out == ""
    # the two-way words, and a one-way run, are still allowed
    assert main(argv[:2] + argv[3:]) == EXIT_OK
    assert main(["run", mach("last-is-one.mach"), "01",
                 "--one-way"]) == EXIT_OK


def test_language_prob_table(tmp_path):
    code = main(["language", mach("biased-first.mach"), "--test", "prob",
                 "--max-len", "2", "--one-way", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "language.json").read_text())
    assert payload["probabilities"]["1"] == "2/3"
    assert payload["probabilities"]["0"] == "1/3"


@pytest.mark.parametrize("heads, depth, partial, total", [
    (2, 4, "15/32", "1/2"),
    # deeper than the interpreter's recursion limit
    (2, 500, export.frac_str(Fraction(2 ** 500 - 1, 2 ** 501)), "1/2"),
    # the most heads whose total, 1 - 1/heads!, the interpreter writes
    (1558, 3, "0/1", export.frac_str(1 - Fraction(1, math.factorial(1558)))),
], ids=["depth-4", "depth-500", "heads-1558"])
def test_experiment_cost(tmp_path, capsys, heads, depth, partial, total):
    code = main(["experiment", "cost", "--heads", str(heads), "--depth",
                 str(depth), "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "experiment.json").read_text())
    assert payload["partial"] == partial
    assert payload["total"] == total


def test_experiment_separation(tmp_path):
    code = main(["experiment", "separation", "2", "3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "experiment.json").read_text())
    assert payload["treeing_total_small"] == "1/2"
    assert payload["treeing_total_large"] == "5/6"
    assert payload["swap_noncompilable_within_bounds"] is True


def test_experiment_compile(capsys):
    code = main(["experiment", "compile", mach("ones.mach"), "--max-len", "5"])
    assert code == EXIT_OK
    assert "unchanged" in capsys.readouterr().out


def test_experiment_compile_on_every_shipped_machine(capsys):
    for name, _ in shipped_machines():
        code = main(["experiment", "compile", mach(name), "--max-len", "3"])
        out, err = capsys.readouterr()
        if name == "one-then-zero.mach":  # two heads: a swap is no shift
            assert code == EXIT_INVALID
            assert "not a pure shift" in err
        else:
            assert code == EXIT_OK, (name, err)
            assert "language unchanged" in out


def test_experiment_closure_and_associativity(tmp_path):
    code = main(["experiment", "closure", "--mode", "det", "--seed", "1",
                 "--count", "25", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "experiment.json").read_text())
    assert payload["passes"] == 25
    code = main(["experiment", "associativity", "--seed", "3", "--count", "10"])
    assert code == EXIT_OK


@pytest.mark.parametrize("kind", ["closure", "associativity"])
@pytest.mark.parametrize("count", ["0", "-5"])
def test_experiment_count_below_one_is_a_validation_error(kind, count,
                                                          capsys):
    assert main(["experiment", kind, "--count", count]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count must be at least 1" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["language", mach("ones.mach"), "--max-len", "-1"], "max_len"),
    (["experiment", "compile", mach("ones.mach"), "--max-len", "-2"],
     "max_len"),
    (["run", mach("ones.mach"), "01", "--max-steps", "-3"], "max_steps"),
    (["experiment", "closure", "--max-steps", "-1", "--count", "2"],
     "max_steps"),
    (["experiment", "separation", "2", "3", "--max-word-len", "-1"],
     "search bounds"),
    (["experiment", "separation", "2", "3", "--max-parts", "-1"],
     "search bounds"),
    # a partial sum too long to write, rather than Python's own message
    (["experiment", "cost", "--heads", "20", "--depth", "10000"],
     f"--heads 20 --depth 10000: the exact cost has more than "
     f"{sys.get_int_max_str_digits()} digits"),
    (["experiment", "cost", "--heads", "20", "--depth", "100000"],
     f"--heads 20 --depth 100000: the exact cost has more than "
     f"{sys.get_int_max_str_digits()} digits"),
    # a total whose denominator, heads!, is too long to write
    (["experiment", "cost", "--heads", "1559", "--depth", "3"],
     f"--heads 1559 --depth 3: the exact cost has more than "
     f"{sys.get_int_max_str_digits()} digits"),
    (["experiment", "cost", "--heads", "1000000", "--depth", "3"],
     f"--heads 1000000 --depth 3: the exact cost has more than "
     f"{sys.get_int_max_str_digits()} digits"),
    (["language", mach("ones.mach"), "--max-steps", "-1"], "max_steps"),
    # bounds below their least value, which the CLI passes on as given
    (["experiment", "cost", "--heads", "1", "--depth", "2"],
     "need at least two coordinates to permute"),
    (["experiment", "separation", "1", "3"], "need 2 <= i < j"),
    (["encode", "word", "01", "--rows", "0"], "need at least one state row"),
    (["run", mach("coin-flip.mach"), "01", "--test", "prob",
      "--cutpoint", "1"], "cutpoint must lie in [0, 1)"),
])
def test_negative_bound_is_a_validation_error(argv, message, capsys,
                                              monkeypatch):
    calls = log_calls(monkeypatch, (equivalence, "treeing_cost"))
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    # a cost too long to write is refused before it is computed
    if "the exact cost has more than" in message:
        assert calls == []


@pytest.mark.parametrize("argv, message", [
    (["language", mach("ones.mach"), "--max-len", "abc"],
     "argument --max-len: invalid int value: 'abc'"),
    (["run", mach("ones.mach")], "the following arguments are required: word"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    # argparse reads a negative fraction as an option
    (["run", mach("coin-flip.mach"), "01", "--test", "prob",
      "--cutpoint", "-1/2"], "argument --cutpoint: expected one argument"),
])
def test_a_usage_error_is_a_validation_error(argv, message, capsys):
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: graphvm")
    assert f"error: {message}" in captured.err
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: graphvm")


@pytest.mark.parametrize("cutpoint, words", [
    ("1/0", "zero denominator in '1/0'"),
    ("0.5", "'0.5' is not an integer or p/q"),
], ids=["1/0", "0.5"])
def test_zero_denominator_cutpoint_is_a_validation_error(capsys, cutpoint,
                                                         words):
    code = main(["run", mach("coin-flip.mach"), "01", "--test", "prob",
                 "--cutpoint", cutpoint])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err


def test_associativity_honours_the_step_budget(capsys):
    code = main(["experiment", "associativity", "--seed", "1", "--count",
                 "5", "--max-steps", "0"])
    assert code == EXIT_MISMATCH
    assert "0/5 passed" in capsys.readouterr().out


def test_encode_word_and_machine(tmp_path, capsys):
    code = main(["encode", "word", "01", "--alphabet", "0 1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "encoding.json").read_text())
    assert len(payload["edges"]) == 6
    assert (tmp_path / "encoding.dot").read_text().startswith("digraph")
    code = main(["encode", "machine", mach("one-then-zero.mach"),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    dot = (tmp_path / "encoding.dot").read_text()
    assert "style=dashed" in dot  # the head-swap edges


def test_encode_word_refuses_a_multi_character_symbol(capsys):
    assert main(["encode", "word", "ab", "--alphabet", "ab"]) == EXIT_INVALID
    assert "single characters" in capsys.readouterr().err


def test_validate_verb(tmp_path, capsys):
    assert main(["validate", mach("guess-11.mach")]) == EXIT_OK
    assert "ok" in capsys.readouterr().out
    out = tmp_path / "new"
    assert main(["validate", mach("ones.mach"), "--out", str(out)]) == EXIT_OK
    assert out.is_dir() and not any(out.iterdir())  # created, left empty


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", mach("one-then-zero.mach"), "01",
                     "--out", str(out)]) == EXIT_OK
        assert main(["language", mach("guess-11.mach"), "--test", "nl",
                     "--max-len", "3", "--out", str(out)]) == EXIT_OK
    for name in ("trace.jsonl", "run.dot", "language.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_language_prob_on_a_nondet_machine_is_a_validation_error(
        tmp_path, capsys):
    nondet = tmp_path / "nondet.mach"
    nondet.write_text("name: n\nalphabet: 0 1\nheads: 1\nstates: q0\n"
                      "mode: nondet\ntwoway: true\n"
                      "q0, * -> advance goto q0\nq0, * -> accept\n"
                      "q0, 0 -> advance goto q0\nq0, 1 -> advance goto q0\n")
    code = main(["language", str(nondet), "--test", "prob", "--max-len", "2"])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_run_prob_on_a_nondet_machine_is_a_validation_error(tmp_path,
                                                            capsys):
    nondet = tmp_path / "nondet.mach"
    nondet.write_text("name: n\nalphabet: 0 1\nheads: 1\nstates: q0\n"
                      "mode: nondet\ntwoway: true\n"
                      "q0, 0 -> accept\nq0, 0 -> advance goto q0\n"
                      "q0, 1 -> advance goto q0\nq0, * -> accept\n")
    code = main(["run", str(nondet), "0", "--test", "prob"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_compile_honours_the_step_budget(capsys):
    code = main(["experiment", "compile", mach("ones.mach"), "--max-len", "2",
                 "--max-steps", "0"])
    assert code == EXIT_UNDETERMINED
    out = capsys.readouterr().out
    assert "undetermined words: '' '0' '1'" in out
    assert "unchanged" not in out


def test_run_prob_prints_the_oracle_accept_mass(capsys):
    path = mach("coin-flip.mach")
    code = main(["run", path, "01", "--test", "prob", "--one-way"])
    assert code == EXIT_OK
    p = pfa_accept_prob(load_machine(path), "01")
    assert p == Fraction(3, 4)
    assert f"accept mass: {p.numerator}/{p.denominator}" in \
        capsys.readouterr().out


def test_run_prob_out_of_steps_is_undetermined(capsys):
    code = main(["run", mach("coin-flip.mach"), "0", "--test", "prob",
                 "--one-way", "--max-steps", "0"])
    assert code == EXIT_UNDETERMINED
    assert "undetermined" in capsys.readouterr().out


def test_language_out_of_steps_lists_undetermined_words(capsys):
    code = main(["language", mach("ones.mach"), "--max-len", "2",
                 "--max-steps", "0"])
    assert code == EXIT_UNDETERMINED
    assert "undetermined words: '' '0' '1' '00' '01' '10' '11'" in \
        capsys.readouterr().out
