import json
import os

from graphvm.cli import (EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE,
                         EXIT_UNDETERMINED, main)

MACHINES = os.path.join(os.path.dirname(__file__), "..", "machines")


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


def test_language_agreement(tmp_path, capsys):
    code = main(["language", mach("even-ones.mach"), "--max-len", "4",
                 "--one-way", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "languages agree" in out
    payload = json.loads((tmp_path / "language.json").read_text())
    assert payload["graphing"] == payload["oracle"]


def test_language_prob_table(tmp_path):
    code = main(["language", mach("biased-first.mach"), "--test", "prob",
                 "--max-len", "2", "--one-way", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "language.json").read_text())
    assert payload["probabilities"]["1"] == "2/3"
    assert payload["probabilities"]["0"] == "1/3"


def test_experiment_cost(tmp_path, capsys):
    code = main(["experiment", "cost", "--heads", "2", "--depth", "4",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "experiment.json").read_text())
    assert payload["partial"] == "15/32"
    assert payload["total"] == "1/2"


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


def test_experiment_closure_and_associativity(tmp_path):
    code = main(["experiment", "closure", "--mode", "det", "--seed", "1",
                 "--count", "25", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "experiment.json").read_text())
    assert payload["passes"] == 25
    code = main(["experiment", "associativity", "--seed", "3", "--count", "10"])
    assert code == EXIT_OK


def test_zero_denominator_cutpoint_is_a_validation_error(capsys):
    code = main(["run", mach("coin-flip.mach"), "01", "--test", "prob",
                 "--cutpoint", "1/0"])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


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


def test_validate_verb(capsys):
    assert main(["validate", mach("guess-11.mach")]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


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
