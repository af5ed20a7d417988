"""Golden output bytes of the README's CLI commands.

Each command runs with ``--out`` and its stdout and every file it
writes are compared by SHA-256 against digests recorded when the
command list was added, so any output byte that changes between
commits fails here.  ``test_outputs_are_deterministic`` in
``test_cli.py`` only compares two runs of the same code.  The closure
and associativity experiments run with smaller ``--count`` values than
the README's to keep this file fast.  The README's "Programmatic use"
block runs here too, so a public name it imports cannot go unnoticed.
"""

import hashlib
import os

import pytest

from graphvm.cli import EXIT_OK, main
from harness import MACHINES

STDOUT = "<stdout>"
ROOT = os.path.join(os.path.dirname(__file__), "..")

GOLDEN = [
    (["run", "ones.mach", "11"], {
        "run.dot": "0d6f2482402402cc9704ada37515ede62596bc8d4e738aaaac65f78dc99fbe15",
        "trace.jsonl": "5be5d5670fc524bdbb68cf1c049ce9d84b40379e24f57d84173e4d09b8b32e5d",
        STDOUT: "d6c1afecd67a9bb0fa784b39593e38e0f215b359f7d1f38ecefcc8406d2ff0e9",
    }),
    (["run", "one-then-zero.mach", "01", "--test", "det"], {
        "run.dot": "48ace9186ca560ce418b9ee0aa3ac0d26613007bcc7e7683f87d50554dfe131a",
        "trace.jsonl": "557aa11f52a1017e04d6700f9ee9167f8e0313325dffe7fb8d60aa91b6845796",
        STDOUT: "c93f4fdb5ac77b725d9ef5a59a8d47e2872edb77e033c72d01498666d26fc81f",
    }),
    (["language", "guess-11.mach", "--test", "nl", "--max-len", "5"], {
        "language.json": "584b0ec7d7a38d90b0445866845e12a259cd27d6d4e3c7dd6f3c37b91ecc9fed",
        STDOUT: "3d0d8445d8bbbb77c36c602a7702c008414e91c09d7b8290953ce66e771a4ded",
    }),
    (["language", "coin-flip.mach", "--test", "prob", "--one-way",
      "--max-len", "4"], {
        "language.json": "664d36514af8ccfdd3ab60fdb3028027b0eaeb7ed881d77f5eb1b8e52c14ea79",
        STDOUT: "2462b002e575ac9bee019495e78dbddd37b957026e74ab4a6f46c09aad6fbb8c",
    }),
    (["encode", "word", "0110", "--alphabet", "0 1"], {
        "encoding.dot": "ac1e7df613d9bce9dd27cffabf57e6fb9d56aaa7cef0e33e45a0bf01f2fb9561",
        "encoding.json": "3a7676304e760f99ab294b5a1df0272e9dc2aec38193657603d2cc802a50ace9",
        STDOUT: "f6cd30df79a738c60464f6113292d584c6f2a6c048f705675e84fa5437fba3d9",
    }),
    (["encode", "machine", "one-then-zero.mach"], {
        "encoding.dot": "72a368b79c6e40aa82a72de3f2e60f004bed625f99de21b6b3ef23777fd1eecb",
        "encoding.json": "82ec27a8d9b51165f81ad57ddc58bf7cc2925de7526e21646aa752b1eccf9bc9",
        STDOUT: "536d8a8f50c7b6bfe362e406989e407bcec43b2fa47918e14555680ba09fa937",
    }),
    (["validate", "ones.mach"], {
        STDOUT: "8cc3110a3b8cea29b9017cb1c5f6cd87391368bd5eecf4c0d34c71ea003fcb45",
    }),
    (["experiment", "cost", "--heads", "3", "--depth", "6"], {
        "experiment.json": "4f2268b5b5de6bc5daac042ff716de2917a32ee22f8eb511bd8b9365884e9277",
        STDOUT: "9efbd6ee92a503b5f2b158b5f8c427a996eceae514612f0fc7afb05f5c66543d",
    }),
    (["experiment", "separation", "2", "3"], {
        "experiment.json": "0e923c575a30a65dddd1a5a6230b6085b0f06a78684149892968998c763f9661",
        STDOUT: "d74a5405ec4b46bf29c2a4ddb75c87b40420c9a0c4381403dfd09ceb955a3ae7",
    }),
    (["experiment", "compile", "ones.mach", "--max-len", "6"], {
        "experiment.json": "d0a875ed6691c5ec46dfc96ce0ec46b958794c1a5337b299a4a91d407b11c7d4",
        STDOUT: "8da8f9572e541c5d4b200128d4eb371880f506c9d776fde7f84c5e5d907e9d1b",
    }),
    (["experiment", "closure", "--mode", "prob", "--seed", "1",
      "--count", "20"], {
        "experiment.json": "43f8a168921f7353c8b27b54fb709669c1c4eb09b21399ae483091775fdbd652",
        STDOUT: "99f974fe8e5d0f5d6b430a9b3cef4a3209678513c3bb223f0cbb4ccedaab4626",
    }),
    (["experiment", "associativity", "--seed", "1", "--count", "10"], {
        "experiment.json": "36bbb8aff33025421a0f638356eb3571131accfd4bdab1374fc474a8ae020b88",
        STDOUT: "b3ea5d8df59434dd71e48cf67cad2ea6ea3be24818e285b6354f1244ff8d50df",
    }),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, digests", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_readme_command_writes_golden_bytes(argv, digests, tmp_path, capsys):
    argv = [os.path.join(MACHINES, a) if a.endswith(".mach") else a
            for a in argv]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    got = {path.name: _sha256(path.read_bytes())
           for path in tmp_path.iterdir()}
    got[STDOUT] = _sha256(capsys.readouterr().out.encode())
    assert got == digests


def test_readme_programmatic_use_prints_what_its_comments_state(
        monkeypatch, capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Programmatic use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)  # the block loads machines/ones.mach
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Verdict.ACCEPT"
    assert lines[2:] == ["(Fraction(53975, 65536), Fraction(5, 6))", "True"]
