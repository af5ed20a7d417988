"""Acceptance suite: one check per shipped guarantee, each printing a
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines; every tolerance is exact equality of rationals."""

import ast
import os
import re
import time
from fractions import Fraction

import pytest

from graphvm.cli import EXIT_OK, main
from graphvm.encodings import EncodedMachine, encode_machine
from graphvm.equivalence import (compile_graphing, is_compilable,
                                 separation_experiment, treeing_cost,
                                 unit_shift_witnesses)
from graphvm.execution import (T_CONL, T_DET, T_NL, Verdict, accept_mass,
                               evaluate_test, language, t_prob)
from graphvm.graphing import cost
from graphvm.oracle import (oracle_language, pfa_accept_prob, words_up_to)
from graphvm.realizers import Microcosm, Realizer, standard_generators
from graphvm.sampling import property_holds, random_triple
from graphvm.encodings import run_word
from harness import MACHINES, shipped

ROOT = os.path.join(os.path.dirname(__file__), "..")

SECOND_NS = 10 ** 9


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def machine(name: str) -> EncodedMachine:
    return encode_machine(shipped(name))


def test_criterion_1_golden_figures(tmp_path):
    expectations = [
        ("ones.mach", "0", Verdict.REJECT),
        ("ones.mach", "11", Verdict.ACCEPT),
        ("ones.mach", "01", Verdict.ACCEPT),
        ("one-then-zero.mach", "0", Verdict.REJECT),
        ("one-then-zero.mach", "11", Verdict.REJECT),
        ("one-then-zero.mach", "01", Verdict.ACCEPT),
    ]
    ok = True
    for fname, word, want in expectations:
        started = time.monotonic_ns()
        m = machine(fname)
        result, regions = run_word(m, word)
        verdict = evaluate_test(result, T_DET, regions)
        elapsed = time.monotonic_ns() - started
        out = tmp_path / f"{fname}-{word or 'empty'}"
        code = main(["run", os.path.join(MACHINES, fname), word,
                     "--out", str(out)])
        dot = (out / "run.dot").read_text()
        bold_accepting = "penwidth" in dot
        ok = ok and verdict is want and elapsed < SECOND_NS and code == EXIT_OK
        ok = ok and result.diagnostics.clean()
        ok = ok and bold_accepting == (want is Verdict.ACCEPT)
    report(1, ok, "golden machine verdicts and bold accepting paths")


def test_criterion_2_oracle_equivalence_deterministic():
    cases = [  # (file, run words one-way)
        ("ones.mach", False),
        ("one-then-zero.mach", False),
        ("last-is-one.mach", False),
        ("ends-with-zero.mach", True),
        ("even-ones.mach", True),
        ("one-then-zero.mach", True),  # retreat-free, one-way variant
    ]
    started = time.monotonic_ns()
    ok = True
    for fname, one_way in cases:
        m = machine(fname)
        got = language(m, T_DET, 8, one_way=one_way)
        want = oracle_language(m.spec, 8, "accept")
        ok = ok and got.accepted == want and not got.undetermined
    elapsed = time.monotonic_ns() - started
    ok = ok and elapsed < 120 * SECOND_NS
    report(2, ok, f"deterministic oracle equivalence, words <= 8, "
           f"{len(cases)} machines, {elapsed // 10**6} ms")


def test_criterion_3_oracle_equivalence_nondeterministic():
    ok = True
    for fname in ("guess-11.mach", "branchy.mach", "skip-or-reject.mach"):
        m = machine(fname)
        got_nl = language(m, T_NL, 6)
        got_conl = language(m, T_CONL, 6)
        ok = ok and got_nl.accepted == oracle_language(m.spec, 6, "accept")
        ok = ok and got_conl.accepted == oracle_language(m.spec, 6, "co")
        ok = ok and not got_nl.undetermined and not got_conl.undetermined
    report(3, ok, "nl and conl languages match branch oracles, words <= 6")


def test_criterion_4_oracle_equivalence_probabilistic():
    ok = True
    cut = t_prob(Fraction(1, 2))
    for fname in ("coin-flip.mach", "biased-first.mach", "det-as-prob.mach"):
        m = machine(fname)
        one_way = not m.spec.two_way
        for word in words_up_to(m.spec.alphabet, 5):
            result, regions = run_word(m, word, one_way=one_way)
            mass = accept_mass(result, regions)
            want = pfa_accept_prob(m.spec, word)
            ok = ok and result.diagnostics.clean() and mass == want
            verdict = evaluate_test(result, cut, regions)
            want_verdict = Verdict.ACCEPT if want > Fraction(1, 2) \
                else Verdict.REJECT
            ok = ok and verdict is want_verdict
    report(4, ok, "accept mass equals the absorption probability exactly, "
           "words <= 5, and cutpoint verdicts agree")


def test_criterion_5_closure_properties():
    failures = [(mode, seed) for mode in ("det", "nondet", "prob")
                for seed in range(200)
                if not property_holds("closure", seed, mode, 10000)]
    report(5, not failures,
           f"class closure under plugging, 200 seeded pairs per class"
           + (f"; failures {failures[:4]}" if failures else ""))


def test_criterion_6_associativity():
    failures = []
    for seed in range(100):
        # the outer carriers never meet, as associativity requires
        f, _, h = random_triple(seed, "det")
        if not (f.carrier.intersect(h.carrier).is_empty()
                and property_holds("associativity", seed, "det", 10000)):
            failures.append(seed)
    report(6, not failures, "plug associativity on 100 seeded triples"
           + (f"; failures {failures[:4]}" if failures else ""))


def test_criterion_7_treeing_cost():
    ok = True
    for depth in range(0, 21):
        partial, total = treeing_cost(2, depth)
        series = sum((Fraction(1, 2 ** (d + 1)) for d in range(1, depth + 1)),
                     Fraction(0))
        ok = ok and partial == series and total == Fraction(1, 2)
    ok = ok and treeing_cost(3, 0)[1] == Fraction(5, 6)
    ok = ok and treeing_cost(4, 0)[1] == Fraction(23, 24)
    for i in (3, 4):
        last = Fraction(0)
        for depth in range(1, 9):
            partial, total = treeing_cost(i, depth)
            ok = ok and last <= partial < total
            last = partial
    report(7, ok, "treeing partial sums match the closed forms; totals "
           "1/2, 5/6, 23/24; partials monotone below the total")


def test_criterion_8_compilation_preserves_language_and_cost():
    m = machine("ones.mach")
    witnesses = unit_shift_witnesses(m.graphing)
    compiled = compile_graphing(m.graphing, witnesses, Microcosm.mi(1))
    recompiled = EncodedMachine(m.spec, m.layout, compiled)
    before = language(m, T_DET, 8)
    after = language(recompiled, T_DET, 8)
    ok = (before.accepted == after.accepted and not after.undetermined
          and cost(compiled) == cost(m.graphing))
    # pure source-splitting witness: cost invariance
    from graphvm.equivalence import CompilationWitness, WitnessPiece
    from graphvm.space import MeasurableSet, RationalBox, interval
    halves = tuple(
        WitnessPiece(MeasurableSet.of(RationalBox.make(0, {1: piece})),
                     (m.graphing.edges[0].realizer,))
        for piece in (interval(0, "1/2"), interval("1/2", 1)))
    split = compile_graphing(
        m.graphing,
        {0: CompilationWitness(m.graphing.edges[0].realizer, halves)},
        m.graphing.microcosm)
    ok = ok and cost(split) == cost(m.graphing)
    report(8, ok, "unit-shift compilation leaves the language (<= 8) and "
           "cost unchanged; source splitting keeps cost")


def test_criterion_9_separation_consistency():
    ok = True
    for pair in ((2, 3), (2, 4)):
        rep = separation_experiment(*pair, max_word_len=6, max_parts=8)
        ok = ok and rep["totals_distinct"]
        ok = ok and rep["swap_noncompilable_within_bounds"]
    direct = is_compilable(Realizer.head_swap(3), standard_generators(2),
                           max_word_len=6, max_parts=8)
    ok = ok and direct is None
    report(9, ok, "microcosm pairs (2,3) and (2,4): distinct treeing totals "
           "and bounded non-compilability of the extra head swap")


FLOAT_TOKEN = re.compile(r"\d+\.\d+([eE][-+]?\d+)?|\bNaN\b|\bInfinity\b")


def _float_constants(path: str, name_heuristic: bool = True) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            offenders.append(f"{path}:{node.lineno} literal {node.value!r}")
        if not name_heuristic:
            continue
        if isinstance(node, ast.Name) and node.id in ("float", "isclose"):
            offenders.append(f"{path}:{node.lineno} uses {node.id}")
        if isinstance(node, ast.Attribute) and node.attr in ("approx",
                                                             "isclose"):
            offenders.append(f"{path}:{node.lineno} uses .{node.attr}")
    return offenders


def test_criterion_10_exactness_sweep(tmp_path):
    offenders = []
    here = os.path.abspath(__file__)
    for base in ("src", "tests"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, base)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                # the scanner itself names the float type in its
                # isinstance check; literals stay banned even here
                heuristic = os.path.abspath(path) != here
                offenders.extend(_float_constants(path, heuristic))
    # generate a sweep of reports and grep them for non-p/q numerics
    commands = [
        ["run", os.path.join(MACHINES, "one-then-zero.mach"), "01",
         "--out", str(tmp_path)],
        ["language", os.path.join(MACHINES, "coin-flip.mach"), "--test",
         "prob", "--max-len", "3", "--one-way", "--out", str(tmp_path)],
        ["experiment", "cost", "--heads", "3", "--depth", "4",
         "--out", str(tmp_path)],
        ["experiment", "separation", "2", "3", "--out", str(tmp_path)],
        ["encode", "word", "0110", "--alphabet", "0 1",
         "--out", str(tmp_path)],
    ]
    for cmd in commands:
        assert main(cmd) == EXIT_OK
    for name in sorted(os.listdir(tmp_path)):
        text = (tmp_path / name).read_text()
        for hit in FLOAT_TOKEN.finditer(text):
            offenders.append(f"{name}: {hit.group(0)!r}")
    report(10, not offenders,
           "no float literals or comparisons in the code, no non-p/q "
           "numerics in generated reports"
           + (f"; offenders {offenders[:4]}" if offenders else ""))


@pytest.fixture(scope="session")
def package_modules():
    """``(file name, tree)`` of each module of ``src/graphvm``, in name
    order, each parsed once for the static checks below."""
    package = os.path.join(ROOT, "src", "graphvm")
    modules = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                modules.append((name, ast.parse(fh.read(), filename=name)))
    return modules


def test_the_package_imports_only_the_standard_library(package_modules):
    # pyproject.toml declares ``dependencies = []``
    import sys
    outside = []
    for name, tree in package_modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside.extend(f"{name}:{node.lineno} {module}"
                           for module in modules
                           if module.split(".")[0] not in
                           sys.stdlib_module_names | {"graphvm"})
    assert not outside, outside


def test_every_package_import_is_read(package_modules):
    """Each module-level import of a ``src/graphvm`` module is read in
    that module; a name read only in an annotation counts.  No linter
    ships with the package, so this is the check for stale imports.
    ``__init__.py`` imports to re-export, and is left out."""
    unread = []
    for name, tree in package_modules:
        if name == "__init__.py":
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name.split(".")[0],
                              node.lineno) for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound.update((alias.asname or alias.name, node.lineno)
                             for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [f"{name}:{line} {alias}"
                   for alias, line in bound.items() if alias not in read]
    assert not unread, unread


def test_every_package_dataclass_has_a_docstring(package_modules):
    """Each ``@dataclass`` or ``@value_type`` class of a ``src/graphvm``
    module has a docstring: for a class without one, ``dataclass()`` makes
    one from ``inspect.signature`` at import, on every CLI start."""
    bare = []
    for name, tree in package_modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = {getattr(d.func if isinstance(d, ast.Call) else d,
                                  "id", None) for d in node.decorator_list}
            if (decorators & {"dataclass", "value_type"}
                    and ast.get_docstring(node) is None):
                bare.append(f"{name}:{node.lineno} {node.name}")
    assert not bare, bare


def _outside_functions(tree):
    """The nodes of a module outside every function body: a function's
    decorators are outside it, its body is not."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))


def _functools_cache(node):
    """``"lru_cache"`` or ``"cache"`` when ``node`` names that decorator
    of ``functools``, bare or as an attribute of the module."""
    if isinstance(node, ast.Attribute) and getattr(
            node.value, "id", None) == "functools":
        name = node.attr
    else:
        name = getattr(node, "id", None)
    return name if name in ("lru_cache", "cache") else None


def test_every_module_level_lru_cache_is_bounded(package_modules):
    """Each ``lru_cache`` of a ``src/graphvm`` module that is not made
    inside a function, and so lives as long as the process, names an
    integer ``maxsize``: a literal, or a module constant bound to one.
    A bare ``@lru_cache`` and ``functools.cache`` count as unnamed.  The
    per-call tables that ``language`` makes in its body are dropped when
    it returns, and may be unbounded."""
    unbounded = []
    for name, tree in package_modules:
        ints = {target.id: node.value.value for node in tree.body
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int
                for target in node.targets if isinstance(target, ast.Name)}
        called = set()  # the decorators named by a call, read with it
        for node in _outside_functions(tree):
            size = None
            if isinstance(node, ast.Call) and _functools_cache(node.func):
                called.add(id(node.func))
                sizes = [k.value for k in node.keywords if k.arg == "maxsize"]
                size = (sizes + node.args)[0] if sizes or node.args else None
                if _functools_cache(node.func) == "cache":
                    size = None
                elif isinstance(size, ast.Name):
                    size = ints.get(size.id)
                elif isinstance(size, ast.Constant):
                    size = size.value
            elif not _functools_cache(node) or id(node) in called:
                continue
            if not (type(size) is int and size > 0):
                unbounded.append(f"{name}:{node.lineno}")
    assert not unbounded, unbounded

def test_no_test_module_imports_another():
    """What several test modules share lives in the support modules
    beside them (``harness``, ``eagerplug``, ``gridmodel``), so that no
    test module runs another's tests or setup by importing it."""
    tests = os.path.dirname(os.path.abspath(__file__))
    modules = {name[:-3] for name in os.listdir(tests)
               if name.startswith("test_") and name.endswith(".py")}
    found = []
    for module in sorted(modules):
        with open(os.path.join(tests, module + ".py")) as f:
            nodes = list(ast.walk(ast.parse(f.read())))
        imported = [alias.name for node in nodes if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [f"{node.module}.{alias.name}" for node in nodes
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names]
        found += [f"{module}: {name}" for name in imported
                  if modules & set(name.split("."))]
    assert len(modules) > 10 and not found, found
