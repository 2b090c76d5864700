"""bench/tracing.py wraps functions in every module that binds them, so a
binding the package drops breaks the traced benchmark run.  Installing and
undoing its patches on the real modules catches that here, and every
name a module imports is read there unless it is listed as tracer-only.
The same ast walk refuses any `global` statement in those modules, any
import of another module's private name that perm does not own, and any
exit 2 in cli that main does not decide.  A fresh interpreter that
imports cli loads neither dataclasses nor inspect nor ast.  TRACED_PINS
holds every counter pinned for the seed-1 traced benchmark runs, and one
test replays those three runs of bench/run.py and compares each; a traced
construct and verify read the certify run's counters on one entry."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def tracer(monkeypatch):
    """bench/tracing.py as a module, and the package's layers by name."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    return tracing, {layer: importlib.import_module(f"ftdesigns.{layer}")
                     for layer in tracing.LAYERS}


def test_tracer_installs_and_undoes_on_every_layer(monkeypatch):
    tracing, mods = tracer(monkeypatch)
    main = mods["cli"].main
    # a report is a named tuple, whose class takes the pinned counters'
    # wrappers
    report_cls = mods["elimination"].CaseReport
    methods = {name: getattr(report_cls, name)
               for name in ("to_text", "to_dict")}
    report = mods["elimination"].sweep("suzuki", 8, 8)[0]
    rec = tracing.Recorder()
    patches = tracing.install(rec, mods)
    try:
        assert mods["cli"].main is not main
        for name, method in methods.items():
            assert getattr(report_cls, name).__wrapped__ is method
            assert getattr(report, name)() == method(report)
        assert rec.reduce()[2] == {"elimination.to_text": 1,
                                   "elimination.to_dict": 1}
    finally:
        patches.undo()
    assert mods["cli"].main is main
    for name, method in methods.items():
        assert getattr(report_cls, name) is method


def test_tracer_counts_a_construct_and_a_verify(monkeypatch, tmp_path,
                                               capsys):
    """The counters TRACED_PINS holds for the certify run, on one entry:
    construct --out and verify each certify the 21 pairs of the Fano
    complement, construct builds its 7 blocks as the orbit of the base
    block, and verify's flag test walks its 28 flags."""
    tracing, mods = tracer(monkeypatch)
    design = tmp_path / "fano.json"
    group = (ROOT / "src" / "ftdesigns" / "data" / "catalog"
             / "line2_fano_complement" / "group.json")
    rec = tracing.Recorder()
    patches = tracing.install(rec, mods)
    try:
        main = mods["cli"].main
        assert main(["construct", "--name", "line2_fano_complement",
                     "--out", str(design)]) == 0
        assert main(["verify", "--group", str(group),
                     "--design", str(design)]) == 0
    finally:
        patches.undo()
    assert capsys.readouterr().out.splitlines()[1] == \
        "(7,7,4,4,2) flag-transitive point-primitive"
    assert [rec.counts[key] for key in ("incidence.pairs_checked",
                                        "constructions.blocks_built",
                                        "incidence.flags")] == [42, 7, 28]


# The counters of `bench/run.py --workload W --seed 1 --seconds 1 --trace 1`,
# exact on every supported Python.  A change that moves one re-derives it
# here, from the run's last stdout line.
TRACED_PINS = {
    "certify": {
        # a chain with another base changes these.  strong_gens counts
        # level 0's generators, which are the input generators;
        # CATALOG_CHAINS in tests/test_perm.py pins the strong generators
        # of the deeper levels
        "perm.build_calls": 20,
        "perm.base_len": 66,
        "perm.strong_gens": 40,
        # an orbit, a pair count or a flag test over other blocks changes
        # the pairs checked, the blocks built and the flags walked
        "incidence.pairs_checked": 49684,
        "constructions.blocks_built": 2580,
        "incidence.flags": 16845,
    },
    "eliminate": {
        # the per-pass counts: a report whose facts or branches lose length
        # changes them
        "elimination.cases": 8477,
        "elimination.branches": 11051,
        "elimination.facts": 32805,
        # eliminate factors nothing
        "arith.factorize_calls": 0,
        "arith.factorize_max_bits": 0,
        # the bytes printed per pass: its windows (q_min 2-8, q_max
        # 4032-4160) are not the q = 2..4096 of the sha256 pins in the tests
        "cli.out_bytes": 10235364.5,
    },
    "feasible": {
        # the divisors it tried, the candidates it found and the bytes it
        # printed
        "arith.divisors_returned": 20901,
        "design.candidates": 1142,
        "cli.out_bytes": 50673,
    },
}


@pytest.mark.parametrize("workload", sorted(TRACED_PINS))
def test_seed_1_traced_run_reads_its_pins(workload):
    done = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    pins = TRACED_PINS[workload]
    assert {name: result["metrics"][name]["value"] for name in pins} == pins


MODULES = sorted((ROOT / "src" / "ftdesigns").glob("*.py")) + [
    ROOT / "tools" / "gen_catalog.py"]

# names imported only so that bench/tracing.py can wrap them there
TRACER_ONLY = {
    "elimination": {"cyclotomic", "divisors", "enumerate_candidates"},
    "constructions": {"verify_2design"},
    "cli": {"is_automorphism_group"},
}


def unused_imports(path: Path) -> set[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used_or_tracer_only():
    for path in MODULES:
        assert unused_imports(path) == TRACER_ONLY.get(path.stem, set()), \
            path.name


def test_only_perm_shares_private_names():
    """A private name crosses a module boundary only where its owner is
    perm, which owns the point codes and how a refusal quotes an item:
    incidence takes four of them and constructions one.  Everything else
    another module needs, such as incidence's block walk, is public."""
    crossings = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            source = node.module.removeprefix("ftdesigns.")
            if node.level == 0 and source == node.module:
                continue  # not a module of the package
            crossings += [(path.stem, source, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert sorted(crossings) == [
        ("constructions", "perm", "_brief"),
        ("incidence", "perm", "_brief"),
        ("incidence", "perm", "_byte_coded"),
        ("incidence", "perm", "_byte_table"),
        ("incidence", "perm", "_images"),
    ]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_ast():
    """Every record is a named tuple, so a CLI process does not pay for
    dataclasses and the inspect, ast and tokenize modules it imports.  Only
    the modules the import adds count: site may load some of them first."""
    probe = ("import sys; before = set(sys.modules); import ftdesigns.cli; "
             "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "ftdesigns.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast"} == set()


def test_no_module_state_is_rebound():
    """No function rebinds a module-level name: a module's answers depend
    on its arguments only, not on what an earlier call left behind."""
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rebound = [node.names for node in ast.walk(tree)
                   if isinstance(node, ast.Global)]
        assert rebound == [], path.name


def test_only_main_refuses_input():
    """cli decides exit 2 in one place: no function but main returns
    EXIT_INPUT, writes to stderr or spells an `error:` line."""
    tree = ast.parse((ROOT / "src" / "ftdesigns" / "cli.py").read_text(
        encoding="utf-8"))
    found = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "EXIT_INPUT"):
                found.append((func.name, "return EXIT_INPUT"))
            elif isinstance(node, ast.Call) and any(
                    keyword.arg == "file" for keyword in node.keywords):
                found.append((func.name, ast.unparse(node.args[0])))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.startswith("error:")):
                found.append((func.name, repr(node.value)))
    assert sorted(found) == [
        ("main", "'error: '"),
        ("main", "f'error: {exc}'"),
        ("main", "return EXIT_INPUT"),
    ]
