"""bench/tracing.py wraps functions in every module that binds them, so a
binding the package drops breaks the traced benchmark run.  Installing and
undoing its patches on the real modules catches that here, and every
name a module imports is read there unless it is listed as tracer-only.
The same ast walk refuses any `global` statement in those modules, and
any exit 2 in cli that main does not decide."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_undoes_on_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    mods = {layer: importlib.import_module(f"ftdesigns.{layer}")
            for layer in tracing.LAYERS}
    main = mods["cli"].main
    # a report is a named tuple, whose class takes the CI pins' wrappers
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


ROOT = Path(__file__).resolve().parents[1]
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
    EXIT_INPUT, writes to stderr or spells an `error:` line, apart from
    catalog-list's refusal of a data directory that holds no entry."""
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
        ("_cmd_catalog_list", "'no catalog data found'"),
        ("_cmd_catalog_list", "return EXIT_INPUT"),
        ("main", "'error: '"),
        ("main", "f'error: {exc}'"),
        ("main", "return EXIT_INPUT"),
    ]
