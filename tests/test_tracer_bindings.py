"""bench/tracing.py wraps functions in every module that binds them, so a
binding the package drops breaks the traced benchmark run.  Installing and
undoing its patches on the real modules catches that here."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_undoes_on_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    mods = {layer: importlib.import_module(f"ftdesigns.{layer}")
            for layer in tracing.LAYERS}
    main = mods["cli"].main
    patches = tracing.install(tracing.Recorder(), mods)
    try:
        assert mods["cli"].main is not main
    finally:
        patches.undo()
    assert mods["cli"].main is main
