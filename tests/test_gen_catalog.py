"""The bundled data is exactly what tools/gen_catalog.py writes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from conftest import DATA

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_catalog.py"


def entry_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("gen_catalog", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.GENERATORS)


def tree(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_each_entry_regenerates_the_bundled_data(tmp_path):
    # one fresh process per entry, so no entry's output can depend on
    # another entry having run first
    env = dict(os.environ, FTDESIGNS_DATA=str(tmp_path))
    for name in entry_names():
        subprocess.run([sys.executable, str(TOOL), "--only", name],
                       env=env, check=True, capture_output=True)
    written, bundled = tree(tmp_path), tree(DATA)
    assert sorted(written) == sorted(bundled)
    assert [f for f in bundled if written[f] != bundled[f]] == []
