"""The bundled data is exactly what tools/gen_catalog.py writes."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import DATA, TOOL, tool_module
from ftdesigns.constructions import catalog_names
from ftdesigns.perm import PermutationGroup


def tree(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_each_entry_regenerates_the_bundled_data(tmp_path):
    # one full run, and one fresh process per entry, so no entry's output
    # can depend on another entry having run first.  Python seeds the hash
    # of str per process, so the two are made under two pinned seeds: a set
    # of strings written unsorted then fails on every run, not now and then
    def regenerate(out, seed, *args):
        env = dict(os.environ, FTDESIGNS_DATA=str(tmp_path / out),
                   PYTHONHASHSEED=str(seed))
        subprocess.run([sys.executable, str(TOOL), *args],
                       env=env, check=True, capture_output=True)

    regenerate("full", 0)
    for name in tool_module().GENERATORS:
        regenerate("each", 1, "--only", name)
    bundled = tree(DATA)
    for out in ("full", "each"):
        written = tree(tmp_path / out)
        assert sorted(written) == sorted(bundled), out
        assert [f for f in bundled if written[f] != bundled[f]] == [], out


def test_the_package_data_is_the_catalog_alone():
    assert sorted(tree(DATA)) == sorted(
        f"catalog/{name}/{file}" for name in catalog_names()
        for file in ("base_block.json", "expected.json", "group.json"))


def test_the_data_do_not_depend_on_the_chain(tmp_path, monkeypatch):
    """With every chain forced onto the reversed base, and so onto other
    transversals, line6 comes out byte for byte: the tool's random elements
    are words in the generators."""
    tool = tool_module()
    build = PermutationGroup.__init__
    forced = []

    def reversed_base(self, degree, generators, base_hint=()):
        if not base_hint:
            base_hint = range(degree - 1, -1, -1)
            forced.append(degree)
        build(self, degree, generators, base_hint)

    monkeypatch.setattr(PermutationGroup, "__init__", reversed_base)
    monkeypatch.setenv("FTDESIGNS_DATA", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [str(TOOL), "--only", "line6_psl28"])
    tool.main()
    written, bundled = tree(tmp_path), tree(DATA)
    assert sorted(written) == ["catalog/line6_psl28/base_block.json",
                               "catalog/line6_psl28/expected.json",
                               "catalog/line6_psl28/group.json"]
    assert [f for f in written if written[f] != bundled[f]] == []
    assert {9, 28} <= set(forced)


def test_an_unknown_entry_is_refused_and_nothing_is_written(tmp_path):
    env = dict(os.environ, FTDESIGNS_DATA=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(TOOL), "--only", "line1_psl25,nosuch"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.endswith(
        "error: unknown entries nosuch; known: line1_psl25, "
        "line2_fano_complement, line3_psl24, line4_psl29, line5_psl211, "
        "line6_psl28, line7_psu33, line8_psl28, line9_psu35, line10_hs\n")
    assert list(tmp_path.iterdir()) == []
