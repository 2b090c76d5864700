import doctest
import json
import re
from pathlib import Path

from conftest import DATA
from ftdesigns.constructions import catalog_names

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour():
    results = doctest.testfile(str(README), module_relative=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_readme_catalog_table_is_the_bundled_data():
    """The rows of README's catalog table name the bundled entries, each
    with the (v,b,r,k,lambda) row of its expected.json."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| name | parameters | acting group |\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (\([\d,]+\)) \|",
                      table.split("\n\n", 1)[0], re.MULTILINE)
    assert sorted(name for name, _ in rows) == catalog_names()
    for name, params in rows:
        doc = json.loads((DATA / "catalog" / name / "expected.json")
                         .read_text(encoding="utf-8"))
        row = ",".join(str(doc[key]) for key in ("v", "b", "r", "k", "lambda"))
        assert params == f"({row})", name
