import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour():
    results = doctest.testfile(str(README), module_relative=False)
    assert results.attempted > 0
    assert results.failed == 0
