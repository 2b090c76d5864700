import functools
import importlib.util
import random
from pathlib import Path

import pytest

from ftdesigns import incidence
from ftdesigns.perm import PermutationGroup, load_group

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "ftdesigns" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
TOOL = ROOT / "tools" / "gen_catalog.py"

try:
    from hypothesis import settings
except ImportError:  # each property test skips itself
    pass
else:
    # every run of a tree draws the same examples, with or without a local
    # .hypothesis database, so a failure found once shows again on a rerun
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")


def tool_module():
    spec = importlib.util.spec_from_file_location("gen_catalog", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def fixture_group(name: str) -> PermutationGroup:
    """One of the five groups that no catalog entry uses, built with the
    catalog tool's constructors and cut to two generators as the tool cuts
    a catalog group.  Each is built once and shared by every caller."""
    tool = tool_module()
    build = {
        "psl2_4": lambda: PermutationGroup(5, tool.psl2_gens(tool.GF4)),
        "psl2_8": lambda: PermutationGroup(9, tool.psl2_gens(tool.GF8)),
        "psl2_9": lambda: PermutationGroup(10, tool.psl2_gens(tool.GF9)),
        "psu3_3": lambda: tool.unitary_group(tool.GF9, False, 6048),
        "psu3_5": lambda: tool.unitary_group(tool.GF25, False, 126000),
    }[name]
    return tool.two_generators(build(), random.Random(name))


def catalog_group(name: str) -> PermutationGroup:
    return load_group(DATA / "catalog" / name / "group.json")


def padded(images, degree):
    """The image tuple with fixed points added up to degree."""
    return tuple(images) + tuple(range(len(images), degree))


@pytest.fixture
def forbid_new_chains(monkeypatch):
    """A call that makes building any PermutationGroup from then on fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a second chain was built")

    return lambda: monkeypatch.setattr(PermutationGroup, "__init__", refuse)


@pytest.fixture
def forbid_tuple_blocks(monkeypatch):
    """A call that makes every block walk on tuples, the walk of designs
    above 256 points, fail from then on."""
    def refuse(*args, **kwargs):
        raise AssertionError("blocks were walked as tuples")

    return lambda: monkeypatch.setattr(incidence, "_block_images", refuse)


@pytest.fixture(scope="session")
def psl2_7() -> PermutationGroup:
    return catalog_group("line2_fano_complement")


@pytest.fixture(scope="session")
def psu3_3() -> PermutationGroup:
    return fixture_group("psu3_3")
