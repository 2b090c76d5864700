from pathlib import Path

import pytest

from ftdesigns import incidence
from ftdesigns.perm import PermutationGroup, load_group

DATA = Path(__file__).resolve().parent.parent / "src" / "ftdesigns" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fixture_group(name: str) -> PermutationGroup:
    return load_group(DATA / "fixtures" / f"{name}.json")


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
