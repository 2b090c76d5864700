import hashlib
import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from conftest import DATA
from ftdesigns.cli import main
from ftdesigns.elimination import FAMILIES, sweep
from ftdesigns.incidence import IncidenceStructure, structure_to_json
from ftdesigns.perm import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_fano(capsys, tmp_path):
    design = tmp_path / "fano_complement.json"
    code, out, _ = run(capsys, "construct", "--name", "line2_fano_complement",
                       "--out", str(design))
    assert code == 0
    code, out, _ = run(capsys, "verify",
                       "--group", str(DATA / "catalog" / "line2_fano_complement" / "group.json"),
                       "--design", str(design))
    assert code == 0
    assert out.strip() == "(7,7,4,4,2) flag-transitive point-primitive"


def test_verify_trivial_group_fails(capsys, tmp_path):
    group = tmp_path / "trivial.json"
    group.write_text(canonical_json(
        {"name": "trivial", "degree": 4, "generators": []}))
    pairs = IncidenceStructure.from_blocks(4, list(combinations(range(4), 2)))
    design = tmp_path / "pairs4.json"
    design.write_text(structure_to_json(pairs, name="pairs4"))
    code, out, _ = run(capsys, "verify", "--group", str(group),
                       "--design", str(design))
    assert code == 1
    assert "NOT flag-transitive" in out


def test_verify_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "verify", "--group", str(bad),
                       "--design", str(bad))
    assert code == 2
    assert "bad.json" in err


def test_verify_hs(capsys, tmp_path):
    design = tmp_path / "hs.json"
    assert run(capsys, "construct", "--name", "line10_hs",
               "--out", str(design))[0] == 0
    code, out, _ = run(capsys, "verify",
                       "--group", str(DATA / "catalog" / "line10_hs" / "group.json"),
                       "--design", str(design))
    assert code == 0
    assert out.strip() == "(176,1100,50,8,2) flag-transitive point-primitive"


BAD_INPUT = {
    "group-list": ["verify", "--group", "{group_list}", "--design", "{design}"],
    "design-v-text": ["verify", "--group", "{group}",
                      "--design", "{design_v_text}"],
    "design-block-text": ["verify", "--group", "{group}",
                          "--design", "{design_block_text}"],
    "design-v-float": ["verify", "--group", "{group}",
                       "--design", "{design_v_float}"],
    "design-block-float": ["verify", "--group", "{group}",
                           "--design", "{design_block_float}"],
    "design-no-blocks": ["verify", "--group", "{group}",
                         "--design", "{design_no_blocks}"],
    "out-missing-dir": ["construct", "--name", "line1_psl25",
                        "--out", "{missing}/x.json"],
    "pg-lines-7": ["construct", "--name", "pg_lines:7"],
    "derived-pg-7": ["construct", "--name", "derived_pg:7"],
    "feasible-lambda-0": ["feasible", "--v", "10", "--lambda", "0"],
    "feasible-above-range": ["feasible", "--v", "1000000000000000000"],
    "eliminate-q-above-range": ["eliminate", "--family", "e6",
                                "--q-min", "1000000000000000001",
                                "--q-max", "1000000000000000100"],
    # 2(q^3 - eps)/gcd(2, q-1) passes the factorization range above q = 10**6
    "eliminate-g2-above-divisor-range": ["eliminate", "--family", "g2",
                                         "--q-min", "1000001",
                                         "--q-max", "1000100"],
    "eliminate-g2-above-divisor-range-json": ["eliminate", "--family", "g2",
                                              "--q-min", "1000001",
                                              "--q-max", "1000100", "--json"],
    # a leading NAME=value sets an environment variable, as in a shell
    "construct-no-expected": ["FTDESIGNS_DATA={no_expected}", "construct",
                              "--name", "line1_psl25"],
    "catalog-list-no-expected": ["FTDESIGNS_DATA={no_expected}",
                                 "catalog-list"],
    "construct-block-text": ["FTDESIGNS_DATA={block_text}", "construct",
                             "--name", "line1_psl25"],
    "catalog-list-block-text": ["FTDESIGNS_DATA={block_text}",
                                "catalog-list"],
}


def corrupted_catalog(root, entry, base_block=None, drop=None):
    """A data directory holding one copy of a bundled catalog entry, with its
    base block replaced or one of its files deleted."""
    entry_dir = root / "catalog" / entry
    shutil.copytree(DATA / "catalog" / entry, entry_dir)
    if base_block is not None:
        (entry_dir / "base_block.json").write_text(
            json.dumps({"block": base_block}))
    if drop is not None:
        (entry_dir / drop).unlink()
    return str(root)


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exit_2(capsys, monkeypatch, tmp_path, argv):
    docs = {
        "group_list": [[1, 2, 3, 0]],
        "group": {"name": "c4", "degree": 4, "generators": [[1, 2, 3, 0]]},
        "design": {"name": "d", "v": 4, "blocks": [[0, 1], [2, 3]]},
        "design_v_text": {"name": "d", "v": "4", "blocks": [[0, 1]]},
        "design_block_text": {"name": "d", "v": 4, "blocks": [[0, "a"]]},
        "design_v_float": {"name": "d", "v": 4.0, "blocks": [[0, 1]]},
        "design_block_float": {"name": "d", "v": 4, "blocks": [[0, 1.5]]},
        "design_no_blocks": {"name": "d", "v": 4, "blocks": []},
    }
    paths = {
        "missing": str(tmp_path / "missing"),
        "no_expected": corrupted_catalog(tmp_path / "no_expected",
                                         "line1_psl25", drop="expected.json"),
        "block_text": corrupted_catalog(tmp_path / "block_text",
                                        "line1_psl25", base_block=[0, "a"]),
    }
    for stem, doc in docs.items():
        paths[stem] = str(tmp_path / f"{stem}.json")
        (tmp_path / f"{stem}.json").write_text(json.dumps(doc))
    argv = [arg.format(**paths) for arg in argv]
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_construct_out_of_a_block_orbit_that_is_no_design(capsys, monkeypatch,
                                                         tmp_path):
    # the orbit of [0, 1] under the group of line8_psl28 covers some pairs
    # once and others never; construct --out says so as verify does
    monkeypatch.setenv("FTDESIGNS_DATA", corrupted_catalog(
        tmp_path / "data", "line8_psl28", base_block=[0, 1]))
    design = tmp_path / "design.json"
    code, out, err = run(capsys, "construct", "--name", "line8_psl28",
                         "--out", str(design))
    assert (code, err) == (1, "")
    assert out == "not a 2-design: non-constant lambda (witness (0, 15))\n"
    group = tmp_path / "data" / "catalog" / "line8_psl28" / "group.json"
    assert run(capsys, "verify", "--group", str(group),
               "--design", str(design)) == (1, out, "")


@pytest.mark.parametrize("block, witness",
                         [([0, 1], 2), ([10**29, 10**29 + 1], 10**29)],
                         ids=["design-v-huge", "point-0-in-no-block"])
def test_verify_huge_v_not_a_design(capsys, tmp_path, block, witness):
    # Points in no block make r non-uniform; verify answers without
    # counting all v points.
    group = tmp_path / "group.json"
    group.write_text(json.dumps(
        {"name": "c4", "degree": 4, "generators": [[1, 2, 3, 0]]}))
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"name": "d", "v": 10**30, "blocks": [block]}))
    code, out, err = run(capsys, "verify", "--group", str(group),
                         "--design", str(design))
    assert (code, err) == (1, "")
    assert out == f"not a 2-design: non-uniform r (witness {witness})\n"


def test_construct_unknown_name(capsys):
    code, _, err = run(capsys, "construct", "--name", "nope")
    assert code == 2


def test_construct_to_stdout_roundtrips(capsys):
    code, out, _ = run(capsys, "construct", "--name", "pg_lines:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["v"] == 13 and len(doc["blocks"]) == 13


def test_eliminate_suzuki_range(capsys):
    code, out, _ = run(capsys, "eliminate", "--family", "suzuki",
                       "--q-min", "8", "--q-max", "128")
    assert code == 0
    assert "summary: 3 cases, 3 eliminated, 0 flagged, 0 candidates" in out


def test_eliminate_ree_flagged_exit_zero(capsys):
    code, out, _ = run(capsys, "eliminate", "--family", "ree",
                       "--q-min", "27", "--q-max", "27")
    assert code == 0
    assert "1 flagged" in out


def test_eliminate_g2_matches_case_table(capsys):
    code, out, _ = run(capsys, "eliminate", "--family", "g2",
                       "--q-min", "3", "--q-max", "16")
    assert code == 0
    # prime powers in [3,16]: 3,4,5,7,8,9,11,13,16 -> 9 values, both signs
    assert "summary: 18 cases, 9 eliminated, 9 flagged, 0 candidates" in out


def test_eliminate_json_output(capsys):
    code, out, _ = run(capsys, "eliminate", "--family", "e6",
                       "--q-min", "2", "--q-max", "3", "--json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 4
    assert {d["verdict"] for d in docs} == {"eliminated"}


@pytest.mark.parametrize("family", FAMILIES)
def test_eliminate_json_is_json_dumps_of_the_sweep(capsys, family):
    code, out, err = run(capsys, "eliminate", "--family", family,
                         "--q-min", "2", "--q-max", "300", "--json")
    assert (code, err) == (0, "")
    reports = sweep(family, 2, 300)
    assert out == json.dumps([r.to_dict() for r in reports], indent=2,
                             sort_keys=True) + "\n"


def test_eliminate_json_empty_window(capsys):
    # 9 = 3^2 is no Suzuki q
    assert run(capsys, "eliminate", "--family", "suzuki",
               "--q-min", "9", "--q-max", "9", "--json") == (0, "[]\n", "")


def test_eliminate_near_the_top_of_the_factorization_range():
    # Every q here is near 10**18; trial division up to sqrt(q) would not
    # finish, so run it in its own process under a time limit.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "ftdesigns.cli", "eliminate", "--family", "e6",
         "--q-min", "999999999999999000", "--q-max", "1000000000000000000"],
        env=env, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1].startswith("summary: ")
    assert done.stdout.splitlines()[-1].endswith(" 0 candidates")


# sha256 of the stdout of `eliminate --family F --q-min 2 --q-max 1024`,
# as text and with --json, computed on commit dd02eba, before Fact and
# Branch became named tuples, prime_powers stopped factoring and descriptors
# got a JSON template.  A change to any of them must leave these bytes alone.
ELIMINATE_SHA256 = {
    ("suzuki", False):
        "ac39190e700f8b918d498394ee9ce166585c5144d2a8abb34a942eca97308eaa",
    ("suzuki", True):
        "5e51ada4ad72bf71ab84ec19308ec66c1df0c3a224c4bb2d71edac2eb4ecaccc",
    ("ree", False):
        "6bd3e4b594bfb6f0b03fdf01f04d25a8087eedf77141960dbfb5d6f8cd3c44d6",
    ("ree", True):
        "6a0dd9cdf95369a6c7b9f91597bb3a1a6b45270e6b9d579028a79cb9addb1a7b",
    ("g2", False):
        "27fda20c8cacab278218ef7e722eeb2e4d4cee90124c1aaac23c6779b06c2afb",
    ("g2", True):
        "f10bdfe90478d8bc9ae431cf8d3581d9f7dd1eede5a3529a7398fb548608a9b3",
    ("e6", False):
        "b786da68889880430d357f209cb412f6a9f632d2b81ddc3357e03d0479c17fcd",
    ("e6", True):
        "c96419cd3636ae926c18e652b61a8c37a44ca611ed63fc84f37ee86760ab0f90",
    ("parabolic", False):
        "7299479e870082f5eb2a99f27660e2d8b5cd3c926e9434f3c4e3201dafe9ddb0",
    ("parabolic", True):
        "fb6e2a8fd95ff43fa3fed51de64d6227bfe55f6ec85db76bfdd244c8025f25b9",
}


@pytest.mark.parametrize("family, as_json", ELIMINATE_SHA256,
                         ids=[f"{f}-{'json' if j else 'text'}"
                              for f, j in ELIMINATE_SHA256])
def test_eliminate_output_is_pinned(capsys, family, as_json):
    argv = ["eliminate", "--family", family, "--q-min", "2", "--q-max", "1024"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ELIMINATE_SHA256[family, as_json]


def test_eliminate_unknown_family(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "eliminate", "--family", "m24")


def test_feasible_default_modulus(capsys):
    code, out, _ = run(capsys, "feasible", "--v", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v\tb\tr\tk\tlambda"
    assert "7\t7\t4\t4\t2" in lines


def test_feasible_includes_biplane(capsys):
    code, out, _ = run(capsys, "feasible", "--v", "11")
    assert code == 0
    assert "11\t11\t5\t5\t2" in out


def test_feasible_explicit_modulus(capsys):
    code, out, _ = run(capsys, "feasible", "--v", "65", "--lambda", "2",
                       "--r-mod", "128")
    assert code == 0
    assert "65\t416\t32\t5\t2" in out


def test_feasible_empty(capsys):
    code, out, _ = run(capsys, "feasible", "--v", "65", "--lambda", "2",
                       "--r-mod", "3")
    assert code == 0
    assert out.strip() == "no feasible parameter sets"


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert any(line.startswith("line10_hs\t(176,1100,50,8,2)") for line in lines)


def test_byte_identical_reruns(capsys):
    first = run(capsys, "eliminate", "--family", "g2",
                "--q-min", "3", "--q-max", "8", "--json")
    second = run(capsys, "eliminate", "--family", "g2",
                 "--q-min", "3", "--q-max", "8", "--json")
    assert first == second
