import hashlib
import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from conftest import DATA, GOLDEN
from ftdesigns import cli, incidence, perm
from ftdesigns.cli import main
from ftdesigns.constructions import catalog_names, fano_complement
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


@pytest.mark.parametrize("name", catalog_names())
def test_verify_checks_the_block_multiset_once(capsys, monkeypatch, tmp_path,
                                               name):
    design = tmp_path / "design.json"
    assert run(capsys, "construct", "--name", name,
               "--out", str(design))[0] == 0
    calls = []
    check = incidence.is_automorphism_group

    def counted(group, structure):
        calls.append(name)
        return check(group, structure)

    # both bindings: the one verify could call, and the one that
    # is_flag_transitive calls
    monkeypatch.setattr(incidence, "is_automorphism_group", counted)
    monkeypatch.setattr(cli, "is_automorphism_group", counted)
    code, out, _ = run(capsys, "verify",
                       "--group", str(DATA / "catalog" / name / "group.json"),
                       "--design", str(design))
    assert code == 0
    assert out.endswith(" flag-transitive point-primitive\n")
    assert calls == [name]


@pytest.mark.parametrize("generators, degree, want", [
    # (0 2) moves the Fano complement's block [0, 1, 3, 6] off the design
    ([[2, 1, 0, 3, 4, 5, 6]], 7,
     (1, "(7,7,4,4,2) group does not preserve the block multiset\n", "")),
    ([[1, 0, 2, 3, 4]], 5,
     (2, "", "error: group degree 5 != point count 7\n")),
])
def test_verify_refuses_a_group_that_does_not_act(capsys, tmp_path,
                                                  generators, degree, want):
    group = tmp_path / "group.json"
    group.write_text(canonical_json(
        {"name": "g", "degree": degree, "generators": generators}))
    design = tmp_path / "design.json"
    design.write_text(structure_to_json(fano_complement()))
    assert run(capsys, "verify", "--group", str(group),
               "--design", str(design)) == want


BAD_INPUT = {
    "group-list": ["verify", "--group", "{group_list}", "--design", "{design}"],
    "design-v-text": ["verify", "--group", "{group}",
                      "--design", "{design_v_text}"],
    "design-block-text": ["verify", "--group", "{group}",
                          "--design", "{design_block_text}"],
    "design-v-float": ["verify", "--group", "{group}",
                       "--design", "{design_v_float}"],
    # True == 1, and 10.0 used to fail only in range(); neither is a
    # JSON integer, and a negative point count counts nothing
    "design-v-bool": ["verify", "--group", "{group}",
                      "--design", "{design_v_bool}"],
    "design-v-negative": ["verify", "--group", "{group}",
                          "--design", "{design_v_negative}"],
    "design-block-float": ["verify", "--group", "{group}",
                           "--design", "{design_block_float}"],
    "design-no-blocks": ["verify", "--group", "{group}",
                         "--design", "{design_no_blocks}"],
    # a JSON object or string of blocks is refused as a whole, not read
    # key by key or character by character
    "design-blocks-object": ["verify", "--group", "{group}",
                             "--design", "{design_blocks_object}"],
    "design-blocks-text": ["verify", "--group", "{group}",
                           "--design", "{design_blocks_text}"],
    "group-generators-null": ["verify", "--group", "{group_generators_null}",
                              "--design", "{design_pairs4}"],
    # the Fano complement with its block [0, 1, 3, 6] written as
    # [false, true, 3, 6]; True == 1, but a bool names no point
    "design-block-bool": ["verify", "--group", "{line2_group}",
                          "--design", "{design_block_bool}"],
    # Sym(4) with (0 1) written as [true, false, 2, 3]
    "group-image-bool": ["verify", "--group", "{group_image_bool}",
                         "--design", "{design_pairs4}"],
    # a group with no generators on 10**30 points holds no tuple of them,
    # and the 2-(4,2,1) design is sound, so the refusal is the group's
    "group-degree-huge": ["verify", "--group", "{group_degree_huge}",
                          "--design", "{design_pairs4}"],
    "group-degree-float": ["verify", "--group", "{group_degree_float}",
                           "--design", "{design_pairs4}"],
    # Sym(4) claiming its order 24 as 24.0, "24" and, as a trivial group
    # of order 1, true: the claim is read only when it is an integer
    "group-order-float": ["verify", "--group", "{group_order_float}",
                          "--design", "{design_pairs4}"],
    "group-order-text": ["verify", "--group", "{group_order_text}",
                         "--design", "{design_pairs4}"],
    "group-order-bool": ["verify", "--group", "{group_order_bool}",
                         "--design", "{design_pairs4}"],
    "out-missing-dir": ["construct", "--name", "line1_psl25",
                        "--out", "{missing}/x.json"],
    "pg-lines-7": ["construct", "--name", "pg_lines:7"],
    "derived-pg-7": ["construct", "--name", "derived_pg:7"],
    # n is the whole suffix after the first colon, in plain digits
    "pg-lines-junk-field": ["construct", "--name", "pg_lines:3:junk"],
    "derived-pg-empty-field": ["construct", "--name", "derived_pg:3:"],
    "pg-lines-space": ["construct", "--name", "pg_lines: 3"],
    "pg-lines-plus": ["construct", "--name", "pg_lines:+3"],
    "feasible-lambda-0": ["feasible", "--v", "10", "--lambda", "0"],
    "feasible-above-range": ["feasible", "--v", "1000000000000000000"],
    # the walk bounds the divisors it lists, but still factorizes the modulus
    "feasible-r-mod-above-range": ["feasible", "--v", "7", "--r-mod",
                                   "1000000000000000000000000000000"],
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
    # catalog names are the entry directories, never a path through them
    "construct-name-path": ["construct", "--name",
                            "line1_psl25/../line2_fano_complement"],
    "construct-name-parent": ["construct", "--name", ".."],
    # a leading NAME=value sets an environment variable, as in a shell
    "construct-no-expected": ["FTDESIGNS_DATA={no_expected}", "construct",
                              "--name", "line1_psl25"],
    "catalog-list-no-expected": ["FTDESIGNS_DATA={no_expected}",
                                 "catalog-list"],
    "construct-block-text": ["FTDESIGNS_DATA={block_text}", "construct",
                             "--name", "line1_psl25"],
    "catalog-list-block-text": ["FTDESIGNS_DATA={block_text}",
                                "catalog-list"],
    # True == 1 and "10" reads as ten, but neither is a JSON integer
    "catalog-list-row-v-bool": ["FTDESIGNS_DATA={row_v_bool}",
                                "catalog-list"],
    "construct-row-b-text": ["FTDESIGNS_DATA={row_b_text}", "construct",
                             "--name", "line1_psl25"],
    # as a set the base block is the valid [0, 1, 3, 6]
    "construct-out-base-block-repeats": ["FTDESIGNS_DATA={block_repeats}",
                                         "construct", "--name",
                                         "line2_fano_complement",
                                         "--out", "{out}"],
    # the design certifies as (6,10,5,3,2), and the row says b = 11
    "construct-out-row-off-by-one": ["FTDESIGNS_DATA={row_off_by_one}",
                                     "construct", "--name", "line1_psl25",
                                     "--out", "{out}"],
}


def corrupted_catalog(root, entry, base_block=None, drop=None, row=None):
    """A data directory holding one copy of a bundled catalog entry, with its
    base block replaced, keys of its expected.json overwritten by `row`, or
    one of its files deleted."""
    entry_dir = root / "catalog" / entry
    shutil.copytree(DATA / "catalog" / entry, entry_dir)
    if base_block is not None:
        (entry_dir / "base_block.json").write_text(
            json.dumps({"block": base_block}))
    if row is not None:
        path = entry_dir / "expected.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**doc, **row}), encoding="utf-8")
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
        "design_v_bool": {"name": "d", "v": True, "blocks": [[0, 1]]},
        "design_v_negative": {"name": "d", "v": -4, "blocks": [[0, 1]]},
        "design_block_float": {"name": "d", "v": 4, "blocks": [[0, 1.5]]},
        "design_no_blocks": {"name": "d", "v": 4, "blocks": []},
        "design_blocks_object": {"name": "d", "v": 4, "blocks": {"a": 1}},
        "design_blocks_text": {"name": "d", "v": 4, "blocks": "0123"},
        "group_generators_null": {"name": "g", "degree": 4,
                                  "generators": None},
        "design_pairs4": {"name": "pairs4", "v": 4,
                          "blocks": [list(p) for p in combinations(range(4), 2)]},
        "design_block_bool": {"name": "line2_fano_complement", "v": 7,
                              "blocks": [[False, True, 3, 6]] + [
                                  list(b) for b in fano_complement().blocks[1:]]},
        "group_image_bool": {"name": "s4", "degree": 4,
                             "generators": [[1, 2, 3, 0], [True, False, 2, 3]]},
        "group_degree_huge": {"name": "g", "degree": 10**30, "generators": []},
        "group_degree_float": {"name": "s4", "degree": 4.0,
                               "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]},
        "group_order_float": {"name": "s4", "degree": 4,
                              "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
                              "expected_order": 24.0},
        "group_order_text": {"name": "s4", "degree": 4,
                             "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
                             "expected_order": "24"},
        "group_order_bool": {"name": "one", "degree": 4, "generators": [],
                             "expected_order": True},
    }
    paths = {
        "missing": str(tmp_path / "missing"),
        "line2_group": str(DATA / "catalog" / "line2_fano_complement"
                           / "group.json"),
        "no_expected": corrupted_catalog(tmp_path / "no_expected",
                                         "line1_psl25", drop="expected.json"),
        "block_text": corrupted_catalog(tmp_path / "block_text",
                                        "line1_psl25", base_block=[0, "a"]),
        "block_repeats": corrupted_catalog(
            tmp_path / "block_repeats", "line2_fano_complement",
            base_block=[0, 1, 3, 6, 6]),
        "row_v_bool": corrupted_catalog(tmp_path / "row_v_bool",
                                        "line1_psl25", row={"v": True}),
        "row_b_text": corrupted_catalog(tmp_path / "row_b_text",
                                        "line1_psl25", row={"b": "10"}),
        "row_off_by_one": corrupted_catalog(tmp_path / "row_off_by_one",
                                            "line1_psl25", row={"b": 11}),
        "out": str(tmp_path / "out.json"),
    }
    for stem, doc in docs.items():
        paths[stem] = str(tmp_path / f"{stem}.json")
        (tmp_path / f"{stem}.json").write_text(json.dumps(doc))
    argv = [arg.format(**paths) for arg in argv]
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc, message", [
    ({"name": "d", "v": 10.0, "blocks": [[0, 1]]},
     "v 10.0 is not a non-negative integer"),
    ({"name": "d", "v": True, "blocks": [[0, 1]]},
     "v True is not a non-negative integer"),
    ({"name": "s4", "degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
      "expected_order": 24.0},
     "expected_order 24.0 is not an integer"),
    ({"name": "d", "v": 4, "blocks": {"a": 1}},
     "blocks {'a': 1} is not a list"),
    ({"name": "d", "v": 4, "blocks": "0123"},
     "blocks '0123' is not a list"),
    ({"name": "g", "degree": 4, "generators": None},
     "generators None is not a list"),
], ids=["design-v-float", "design-v-bool", "group-order-float",
        "design-blocks-object", "design-blocks-text", "group-generators-null"])
def test_integer_fields_are_refused_by_name(capsys, tmp_path, doc, message):
    pairs4 = {"name": "pairs4", "v": 4,
              "blocks": [list(p) for p in combinations(range(4), 2)]}
    s4 = {"name": "s4", "degree": 4,
          "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]}
    group, design = tmp_path / "group.json", tmp_path / "design.json"
    is_group = "degree" in doc
    group.write_text(json.dumps(doc if is_group else s4))
    design.write_text(json.dumps(pairs4 if is_group else doc))
    code, out, err = run(capsys, "verify", "--group", str(group),
                         "--design", str(design))
    kind = "group" if is_group else "design"
    assert (code, out) == (2, "")
    assert err == f"error: {kind} file {tmp_path / (kind + '.json')}: {message}\n"


def test_catalog_entry_without_socle_exit_2(capsys, monkeypatch, tmp_path):
    root = corrupted_catalog(tmp_path, "line1_psl25")
    path = tmp_path / "catalog" / "line1_psl25" / "expected.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["socle"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("FTDESIGNS_DATA", root)
    assert run(capsys, "catalog-list") == (
        2, "", "error: catalog entry line1_psl25: 'socle'\n")


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


@pytest.mark.parametrize("name", ["line2_fano_complement", "line5_psl211"])
def test_construct_writes_the_golden_block_list(capsys, name):
    # the golden files are these two entries' block lists, from when the
    # catalog stored them whole instead of as a base block
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert run(capsys, "construct", "--name", name) == (0, golden, "")


# sha256 of the stdout of `construct --name N`, computed on commit f4ac490,
# before line2_fano_complement and line5_psl211 were stored as base blocks
# instead of block lists.  No change to the catalog may move these bytes.
# The n = 6 rows were computed on commit 7a3b615, when pg_lines:n and
# derived_pg:n were still built by a walk over point pairs rather than as
# block orbits.
CONSTRUCT_SHA256 = {
    "line1_psl25":
        "0c27a6959ed385b8137e9e709d969437456fec6e0f34230cfdd4e5f64733524c",
    "line2_fano_complement":
        "31848eff1b6a5824a6e68b7f2e5c182d386b85c9094b2d7c99bc7b6c711d976d",
    "line3_psl24":
        "4ba5947a92d1d8e1168847b81047a4d1adfc790d02a93883720c4b444c26bfb4",
    "line4_psl29":
        "5164bce9d9711ac1a8479db9388357420b712a07fe06402cff87891e6b5b01f1",
    "line5_psl211":
        "51d3f4434f7c024e67949e77628c361c2918aab534d5a702a565ab132a0d51f5",
    "line6_psl28":
        "8c501a4a7bee81a652573739c0ef053ff46ab6e1055e77269cb59392be0bfd4c",
    "line7_psu33":
        "42a150de651d049bcd0f5ae7118d7e4e343066495977eb045c135792868afa90",
    "line8_psl28":
        "775ea9b0b278237748bd40583c12ca4fe9d670192b35c3214d5b6b2a05176c4b",
    "line9_psu35":
        "ff82f6b69ea2e815b4a6b3e64274c26d8a620cec679045f8952f3c660f567f1f",
    "line10_hs":
        "74945a431cee1e642c9808dafb93d3dbb1946ea4454fa674ca35079cdfce8ebb",
    "fano_complement":
        "ee7d65236fca4fc32cb39a3a553103a292539276495e9bd7d5aba0d9555fc0f2",
    "pg_lines:3":
        "296762f81006b625707a55c76373c14f034ad83b5c7617b2dd439499f60dde59",
    "pg_lines:4":
        "2e5f8a9aecfd06c691b6d9712f6889b1fc005039d1002a7ac85013b8f2759164",
    "pg_lines:5":
        "e2d08b95d7665854fb41d855a85484df9638117b58b78c5da37277653daddead",
    "derived_pg:3":
        "d12c177879427eebc0465420d5e4a32433667d40fccf381c0041d5caf40bf173",
    "derived_pg:4":
        "6fd912ef72dfbe209c5b53acc7820149bd82db2b315d12bfc0985e893d2fcd0d",
    "derived_pg:5":
        "32d0d26fc8129b484fd31f846d4e067c6fc8ba2756e19e570f07fd0dadf9ae07",
    "pg_lines:6":
        "70d8cde76e820fa4ae95368b5a6e082bdc4465db688fff08972c6b19fa324d66",
    "derived_pg:6":
        "00267d5b2bd259622afe2fa1e100aae8446943ac9eb9d5ae2da603293dbcc2b5",
}


@pytest.mark.parametrize("name", CONSTRUCT_SHA256)
def test_construct_output_is_pinned(capsys, name):
    code, out, err = run(capsys, "construct", "--name", name)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_SHA256[name]


def test_construct_builds_no_chain_for_an_orbit_of_sl_n(capsys, monkeypatch):
    # the designs are orbits under two generators; no stabilizer chain of
    # SL_n(q) is needed to list them
    def refuse(*args, **kwargs):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(perm.PermutationGroup, "__init__", refuse)
    for name in ("fano_complement", "pg_lines:4", "derived_pg:4"):
        code, _, err = run(capsys, "construct", "--name", name)
        assert (code, err) == (0, "")


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


# sha256 of the stdout of `eliminate --family g2 --q-min 2 --q-max 4096`,
# text and --json, the benchmark's window, computed on commit dd02eba.
# Beside ELIMINATE_SHA256, these pin the lambda*v >= r^2 tail of every g2
# case up to q = 4096.
ELIMINATE_G2_4096_SHA256 = {
    False: "37dcfc58b9b66c51d0f7c64e62cc106a48c46607ce3f6f89f2c31b81151901b5",
    True: "abf0fd6b0fcf1e051f5de3c3c78c308e03cdc3db365fa2f11513f00967c5ba30",
}


@pytest.mark.parametrize("as_json", ELIMINATE_G2_4096_SHA256,
                         ids=["text", "json"])
def test_eliminate_g2_benchmark_window_is_pinned(capsys, as_json):
    argv = ["eliminate", "--family", "g2", "--q-min", "2", "--q-max", "4096"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ELIMINATE_G2_4096_SHA256[as_json]


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


def test_feasible_v_above_range_with_small_modulus(capsys):
    # lambda*v = 2*10**18 + 2 is past the factorization range, but it only
    # bounds the walk: no r | 12 has r^2 > lambda*v, so there is no row
    code, out, err = run(capsys, "feasible", "--v", "1000000000000000001",
                         "--r-mod", "12")
    assert (code, out, err) == (0, "no feasible parameter sets\n", "")


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
