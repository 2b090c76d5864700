import argparse
import errno
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest

from conftest import DATA, GOLDEN, padded
from ftdesigns import cli, incidence, perm
from ftdesigns.cli import main
from ftdesigns.constructions import (catalog, catalog_names, orbit_design,
                                     sl_generators)
from ftdesigns.design import enumerate_candidates
from ftdesigns.elimination import FAMILIES, WINDOW_LIMIT, sweep
from ftdesigns.incidence import (IncidenceStructure, load_structure,
                                 structure_to_json)
from ftdesigns.perm import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment of a child `python -m ftdesigns.cli`, which imports
    the package from this checkout's src."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


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
               "--out", str(design)) == (
        0, f"wrote line10_hs (176,1100,50,8,2) to {design}\n", "")
    code, out, _ = run(capsys, "verify",
                       "--group", str(DATA / "catalog" / "line10_hs" / "group.json"),
                       "--design", str(design))
    assert code == 0
    assert out.strip() == "(176,1100,50,8,2) flag-transitive point-primitive"


def test_catalog_blocks_are_never_walked_as_tuples(capsys, tmp_path,
                                                   forbid_tuple_blocks):
    """Every catalog design has at most 256 points, so construct and verify
    walk its blocks as bytes; the tuple walk is refused, and it is what a
    design on 257 points takes."""
    forbid_tuple_blocks()
    for name in catalog_names():
        design = tmp_path / f"{name}.json"
        code, out, _ = run(capsys, "construct", "--name", name,
                           "--out", str(design))
        assert code == 0, out
        code, out, _ = run(capsys, "verify", "--group",
                           str(DATA / "catalog" / name / "group.json"),
                           "--design", str(design))
        assert (code, out.split()[1:]) == (
            0, ["flag-transitive", "point-primitive"]), out
    with pytest.raises(AssertionError, match="walked as tuples"):
        orbit_design(257, [perm.Permutation(padded(g.images, 257))
                           for g in sl_generators(2, 3)[1]], (3, 4, 5, 6))


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


@pytest.mark.parametrize("generators, preserves", [
    ([[1, 2, 3, 4, 5, 6, 0]], False), ([[2, 1, 0, 3, 4, 5, 6]], False),
    ([[1, 0, 2, 3, 4]], False), (None, True)],
    ids=["7-cycle", "transposition", "wrong-degree", "catalog-group"])
def test_verify_passes_the_group_only_once_it_preserves_the_design(
        capsys, monkeypatch, tmp_path, generators, preserves):
    passed = []

    def spy(design, symmetry=()):
        passed.append([g.images for g in symmetry])
        return incidence.verify_2design(design, symmetry)

    monkeypatch.setattr(cli, "verify_2design", spy)
    group = tmp_path / "group.json"
    if generators is None:
        generators = [list(g.images) for g in
                      catalog("line2_fano_complement").group.generators]
    group.write_text(canonical_json({"name": "g", "degree": len(generators[0]),
                                     "generators": generators}))
    design = tmp_path / "design.json"
    design.write_text(structure_to_json(
        catalog("line2_fano_complement").design, "design"))
    run(capsys, "verify", "--group", str(group), "--design", str(design))
    assert passed == [[tuple(g) for g in generators] if preserves else []]


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
    design.write_text(structure_to_json(
        catalog("line2_fano_complement").design, "design"))
    assert run(capsys, "verify", "--group", str(group),
               "--design", str(design)) == want


# verify runs the group's automorphism check before the design check, and
# still reports the design's verdict first.  Each expected (exit code,
# stdout, stderr) below was computed with the code of 012e334, where the
# design check ran first, before verify changed.
HEXAGON = [[i, (i + 1) % 6] for i in range(6)]
PAIRS4 = [list(p) for p in combinations(range(4), 2)]


@pytest.mark.parametrize("v, blocks, degree, generators, want", [
    # not a 2-design, and (0 2) moves the block [0, 1] off it
    (4, [[0, 1], [2, 3]], 4, [[2, 1, 0, 3]],
     (1, "not a 2-design: non-constant lambda (witness (0, 2))\n", "")),
    # not a 2-design, under a group of the wrong degree
    (4, [[0, 1], [2, 3]], 5, [[1, 0, 2, 3, 4]],
     (1, "not a 2-design: non-constant lambda (witness (0, 2))\n", "")),
    # the 6-cycle is transitive and preserves the hexagon, whose row 0
    # meets only 1 and 5
    (6, HEXAGON, 6, [[1, 2, 3, 4, 5, 0]],
     (1, "not a 2-design: non-constant lambda (witness (0, 2))\n", "")),
    # a 2-design, and (0 1) preserves it without being transitive
    (4, PAIRS4, 4, [[1, 0, 2, 3]],
     (1, "(4,6,3,2,1) NOT flag-transitive NOT point-primitive "
         "(intransitive)\n", "")),
], ids=["no-design-not-preserved", "no-design-wrong-degree", "hexagon",
        "design-intransitive"])
def test_verify_reports_the_design_before_the_group(capsys, tmp_path, v,
                                                    blocks, degree,
                                                    generators, want):
    group = tmp_path / "group.json"
    group.write_text(canonical_json(
        {"name": "g", "degree": degree, "generators": generators}))
    design = tmp_path / "design.json"
    design.write_text(canonical_json({"name": "d", "v": v, "blocks": blocks}))
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
    # a document without a key that it must have
    "group-no-degree": ["verify", "--group", "{group_no_degree}",
                        "--design", "{design_pairs4}"],
    "design-no-v": ["verify", "--group", "{group}",
                    "--design", "{design_no_v}"],
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
    "pg-lines-2": ["construct", "--name", "pg_lines:2"],
    "derived-pg-0": ["construct", "--name", "derived_pg:0"],
    # n is the whole suffix after the first colon, in plain digits
    "pg-lines-junk-field": ["construct", "--name", "pg_lines:3:junk"],
    "derived-pg-empty-field": ["construct", "--name", "derived_pg:3:"],
    "pg-lines-space": ["construct", "--name", "pg_lines: 3"],
    "pg-lines-plus": ["construct", "--name", "pg_lines:+3"],
    "feasible-lambda-0": ["feasible", "--v", "10", "--lambda", "0"],
    "feasible-r-mod-0": ["feasible", "--v", "7", "--r-mod", "0"],
    "feasible-above-range": ["feasible", "--v", "1000000000000000000"],
    # only gcd(modulus, lambda(v-1)) is factorized, but a modulus above the
    # factorization range is refused as if it were
    "feasible-r-mod-above-range": ["feasible", "--v", "7", "--r-mod",
                                   "1000000000000000000000000000000"],
    "eliminate-q-above-range": ["eliminate", "--family", "e6",
                                "--q-min", "1000000000000000001",
                                "--q-max", "1000000000000000100"],
    # these families test every integer of the window for a prime power,
    # so a window of more than WINDOW_LIMIT integers is refused up front
    "eliminate-g2-wide-window": ["eliminate", "--family", "g2",
                                 "--q-min", "2",
                                 "--q-max", "1000000000000000000"],
    "eliminate-e6-wide-window": ["eliminate", "--family", "e6",
                                 "--q-min", "2",
                                 "--q-max", "1000000000000000000"],
    "eliminate-parabolic-wide-window": ["eliminate", "--family", "parabolic",
                                        "--q-min", "2",
                                        "--q-max", "1000000000000000000"],
    # catalog names are the entry directories, never a path through them
    "construct-name-path": ["construct", "--name",
                            "line1_psl25/../line2_fano_complement"],
    "construct-name-parent": ["construct", "--name", ".."],
    "construct-name-dot": ["construct", "--name", "."],
    # the 2-(7,4,2) has one source, the catalog row line2_fano_complement
    "construct-name-fano-complement": ["construct", "--name",
                                       "fano_complement"],
    # a leading NAME=value sets an environment variable, as in a shell
    "construct-no-expected": ["FTDESIGNS_DATA={no_expected}", "construct",
                              "--name", "line1_psl25"],
    "catalog-list-no-expected": ["FTDESIGNS_DATA={no_expected}",
                                 "catalog-list"],
    # a data directory that holds no catalog entry at all
    "catalog-list-empty": ["FTDESIGNS_DATA={empty}", "catalog-list"],
    "construct-block-text": ["FTDESIGNS_DATA={block_text}", "construct",
                             "--name", "line1_psl25"],
    "catalog-list-block-text": ["FTDESIGNS_DATA={block_text}",
                                "catalog-list"],
    # True == 1 and "10" reads as ten, but neither is a JSON integer
    "catalog-list-row-v-bool": ["FTDESIGNS_DATA={row_v_bool}",
                                "catalog-list"],
    "construct-row-v-bool": ["FTDESIGNS_DATA={row_v_bool}", "construct",
                             "--name", "line1_psl25"],
    "catalog-list-row-b-text": ["FTDESIGNS_DATA={row_b_text}",
                                "catalog-list"],
    "construct-row-b-text": ["FTDESIGNS_DATA={row_b_text}", "construct",
                             "--name", "line1_psl25"],
    # the group names are printed as they stand, so each must be a string
    "catalog-list-socle-object": ["FTDESIGNS_DATA={socle_object}",
                                  "catalog-list"],
    "construct-socle-object": ["FTDESIGNS_DATA={socle_object}", "construct",
                               "--name", "line1_psl25"],
    "catalog-list-aut-null": ["FTDESIGNS_DATA={aut_null}", "catalog-list"],
    "construct-aut-null": ["FTDESIGNS_DATA={aut_null}", "construct",
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
    # a data file must hold a JSON object, and a base block a list
    "group-document-array": ["verify", "--group", "{group_array}",
                             "--design", "{design}"],
    "group-document-number": ["verify", "--group", "{group_number}",
                              "--design", "{design}"],
    "design-document-array": ["verify", "--group", "{group}",
                              "--design", "{design_array}"],
    "design-document-number": ["verify", "--group", "{group}",
                               "--design", "{design_number}"],
    "construct-expected-array": ["FTDESIGNS_DATA={expected_array}",
                                 "construct", "--name", "line1_psl25"],
    "catalog-list-expected-array": ["FTDESIGNS_DATA={expected_array}",
                                    "catalog-list"],
    "catalog-list-group-array": ["FTDESIGNS_DATA={group_array_entry}",
                                 "catalog-list"],
    "construct-base-block-number": ["FTDESIGNS_DATA={block_number}",
                                    "construct", "--name", "line1_psl25"],
    "construct-base-block-string": ["FTDESIGNS_DATA={block_string}",
                                    "construct", "--name", "line1_psl25"],
    "construct-base-block-null": ["FTDESIGNS_DATA={block_null}",
                                  "construct", "--name", "line1_psl25"],
    # shapes inside a document: a block or generator that is no list, and
    # a point that is a list, among integers or among lists
    "design-block-number": ["verify", "--group", "{group}",
                            "--design", "{design_block_number}"],
    "design-point-list": ["verify", "--group", "{group}",
                          "--design", "{design_point_list}"],
    "design-points-lists": ["verify", "--group", "{group}",
                            "--design", "{design_points_lists}"],
    # a string or a JSON object iterates, by character or by key, but it
    # is no list of points
    "design-block-string": ["verify", "--group", "{group}",
                            "--design", "{design_block_string}"],
    "design-block-object": ["verify", "--group", "{group}",
                            "--design", "{design_block_object}"],
    # a bad block of 100,002 points is quoted cut short, in one line of
    # well under 300 bytes besides the path, not 688,959 bytes
    "design-block-long": ["verify", "--group", "{group}",
                          "--design", "{design_block_long}"],
    # a name is written back as it stands, so each must be a string
    "design-name-number": ["verify", "--group", "{group}",
                           "--design", "{design_name_number}"],
    "group-name-list": ["verify", "--group", "{group_name_list}",
                        "--design", "{design}"],
    "group-generator-number": ["verify", "--group", "{group_generator_number}",
                               "--design", "{design}"],
    # lists nested 100,000 deep, deeper than the JSON parser recurses
    "group-nested-deep": ["verify", "--group", "{group_deep}",
                          "--design", "{design}"],
    "design-nested-deep": ["verify", "--group", "{group}",
                           "--design", "{design_deep}"],
    "construct-base-block-nested-deep": ["FTDESIGNS_DATA={block_deep}",
                                         "construct", "--name", "line1_psl25"],
    "catalog-list-base-block-nested-deep": ["FTDESIGNS_DATA={block_deep}",
                                            "catalog-list"],
}

# the whole of stderr for the rows whose message is pinned, formatted as
# their argv is
BAD_INPUT_ERRORS = {
    "construct-name-fano-complement": (
        "error: unknown catalog entry 'fano_complement' (available: "
        "line10_hs, line1_psl25, line2_fano_complement, line3_psl24, "
        "line4_psl29, line5_psl211, line6_psl28, line7_psu33, line8_psl28, "
        "line9_psu35)\n"),
    "group-list": "error: group file {group_list}: the document is an "
                  "array, not a JSON object\n",
    "group-document-array": "error: group file {group_array}: the document "
                            "is an array, not a JSON object\n",
    "group-document-number": "error: group file {group_number}: the "
                             "document is a number, not a JSON object\n",
    "design-document-array": "error: design file {design_array}: the "
                             "document is an array, not a JSON object\n",
    "design-document-number": "error: design file {design_number}: the "
                              "document is a number, not a JSON object\n",
    "construct-expected-array": "error: expected.json: the document is an "
                                "array, not a JSON object\n",
    "catalog-list-expected-array": "error: catalog entry line1_psl25: "
                                   "expected.json: the document is an "
                                   "array, not a JSON object\n",
    "catalog-list-group-array": "error: catalog entry line1_psl25: "
                                "group.json: the document is an array, not "
                                "a JSON object\n",
    # a field of a data file that holds the wrong kind of value is refused
    # in one wording, whichever file and key it is
    "catalog-list-row-v-bool": "error: catalog entry line1_psl25: "
                               "expected.json: v True is not an integer\n",
    "construct-row-v-bool": "error: expected.json: v True is not an "
                            "integer\n",
    "catalog-list-row-b-text": "error: catalog entry line1_psl25: "
                               "expected.json: b '10' is not an integer\n",
    "construct-row-b-text": "error: expected.json: b '10' is not an "
                            "integer\n",
    "catalog-list-socle-object": "error: catalog entry line1_psl25: "
                                 "expected.json: socle {{'a': [1, 2]}} is "
                                 "not a string\n",
    "construct-socle-object": "error: expected.json: socle {{'a': [1, 2]}} "
                              "is not a string\n",
    "catalog-list-aut-null": "error: catalog entry line1_psl25: "
                             "expected.json: automorphism_group None is "
                             "not a string\n",
    "construct-aut-null": "error: expected.json: automorphism_group None "
                          "is not a string\n",
    "construct-base-block-number": "error: base_block.json: block 5 is not "
                                   "a list\n",
    "construct-base-block-string": "error: base_block.json: block '012' is "
                                   "not a list\n",
    "construct-base-block-null": "error: base_block.json: block None is "
                                 "not a list\n",
    "construct-block-text": "error: base_block.json: block [0, 'a'] has a "
                            "non-integer point\n",
    "catalog-list-block-text": "error: catalog entry line1_psl25: "
                               "base_block.json: block [0, 'a'] has a "
                               "non-integer point\n",
    "design-block-number": "error: design file {design_block_number}: "
                           "block 5 is not a list\n",
    "design-point-list": "error: design file {design_point_list}: block "
                         "[0, [1]] has a non-integer point\n",
    "design-points-lists": "error: design file {design_points_lists}: "
                           "block [[0], [1]] has a non-integer point\n",
    "design-block-string": "error: design file {design_block_string}: "
                           "block '01' is not a list\n",
    "design-block-object": "error: design file {design_block_object}: "
                           "block {{'0': 1}} is not a list\n",
    "design-block-long": "error: design file {design_block_long}: block "
                         "[0, 'x', 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "
                         "13, 14, 15, 16, 17, ...] has a non-integer point\n",
    "design-name-number": "error: design file {design_name_number}: name 5 "
                          "is not a string\n",
    "group-name-list": "error: group file {group_name_list}: name ['c4'] is "
                       "not a string\n",
    "group-generator-number": "error: group file {group_generator_number}: "
                              "generator 5 is not a list\n",
    "group-nested-deep": "error: group file {group_deep}: the document is "
                         "nested too deeply\n",
    "design-nested-deep": "error: design file {design_deep}: the document is "
                          "nested too deeply\n",
    "construct-base-block-nested-deep": "error: base_block.json: the document "
                                        "is nested too deeply\n",
    "catalog-list-base-block-nested-deep": "error: catalog entry "
                                           "line1_psl25: base_block.json: the "
                                           "document is nested too deeply\n",
    "feasible-r-mod-0": "error: --r-mod must be at least 1, got 0\n",
    # a too-small n is refused naming the input, as a too-large one is
    "pg-lines-2": "error: pg_lines:2: n must be at least 3\n",
    "derived-pg-0": "error: derived_pg:0: n must be at least 3\n",
    # feasible and eliminate refuse the factorization range in one wording
    "feasible-above-range": "error: 1999999999999999998 exceeds the "
                            "supported factorization range (at most "
                            "1000000000000000000)\n",
    "feasible-r-mod-above-range": "error: 1000000000000000000000000000000 "
                                  "exceeds the supported factorization "
                                  "range (at most 1000000000000000000)\n",
    "eliminate-q-above-range": "error: 1000000000000000100 exceeds the "
                               "supported factorization range (at most "
                               "1000000000000000000)\n",
    "catalog-list-empty": "error: no catalog data found\n",
}

# a JSON array nested deeper than json.loads can recurse
DEEP = "[" * 100_000 + "]" * 100_000


def corrupted_catalog(root, entry, base_block=None, drop=None, row=None,
                      whole=None):
    """A data directory holding one copy of a bundled catalog entry, with its
    base block replaced, keys of its expected.json overwritten by `row`, one
    of its files deleted, or one rewritten as `whole`: a (filename,
    document) pair."""
    entry_dir = root / "catalog" / entry
    shutil.copytree(DATA / "catalog" / entry, entry_dir)
    if whole is not None:
        filename, doc = whole
        (entry_dir / filename).write_text(json.dumps(doc))
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


@pytest.mark.parametrize("argv, error", [
    (argv, BAD_INPUT_ERRORS.get(key)) for key, argv in BAD_INPUT.items()],
    ids=BAD_INPUT.keys())
def test_bad_input_exit_2(capsys, monkeypatch, tmp_path, argv, error):
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
        "group_no_degree": {"name": "g", "generators": [[1, 0, 2, 3]]},
        "design_no_v": {"name": "d", "blocks": [[0, 1]]},
        "design_pairs4": {"name": "pairs4", "v": 4,
                          "blocks": [list(p) for p in combinations(range(4), 2)]},
        "design_block_bool": {"name": "line2_fano_complement", "v": 7,
                              "blocks": [[False, True, 3, 6]] + [
                                  list(b) for b in catalog(
                                      "line2_fano_complement").design.blocks[1:]]},
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
        "group_array": [1, 2],
        "group_number": 5,
        "design_array": [1],
        "design_number": 5,
        "design_block_number": {"name": "d", "v": 4, "blocks": [5, [2, 3]]},
        "design_point_list": {"name": "d", "v": 4,
                              "blocks": [[0, [1]], [2, 3]]},
        "design_points_lists": {"name": "d", "v": 4,
                                "blocks": [[[0], [1]], [2, 3]]},
        "design_block_string": {"name": "d", "v": 4, "blocks": ["01", [2, 3]]},
        "design_block_object": {"name": "d", "v": 4,
                                "blocks": [{"0": 1}, [2, 3]]},
        "design_block_long": {"name": "d", "v": 4,
                              "blocks": [[0, "x", *range(100_000)], [2, 3]]},
        "group_generator_number": {"name": "g", "degree": 4,
                                   "generators": [5]},
        "design_name_number": {"name": 5, "v": 4, "blocks": [[0, 1], [2, 3]]},
        "group_name_list": {"name": ["c4"], "degree": 4,
                            "generators": [[1, 2, 3, 0]]},
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
        "socle_object": corrupted_catalog(tmp_path / "socle_object",
                                          "line1_psl25",
                                          row={"socle": {"a": [1, 2]}}),
        "aut_null": corrupted_catalog(tmp_path / "aut_null", "line1_psl25",
                                      row={"automorphism_group": None}),
        "expected_array": corrupted_catalog(
            tmp_path / "expected_array", "line1_psl25",
            whole=("expected.json", [1])),
        "group_array_entry": corrupted_catalog(
            tmp_path / "group_array_entry", "line1_psl25",
            whole=("group.json", [1])),
        "block_number": corrupted_catalog(tmp_path / "block_number",
                                          "line1_psl25", base_block=5),
        "block_string": corrupted_catalog(tmp_path / "block_string",
                                          "line1_psl25", base_block="012"),
        "block_null": corrupted_catalog(
            tmp_path / "block_null", "line1_psl25",
            whole=("base_block.json", {"block": None})),
        "block_deep": corrupted_catalog(tmp_path / "block_deep",
                                        "line1_psl25"),
        "out": str(tmp_path / "out.json"),
        "empty": str(tmp_path / "empty"),
    }
    (tmp_path / "empty").mkdir()
    (tmp_path / "block_deep" / "catalog" / "line1_psl25"
     / "base_block.json").write_text(f'{{"block": {DEEP}}}')
    # json.dumps cannot write what json.loads cannot read
    texts = {"group_deep": f'{{"degree": 4, "generators": {DEEP}}}',
             "design_deep": f'{{"v": 4, "blocks": {DEEP}}}'}
    texts.update((stem, json.dumps(doc)) for stem, doc in docs.items())
    for stem, text in texts.items():
        paths[stem] = str(tmp_path / f"{stem}.json")
        (tmp_path / f"{stem}.json").write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if error is not None:
        assert err == error.format(**paths)


@pytest.mark.parametrize("doc, message", [
    ({"name": "d", "v": 10.0, "blocks": [[0, 1]]},
     "v 10.0 is not a non-negative integer"),
    ({"name": "d", "v": True, "blocks": [[0, 1]]},
     "v True is not a non-negative integer"),
    ({"name": "s4", "degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
      "expected_order": 24.0},
     "expected_order 24.0 is not an integer"),
    # an optional key, once present, must hold its kind: a null claim is
    # refused, not read as no claim
    ({"name": "s4", "degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
      "expected_order": None},
     "expected_order None is not an integer"),
    ({"name": "d", "v": 4, "blocks": {"a": 1}},
     "blocks {'a': 1} is not a list"),
    ({"name": "d", "v": 4, "blocks": "0123"},
     "blocks '0123' is not a list"),
    ({"name": "g", "degree": 4, "generators": None},
     "generators None is not a list"),
    ({"name": "g", "generators": [[1, 0, 2, 3]]}, "missing key 'degree'"),
    ({"name": "d", "blocks": [[0, 1]]}, "missing key 'v'"),
], ids=["design-v-float", "design-v-bool", "group-order-float",
        "group-order-null", "design-blocks-object", "design-blocks-text",
        "group-generators-null", "group-no-degree", "design-no-v"])
def test_integer_fields_are_refused_by_name(capsys, tmp_path, doc, message):
    pairs4 = {"name": "pairs4", "v": 4,
              "blocks": [list(p) for p in combinations(range(4), 2)]}
    s4 = {"name": "s4", "degree": 4,
          "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]}
    group, design = tmp_path / "group.json", tmp_path / "design.json"
    is_group = "generators" in doc
    group.write_text(json.dumps(doc if is_group else s4))
    design.write_text(json.dumps(pairs4 if is_group else doc))
    code, out, err = run(capsys, "verify", "--group", str(group),
                         "--design", str(design))
    kind = "group" if is_group else "design"
    assert (code, out) == (2, "")
    assert err == f"error: {kind} file {tmp_path / (kind + '.json')}: {message}\n"


def test_unknown_catalog_entry_message_is_unquoted(capsys):
    code, out, err = run(capsys, "construct", "--name", ".")
    assert (code, out) == (2, "")
    assert err == (f"error: unknown catalog entry '.' (available: "
                   f"{', '.join(catalog_names())})\n")


def drop_key(root, entry, filename, key):
    """A copy of a bundled catalog entry under root whose file lacks key."""
    data = corrupted_catalog(root, entry)
    path = root / "catalog" / entry / filename
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc[key]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return data


def test_catalog_entry_without_socle_exit_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("FTDESIGNS_DATA", drop_key(
        tmp_path, "line1_psl25", "expected.json", "socle"))
    assert run(capsys, "catalog-list") == (
        2, "", "error: catalog entry line1_psl25: expected.json: "
               "missing key 'socle'\n")
    assert run(capsys, "construct", "--name", "line1_psl25") == (
        2, "", "error: expected.json: missing key 'socle'\n")


@pytest.mark.parametrize("filename, key", [("group.json", "degree"),
                                           ("group.json", "generators"),
                                           ("base_block.json", "block")])
def test_catalog_entry_missing_key_names_the_file(capsys, monkeypatch,
                                                  tmp_path, filename, key):
    monkeypatch.setenv("FTDESIGNS_DATA", drop_key(
        tmp_path, "line1_psl25", filename, key))
    assert run(capsys, "catalog-list") == (
        2, "", f"error: catalog entry line1_psl25: {filename}: "
               f"missing key '{key}'\n")
    assert run(capsys, "construct", "--name", "line1_psl25") == (
        2, "", f"error: {filename}: missing key '{key}'\n")


def mutate(data, st, node):
    """The JSON value node with one part changed as drawn from data: an
    entry of an object or array dropped, an array entry repeated, or a
    value replaced by one of another type, by a huge or nearby integer, or
    by itself nested in arrays, some deeper than the JSON parser recurses.
    Containers are changed in place."""
    if node and isinstance(node, (dict, list)) and data.draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)))
        actions = ["descend", "drop"] + ["repeat"] * isinstance(node, list)
        action = data.draw(st.sampled_from(actions))
        if action == "descend":
            node[key] = mutate(data, st, node[key])
        elif action == "drop":
            del node[key]
        else:
            node.insert(key, node[key])
        return node
    nested = st.sampled_from([1, 2, 50]).map(
        lambda depth: reduce(lambda inner, _: [inner], range(depth), node))
    return data.draw(st.one_of(
        st.sampled_from([None, True, False, 1.5, "", "x", [], {}, DEEP_MARK]),
        st.integers(-2, 8),
        st.sampled_from([-10**30, 2**63, 10**18 + 1, 10**30]),
        nested))


# stands for DEEP inside a document: json.dumps cannot write what json.loads
# cannot read, so dumps writes it in
DEEP_MARK = "\0deep"


def dumps(doc) -> str:
    return json.dumps(doc).replace(json.dumps(DEEP_MARK), DEEP)


def test_mutated_data_files_end_with_an_exit_code(capsys, monkeypatch,
                                                  tmp_path):
    """No mutation of line1_psl25's three catalog files, or of a group or
    design file, makes catalog-list, construct or verify end other than
    with exit 0, 1 or 2, and exit 2 prints exactly one error: line."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry_dir = tmp_path / "data" / "catalog" / "line1_psl25"
    corrupted_catalog(tmp_path / "data", "line1_psl25")
    monkeypatch.setenv("FTDESIGNS_DATA", str(tmp_path / "data"))
    originals = {path.name: json.loads(path.read_text(encoding="utf-8"))
                 for path in (DATA / "catalog" / "line1_psl25").iterdir()}
    group, design = tmp_path / "group.json", tmp_path / "design.json"
    design_doc = json.loads(structure_to_json(catalog("line1_psl25").design,
                                              "line1_psl25"))
    out = str(tmp_path / "out.json")

    def write(path, doc):
        path.write_text(dumps(doc), encoding="utf-8")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from(sorted(originals) + ["verify-group",
                                                           "verify-design"]),
                      st.data())
    def check(target, data):
        for name, doc in originals.items():
            write(entry_dir / name, doc)
        write(group, originals["group.json"])
        write(design, design_doc)
        path = {"verify-group": group, "verify-design": design}.get(
            target, entry_dir / target)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for _ in range(data.draw(st.integers(1, 3))):
            doc = mutate(data, st, doc)
        write(path, doc)
        if target.startswith("verify"):
            argvs = [["verify", "--group", str(group),
                      "--design", str(design)]]
        else:
            argvs = [["catalog-list"],
                     ["construct", "--name", "line1_psl25", "--out", out]]
        for argv in argvs:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), (argv, code)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            else:
                assert err == "", err

    check()


@pytest.mark.parametrize("base_block", [(0, 1, 2), (0, 1, 21)],
                         ids=["0-1-2", "0-1-21"])
def test_line6_group_certifies_two_more_designs(capsys, tmp_path, base_block):
    # two block orbits of triples under the group of line6_psl28 that the
    # catalog does not hold (tests/test_constructions.py tells them apart)
    group = DATA / "catalog" / "line6_psl28" / "group.json"
    generators = catalog("line6_psl28").group.generators
    design = tmp_path / "design.json"
    design.write_text(structure_to_json(
        orbit_design(28, generators, base_block), "design"))
    assert run(capsys, "verify", "--group", str(group),
               "--design", str(design)) == (
        0, "(28,252,27,3,2) flag-transitive point-primitive\n", "")


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


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["feasible", "--v", "16"],
    ["eliminate", "--family", "suzuki", "--q-min", "8", "--q-max", "8"],
    ["eliminate", "--family", "suzuki", "--q-min", "8", "--q-max", "8",
     "--json"],
    ["construct", "--name", "line1_psl25"],
    ["catalog-list"],
    ["verify", "--group", "{group}", "--design", "{design}"],
], ids=["feasible", "eliminate", "eliminate-json", "construct",
        "catalog-list", "verify"])
def test_a_failed_write_to_stdout_exits_2(capsys, monkeypatch, argv):
    paths = {"group": DATA / "catalog" / "line2_fano_complement"
             / "group.json", "design": GOLDEN / "line2_fano_complement.json"}
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main([arg.format(**paths) for arg in argv])
    assert (code, capsys.readouterr().err) == (
        2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


class ClosedPipe(io.StringIO):
    """A stdout or stderr whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_closed_stdout_and_stderr_exit_2(monkeypatch):
    """The `error:` line is written if it can be: with stderr the same
    closed pipe as stdout, main still returns 2."""
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", ClosedPipe())
    assert main(["eliminate", "--family", "suzuki", "--q-min", "8",
                 "--q-max", "8"]) == 2


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("stderr", [subprocess.STDOUT, subprocess.DEVNULL],
                         ids=["stderr-piped", "stderr-devnull"])
def test_a_reader_that_stops_early_gets_exit_2(flags, stderr):
    """A real pipe whose reader goes after ten bytes, as `| head -c 10`
    does: the process exits 2, also when stderr is that pipe and the error
    line cannot be written.  Only a process of its own shows what the
    interpreter does with the closed stdout as it shuts down."""
    with subprocess.Popen(
            [sys.executable, "-m", "ftdesigns.cli", "eliminate", "--family",
             "g2", "--q-min", "2", "--q-max", "4096", *flags],
            stdout=subprocess.PIPE, stderr=stderr, env=src_env()) as proc:
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            code = proc.wait(timeout=30)
        finally:
            proc.kill()
    assert code == 2


def test_construct_unknown_name(capsys):
    code, _, err = run(capsys, "construct", "--name", "nope")
    assert code == 2


def test_construct_writes_the_golden_block_list(capsys):
    # the golden file is this entry's block list, from when the catalog
    # stored it whole instead of as a base block; other tests read it as
    # a design file
    golden = (GOLDEN / "line2_fano_complement.json").read_text(
        encoding="utf-8")
    assert run(capsys, "construct", "--name", "line2_fano_complement") == (
        0, golden, "")


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


def test_each_construct_name_prints_a_design_of_its_own(capsys):
    """No two names build the same labelled block set, so a second source
    of one design cannot come back unnoticed."""
    names = catalog_names() + [f"{family}:{n}" for n in (3, 4, 5)
                               for family in ("pg_lines", "derived_pg")]
    owners = {}
    for name in names:
        code, out, err = run(capsys, "construct", "--name", name)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        design = doc["v"], tuple(map(tuple, doc["blocks"]))
        assert owners.setdefault(design, name) == name, owners[design]
    assert len(owners) == 16


def test_construct_builds_no_chain_for_an_orbit_of_sl_n(capsys, monkeypatch):
    # the designs are orbits under two generators; no stabilizer chain of
    # SL_n(q) is needed to list them
    def refuse(*args, **kwargs):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(perm.PermutationGroup, "__init__", refuse)
    for name in ("pg_lines:4", "derived_pg:4"):
        code, _, err = run(capsys, "construct", "--name", name)
        assert (code, err) == (0, "")


@pytest.mark.parametrize("name, q, n", [
    ("pg_lines:4", 3, 4), ("derived_pg:5", 3, 5), ("derived_pg:6", 3, 6),
    ("line1_psl25", None, None)])
def test_construct_out_certifies_under_the_construction_group(
        capsys, monkeypatch, tmp_path, name, q, n):
    # the design is the block orbit of these generators, so verify_2design
    # may count one point row; a named construction builds no chain for it
    passed = []

    def spy(design, symmetry=()):
        passed.append([g.images for g in symmetry])
        return incidence.verify_2design(design, symmetry)

    monkeypatch.setattr(cli, "verify_2design", spy)
    if q is None:
        want = [g.images for g in catalog(name).group.generators]
    else:
        want = [g.images for g in sl_generators(q, n)[1]]

        def refuse(*args, **kwargs):
            raise AssertionError("a stabilizer chain was built")

        monkeypatch.setattr(perm.PermutationGroup, "__init__", refuse)
    code, out, err = run(capsys, "construct", "--name", name,
                         "--out", str(tmp_path / "d.json"))
    assert (code, err) == (0, "") and out.startswith(f"wrote {name} ")
    assert passed == [want]


@pytest.mark.parametrize("name", catalog_names())
def test_construct_out_reads_back_as_the_catalog_design(capsys, tmp_path,
                                                        name):
    """The file construct --out writes reads back as the entry's design, and
    as the bare structure of its v and blocks: a file's label is not kept."""
    out = tmp_path / "d.json"
    assert run(capsys, "construct", "--name", name, "--out", str(out))[0] == 0
    design = catalog(name).design
    loaded = load_structure(out)
    assert loaded == design == IncidenceStructure(design.v, design.blocks)
    assert hash(loaded) == hash(design)


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
    # finish, so run it in its own process under a time limit.  The g2
    # window is the widest accepted, and its moduli 2(q^3 - eps)/gcd(2, q-1)
    # are far above 10**18, which g2 never factors.
    for family, q_min in (("e6", 999999999999999000),
                          ("g2", 10**18 + 1 - WINDOW_LIMIT)):
        done = subprocess.run(
            [sys.executable, "-m", "ftdesigns.cli", "eliminate", "--family",
             family, "--q-min", str(q_min), "--q-max", str(10**18)],
            env=src_env(), capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stderr) == (0, ""), family
        assert done.stdout.splitlines()[-1].startswith("summary: "), family
        assert done.stdout.splitlines()[-1].endswith(" 0 candidates"), family


@pytest.mark.parametrize("family, p, exponents, summary", [
    ("suzuki", 2, range(3, 60, 2), "29 cases, 29 eliminated, 0 flagged"),
    ("ree", 3, range(3, 38, 2), "18 cases, 0 eliminated, 18 flagged"),
])
def test_eliminate_one_prime_family_up_to_the_range_top(family, p, exponents,
                                                        summary):
    # every q = p^a, a odd >= 3, up to 10**18, listed without testing each
    # integer of the window; run in its own process under a time limit
    done = subprocess.run(
        [sys.executable, "-m", "ftdesigns.cli", "eliminate", "--family",
         family, "--q-min", "2", "--q-max", "1000000000000000000"],
        env=src_env(), capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert [line for line in lines if line.startswith("case ")] == [
        f"case {family} q={p**a}" for a in exponents]
    assert lines[-1] == f"summary: {summary}, 0 candidates"


# sha256 of the stdout of `eliminate --family F --q-min 2 --q-max 1024`,
# as text and with --json, computed on commit dd02eba, before Fact and
# Branch became named tuples, prime_powers stopped factoring and descriptors
# got a JSON template.  A change to any of them must leave these bytes alone.
# The g2 pair was re-recorded when each g2 report came to state its
# lambda*v >= r^2 tail as one fact and one branch `m>=m0`, and again when
# that fact lost its count of the divisors m (`; N divisors m`); the records
# before that lemma kept their bytes.
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
        "0a1a417580ec5f9ca2e20fb72859c2ae42a82a0b2c63ab4375f1178b9c820724",
    ("g2", True):
        "1717b2c1170c8a9e913b11ab7d64567f7782941c7effef1a4bad40bb152370dd",
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
# text and --json, the benchmark's window (1,229,784 and 2,241,218 bytes),
# recorded when g2's lemma fact lost its count of the divisors m; the bytes
# are those from before, with each `; N divisors m` removed.  Beside
# ELIMINATE_SHA256, these pin that lemma and the records before it in every
# g2 case up to q = 4096.
ELIMINATE_G2_4096_SHA256 = {
    False: "adacff50b2ed06e9565f6dd6c00dc13a991f49abf7b7583a6198ad19c419b3c7",
    True: "d9d45aad9fb6c453c3747254acaca00f450808d632e8343a3537aa04f4be1acd",
}


@pytest.mark.parametrize("as_json", ELIMINATE_G2_4096_SHA256,
                         ids=["text", "json"])
def test_eliminate_g2_benchmark_window_is_pinned(capsys, as_json):
    argv = ["eliminate", "--family", "g2", "--q-min", "2", "--q-max", "4096"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ELIMINATE_G2_4096_SHA256[as_json]


# sha256 of the stdout of `eliminate --family g2 --q-min 999001
# --q-max 1000000`, text and --json (157,880 and 266,893 bytes), recorded
# when g2's lemma fact lost its count of the divisors m; the bytes are those
# from before, with each `; N divisors m` removed.  They pin m0 where
# 2(q^3 - eps)/gcd(2, q-1) is near 10**18.
ELIMINATE_G2_TOP_SHA256 = {
    False: "d31558f1e3464d56d32275eea1873ca73b70816213656ba86cc794dda615ab9f",
    True: "f56e25dc48cf9b0a4d7411052913691147d555c5654a38fa5fba60f0c73900cd",
}


@pytest.mark.parametrize("as_json", ELIMINATE_G2_TOP_SHA256,
                         ids=["text", "json"])
def test_eliminate_g2_top_of_range_is_pinned(capsys, as_json):
    argv = ["eliminate", "--family", "g2", "--q-min", "999001",
            "--q-max", "1000000"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ELIMINATE_G2_TOP_SHA256[as_json]


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
    # gcd(1152, lambda*(v-1)) = gcd(128, lambda*(v-1)) = 128: the same table
    assert run(capsys, "feasible", "--v", "65", "--lambda", "2",
               "--r-mod", "1152") == (0, out, "")


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


# one process, many commands: defaults given and left out, output as text
# and as JSON, argparse's own exits (a usage error, two --help), a refusal
REUSE_ARGVS = [
    ["feasible", "--v", "65", "--lambda", "2", "--r-mod", "128"],
    ["feasible", "--v", "65"],
    ["feasible", "--v", "7", "--lambda", "3"],
    ["feasible", "--v", "11", "--r-mod", "10"],
    ["eliminate", "--family", "g2", "--q-min", "3", "--q-max", "8", "--json"],
    ["eliminate", "--family", "g2", "--q-min", "3", "--q-max", "8"],
    ["feasible", "--v", "1e3"],
    ["--help"],
    ["construct", "--help"],
    ["feasible", "--v", "1"],
]


def outcome(capsys, argv, entry=main):
    """main's exit code, or argparse's as ("exit", code), with the output;
    `entry` stands in for main."""
    try:
        code = entry(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_its_parser_without_leaks(capsys):
    first = [outcome(capsys, argv) for argv in REUSE_ARGVS]
    again = [outcome(capsys, argv) for argv in reversed(REUSE_ARGVS)]
    assert again[::-1] == first
    codes = dict(zip(map(" ".join, REUSE_ARGVS), first))
    assert codes["feasible --v 65"][0] == 0
    assert "65\t416\t32\t5\t2" in codes[
        "feasible --v 65 --lambda 2 --r-mod 128"][1]
    assert codes["feasible --v 7 --lambda 3"][1].endswith("\t3\n")
    json.loads(codes["eliminate --family g2 --q-min 3 --q-max 8 --json"][1])
    code, out, err = codes["feasible --v 1e3"]
    assert (code, out) == (("exit", 2), "")
    assert err.startswith("usage: ftdesigns feasible ")
    assert err.endswith("error: argument --v: invalid int value: '1e3'\n")
    for argv, usage in (("--help", "usage: ftdesigns [-h] "),
                        ("construct --help", "usage: ftdesigns construct ")):
        code, out, err = codes[argv]
        assert (code, err) == (("exit", 0), "")
        assert out.startswith(usage)
    assert codes["feasible --v 1"] == (2, "", "error: need v >= 4, got 1\n")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for i in range(50):
        outcome(capsys, REUSE_ARGVS[i % len(REUSE_ARGVS)])
    # the top-level parser and its five subparsers
    assert len(built) == 6


# main hands an argv that starts with a command's name to that command's
# parser, and any other to the top-level parser: none, -h, --, an unknown or
# misspelt name, extras and abbreviations on either side of the split
DISPATCH_ARGVS = [
    [], ["-h"], ["--help"], ["--"],
    ["--", "feasible", "--v", "65", "--lambda", "2", "--r-mod", "128"],
    ["--", "feasbile", "--v", "7"], ["--", "--", "feasible", "--v", "7"],
    ["feasible", "--v", "65", "extra"], ["feasible", "extra", "--v", "65"],
    ["feasible", "--v", "65", "--", "extra"], ["feasible", "--", "--v", "65"],
    ["feasible", "--v", "65", "extra", "--more", "-x"],
    ["feasible", "--va", "65"], ["feasible", "--v", "65", "--lam", "3"],
    ["feasible", "--v", "65", "--r", "128"], ["feasible", "--v=7"],
    ["feasible", "--v", "7", "--v", "11"], ["feasible", "--v", "7", "-h"],
    ["feasible", "--he"], ["feasible", "--v", "7", "--help", "extra"],
    ["feasible"], ["feasible", "--v"], ["feasible", "--v", "-5"],
    ["feasible", "-v", "7"], ["feasible", "--v", "7", "-"],
    ["feasbile", "--v", "7"], ["Feasible"], ["-h", "feasible"],
    ["--help", "feasible", "--v", "7"], ["-x", "feasible"], ["--v", "7"],
    ["catalog-list"], ["catalog-list", "extra"], ["catalog-list", "-x"],
    ["eliminate", "--family", "g3"],
    ["eliminate", "--fam", "suzuki", "--q-max", "32", "--js"],
    ["construct"], ["construct", "--name", "nope"],
    ["verify", "--group", "g"],
    ["verify", "--group", "missing.json", "--design", "missing.json"],
]


def top_level(argv):
    """main with the top-level parser reading all of argv, once a `--` in
    front of a command name is dropped, as main drops it."""
    parser = cli.build_parser()
    if len(argv) > 1 and argv[0] == "--" and not argv[1].startswith("-"):
        argv = argv[1:]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_INPUT


@pytest.mark.parametrize("argv", DISPATCH_ARGVS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_main_dispatch_matches_the_top_level_parser(capsys, argv):
    assert outcome(capsys, argv) == outcome(capsys, argv, top_level)


def test_a_dash_dash_before_a_command_runs_it(capsys):
    # the argparse of Python 3.10 to 3.13.0 refuses `--` as a command name
    # and later releases may drop it; main drops it on every version
    table = "v\tb\tr\tk\tlambda\n65\t416\t32\t5\t2\n"
    argv = ["feasible", "--v", "65", "--lambda", "2", "--r-mod", "128"]
    assert outcome(capsys, ["--", *argv]) == (0, table, "")
    assert outcome(capsys, argv) == (0, table, "")
    # any other `--` still reaches the top-level parser
    code, out, err = outcome(capsys, ["--", "-h"])
    assert code == ("exit", 2) and out == ""
    assert err.startswith("usage: ftdesigns [-h]")


def test_a_dash_dash_before_a_misspelt_command_names_it(capsys):
    # the refusal names what was typed, as it does without the `--`
    for argv in (["--", "feasbile"], ["feasbile"]):
        code, out, err = outcome(capsys, argv)
        assert code == ("exit", 2) and out == ""
        assert "error: argument command: invalid choice: 'feasbile'" in err


@pytest.mark.parametrize("argv, code", [
    (["feasible", "--v", "65"], 0),
    (["feasible", "--v", "65", "extra"], ("exit", 2)),
    (["--help"], ("exit", 0)), ([], ("exit", 2))])
def test_main_reads_sys_argv(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["ftdesigns", *argv])
    got = outcome(capsys, [], lambda _: main())
    assert got == outcome(capsys, argv, top_level)
    assert got[0] == code


def test_a_command_skips_the_top_level_pass(capsys, monkeypatch):
    passes = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, "feasible", "--v", "65")[0] == 0
    assert passes == ["ftdesigns feasible"]


def test_patches_after_the_first_call_take_effect(capsys, monkeypatch,
                                                  tmp_path):
    """bench/run.py runs its warm-up command before the tracer patches the
    names cli imported, so a handler must read them when it runs."""
    cli.build_parser.cache_clear()
    assert run(capsys, "feasible", "--v", "7")[0] == 0
    calls = []

    def candidates(*args):
        calls.append("enumerate_candidates")
        return enumerate_candidates(*args)

    def verify(*args):
        calls.append("verify_2design")
        return incidence.verify_2design(*args)

    monkeypatch.setattr(cli, "enumerate_candidates", candidates)
    monkeypatch.setattr(cli, "verify_2design", verify)
    assert run(capsys, "feasible", "--v", "11")[0] == 0
    code, out, err = run(capsys, "construct", "--name", "line1_psl25",
                         "--out", str(tmp_path / "d.json"))
    assert (code, err) == (0, "") and out.startswith("wrote line1_psl25 ")
    assert calls == ["enumerate_candidates", "verify_2design"]


# -- the cyclic garbage collector ---------------------------------------------
#
# main pauses the cyclic collector while a handler runs, which is sound only
# while the handlers build no reference cycles: each path below, run once to
# fill the caches, leaves nothing for gc.collect() on a second run.  Parse
# refusals and -h exit inside argparse before the handler runs, with the
# collector on, so they are left out.

SMALL_WINDOWS = {"suzuki": (8, 32), "ree": (27, 243), "g2": (2, 16),
                 "e6": (2, 8), "parabolic": (2, 8)}
HANDLER_PATHS = {
    "feasible-rows": ["feasible", "--v", "65"],
    "feasible-none": ["feasible", "--v", "65", "--r-mod", "3"],
    "feasible-v3": ["feasible", "--v", "3"],
    **{f"eliminate-{family}{suffix}":
       ["eliminate", "--family", family, "--q-min", str(lo), "--q-max",
        str(hi), *flags]
       for family, (lo, hi) in SMALL_WINDOWS.items()
       for suffix, flags in (("", []), ("-json", ["--json"]))},
    "eliminate-refused": ["eliminate", "--family", "g2", "--q-min", "2",
                          "--q-max", "1000000"],
    "construct-row": ["construct", "--name", "line1_psl25"],
    "construct-row-out": ["construct", "--name", "line1_psl25",
                          "--out", "{tmp}/d.json"],
    "construct-pg": ["construct", "--name", "derived_pg:3"],
    "construct-pg-out": ["construct", "--name", "derived_pg:3",
                         "--out", "{tmp}/d.json"],
    "construct-out-missing-dir": ["construct", "--name", "line1_psl25",
                                  "--out", "{tmp}/missing/d.json"],
    "catalog-list": ["catalog-list"],
    "verify-0": ["verify", "--group", "{line2_group}",
                 "--design", "{line2_design}"],
    "verify-1-intransitive": ["verify", "--group", "{trivial}",
                              "--design", "{line2_design}"],
    "verify-1-not-preserved": ["verify", "--group", "{moves_a_block}",
                               "--design", "{line2_design}"],
    "verify-2-wrong-degree": ["verify", "--group", "{degree5}",
                              "--design", "{line2_design}"],
    "failed-write": ["eliminate", "--family", "g2", "--q-min", "2",
                     "--q-max", "16"],
}


def cycles_left(argv) -> int:
    """The unreachable objects that one call of main leaves to the cyclic
    collector."""
    gc.collect()
    gc.disable()
    try:
        main(argv)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("path", list(HANDLER_PATHS))
def test_command_handlers_build_no_reference_cycles(capsys, monkeypatch,
                                                    tmp_path, path):
    files = {"tmp": tmp_path,
             "line2_group": DATA / "catalog" / "line2_fano_complement"
             / "group.json",
             "line2_design": GOLDEN / "line2_fano_complement.json"}
    # (0 2) moves the block [0, 1, 3, 6] off the design
    for name, degree, generators in (("trivial", 7, []),
                                     ("moves_a_block", 7,
                                      [[2, 1, 0, 3, 4, 5, 6]]),
                                     ("degree5", 5, [[1, 0, 2, 3, 4]])):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(canonical_json(
            {"name": name, "degree": degree, "generators": generators}))
    argv = [arg.format(**files) for arg in HANDLER_PATHS[path]]
    if path == "failed-write":
        monkeypatch.setattr(sys, "stdout", FullStdout())
    main(argv)
    assert cycles_left(argv) == 0


def with_handler(handler, argv=("feasible", "--v", "7")):
    """main(argv) with feasible's handler replaced by `handler`."""
    command = cli.build_parser().commands["feasible"]
    saved = command.get_default("func")
    command.set_defaults(func=handler)
    try:
        return main(list(argv))
    finally:
        command.set_defaults(func=saved)


@pytest.mark.parametrize("outcome", [0, 1, ValueError("refused"),
                                     RuntimeError("a bug")])
def test_main_pauses_the_collector_only_while_a_handler_runs(capsys,
                                                             outcome):
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    assert gc.isenabled()
    if isinstance(outcome, RuntimeError):  # main does not catch it
        with pytest.raises(RuntimeError):
            with_handler(handler)
    else:
        code = with_handler(handler)
        assert code == (2 if isinstance(outcome, ValueError) else outcome)
    assert seen == [False]
    assert gc.isenabled()


def test_main_leaves_a_paused_collector_paused(capsys):
    gc.disable()
    try:
        assert main(["feasible", "--v", "7"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


class FillingStdout(io.StringIO):
    """A stdout on a disk that fills up: the third write fails."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_eliminate_fails_on_its_third_write_with_one_error_line(
        capsys, monkeypatch, flags):
    stdout = FillingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["eliminate", "--family", "g2", "--q-min", "2",
                 "--q-max", "16", *flags])
    assert (code, capsys.readouterr().err) == (
        2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert stdout.writes == 3
