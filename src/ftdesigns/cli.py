"""Command-line front end.

Subcommands:

    verify --group F --design F     certify a design and test a group on it
    construct --name N [--out F]    build a bundled or named construction
    eliminate --family F --q-min A --q-max B [--json]
    feasible --v V [--lambda L] [--r-mod M]
    catalog-list

Exit codes are a contract: 0 for success (or every case eliminated/flagged
as expected), 1 for a verification failure or an unexplained candidate,
2 for bad input.  Output is deterministic: identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from . import constructions, elimination
from .design import enumerate_candidates
# verify leaves the automorphism check to is_flag_transitive, which runs it
# first; is_automorphism_group stays bound here, where bench/tracing.py
# wraps it
from .incidence import (DesignCertificate, DesignError, GroupActionError,
                        IncidenceStructure,
                        is_automorphism_group,  # noqa: F401
                        is_flag_transitive, is_point_primitive,
                        load_structure, structure_to_json, verify_2design)
from .perm import load_group

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# what reading a group, design or catalog file raises on a missing file,
# bad JSON or a document of the wrong shape
DATA_ERRORS = (OSError, KeyError, ValueError, TypeError)

# The bound is set by b, which grows ninefold with each step of n: 44,044
# blocks for derived_pg:6 and 397,852 for derived_pg:7.
PG_MAX_N = 6


def _certify(design, source: str) -> tuple[DesignCertificate | None, int]:
    """(verify_2design's certificate, EXIT_OK), or (None, exit code) once the
    reason there is none has been printed."""
    try:
        return verify_2design(design), EXIT_OK
    except DesignError as exc:
        print(f"not a 2-design: {exc.kind} (witness {exc.witness})")
        return None, EXIT_FAIL
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"error: {source}: {exc}", file=sys.stderr)
        return None, EXIT_INPUT


def _cmd_verify(args) -> int:
    try:
        group = load_group(args.group)
    except DATA_ERRORS as exc:
        print(f"error: group file {args.group}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        design = load_structure(args.design)
    except DATA_ERRORS as exc:
        print(f"error: design file {args.design}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    cert, code = _certify(design, f"design file {args.design}")
    if cert is None:
        return code
    try:
        flag = is_flag_transitive(group, design)
    except GroupActionError:
        print(f"{cert.params} group does not preserve the block multiset")
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        primitive = is_point_primitive(group, design)
        primitive_text = "point-primitive" if primitive else "NOT point-primitive"
    except ValueError:
        primitive = False
        primitive_text = "NOT point-primitive (intransitive)"
    ok = flag and primitive
    flag_text = "flag-transitive" if flag else "NOT flag-transitive"
    print(f"{cert.params} {flag_text} {primitive_text}")
    return EXIT_OK if ok else EXIT_FAIL


def _pg_line_space(name: str) -> IncidenceStructure:
    family, _, suffix = name.partition(":")
    n = int(suffix) if suffix.isascii() and suffix.isdigit() else None
    if str(n) != suffix:
        raise ValueError(f"{name}: expected {family}:<n>, n in plain digits")
    if n > PG_MAX_N:
        raise ValueError(f"{name}: n must be at most {PG_MAX_N}")
    return constructions.pg_lines(n, 4 if family == "pg_lines" else 3)


def _cmd_construct(args) -> int:
    name = args.name
    expected = None  # a catalog entry's parameter row
    try:
        if name == "fano_complement":
            design = constructions.fano_complement()
        elif name.startswith(("pg_lines:", "derived_pg:")):
            design = _pg_line_space(name)
        else:
            entry = constructions.catalog(name)
            design, expected = entry.design, entry.expected
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = structure_to_json(design, name=name)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        cert, code = _certify(design, name)
        if cert is None:
            return code
        if expected is not None and cert.params != expected:
            print(f"error: {name}: certified parameters {cert.params} "
                  f"differ from the row {expected} in expected.json",
                  file=sys.stderr)
            return EXIT_INPUT
        print(f"wrote {name} {cert.params} to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_eliminate(args) -> int:
    try:
        reports = elimination.sweep(args.family, args.q_min, args.q_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        elimination.write_json(reports, sys.stdout)
    else:
        for report in reports:
            print(report.to_text())
    counts = {"eliminated": 0, "flagged": 0, "candidate": 0}
    for report in reports:
        counts[report.verdict] += 1
    if not args.json:
        print(f"summary: {len(reports)} cases, "
              f"{counts['eliminated']} eliminated, "
              f"{counts['flagged']} flagged, "
              f"{counts['candidate']} candidates")
    return EXIT_OK if counts["candidate"] == 0 else EXIT_FAIL


def _cmd_feasible(args) -> int:
    lam = args.lam
    r_mod = args.r_mod if args.r_mod is not None else lam * (args.v - 1)
    try:
        found = enumerate_candidates(args.v, lam, r_mod)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not found:
        print("no feasible parameter sets")
        return EXIT_OK
    print("v\tb\tr\tk\tlambda")
    for params in found:
        print(f"{params.v}\t{params.b}\t{params.r}\t{params.k}\t{params.lam}")
    return EXIT_OK


def _cmd_catalog_list(args) -> int:
    names = constructions.catalog_names()
    if not names:
        print("no catalog data found", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    for name in names:
        try:
            entry = constructions.catalog(name)
        except DATA_ERRORS as exc:
            print(f"error: catalog entry {name}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        rows.append(f"{name}\t{entry.expected}\tsocle={entry.socle}\t"
                    f"aut={entry.automorphism_group}")
    print("\n".join(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftdesigns",
        description="Exact verification and elimination toolkit for "
                    "flag-transitive 2-designs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certify a design file against a group file")
    p.add_argument("--group", required=True)
    p.add_argument("--design", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="build a bundled design")
    p.add_argument("--name", required=True,
                   help="catalog entry, fano_complement, pg_lines:<n>, "
                        f"or derived_pg:<n>, with 3 <= n <= {PG_MAX_N}")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("eliminate", help="run a case-elimination sweep")
    p.add_argument("--family", required=True,
                   choices=list(elimination.FAMILIES))
    p.add_argument("--q-min", type=int, default=2)
    p.add_argument("--q-max", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("feasible", help="enumerate admissible parameter tuples")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=2)
    p.add_argument("--r-mod", type=int, default=None,
                   help="modulus that r must divide (default: lambda*(v-1))")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("catalog-list", help="list bundled catalog entries")
    p.set_defaults(func=_cmd_catalog_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
