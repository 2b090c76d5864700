"""Command-line front end.

Subcommands:

    verify --group F --design F     certify a design and test a group on it
    construct --name N [--out F]    build a catalog design or a PG(n-1, 3) one
    eliminate --family F --q-min A --q-max B [--json]
    feasible --v V [--lambda L] [--r-mod M]
    catalog-list

Exit codes are a contract: 0 for success (or every case eliminated/flagged
as expected), 1 for a verification failure or an unexplained candidate,
2 for bad input.  Bad input is whatever raises an OSError or a ValueError,
and main alone turns one into a single `error:` line and exit 2; a command
that knows which file is at fault re-raises with the file named.  Output is
deterministic: identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import gc
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

# The bound is set by b, which grows ninefold with each step of n: 44,044
# blocks for derived_pg:6 and 397,852 for derived_pg:7.
PG_MAX_N = 6


def _certify(design, source: str, symmetry) -> DesignCertificate | None:
    """verify_2design's certificate, or None once the reason there is none
    has been printed; a design it refuses to count is refused as bad input
    from `source`.  `symmetry` is passed on: the generators of a group known
    to preserve the design's blocks."""
    try:
        return verify_2design(design, symmetry)
    except DesignError as exc:
        print(f"not a 2-design: {exc.kind} (witness {exc.witness})")
        return None
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _cmd_verify(args) -> int:
    try:
        group = load_group(args.group)
    except (OSError, ValueError) as exc:
        raise ValueError(f"group file {args.group}: {exc}") from None
    try:
        design = load_structure(args.design)
    except (OSError, ValueError) as exc:
        raise ValueError(f"design file {args.design}: {exc}") from None

    # The flag test runs the automorphism check first.  Once that passed,
    # the group preserves the blocks and may certify the design from one
    # point row; what fails is reported after the design's verdict.  A
    # refusal is kept as GroupActionError itself or as the message, not as
    # the exception, whose traceback would hold this frame in a cycle.
    try:
        flag = is_flag_transitive(group, design)
    except GroupActionError:
        flag = GroupActionError
    except ValueError as exc:
        flag = str(exc)
    acts = isinstance(flag, bool)
    cert = _certify(design, f"design file {args.design}",
                    group.generators if acts else ())
    if cert is None:
        return EXIT_FAIL
    if flag is GroupActionError:
        print(f"{cert.params} group does not preserve the block multiset")
        return EXIT_FAIL
    if not acts:
        raise ValueError(flag)
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


def _pg_line_space(name: str) -> tuple[IncidenceStructure, int]:
    """The design pg_lines:n or derived_pg:n, and n: it is the block orbit
    of sl_generators(3, n)."""
    family, _, suffix = name.partition(":")
    n = int(suffix) if suffix.isascii() and suffix.isdigit() else None
    if str(n) != suffix:
        raise ValueError(f"{name}: expected {family}:<n>, n in plain digits")
    if n > PG_MAX_N:
        raise ValueError(f"{name}: n must be at most {PG_MAX_N}")
    try:
        design = constructions.pg_lines(n, 4 if family == "pg_lines" else 3)
    except ValueError as exc:  # pg_lines owns the lower bound on n
        raise ValueError(f"{name}: {exc}") from None
    return design, n


def _cmd_construct(args) -> int:
    name = args.name
    expected = None  # a catalog entry's parameter row
    # The design is the block orbit of the group generated by symmetry, or
    # by sl_generators(3, n), which is rebuilt only to certify the design.
    symmetry, n = (), None
    if name.startswith(("pg_lines:", "derived_pg:")):
        design, n = _pg_line_space(name)
    else:
        entry = constructions.catalog(name)
        design, expected = entry.design, entry.expected
        symmetry = entry.group.generators
    text = structure_to_json(design, name=name)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if n is not None:
            symmetry = constructions.sl_generators(3, n)[1]
        cert = _certify(design, name, symmetry)
        if cert is None:
            return EXIT_FAIL
        if expected is not None and cert.params != expected:
            raise ValueError(f"{name}: certified parameters {cert.params} "
                             f"differ from the row {expected} in "
                             f"expected.json")
        print(f"wrote {name} {cert.params} to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_eliminate(args) -> int:
    reports = elimination.sweep(args.family, args.q_min, args.q_max)
    if args.json:
        elimination.write_json(reports, sys.stdout)
    else:
        write = sys.stdout.write
        for report in reports:
            write(report.to_text() + "\n")
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
    if args.r_mod is not None and args.r_mod < 1:
        raise ValueError(f"--r-mod must be at least 1, got {args.r_mod}")
    r_mod = args.r_mod if args.r_mod is not None else lam * (args.v - 1)
    found = enumerate_candidates(args.v, lam, r_mod)
    if not found:
        print("no feasible parameter sets")
        return EXIT_OK
    sys.stdout.write("v\tb\tr\tk\tlambda\n" + "".join(
        ["%d\t%d\t%d\t%d\t%d\n" % params for params in found]))
    return EXIT_OK


def _cmd_catalog_list(args) -> int:
    names = constructions.catalog_names()
    if not names:
        raise ValueError("no catalog data found")
    rows = []
    for name in names:
        try:
            entry = constructions.catalog(name)
        except (OSError, ValueError) as exc:
            raise ValueError(f"catalog entry {name}: {exc}") from None
        rows.append(f"{name}\t{entry.expected}\tsocle={entry.socle}\t"
                    f"aut={entry.automorphism_group}")
    print("\n".join(rows))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; every later call
    returns that same object, so callers must not change it.  Its
    `commands` maps each command's name to that command's own parser."""
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
                   help="catalog entry, pg_lines:<n> or derived_pg:<n>, "
                        f"with 3 <= n <= {PG_MAX_N}")
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
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) > 1 and argv[0] == "--" and not argv[1].startswith("-"):
        # a `--` in front of a command name is dropped, as later argparse
        # releases drop it and earlier ones refuse it as a command name; a
        # misspelt name is then refused by its own spelling
        del argv[0]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        # no command, -h, a -- before an option, or an unknown name: only
        # the top-level pass prints the program's own usage and help
        args = parser.parse_args(argv)
    else:
        # the command's parser reads the rest, as the top-level pass would
        # hand it on, and what it leaves is refused as that pass refuses it
        args, extras = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    # The handlers build no reference cycles (a test pins that), so the
    # cyclic collector would only rescan their reports: it pauses while one
    # runs and is then left as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass  # stderr is closed too, as in a pipe that was read out
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
