"""Spans around calls into each `ftdesigns` module, recorded from outside.

The benchmark never edits the package.  In a traced pass it replaces the
module attributes that callers look up with thin wrappers, and restores
them afterwards.  A name imported with `from .x import f` is a separate
binding in the importing module, so a function is wrapped in every module
that looks it up: `cli` imports `load_group` and `verify_2design` by name,
`design` and `elimination` import `divisors` and `prime_powers` by name,
and `arith` calls `factorize`, `divisors` and `cyclotomic` through its own
globals.

Each span records its name, start, end and parent.  Spans are kept in
compact arrays and only reduced when the benchmark ends: a layer's self time
is the time of its spans minus the time of their child spans, and a
function's time counts only its outermost calls, so recursion in
`cyclotomic` is not counted twice.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "perm", "incidence", "constructions", "elimination",
          "arith", "design")


class Recorder:
    """In-memory span store plus the counters taken at the same calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.outermost = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span called `name`; `count(result, args)` runs
        inside the span and updates the counters."""
        nid = self.name_id(name)
        clock, stack, active = self.clock, self._stack, self._active
        starts, ends = self.starts, self.ends
        add_name, add_parent = self.names.append, self.parents.append
        add_outermost = self.outermost.append
        add_start, add_end = starts.append, ends.append

        # Bookkeeping is inlined: this runs hundreds of thousands of times
        # per pass on `eliminate`, and its cost is the tracing overhead.
        def traced(*args, **kwargs):
            i = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_outermost(not active[nid])
            active[nid] += 1
            stack.append(i)
            add_end(0.0)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(result, args)
                return result
            finally:
                ends[i] = clock()
                stack.pop()
                active[nid] -= 1

        traced.__wrapped__ = fn
        return traced

    def reduce(self) -> tuple[dict, dict, dict]:
        """(self time per layer, outermost inclusive time per span name,
        number of spans per span name)."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_time = {layer: 0.0 for layer in LAYERS}
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.span_names[self.names[i]]
            dur = self.ends[i] - self.starts[i]
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + dur - child[i]
            calls[name] += 1
            if self.outermost[i]:
                inclusive[name] += dur
        return self_time, dict(inclusive), dict(calls)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(rec: Recorder, mods) -> Patches:
    """Wrap the public entry points of every layer; `mods` maps a layer name
    to its imported module.  Returns the patches to undo."""
    cli, perm, incidence = mods["cli"], mods["perm"], mods["incidence"]
    constructions, elimination = mods["constructions"], mods["elimination"]
    arith, design = mods["arith"], mods["design"]
    counts, maxima = rec.counts, rec.maxima
    patches = Patches()

    def add(key, n=1):
        counts[key] += n

    # perm: the chain is built in PermutationGroup.__init__.
    def on_build(result, args):
        levels = args[0].levels
        add("perm.base_len", len(levels))
        add("perm.strong_gens", len(levels[0].gens) if levels else 0)

    group_cls = perm.PermutationGroup
    patches.set(group_cls, "__init__",
                rec.wrap("perm.build", group_cls.__init__, on_build))
    patches.set(group_cls, "primitivity",
                rec.wrap("perm.primitivity", group_cls.primitivity))
    load_group = rec.wrap("perm.load", perm.load_group)

    # incidence
    verify = rec.wrap(
        "incidence.verify", incidence.verify_2design,
        lambda cert, args: add("incidence.pairs_checked", cert.pairs_checked))
    aut = rec.wrap("incidence.aut", incidence.is_automorphism_group)
    flag = rec.wrap(
        "incidence.flag", incidence.is_flag_transitive,
        lambda result, args: add("incidence.flags", args[1].flag_count()))
    primitive = rec.wrap("incidence.primitive", incidence.is_point_primitive)
    load_structure = rec.wrap("incidence.load", incidence.load_structure)
    to_json = rec.wrap("incidence.write", incidence.structure_to_json)
    patches.set(incidence, "is_automorphism_group", aut)

    # constructions
    orbit = rec.wrap(
        "constructions.orbit_design", constructions.orbit_design,
        lambda design, args: add("constructions.blocks_built", design.b))
    for attr, fn in (("load_group", load_group), ("orbit_design", orbit),
                     ("verify_2design", verify)):
        patches.set(constructions, attr, fn)
    patches.set(constructions, "catalog",
                rec.wrap("constructions.catalog", constructions.catalog))

    # arith: module globals first, so wrappers below see the originals.
    def on_factorize(result, args):
        bits = args[0].bit_length()
        if bits > maxima["arith.factorize_max_bits"]:
            maxima["arith.factorize_max_bits"] = bits

    def on_divisors(key):
        def count(result, args):
            add("arith.divisors_returned", len(result))
            if key:
                add(key, len(result))
        return count

    factorize = rec.wrap("arith.factorize", arith.factorize, on_factorize)
    divisors_fn = arith.divisors
    divisors = rec.wrap("arith.divisors", divisors_fn, on_divisors(None))
    cyclotomic = rec.wrap("arith.cyclotomic", arith.cyclotomic)
    prime_powers = rec.wrap("arith.prime_powers", arith.prime_powers)
    for attr, fn in (("factorize", factorize), ("divisors", divisors),
                     ("cyclotomic", cyclotomic),
                     ("prime_powers", prime_powers)):
        patches.set(arith, attr, fn)

    # design: the divisors it tries are the base of design.yield.
    patches.set(design, "divisors",
                rec.wrap("arith.divisors", divisors_fn,
                         on_divisors("design.divisors_tried")))
    enumerate_candidates = rec.wrap(
        "design.enumerate", design.enumerate_candidates,
        lambda found, args: add("design.candidates", len(found)))
    patches.set(design, "enumerate_candidates", enumerate_candidates)

    # elimination
    report_cls = elimination.CaseReport
    patches.set(report_cls, "to_text",
                rec.wrap("elimination.to_text", report_cls.to_text))
    patches.set(report_cls, "to_dict",
                rec.wrap("elimination.to_dict", report_cls.to_dict))

    def on_sweep(reports, args):
        add("elimination.cases", len(reports))
        add("elimination.branches", sum(len(r.branches) for r in reports))
        add("elimination.facts", sum(len(r.facts) for r in reports))

    for attr, fn in (("divisors", divisors), ("cyclotomic", cyclotomic),
                     ("prime_powers", prime_powers),
                     ("enumerate_candidates", enumerate_candidates)):
        patches.set(elimination, attr, fn)
    patches.set(elimination, "sweep",
                rec.wrap("elimination.sweep", elimination.sweep, on_sweep))

    # cli: the names it imported, then main itself.
    for attr, fn in (("load_group", load_group), ("verify_2design", verify),
                     ("load_structure", load_structure),
                     ("structure_to_json", to_json),
                     ("is_automorphism_group", aut),
                     ("is_flag_transitive", flag),
                     ("is_point_primitive", primitive),
                     ("enumerate_candidates", enumerate_candidates)):
        patches.set(cli, attr, fn)

    def on_main(rc, args):
        if rc:
            add("cli.exit_nonzero")

    patches.set(cli, "main", rec.wrap("cli.main", cli.main, on_main))
    return patches
