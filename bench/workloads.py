"""Seeded inputs, commands and output checks for each benchmark workload.

Nothing here imports `ftdesigns`: the inputs and the expected answers come
from the benchmark's own code (JSON relabelling, prime powers, Miller-Rabin
and known factorizations), so a check never trusts the code it checks.

Every pass gets its own inputs, drawn from `(workload, seed, pass index)`,
so no pass repeats another and nothing can be reused by input identity
across passes.
"""

from __future__ import annotations

import json
import random
import re
from math import isqrt
from pathlib import Path

from harness import Command, count_in, tail

# Deterministic Miller-Rabin bases: exact for n < 3.3e24 (Sorenson and
# Webster 2015), far beyond the inputs made here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_exponent(q: int) -> tuple[int, int] | None:
    """(p, a) with q = p^a and p prime, or None."""
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    a = 0
    while q % p == 0:
        q //= p
        a += 1
    return (p, a) if q == 1 else None


def _text(chunks) -> str:
    return "".join(chunks)


def _exit_problems(rc, want=0) -> list[str]:
    return [] if rc == want else [f"exit code {rc!r}, expected {want}"]


# -- certify -----------------------------------------------------------------

def read_catalog(catalog_dir: Path) -> dict[str, dict[str, dict]]:
    """Every catalog entry's JSON documents, by entry name then file stem."""
    entries = {}
    for entry in sorted(p for p in catalog_dir.iterdir() if p.is_dir()):
        entries[entry.name] = {
            f.stem: json.loads(f.read_text(encoding="utf-8"))
            for f in entry.glob("*.json")}
    return entries


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def relabel_entry(docs: dict[str, dict], perm: list[int]) -> dict[str, dict]:
    """The entry's documents with point x renamed perm[x] everywhere."""
    group = dict(docs["group"])
    gens = []
    for g in group["generators"]:
        images = [0] * len(g)
        for x, y in enumerate(g):
            images[perm[x]] = perm[y]
        gens.append(images)
    group["generators"] = gens
    out = {"group": group, "expected": docs["expected"]}
    if "base_block" in docs:
        out["base_block"] = {
            "block": sorted(perm[x] for x in docs["base_block"]["block"])}
    else:
        blocks = sorted(sorted(perm[x] for x in block)
                        for block in docs["blocks"]["blocks"])
        out["blocks"] = dict(docs["blocks"], blocks=blocks)
    return out


def expected_row(expected: dict) -> str:
    return "({v},{b},{r},{k},{lambda})".format(**expected)


def _construct_check(name: str, out: Path, expected: dict, blocks):
    row = expected_row(expected)

    def check(rc, chunks):
        problems = _exit_problems(rc)
        want = f"wrote {name} {row} to {out}\n"
        if _text(chunks) != want:
            problems.append(f"stdout {_text(chunks)!r}, expected {want!r}")
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return problems + [f"design file unreadable: {exc}"]
        got = doc.get("blocks", [])
        if doc.get("v") != expected["v"] or len(got) != expected["b"]:
            problems.append(f"design file has v={doc.get('v')} "
                            f"b={len(got)}, expected {row}")
        if any(len(b) != expected["k"] for b in got):
            problems.append(f"design file has a block of size != {expected['k']}")
        if blocks is not None and sorted(map(sorted, got)) != blocks:
            problems.append("design file differs from the bundled block list")
        return problems

    return check


def _verify_check(expected: dict):
    want = f"{expected_row(expected)} flag-transitive point-primitive\n"

    def check(rc, chunks):
        problems = _exit_problems(rc)
        if _text(chunks) != want:
            problems.append(f"stdout {_text(chunks)!r}, expected {want!r}")
        return problems

    return check


def certify_plan(seed: int, passes: int, root: Path, src: Path) -> list:
    catalog = read_catalog(src / "ftdesigns" / "data" / "catalog")
    return [certify_pass(catalog, seed, j, root / f"pass{j}")
            for j in range(passes)]


def certify_pass(catalog: dict, seed: int, index: int, root: Path) -> list[Command]:
    """Write one randomly relabelled copy of the catalog under `root` and
    return construct-then-verify commands for every entry of it."""
    rng = random.Random(f"certify:{seed}:{index}")
    data = root / "data"
    commands = []
    for name, docs in catalog.items():
        perm = list(range(docs["group"]["degree"]))
        rng.shuffle(perm)
        entry_dir = data / "catalog" / name
        entry_dir.mkdir(parents=True)
        relabelled = relabel_entry(docs, perm)
        for stem, doc in relabelled.items():
            _dump(entry_dir / f"{stem}.json", doc)
        out = root / f"{name}.design.json"
        expected = docs["expected"]
        blocks = relabelled.get("blocks", {}).get("blocks")
        env = {"FTDESIGNS_DATA": str(data)}
        commands.append(Command(
            ["construct", "--name", name, "--out", str(out)],
            _construct_check(name, out, expected, blocks),
            f"construct:{name}", env))
        commands.append(Command(
            ["verify", "--group", str(entry_dir / "group.json"),
             "--design", str(out)],
            _verify_check(expected), f"verify:{name}", env))
    return commands


# -- eliminate ---------------------------------------------------------------

FAMILIES = ("suzuki", "ree", "g2", "e6", "parabolic")
_SUMMARY = re.compile(
    r"summary: (\d+) cases, (\d+) eliminated, (\d+) flagged, (\d+) candidates")


def expected_cases(family: str, q_min: int, q_max: int) -> int | None:
    """Number of case reports a sweep must produce, where the family's case
    list follows from the prime powers alone (not for `parabolic`, whose
    rows are tabulated in the package)."""
    count = 0
    for q in range(max(q_min, 2), q_max + 1):
        pa = prime_power_exponent(q)
        if pa is None:
            continue
        p, a = pa
        if family == "suzuki":
            count += p == 2 and a % 2 == 1 and a >= 3
        elif family == "ree":
            count += p == 3 and a % 2 == 1 and a >= 3
        elif family == "g2":
            count += 2 * (q >= 3)
        elif family == "e6":
            count += 2
        else:
            return None
    return count


def _eliminate_check(family: str, as_json: bool, want: int | None,
                     seen: dict):
    """Check one eliminate command; `seen` holds the case count of the other
    output mode of the same window, so text and JSON must agree."""

    def check(rc, chunks):
        problems = _exit_problems(rc)
        if as_json:
            head = next((c[:1] for c in chunks if c), "")
            if head != "[" or tail(chunks, 2) != "]\n":
                problems.append("output is not one JSON list")
            cases = count_in(chunks, '"descriptor":')
            candidates = count_in(chunks, '"verdict": "candidate"')
        else:
            lines = tail(chunks, 300).splitlines()
            match = _SUMMARY.fullmatch(lines[-1]) if lines else None
            if match is None:
                return problems + ["no summary line"]
            cases, eliminated, flagged, candidates = map(int, match.groups())
            if eliminated + flagged + candidates != cases:
                problems.append(f"summary counts do not add up: {lines[-1]}")
        if candidates:
            problems.append(f"{candidates} candidates, expected 0")
        if want is not None and cases != want:
            problems.append(f"{cases} cases, expected {want}")
        other = seen.setdefault(family, cases)
        if other != cases:
            problems.append(f"{cases} cases, other output mode had {other}")
        return problems

    return check


def eliminate_plan(seed: int, passes: int, root: Path, src: Path) -> list:
    return [eliminate_pass(seed, j) for j in range(passes)]


def eliminate_pass(seed: int, index: int) -> list[Command]:
    """Both output modes of every family over a seeded window reaching
    q ~ 4096, in seeded order."""
    rng = random.Random(f"eliminate:{seed}:{index}")
    commands = []
    for family in FAMILIES:
        q_min, q_max = rng.randint(2, 8), rng.randint(4032, 4160)
        want = expected_cases(family, q_min, q_max)
        seen: dict = {}
        argv = ["eliminate", "--family", family,
                "--q-min", str(q_min), "--q-max", str(q_max)]
        commands.append(Command(
            argv, _eliminate_check(family, False, want, seen), f"{family}:text"))
        commands.append(Command(
            argv + ["--json"], _eliminate_check(family, True, want, seen),
            f"{family}:json"))
    rng.shuffle(commands)
    return commands


# -- feasible ----------------------------------------------------------------

STRATA = 50
LOG10_V = (3.0, 13.0)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
BRUTE_FORCE_MAX_V = 5000


def _merge(*factorizations: dict) -> dict:
    out: dict = {}
    for f in factorizations:
        for p, e in f.items():
            out[p] = out.get(p, 0) + e
    return out


def _small_factorization(n: int) -> dict:
    out: dict = {}
    for p in SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n != 1:
        raise ValueError(f"{n} is not {SMALL_PRIMES[-1]}-smooth")
    return out


def large_prime_input(rng, target: float) -> tuple[int, dict]:
    """v near target with v - 1 = m * p, p a prime near target / m."""
    m = rng.choice((1, 2, 3, 4, 6))
    p = max(int(target) // m, 5) | 1
    while not is_prime(p):
        p += 2
    return m * p + 1, _merge(_small_factorization(m), {p: 1})


def smooth_input(rng, target: float) -> tuple[int, dict]:
    """v near target with v - 1 a product of SMALL_PRIMES."""
    n, factors = 1, {}
    while n * 2 <= target:
        p = rng.choice(SMALL_PRIMES)
        if n * p > target:
            p = 2
        n *= p
        factors[p] = factors.get(p, 0) + 1
    return n + 1, factors


def divisors_from(factors: dict) -> list[int]:
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def feasible_oracle(v: int, lam: int, factors_r_mod: dict) -> list[tuple]:
    """Admissible (v, b, r, k, lambda) with r | r_mod, from the known
    factorization of r_mod = lambda * (v - 1)."""
    target = lam * (v - 1)
    found = []
    for r in divisors_from(factors_r_mod):
        if target % r:
            continue
        k = 1 + target // r
        if not 2 < k < v - 1 or (v * r) % k:
            continue
        b = v * r // k
        if v <= b and k <= r and lam * v < r * r:
            found.append((v, b, r, k, lam))
    return sorted(found)


def brute_force(v: int, lam: int, r_mod: int) -> set[tuple]:
    """The exhaustive double loop over every r | r_mod and every k."""
    target = lam * (v - 1)
    found = set()
    for r in range(1, r_mod + 1):
        if r_mod % r:
            continue
        for k in range(3, v - 1):
            if r * (k - 1) != target or (v * r) % k:
                continue
            b = v * r // k
            if v <= b and k <= r and lam * v < r * r:
                found.add((v, b, r, k, lam))
    return found


def row_problems(row: tuple, v: int, lam: int, r_mod: int) -> list[str]:
    """Counting identities and inequalities a printed tuple must satisfy."""
    rv, b, r, k, rl = row
    rules = (
        (rv == v and rl == lam, "v or lambda differs from the command"),
        (r * (k - 1) == lam * (v - 1), "r(k-1) != lambda(v-1)"),
        (v * r == b * k, "vr != bk"),
        (v <= b, "v > b"),
        (k <= r, "k > r"),
        (lam * v < r * r, "lambda*v >= r^2"),
        (2 < k < v - 1, "trivial block size"),
        (r_mod % r == 0, "r does not divide r_mod"),
    )
    return [f"{row}: {why}" for ok, why in rules if not ok]


def _feasible_check(v: int, lam: int, factors_v1: dict):
    r_mod = lam * (v - 1)
    factors = _merge(factors_v1, _small_factorization(lam))

    def check(rc, chunks):
        problems = _exit_problems(rc)
        lines = _text(chunks).splitlines()
        want = feasible_oracle(v, lam, factors)
        if lines == ["no feasible parameter sets"]:
            rows = []
        elif lines[:1] == ["v\tb\tr\tk\tlambda"]:
            try:
                rows = [tuple(map(int, line.split("\t"))) for line in lines[1:]]
            except ValueError:
                return problems + ["unparsable parameter row"]
            if any(len(row) != 5 for row in rows):
                return problems + ["parameter row without 5 fields"]
        else:
            return problems + [f"unexpected output {lines[:2]!r}"]
        for row in rows:
            problems += row_problems(row, v, lam, r_mod)
        if rows != want:
            problems.append(f"printed {len(rows)} tuples, expected {len(want)}")
        if v <= BRUTE_FORCE_MAX_V and set(rows) != brute_force(v, lam, r_mod):
            problems.append("tuples differ from the brute-force double loop")
        return problems

    return check


def feasible_plan(seed: int, passes: int, root: Path, src: Path) -> list:
    return [feasible_pass(seed, j) for j in range(passes)]


def feasible_pass(seed: int, index: int) -> list[Command]:
    """One large-prime and one smooth v in each of STRATA equal slices of
    log10 v, shuffled.  One command in eight sets --lambda explicitly."""
    rng = random.Random(f"feasible:{seed}:{index}")
    lo, hi = LOG10_V
    commands = []
    for i in range(STRATA):
        for make in (large_prime_input, smooth_input):
            target = 10 ** (lo + (hi - lo) * (i + rng.random()) / STRATA)
            v, factors_v1 = make(rng, target)
            argv = ["feasible", "--v", str(v)]
            lam = 2
            if rng.randrange(8) == 0:
                lam = rng.randint(1, 3)
                argv += ["--lambda", str(lam)]
            commands.append(Command(argv, _feasible_check(v, lam, factors_v1),
                                    f"{make.__name__}:{i}"))
    rng.shuffle(commands)
    return commands
