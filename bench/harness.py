"""Closed-loop runner for `ftdesigns` commands executed in-process.

One caller, one thread: each command is `ftdesigns.cli.main(argv)` with
stdout redirected to a `Sink`, and the next command starts only after the
previous one returned.  Only the call itself is timed; hashing the output
and checking it happen between commands, outside the timed region, and so
do the samples of machine speed that the times are scaled by (SpeedProbe).
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

# The per-command tail is read where this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

# Seconds that `reference_work` takes on the reference machine (2 vCPU,
# Python 3.11); timings are scaled to that speed, see SpeedProbe.
REFERENCE_S = 0.0025
# Least time between two speed samples within a pass.
PROBE_EVERY_S = 0.25


class Sink:
    """Stand-in for stdout that keeps what is written for the checks.

    Large writes are kept by reference, so holding a big JSON document
    costs no copy; runs of small writes are joined every SMALL_RUN writes,
    so streaming output does not pay per-string overhead.  The digest and
    byte count are taken after the command returns.
    """

    SMALL_WRITE = 4096
    SMALL_RUN = 4096

    def __init__(self):
        self._chunks: list[str] = []
        self._small: list[str] = []

    def write(self, text: str) -> int:
        if len(text) >= self.SMALL_WRITE:
            self._join_small()
            self._chunks.append(text)
        else:
            self._small.append(text)
            if len(self._small) >= self.SMALL_RUN:
                self._join_small()
        return len(text)

    def flush(self) -> None:
        pass

    def _join_small(self) -> None:
        if self._small:
            self._chunks.append("".join(self._small))
            self._small = []

    @property
    def chunks(self) -> list[str]:
        self._join_small()
        return self._chunks

    def digest(self) -> tuple[str, int]:
        """(sha256 hex digest, byte count) of everything written, encoded
        a slice at a time so that no full copy of the output is made."""
        h = hashlib.sha256()
        size = 0
        step = 1 << 20
        for chunk in self.chunks:
            for i in range(0, len(chunk), step):
                data = chunk[i:i + step].encode()
                h.update(data)
                size += len(data)
        return h.hexdigest(), size


def count_in(chunks, pattern: str) -> int:
    """Occurrences of pattern in the concatenation of chunks, without
    building it: an occurrence that straddles a boundary lies inside the
    len(pattern) - 1 characters on either side of it."""
    edge = len(pattern) - 1
    total = 0
    carry = ""
    for chunk in chunks:
        total += chunk.count(pattern)
        if carry and edge:
            total += (carry + chunk[:edge]).count(pattern)
        carry = (carry + chunk)[-edge:] if len(chunk) < edge else chunk[-edge:]
    return total


def tail(chunks, n: int) -> str:
    """The last n characters of the concatenation of chunks."""
    out = ""
    for chunk in reversed(chunks):
        out = chunk[-(n - len(out)):] + out
        if len(out) >= n:
            break
    return out


# A check gets (exit code, written chunks) and returns the problems found.
Check = Callable[[object, list], list]


@dataclass
class Command:
    argv: list
    check: Check
    # The same kind recurs once in every pass, on that pass's own inputs.
    kind: str
    env: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    digest: str
    out_bytes: int
    problems: list


def run_command(main, cmd: Command) -> Outcome:
    """Time one command, then hash and check its output.

    An exception from the command is a failure of that command, reported
    with its traceback on stderr; the run goes on.
    """
    os.environ.update(cmd.env)
    sink = Sink()
    crash = None
    with redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            rc = main(cmd.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a counted failure of this command
            rc = None
            crash = traceback.format_exc()
        seconds = time.perf_counter() - t0
    digest, size = sink.digest()
    if crash is not None:
        print(f"bench: {' '.join(cmd.argv)} raised\n{crash}", file=sys.stderr)
        problems = ["raised an exception"]
    else:
        problems = cmd.check(rc, sink.chunks)
    for problem in problems:
        print(f"bench: FAIL {' '.join(cmd.argv)}: {problem}", file=sys.stderr)
    return Outcome(seconds, digest, size, problems)


def reference_work() -> float:
    """Seconds taken by a fixed slice of interpreter work: permutation
    composition into tuples, dict updates, integer arithmetic and string
    building, the kinds of work `ftdesigns` does.  It is the benchmark's own
    code, so no change to the program can alter it."""
    t0 = time.perf_counter()
    p = tuple(range(256))
    q = tuple((7 * i + 3) % 256 for i in range(256))
    counts: dict = {}
    for i in range(150):
        p = tuple(q[j] for j in p)
        counts[p[i % 256]] = counts.get(p[i % 256], 0) + 1
    n = 1
    for _ in range(2000):
        n = (n * 1103515245 + 12345) % (1 << 61)
    ",".join(str(x) for x in range(3000))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples how fast the machine runs, between commands.

    On a shared host the same code runs up to twice as slow from one minute
    to the next.  Each sample is the fastest of three `reference_work` runs,
    over REFERENCE_S.  A command's time is divided by the mean of the samples
    taken just before and just after it.  The program under test cannot
    change the reference work, so this cancels only the machine.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        self.samples.append(min(reference_work() for _ in range(3)) / REFERENCE_S)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()


@dataclass
class PassResult:
    outcomes: list
    # Machine speed around each command: 1 on the reference machine at its
    # usual speed, 2 when it runs half as fast.
    speeds: list

    def seconds(self) -> list[float]:
        """Per-command times scaled to the reference speed."""
        return [o.seconds / s for o, s in zip(self.outcomes, self.speeds)]


def run_pass(main, commands) -> PassResult:
    probe = SpeedProbe()
    probe.sample()
    outcomes, before = [], []
    for cmd in commands:
        before.append(len(probe.samples) - 1)
        outcomes.append(run_command(main, cmd))
        probe.sample_if_due()
    probe.sample()
    # The first sample after command i is the one after its last sample.
    samples = probe.samples
    speeds = [(samples[b] + samples[b + 1]) / 2 for b in before]
    return PassResult(outcomes, speeds)


def digest_mismatches(commands, first, second) -> list[int]:
    """Indices of the commands whose two runs wrote different bytes; each
    is reported on stderr."""
    bad = []
    for i, (cmd, a, b) in enumerate(zip(commands, first, second)):
        if a.digest != b.digest:
            bad.append(i)
            print(f"bench: FAIL {' '.join(cmd.argv)}: stdout differs between "
                  f"identical runs ({a.digest[:12]} vs {b.digest[:12]})",
                  file=sys.stderr)
    return bad


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) at the highest percentile that has at least
    TAIL_MIN_BEYOND samples above it.

    With the nearest-rank definition (the p-th percentile of n sorted values
    is the value at rank ceil(p * n / 100)) that is rank n - TAIL_MIN_BEYOND,
    i.e. percentile 100 * (n - TAIL_MIN_BEYOND) / n.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"{n} samples leave none with "
                         f"{TAIL_MIN_BEYOND} beyond it")
    rank = n - TAIL_MIN_BEYOND
    return 100 * rank / n, xs[rank - 1]


def median_by_kind(commands, seconds) -> float:
    """Median over the kinds of command of each kind's median time."""
    by_kind: dict[str, list[float]] = {}
    for cmd, t in zip(commands, seconds):
        by_kind.setdefault(cmd.kind, []).append(t)
    return statistics.median(statistics.median(ts) for ts in by_kind.values())


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        kib /= 1024
    return kib / 1024
