"""Tests of the benchmark's own code.

    python3 -m unittest discover -s bench      (or: python3 -m pytest bench)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

import harness
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
READ_CATALOG = workloads.read_catalog


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n, pct in ((11, 100 / 11), (20, 50.0), (40, 75.0), (160, 93.75),
                       (3100, 100 * 3090 / 3100)):
            samples = list(range(n, 0, -1))
            got_pct, value = harness.tail_percentile(samples)
            self.assertEqual(got_pct, pct, n)
            self.assertEqual(value, n - 10)
            self.assertEqual(sum(1 for x in samples if x > value), 10)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            harness.tail_percentile([1.0] * 10)

    def test_median_by_kind(self):
        kinds = ["a", "b", "c"] * 3
        cmds = [harness.Command([], None, k) for k in kinds]
        #           a    b    c    a    b    c    a    b    c
        seconds = [1.0, 5.0, 9.0, 2.0, 7.0, 8.0, 30.0, 6.0, 7.0]
        # kind medians: a 2, b 6, c 8
        self.assertEqual(harness.median_by_kind(cmds, seconds), 6.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # Each clock read advances one tick.
        ticks = iter(range(100))
        rec = tracing.Recorder(clock=lambda: float(next(ticks)))

        def leaf():
            return 1

        leaf_w = rec.wrap("arith.leaf", leaf)

        def inner(depth):
            if depth:
                return inner_w(depth - 1)
            return leaf_w()

        inner_w = rec.wrap("arith.inner", inner)

        def outer():
            return inner_w(1) + leaf_w()

        outer_w = rec.wrap("cli.outer", outer)
        self.assertEqual(outer_w(), 2)
        # Clock reads: outer 0; inner 1; inner 2; leaf 3..4; inner end 5;
        # inner end 6; leaf 7..8; outer end 9.
        self_time, inclusive, calls = rec.reduce()
        self.assertEqual(calls, {"cli.outer": 1, "arith.inner": 2,
                                 "arith.leaf": 2})
        self.assertEqual(inclusive["cli.outer"], 9.0)
        self.assertEqual(inclusive["arith.inner"], 5.0)  # outermost only
        self.assertEqual(inclusive["arith.leaf"], 2.0)
        self.assertEqual(self_time["cli"], 9.0 - 5.0 - 1.0)
        self.assertEqual(self_time["arith"], 6.0)
        self.assertEqual(sum(self_time.values()), inclusive["cli.outer"])

    def test_patches_restore(self):
        mod = types.SimpleNamespace(f=len)
        patches = tracing.Patches()
        patches.set(mod, "f", abs)
        patches.set(mod, "f", min)
        patches.undo()
        self.assertIs(mod.f, len)


class OutputHelpersTest(unittest.TestCase):
    def test_count_across_chunk_boundaries(self):
        text = '"verdict": "candidate", "verdict": "candidate"x'
        pattern = '"verdict": "candidate"'
        for cuts in ((), (5,), (1, 2, 3, 30), tuple(range(1, len(text)))):
            bounds = (0,) + cuts + (len(text),)
            chunks = [text[a:b] for a, b in zip(bounds, bounds[1:])]
            self.assertEqual(harness.count_in(chunks, pattern), 2, cuts)
            self.assertEqual(harness.tail(chunks, 3), 'e"x')

    def test_sink_digest_matches_joined_output(self):
        sink = harness.Sink()
        parts = ["a" * 5000, "b", "c\n"] * 3
        for part in parts:
            sink.write(part)
        data = "".join(parts).encode()
        self.assertEqual(sink.digest(),
                         (hashlib.sha256(data).hexdigest(), len(data)))
        self.assertEqual("".join(sink.chunks), "".join(parts))

    def test_feasible_oracle_matches_brute_force(self):
        for v in range(4, 200):
            for lam in (1, 2, 3):
                factors = workloads._merge(
                    workloads._small_factorization(lam), self._factor(v - 1))
                self.assertEqual(
                    set(workloads.feasible_oracle(v, lam, factors)),
                    workloads.brute_force(v, lam, lam * (v - 1)), (v, lam))

    @staticmethod
    def _factor(n):
        out, d = {}, 2
        while n > 1:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        return out


def run_bench(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(argv))
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def small_catalog(catalog_dir):
    """The catalog without the two large entries, so a run takes a second."""
    entries = READ_CATALOG(catalog_dir)
    return {k: v for k, v in entries.items()
            if k not in ("line9_psu35", "line10_hs")}


class NegativeControlTest(unittest.TestCase):
    """Corrupting what the benchmark expects must show as failures."""

    def test_clean_run_has_no_failures(self):
        with mock.patch.object(workloads, "read_catalog", small_catalog):
            result = run_bench("--workload", "certify", "--seed", "3",
                               "--seconds", "1")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_corrupted_expected_row(self):
        def corrupted(catalog_dir):
            entries = small_catalog(catalog_dir)
            expected = dict(entries["line6_psl28"]["expected"])
            expected["b"] += 1
            entries["line6_psl28"]["expected"] = expected
            return entries

        with mock.patch.object(workloads, "read_catalog", corrupted):
            result = run_bench("--workload", "certify", "--seed", "3",
                               "--seconds", "1")
        self.assertFalse(result["correct"])
        # construct and verify of the corrupted entry, in each of 2 passes
        self.assertEqual(result["failed"], 4)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_corrupted_digest(self):
        real = harness.Sink.digest
        calls = iter(range(10**6))

        def drifting(self):
            digest, size = real(self)
            return f"{digest}{next(calls)}", size

        with mock.patch.object(workloads, "read_catalog", small_catalog), \
                mock.patch.object(harness.Sink, "digest", drifting):
            result = run_bench("--workload", "certify", "--seed", "3",
                               "--seconds", "1")
        # Each re-run command (the faster half of the 16 in the first pass)
        # disagrees with its first run.
        self.assertEqual(result["failed"], 8)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)


class EliminateCheckTest(unittest.TestCase):
    """The eliminate checks on synthetic output: 5 Suzuki cases
    (q = 8, 32, 128, 512, 2048) in every seeded window."""

    def checks(self):
        cmds = {c.kind: c for c in workloads.eliminate_pass(1, 0)}
        return cmds["suzuki:text"].check, cmds["suzuki:json"].check

    def test_consistent_output_passes(self):
        text, as_json = self.checks()
        summary = "summary: 5 cases, 5 eliminated, 0 flagged, 0 candidates"
        self.assertEqual(text(0, ["case suzuki q=8\n", summary, "\n"]), [])
        doc = '{"descriptor": {}, "verdict": "eliminated"}'
        self.assertEqual(as_json(0, ["[" + ",".join([doc] * 5) + "]", "\n"]), [])

    def test_candidate_or_miscount_fails(self):
        text, as_json = self.checks()
        summary = "summary: 5 cases, 4 eliminated, 0 flagged, 1 candidates"
        self.assertTrue(text(0, [summary, "\n"]))
        text, as_json = self.checks()
        doc = '{"descriptor": {}, "verdict": "eliminated"}'
        self.assertTrue(as_json(0, ["[" + ",".join([doc] * 4) + "]\n"]))
        bad = '{"descriptor": {}, "verdict": "candidate"}'
        text, as_json = self.checks()
        self.assertTrue(as_json(0, ["[" + ",".join([doc] * 4 + [bad]) + "]\n"]))
        self.assertTrue(as_json(1, ["[" + ",".join([doc] * 5) + "]\n"]))


class TracedRunTest(unittest.TestCase):
    def test_layers_cover_the_traced_time(self):
        with mock.patch.object(workloads, "read_catalog", small_catalog):
            result = run_bench("--workload", "certify", "--seed", "3",
                               "--seconds", "1", "--trace", "1")
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertTrue(result["correct"])
        self.assertGreater(metrics["perm.build_calls"], 0)
        self.assertEqual(metrics["arith.factorize_calls"], 0)
        self.assertEqual(metrics["elimination.sweep_s"], 0)
        layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(layers / metrics["trace.wall_s"], 1, delta=0.05)


class SetUpTest(unittest.TestCase):
    def test_every_workload_sets_up(self):
        for name, workload in run.WORKLOADS.items():
            with self.subTest(name), tempfile.TemporaryDirectory(
                    prefix=".bench-work-", dir=ROOT) as tmp:
                mods, plan = run.set_up(workload, 1, 2, Path(tmp) / "s")
                self.assertEqual(set(mods), set(tracing.LAYERS))
                self.assertEqual(len(plan), 2)
                kinds = [sorted(cmd.kind for cmd in cmds) for cmds in plan]
                self.assertEqual(kinds[0], kinds[1])
                self.assertEqual(len(set(kinds[0])), len(kinds[0]))
                self.assertNotEqual([c.argv for c in plan[0]],
                                    [c.argv for c in plan[1]])


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
