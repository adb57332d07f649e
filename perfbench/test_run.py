"""Tests of the campaign benchmark's own arithmetic and gates.

    python3 -m unittest discover -s perfbench

They run on synthetic inputs, so they need no build.
"""

import json
import statistics
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def span(name, tid, start, dur):
    return [name, tid, start, dur]


def fake_iteration(checksums=None, counters=None, traced=False, workers=3):
    base_counters = {name: 7 for name in run.EXACT_COUNTERS}
    base_counters.update(
        {
            "core.fleet.quarantined": 0,
            "core.ingest.flows_lost": 0,
            "core.cache.hits": 0,
            "core.cache.writes": 4,
            "core.ingest.spill_segments": 0,
        }
    )
    base_counters.update(counters or {})
    return {
        "traced": traced,
        "workers": workers,
        "planned_jobs": 4,
        "merged_results": 2,
        "checksums": dict(checksums or {"fleet_report_json": "0x1", "fleet_summary_csv": "0x2"}),
        "counters": base_counters,
    }


def fake_raw(iterations, workload="paper_fleet", seed=1):
    return {
        "workload": workload,
        "seed": seed,
        "expected_results": 2,
        "cold_cache": workload == "paper_fleet",
        "warm_cache": workload == "warm_replay",
        "spill": False,
        "iterations": iterations,
    }


class QuantileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.quantile(values, 0.0), 1.0)
        self.assertEqual(run.quantile(values, 0.5), 3.0)
        self.assertEqual(run.quantile(values, 0.9), 5.0)
        self.assertEqual(run.quantile(values, 1.0), 5.0)
        # rank round(0.5 * 3) = 2 of four values
        self.assertEqual(run.quantile([1.0, 2.0, 3.0, 4.0], 0.5), 3.0)
        self.assertEqual(run.quantile([], 0.5), 0.0)

    def test_spread_is_interquartile_range_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)
        self.assertEqual(run.spread([3.0, 3.0, 3.0]), 0.0)
        self.assertEqual(run.spread([3.0]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        records = run.self_times(
            [
                span("parent", 1, 0, 100),
                span("child", 1, 10, 30),
                span("grandchild", 1, 20, 10),
                span("child2", 1, 50, 10),
                span("other_thread", 2, 0, 100),
            ]
        )
        by_name = {r["name"]: r for r in records}
        self.assertEqual(by_name["parent"]["self"], 60)
        self.assertEqual(by_name["child"]["self"], 20)
        self.assertEqual(by_name["grandchild"]["self"], 10)
        self.assertEqual(by_name["child2"]["self"], 10)
        self.assertEqual(by_name["other_thread"]["self"], 100)
        self.assertIsNone(by_name["parent"]["parent"])
        self.assertEqual(by_name["grandchild"]["parent"], "child")
        self.assertIsNone(by_name["other_thread"]["parent"])

    def test_sibling_after_parent_end_is_top_level(self):
        records = run.self_times([span("a", 1, 0, 10), span("b", 1, 10, 5)])
        self.assertEqual([r["parent"] for r in records], [None, None])
        self.assertEqual([r["self"] for r in records], [10, 5])

    def test_child_overrunning_parent_is_clipped(self):
        records = run.self_times([span("a", 1, 0, 10), span("b", 1, 5, 20)])
        self.assertEqual(records[0]["self"], 5)

    def test_layer_split_accounts_for_the_wall_clock(self):
        s = 1_000_000_000  # one second in ns
        iteration = {
            "wall_s": 2.0,
            "run_s": 1.0,
            "run_workers": 2,
            "job_seconds": [0.8, 0.9],
            "timers": {"core.cache.read_s": 0.0, "core.cache.write_s": 0.1},
            "timer_calls": {"core.cache.read_s": 0, "core.cache.write_s": 2},
            "spans": [
                # main thread: run, merge, render
                span("bench.fleet_run", 1, 0, s),
                span("fleet.run", 1, 0, s),
                span("bench.merge_shards", 1, s, s // 2),
                span("index.append", 1, s, s // 4),
                span("bench.render.fleet_report_json", 1, 3 * s // 2, s // 2),
                span("analysis.fleet_report_json", 1, 3 * s // 2, s // 2),
                # worker 2: one job with a crawl, then a snapshot write
                span("fleet.job", 2, 0, 7 * s // 10),
                span("campaign.crawl", 2, s // 10, s // 2),
                span("index.serialize", 2, 7 * s // 10, s // 20),
                # worker 3: one job, no campaign
                span("fleet.job", 3, 0, 9 * s // 10),
            ],
        }
        split, _ = run.layer_split(iteration)
        self.assertAlmostEqual(split["core.campaign"]["self_s"], 0.5)
        self.assertAlmostEqual(split["core.framework"]["self_s"], 0.2 + 0.9)
        # the index spans nested in the snapshot write leave 0.05 s of cache I/O
        self.assertAlmostEqual(split["core.cache"]["self_s"], 0.05)
        self.assertAlmostEqual(split["analysis.index"]["self_s"], 0.25 + 0.05)
        self.assertAlmostEqual(split["core.merge"]["self_s"], 0.25)
        self.assertAlmostEqual(split["analysis.export"]["share"], 0.25)
        # worker budget 2 x 1 s minus 1.6 s of jobs and 0.1 s of cache I/O
        self.assertAlmostEqual(split["core.fleet"]["self_s"], 0.3)
        self.assertAlmostEqual(sum(row["share"] for row in split.values()), 1.0)


class GateTest(unittest.TestCase):
    def test_consistent_run_passes(self):
        raw = fake_raw([fake_iteration(), fake_iteration(traced=True), fake_iteration(workers=1)])
        self.assertEqual(run.check_run(raw, {}), [])

    def test_report_checksum_mismatch_fails(self):
        changed = fake_iteration(checksums={"fleet_report_json": "0x9", "fleet_summary_csv": "0x2"})
        problems = run.check_run(fake_raw([fake_iteration(), changed]), {})
        self.assertTrue(any("checksums differ" in p for p in problems))

    def test_counter_mismatch_fails(self):
        changed = fake_iteration(counters={"proxy.flows": 8}, workers=1)
        problems = run.check_run(fake_raw([fake_iteration(), changed]), {})
        self.assertTrue(any("proxy.flows" in p for p in problems))

    def test_pins_are_enforced(self):
        iteration = fake_iteration()
        pins = {"paper_fleet": {"1": run.pin_entry(iteration)}}
        self.assertEqual(run.check_run(fake_raw([iteration]), pins), [])
        pins["paper_fleet"]["1"]["reports"]["fleet_report_json"] = "0xbad"
        self.assertTrue(run.check_run(fake_raw([iteration]), pins))
        pins["paper_fleet"]["1"] = run.pin_entry(iteration)
        pins["paper_fleet"]["1"]["counters"]["proxy.flows"] = 0
        self.assertTrue(run.check_run(fake_raw([iteration]), pins))
        # an unpinned seed is checked for consistency only
        self.assertEqual(run.check_run(fake_raw([iteration], seed=2), pins), [])

    def test_warm_replay_must_match_cold_reports(self):
        iteration = fake_iteration(counters={"core.cache.hits": 4, "core.cache.writes": 0})
        raw = fake_raw([iteration], workload="warm_replay")
        raw["prefill_checksums"] = dict(iteration["checksums"])
        self.assertEqual(run.check_run(raw, {}), [])
        raw["prefill_checksums"]["fleet_summary_csv"] = "0x3"
        self.assertTrue(any("cold run" in p for p in run.check_run(raw, {})))
        raw["prefill_checksums"] = dict(iteration["checksums"])
        pins = {"paper_fleet": {"1": {"reports": {"fleet_report_json": "0x7"}, "counters": {}}}}
        self.assertTrue(any("pinned paper_fleet" in p for p in run.check_run(raw, pins)))

    def test_quarantine_and_cache_misses_fail(self):
        bad = fake_iteration(counters={"core.fleet.quarantined": 1})
        self.assertTrue(run.check_run(fake_raw([bad]), {}))
        cold_miss = fake_iteration(counters={"core.cache.writes": 3})
        self.assertTrue(run.check_run(fake_raw([cold_miss]), {}))


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, run.METRIC_NAME)
                self.assertLessEqual(len(name), 64)
                self.assertRegex(unit, r"\A[A-Za-z0-9_/%.-]{1,16}\Z")
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))
        self.assertRegex("core.cache.hits", run.METRIC_NAME)
        self.assertIsNone(run.METRIC_NAME.match("wall s"))
        self.assertIsNone(run.METRIC_NAME.match("wall_s\n"))

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for workload in spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_pins_cover_both_seeds_and_replay_matches_cold(self):
        pins = json.loads(run.PINS_PATH.read_text())
        for workload in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                entry = pins[workload][str(seed)]
                self.assertEqual(set(entry["counters"]), set(run.EXACT_COUNTERS))
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            self.assertEqual(
                pins["warm_replay"][str(seed)]["reports"],
                pins["paper_fleet"][str(seed)]["reports"],
            )


if __name__ == "__main__":
    unittest.main()
