"""Tests of the benchmark's own logic, on synthetic input.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import io
import json
import unittest

import bench
import compare


def span(id_, parent, name, start, end, **attrs):
    return dict(id=id_, parent=parent, name=name, start_s=start, end_s=end,
                run_id="r", **attrs)


def records_from_reference(reference):
    """Cell records the driver would print for a stored reference."""
    out = []
    for key, metrics in reference.items():
        cell, run_index = key.rsplit("#", 1)
        out.append({"cell": cell, "run_index": int(run_index), "seed": 0,
                    "metrics": dict(metrics)})
    return out


def load_reference(workload):
    refs = json.loads((bench.HERE / "refs" / f"{workload}.json").read_text())
    return refs[str(bench.DEFAULT_SIM_SEED)]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_tail_count(self):
        values = list(range(1, 101))
        self.assertEqual(bench.percentile(values, 0.9), (90, 10))
        self.assertEqual(bench.percentile(values, 0.5), (50, 50))
        self.assertEqual(bench.percentile([7.0], 0.9), (7.0, 0))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(bench.supported_percentile(range(1, 101), 0.9), 90)
        self.assertIsNone(bench.supported_percentile(range(1, 100), 0.9))
        self.assertIsNone(bench.supported_percentile(range(1, 11), 0.5))


    def test_p50_is_the_median_of_sweep_medians(self):
        # four cells with a gap at the middle; the third sweep is slow
        sweeps = [[10.0, 50.0, 150.0, 800.0], [10.0, 50.0, 150.0, 800.0],
                  [10.0, 90.0, 200.0, 800.0]]
        self.assertEqual(bench.median_of_sweep_medians(sweeps), 100.0)
        # pooled, the median would pair the slow sweep's 90 (the slowest
        # run below the gap) with 150 (the fastest above it)
        self.assertEqual(bench.statistics.median(sum(sweeps, [])), 120.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span(1, 0, "workload", 0.0, 10.0),
            span(2, 1, "runtime.sweep", 1.0, 4.0),
            span(3, 1, "runtime.codec", 3.0, 6.0),   # overlaps its sibling
            span(4, 1, "probe.sign", 8.0, 12.0),     # runs past its parent
            span(5, 2, "cell.run", 2.0, 3.0),
            span(6, 2, "cell.run", 2.5, 3.5),        # concurrent cell
        ]
        self_s = bench.self_times(spans)
        # children cover [1, 6] and [8, 10] of the root
        self.assertAlmostEqual(self_s[1], 3.0)
        # the cells cover [2, 3.5] of the sweep's [1, 4]
        self.assertAlmostEqual(self_s[2], 1.5)
        self.assertAlmostEqual(self_s[3], 3.0)
        self.assertAlmostEqual(self_s[5], 1.0)

    def test_hot_cells_share_busy_time(self):
        spans = [span(1, 0, "cell.run", 0, 3, cell="a", seed=1),
                 span(2, 0, "cell.run", 0, 1, cell="b", seed=1),
                 span(3, 0, "cell.run", 1, 1.5, cell="a", seed=2),
                 span(4, 0, "cell.run", 0, 0.5, cell="c", seed=1)]
        self.assertEqual(bench.hot_cells(spans, top=2),
                         [("a", 3.5 / 5), ("b", 1 / 5)])


class CorrectnessTest(unittest.TestCase):
    def doctor(self, workload, match, metric, value):
        records = records_from_reference(load_reference(workload))
        target = next(r for r in records if match in r["cell"])
        target["metrics"][metric] = value
        return bench.check_records(workload, records, None)

    def test_stored_references_pass_their_invariants(self):
        for workload in bench.WORKLOADS:
            reference = load_reference(workload)
            records = records_from_reference(reference)
            self.assertEqual(bench.check_records(workload, records, reference),
                             (0, None), workload)

    def test_each_invariant_trips(self):
        cases = [
            ("bft_fanout", "n=50", "completed", 0, "completed"),
            ("bft_fanout", "n=4 ", "max_view_changes", 1, "max_view_changes"),
            ("bft_stream", "w=8", "committed_requests", 2047,
             "committed_requests"),
            ("campaign", "target=lazarus fault=collude", "safety_violated", 1,
             "safety_violated"),
        ]
        for workload, match, metric, value, named in cases:
            failed, first = self.doctor(workload, match, metric, value)
            self.assertEqual(failed, 1, workload)
            self.assertIn(named, first)

    def test_a_safety_violation_outside_lazarus_is_no_invariant(self):
        failed, _ = self.doctor("campaign", "target=uniform fault=collude",
                                "safety_violated", 1)
        self.assertEqual(failed, 0)

    def test_editing_one_reference_record_fails_exactly_that_cell(self):
        reference = copy.deepcopy(load_reference("campaign"))
        records = records_from_reference(reference)
        key = "campaign/target=skewed fault=partition rate=0.5 n=7#0"
        reference[key]["committed_requests"] += 1
        failed, first = bench.check_records("campaign", records, reference)
        self.assertEqual(failed, 1)
        self.assertTrue(first.startswith(key.split("#")[0]), first)
        self.assertIn("committed_requests", first)

    def test_a_thrown_cell_fails(self):
        records = [{"cell": "campaign/x", "run_index": 0, "seed": 3,
                    "metrics": {}, "error": "boom"}]
        failed, first = bench.check_records("campaign", records, None)
        self.assertEqual(failed, 1)
        self.assertIn("boom", first)


class LayerTest(unittest.TestCase):
    def test_counts_from_bft_records(self):
        params = [{"name": "requests", "type": "int", "value": "64"}]
        records = [
            {"cell": "bft_scaling/n=4 proto=pbft", "seed": 1, "params": params,
             "metrics": {"completed": 1, "msgs_per_committed_request": 15.25,
                         "kib_per_request": 6, "max_view_changes": 0}},
            {"cell": "campaign/target=x", "seed": 1, "params": [],
             "metrics": {"committed_requests": 19, "max_view_changes": 44,
                         "state_transfers": 2}},
        ]
        counts = bench.count_layers(records, sim_events=1000)
        self.assertEqual(counts["bft.msgs_per_committed_request"], 976 / 83)
        self.assertEqual(counts["bft.commit_ratio"], 83 / 85)
        self.assertEqual(counts["bft.view_changes"], 44)
        self.assertEqual(counts["bft.state_transfers"], 2)
        self.assertEqual(counts["sim.events_per_committed_request"], 1000 / 83)

    def test_every_per_layer_metric_is_produced(self):
        records = records_from_reference(load_reference("campaign"))
        spans = [span(1, 0, "workload", 0, 10, sim_events=5),
                 span(2, 1, "runtime.expand", 0, 1),
                 span(3, 1, "runtime.sweep", 1, 5),
                 span(4, 1, "runtime.codec", 5, 6),
                 span(5, 1, "runtime.render", 6, 7)]
        spans += [span(6 + i, 3, "cell.run", 1, 2 + i, cell=r["cell"],
                       seed=r["seed"]) for i, r in enumerate(records)]
        produced = (set(bench.count_layers(records, 5))
                    | set(bench.timed_layers(spans, records, 4))
                    | set(bench.PROBES.values()) | {"tracing.overhead_frac"})
        self.assertEqual(produced, {m["name"] for m in bench.SPEC["per_layer"]})


class CompareTest(unittest.TestCase):
    parent = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.3, 10.0, 9.7, 10.1]

    def test_improved_needs_nine_of_ten_pairs_and_a_gap_past_the_iqr(self):
        change = [p * 0.8 for p in self.parent]
        self.assertEqual(bench.verdict(self.parent, change, 0.2, "lower"),
                         ("improved", 1.0))
        # eight of ten pairs won is not enough
        change[0], change[1] = 11.0, 11.0
        self.assertEqual(bench.verdict(self.parent, change, 0.2, "lower")[0],
                         "unchanged")

    def test_unchanged_and_worse(self):
        self.assertEqual(bench.verdict(self.parent, list(self.parent), 0.2,
                                       "lower"), ("unchanged", 0.0))
        slower = [p * 1.3 for p in self.parent]
        self.assertEqual(bench.verdict(self.parent, slower, 0.2, "lower")[0],
                         "worse")
        # "higher is better" flips the sides
        self.assertEqual(bench.verdict(self.parent, slower, 0.2, "higher")[0],
                         "improved")

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(bench.verdict(noisy, change, 0.2, "lower")[0],
                         "unresolved")

    def result(self, commit="a", flags="Release: -O3", wall=1.0, failed=0):
        return {"provenance": {"workload": "campaign", "commit": commit,
                               "compiler": "GNU", "flags": flags, "nproc": 4,
                               "threads": 4, "sim_seed": 1},
                "seed": 0, "attempted": 10, "failed": failed,
                "metrics": {m["name"]: {"value": wall}
                            for m in bench.SPEC["end_to_end"]}}

    def test_compare_refuses_mismatched_provenance(self):
        parent = {("campaign", s): self.result() for s in range(3)}
        change = {("campaign", s): self.result(commit="b") for s in range(3)}
        self.assertEqual(compare.compare(parent, change, io.StringIO()), 0)
        change[("campaign", 1)] = self.result(flags="Debug")
        with self.assertRaisesRegex(ValueError, "flags"):
            compare.compare(parent, change, io.StringIO())

    def test_compare_rows_flag_worse_metrics_and_failed_cells(self):
        parent = {("campaign", s): self.result() for s in range(10)}
        change = {("campaign", s): self.result(wall=2.0, failed=s % 2)
                  for s in range(10)}
        out = io.StringIO()
        worse = compare.compare(parent, change, out)
        self.assertEqual(worse, len(bench.SPEC["end_to_end"]) + 1)
        self.assertIn("cells_failed", out.getvalue())

    def test_one_failing_run_of_ten_is_worse_and_blocks_improved(self):
        parent = {("campaign", s): self.result(wall=1.0 + s / 100)
                  for s in range(10)}
        change = {("campaign", s): self.result(wall=0.5 + s / 100,
                                               failed=int(s == 3))
                  for s in range(10)}
        out = io.StringIO()
        self.assertEqual(compare.compare(parent, change, out), 1)
        rows = out.getvalue().splitlines()[1:]
        self.assertTrue(rows[-1].endswith("worse"), rows[-1])
        self.assertIn("1 of 100 failed", rows[-1])
        self.assertFalse(any(r.endswith("improved") for r in rows), rows)
        # the same faster change without the failure is improved
        for key in change:
            change[key]["failed"] = 0
        out = io.StringIO()
        self.assertEqual(compare.compare(parent, change, out), 0)
        self.assertIn("improved", out.getvalue())


if __name__ == "__main__":
    unittest.main()
