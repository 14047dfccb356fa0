"""Tests of the benchmark's metric derivation and delivery checks, on
recorded runs (fixtures/*.json: one traced and one untraced repetition of
a workload plus its probe output, as cluster.py and perfprobe wrote them).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import derive

HERE = os.path.dirname(os.path.abspath(__file__))


def fixture(name):
    with open(os.path.join(HERE, "fixtures", f"{name}.json")) as f:
        return json.load(f)


def layer(fix):
    return derive.per_layer([fix["traced"]], [fix["untraced"]], fix["probe"],
                            fix["workload"])


class RecordedRunTest(unittest.TestCase):
    def test_every_metric_is_derived(self):
        for name in ("mc2g-wbcast", "kv-zipf-wbcast"):
            fix = fixture(name)
            e2e, per_rep = derive.end_to_end([fix["untraced"]])
            self.assertEqual(set(e2e), {n for n, _ in derive.END_TO_END +
                                        derive.UNBOUNDED})
            for metric, value in e2e.items():
                self.assertGreater(value, 0, f"{name} {metric}")
            self.assertEqual(fix["untraced"]["driver"]["failed"], 0)
            out = layer(fix)
            self.assertEqual(set(out), {n for n, _ in derive.PER_LAYER})

    def test_layers_a_workload_runs_are_non_zero(self):
        kv = layer(fixture("kv-zipf-wbcast"))
        for metric in ("wal.appends_per_op", "wal.bytes_per_op",
                       "buffer.bytes_copied_per_op", "wbcast.ts_agreed_ms",
                       "net.frames_per_writev", "proc.leader_cpu_util"):
            self.assertGreater(kv[metric], 0, metric)
        mc2g = layer(fixture("mc2g-wbcast"))
        # Not-run layers read 0 by rule, not by a failed lookup.
        for metric in ("wal.appends_per_op", "ftskeen.ts_agreed_ms",
                       "paxos.chosen_ms"):
            self.assertEqual(mc2g[metric], 0, metric)

    def test_sim_rows_keep_the_paper_order(self):
        out = layer(fixture("mc2g-wbcast"))
        self.assertEqual(out["sim.wbcast.cf_delta"], 3)
        self.assertEqual(out["sim.ftskeen.cf_delta"], 6)
        self.assertLessEqual(out["sim.wbcast.conc_delta"], 5)
        self.assertLessEqual(out["sim.ftskeen.conc_delta"], 12)

    def test_stage_segments_telescope_to_the_e2e_median(self):
        fig = fixture("mc2g-wbcast")["traced"]["fig"]
        segments = derive.stage_segments(fig, "wbcast")
        e2e = next(r for r in fig["stages"] if r["name"] == "e2e")
        self.assertAlmostEqual(sum(segments.values()), e2e["p50_ms"],
                               places=3)


class MissingInputTest(unittest.TestCase):
    """A missing counter, stage row, histogram or probe result must fail
    loudly instead of reading as 0."""

    def assert_missing(self, fix, pattern):
        with self.assertRaisesRegex(derive.MissingInput, pattern):
            layer(fix)

    def test_missing_counter(self):
        fix = fixture("mc2g-wbcast")
        del fix["traced"]["fig"]["metrics"]["net/writev_calls"]
        self.assert_missing(fix, "net/writev_calls")

    def test_missing_stage_row(self):
        fix = fixture("kv-zipf-wbcast")
        fix["traced"]["fig"]["stages"] = [
            r for r in fix["traced"]["fig"]["stages"]
            if r["name"] != "gts_known"]
        self.assert_missing(fix, "gts_known")

    def test_missing_probe_result(self):
        fix = fixture("mc2g-wbcast")
        del fix["probe"]["probes"]["kv.apply_ns"]
        self.assert_missing(fix, "kv.apply_ns")

    def test_missing_sim_row(self):
        fix = fixture("mc2g-wbcast")
        del fix["probe"]["sim"]["skeen"]
        self.assert_missing(fix, "skeen")

    def test_wal_workload_needs_wal_counters(self):
        fix = fixture("mc2g-wbcast")
        fix["workload"]["wal"] = True
        self.assert_missing(fix, "wal/appends")

    def test_ftskeen_workload_needs_paxos_histograms(self):
        fix = fixture("mc2g-wbcast")
        fix["workload"]["proto"] = "ftskeen"
        self.assert_missing(fix, "stage/paxos/chosen")

    def test_metrics_dump_without_final_line(self):
        fix = fixture("mc2g-wbcast")
        lines = fix["traced"]["jsonl"]["p3"].splitlines()
        fix["traced"]["jsonl"]["p3"] = "\n".join(
            json.dumps({**json.loads(l), "kind": "delta"}) for l in lines)
        self.assert_missing(fix, "final")

    def test_delivery_histogram_never_seen(self):
        fix = fixture("mc2g-wbcast")
        lines = []
        for raw in fix["traced"]["jsonl"]["p0"].splitlines():
            line = json.loads(raw)
            line["metrics"]["histograms"].pop("stage/wbcast/delivered", None)
            lines.append(json.dumps(line))
        fix["traced"]["jsonl"]["p0"] = "\n".join(lines)
        self.assert_missing(fix, "stage/wbcast/delivered")

    def test_driver_report_field(self):
        fix = fixture("mc2g-wbcast")
        del fix["untraced"]["driver"]["window_p90_ns"]
        with self.assertRaisesRegex(derive.MissingInput, "window_p90_ns"):
            derive.end_to_end([fix["untraced"]])


def seq(*ids):
    return "".join(f"{i:016x}\n" for i in ids).encode()


class DeliveryCheckTest(unittest.TestCase):
    # Two groups of two replicas; ids 1-3 go to both groups, 4 to group 0.
    ISSUED = {1: 0b11, 2: 0b11, 3: 0b11, 4: 0b01}

    def check(self, g0, g1, g0_other=None):
        return derive.check_deliveries(
            [g0, g0_other if g0_other is not None else g0, g1, g1], 2,
            self.ISSUED)

    def test_agreeing_run_passes(self):
        self.assertEqual(self.check(seq(1, 4, 2, 3), seq(1, 2, 3)), [])

    def test_replica_divergence(self):
        out = self.check(seq(1, 2, 3), seq(1, 2, 3), g0_other=seq(2, 1, 3))
        self.assertIn("differs", " ".join(out))

    def test_groups_disagree_on_order(self):
        out = self.check(seq(1, 3, 2), seq(1, 2, 3))
        self.assertIn("order their common messages differently",
                      " ".join(out))

    def test_delivery_to_a_group_not_addressed(self):
        out = self.check(seq(1, 2), seq(1, 2, 4))
        self.assertIn("never multicast to it", " ".join(out))

    def test_duplicate_and_empty(self):
        out = self.check(seq(1, 1), b"")
        self.assertIn("twice", " ".join(out))
        self.assertIn("delivered nothing", " ".join(out))


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         derive.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         derive.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
