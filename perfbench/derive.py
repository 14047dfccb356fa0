"""Metric derivation: turns the rep records cluster.py collects (fig JSON,
perfdriver report, rusage, /proc samples, metrics JSONL, probe output)
into the benchmark's named metrics, and checks the delivery sequences.

Every input a metric needs is looked up with need(): a missing counter,
stage row, histogram or probe result raises MissingInput instead of
reading as 0. A metric reads 0 only by an explicit rule: it belongs to a
layer the workload does not run (wbcast stages on an FT-Skeen workload,
ftskeen/paxos stages on a wbcast workload, WAL counters without a WAL).
"""

import json
import statistics

# The bounded end-to-end metrics: the ones whose run-to-run spread stays
# inside a 0.25 bound even while the host steals CPU (README, "Noise").
END_TO_END = [
    ("lat_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
]
# Printed with the end-to-end table and reported as per-layer metrics of
# the client and the processes, but not bounded: a host steal episode
# moves them by more than any bound of 0.25 or less.
UNBOUNDED = [
    ("throughput_ops_s", "1/s"),
    ("lat_p90_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("max_rss_mb", "MB"),
]

SIM_PROTOCOLS = ["wbcast", "ftskeen", "fastcast", "skeen"]

PER_LAYER = [
    ("net.frames_per_op", "count"),
    ("net.frames_per_writev", "count"),
    ("net.writev_per_op", "count"),
    ("net.read_per_op", "count"),
    ("net.acks_per_op", "count"),
    ("net.flush_ns_per_frame", "ns"),
    ("net.reassemble_ns_per_frame", "ns"),
    ("codec.encode_request_ns", "ns"),
    ("codec.decode_request_ns", "ns"),
    ("buffer.frozen_per_op", "count"),
    ("buffer.bytes_copied_per_op", "bytes"),
    ("wbcast.leader_receipt_ms", "ms"),
    ("wbcast.ts_agreed_ms", "ms"),
    ("wbcast.gts_known_ms", "ms"),
    ("wbcast.delivered_ms", "ms"),
    ("client.return_ms", "ms"),
    ("ftskeen.leader_receipt_ms", "ms"),
    ("ftskeen.ts_agreed_ms", "ms"),
    ("ftskeen.gts_known_ms", "ms"),
    ("ftskeen.delivered_ms", "ms"),
    ("paxos.chosen_ms", "ms"),
    ("paxos.applied_ms", "ms"),
] + [
    (f"sim.{proto}.{name}", unit)
    for proto in SIM_PROTOCOLS
    for name, unit in [("msgs_per_op", "count"), ("bytes_per_op", "bytes"),
                       ("host_ns_per_op", "ns"), ("cf_delta", "delta"),
                       ("conc_delta", "delta")]
] + [
    ("wal.appends_per_op", "count"),
    ("wal.appends_per_commit", "count"),
    ("wal.bytes_per_op", "bytes"),
    ("wal.append_commit_ns", "ns"),
    ("kv.apply_ns", "ns"),
    ("kv.gen_ns", "ns"),
    ("gc.compacted_per_op", "count"),
    ("client.throughput_ops_s", "1/s"),
    ("client.lat_p90_ms", "ms"),
    ("client.lat_p99_ms", "ms"),
    ("proc.max_rss_mb", "MB"),
    ("proc.leader_cpu_util", "ratio"),
    ("proc.replica_us_per_op", "us"),
    ("proc.driver_us_per_op", "us"),
    ("proc.coordinator_us_per_op", "us"),
    ("proc.ctxsw_per_op", "count"),
    ("proc.invol_ctxsw_per_op", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.events", "count"),
    ("health.steal_pct", "%"),
    ("health.iowait_pct", "%"),
    ("health.rate_drift_pct", "%"),
]

# Per-layer names of the unbounded end-to-end metrics, taken from the
# traced run's untraced repetitions.
FROM_UNTRACED = {
    "client.throughput_ops_s": "throughput_ops_s",
    "client.lat_p90_ms": "lat_p90_ms",
    "client.lat_p99_ms": "lat_p99_ms",
    "proc.max_rss_mb": "max_rss_mb",
}
STAGES = ["leader_receipt", "ts_agreed", "gts_known", "delivered"]
PROBES = ["net.flush_ns_per_frame", "net.reassemble_ns_per_frame",
          "codec.encode_request_ns", "codec.decode_request_ns",
          "wal.append_commit_ns", "kv.apply_ns", "kv.gen_ns"]
REPLICA_NAMES = [f"p{p}" for p in range(6)]
# Events that mean a connection was lost after its handshake or a peer
# restarted; both are absent from a healthy run.
FAULT_EVENTS = {"reconnect", "incarnation"}
# A run counts as steady when the machine's steal and iowait stay low and
# neither the delivery rate nor the repetitions' throughputs drift much.
STEADY_MAX_STEAL_PCT = 5.0
STEADY_MAX_IOWAIT_PCT = 5.0
STEADY_MAX_DRIFT_PCT = 15.0
STEADY_MAX_REP_SPREAD_PCT = 20.0


class MissingInput(Exception):
    """An input a metric needs is absent from the recorded run."""


def need(mapping, key, what):
    if not isinstance(mapping, dict) or key not in mapping:
        raise MissingInput(f"{what}: no '{key}'")
    return mapping[key]


# --- delivery checks -----------------------------------------------------------


def parse_issued(text):
    """perfdriver's .ids file: one '<msg id hex> <dest group mask hex>'
    line per multicast issued."""
    issued = {}
    for line in text.splitlines():
        mid, mask = line.split()
        issued[int(mid, 16)] = int(mask, 16)
    return issued


def check_deliveries(sequences, group_size, issued):
    """sequences[p] is the byte content replica p wrote (one hex id per
    line, delivery order). Returns a list of failures: replicas of a group
    whose files differ, an empty group, a duplicate delivery, an id that
    was never issued to that group, or two groups ordering their common
    messages differently (the ordering property of atomic multicast)."""
    failures = []
    orders = []
    for g in range(len(sequences) // group_size):
        members = range(g * group_size, (g + 1) * group_size)
        first = sequences[members[0]]
        for p in members:
            if sequences[p] != first:
                failures.append(f"group {g}: replica p{p}'s delivery "
                                f"sequence differs from p{members[0]}'s")
        ids = [int(x, 16) for x in first.split()]
        if not ids:
            failures.append(f"group {g} delivered nothing")
        if len(set(ids)) != len(ids):
            failures.append(f"group {g} delivered a message twice")
        stray = [i for i in ids if not issued.get(i, 0) >> g & 1]
        if stray:
            failures.append(f"group {g} delivered {len(stray)} messages "
                            f"never multicast to it (first {stray[0]:016x})")
        orders.append(ids)
    for a in range(len(orders)):
        for b in range(a + 1, len(orders)):
            common = set(orders[a]) & set(orders[b])
            if [i for i in orders[a] if i in common] != \
                    [i for i in orders[b] if i in common]:
                failures.append(f"groups {a} and {b} order their common "
                                f"messages differently")
    return failures


# --- one repetition ------------------------------------------------------------


def window_slice(rep):
    """The first /proc sample at or before the window opens and the first
    at or after it closes."""
    driver = need(rep, "driver", "rep")
    open_ns = need(driver, "window_open_ns", "driver report")
    close_ns = need(driver, "window_close_ns", "driver report")
    samples = need(rep, "procstat", "rep")
    before = [s for s in samples if s[0] <= open_ns]
    after = [s for s in samples if s[0] >= close_ns]
    if not before or not after:
        raise MissingInput("procstat: no samples around the window")
    return before[-1], after[0]


def machine_shares(rep):
    """Steal and iowait as % of all CPU time during the window."""
    a, b = window_slice(rep)
    d = [y - x for x, y in zip(a[1], b[1])]
    total = sum(d)
    if total <= 0:
        raise MissingInput("procstat: no CPU time elapsed in the window")
    # /proc/stat cpu: user nice system idle iowait irq softirq steal
    return 100.0 * d[7] / total, 100.0 * d[4] / total


def leader_cpu_util(rep):
    """The busiest replica's CPU time over the window's wall time."""
    a, b = window_slice(rep)
    wall_s = (b[0] - a[0]) / 1e9
    tck = need(rep, "clk_tck", "rep")
    util = []
    for name in REPLICA_NAMES:
        x, y = need(a[2], name, "procstat"), need(b[2], name, "procstat")
        if x is None or y is None:
            raise MissingInput(f"procstat: {name} exited inside the window")
        util.append((y - x) / tck / wall_s)
    return max(util)


def cpu_s(usage):
    return usage["utime_s"] + usage["stime_s"]


def whole_run_ops(rep):
    ops = need(need(rep, "driver", "rep"), "completed", "driver report")
    if ops <= 0:
        raise MissingInput("driver report: no multicast completed")
    return ops


def rep_end_to_end(rep):
    """The end-to-end metrics of one repetition, plus its sample count and
    op accounting."""
    driver = need(rep, "driver", "rep")
    usage = need(rep, "rusage", "rep")
    window_s = (need(driver, "window_close_ns", "driver report") -
                need(driver, "window_open_ns", "driver report")) / 1e9
    samples = need(driver, "window_ops", "driver report")
    if samples < 100:
        raise MissingInput(f"driver report: only {samples} ops in window")
    ops = whole_run_ops(rep)
    steal, iowait = machine_shares(rep)
    return {
        "throughput_ops_s": samples / window_s,
        "lat_p50_ms": need(driver, "window_p50_ns", "driver report") / 1e6,
        "lat_p90_ms": need(driver, "window_p90_ns", "driver report") / 1e6,
        "lat_p99_ms": need(driver, "window_p99_ns", "driver report") / 1e6,
        "cpu_us_per_op": 1e6 * sum(cpu_s(u) for u in usage.values()) / ops,
        "max_rss_mb": max(need(usage, n, "rusage")["maxrss_kb"]
                          for n in REPLICA_NAMES) / 1024.0,
        "setup_s": need(driver, "window_open_ns", "driver report") / 1e9,
        "samples": samples,
        "steal_pct": steal,
        "iowait_pct": iowait,
    }


def check_coordinator_agrees(rep, tolerance):
    """The coordinator's merged window count and the driver's own ledger
    see the same acks; they may differ only by ops completing at the
    window's edges."""
    point = need(rep, "fig", "rep")["series"][0]["points"][0]
    ours = need(rep["driver"], "window_ops", "driver report")
    theirs = need(point, "ops", "fig JSON point")
    if abs(ours - theirs) > tolerance:
        return [f"coordinator counted {theirs} ops in the window, the "
                f"driver {ours}"]
    return []


def parse_jsonl(text, what):
    lines = []
    for raw in text.splitlines():
        line = json.loads(raw)
        need(line, "kind", what)
        need(line, "metrics", what)
        lines.append(line)
    if not lines or lines[-1]["kind"] != "final":
        raise MissingInput(f"{what}: does not end with a 'final' snapshot")
    return lines


def delivery_rate_drift(text, proto, interval_s):
    """% change of the per-second delivery rate one replica's JSONL delta
    lines show, last third of the loaded period against the first third.
    The first and last loaded intervals are partial and are dropped."""
    hist = f"stage/{proto}/delivered"
    counts, seen = [], False
    for line in parse_jsonl(text, "metrics JSONL"):
        if line["kind"] != "delta":
            continue
        h = line["metrics"].get("histograms", {}).get(hist)
        seen = seen or h is not None
        counts.append(h["count"] if h else 0)
    if not seen:
        raise MissingInput(f"metrics JSONL: no '{hist}' histogram")
    loaded = [i for i, c in enumerate(counts) if c > 0]
    rates = [c / interval_s for c in counts[loaded[0] + 1:loaded[-1]]] \
        if loaded else []
    if len(rates) < 3:
        raise MissingInput(f"metrics JSONL: {len(rates)} full loaded "
                           f"intervals, need 3")
    third = len(rates) // 3
    first = statistics.fmean(rates[:third])
    last = statistics.fmean(rates[-third:])
    return 100.0 * (last / first - 1.0)


def stage_segments(fig, proto):
    """Median segment of each stage row (cumulative p50 differences that
    telescope to the delivered median) plus the deliver -> client-ack
    return hop (the e2e row's segment)."""
    rows = {r["name"]: r for r in need(fig, "stages", "fig JSON")}
    out = {}
    for stage in STAGES:
        out[f"{proto}.{stage}_ms"] = need(rows, stage, f"{proto} stage rows")[
            "segment_ms"]
    out["client.return_ms"] = need(rows, "e2e", "stage rows")["segment_ms"]
    return out


def rep_per_layer(rep, wl):
    """The per-layer metrics one traced repetition yields (everything
    except the probes and obs.overhead_pct, which need more than one rep)."""
    ops = whole_run_ops(rep)
    fig = need(rep, "fig", "rep")
    counters = need(fig, "metrics", "fig JSON")

    def per_op(name):
        return need(counters, name, "fig JSON metrics") / ops

    frames = need(counters, "net/frames_sent", "fig JSON metrics")
    writevs = need(counters, "net/writev_calls", "fig JSON metrics")
    out = {
        "net.frames_per_op": frames / ops,
        "net.frames_per_writev": frames / writevs,
        "net.writev_per_op": writevs / ops,
        "net.read_per_op": per_op("net/read_calls"),
        "net.acks_per_op": per_op("net/acks_sent"),
        "buffer.frozen_per_op": per_op("buffer/buffers_frozen"),
        "buffer.bytes_copied_per_op": per_op("buffer/bytes_copied"),
        "gc.compacted_per_op": per_op("gc/compacted_entries"),
    }

    proto = wl["proto"]
    out.update({f"{p}.{s}_ms": 0.0 for p in ("wbcast", "ftskeen")
                for s in STAGES})
    out.update(stage_segments(fig, proto))
    hists = need(need(rep, "merged", "rep"), "histograms", "merged metrics")
    for stage in ("chosen", "applied"):
        out[f"paxos.{stage}_ms"] = (
            need(hists, f"stage/paxos/{stage}", "merged metrics")["p50_ms"]
            if proto == "ftskeen" else 0.0)

    if wl["wal"]:
        appends = need(counters, "wal/appends", "fig JSON metrics")
        out["wal.appends_per_op"] = appends / ops
        out["wal.appends_per_commit"] = appends / need(
            counters, "wal/commits", "fig JSON metrics")
        out["wal.bytes_per_op"] = per_op("wal/bytes_written")
    else:
        out.update({"wal.appends_per_op": 0.0, "wal.appends_per_commit": 0.0,
                    "wal.bytes_per_op": 0.0})

    usage = need(rep, "rusage", "rep")
    replicas = sum(cpu_s(need(usage, n, "rusage")) for n in REPLICA_NAMES)
    out["proc.leader_cpu_util"] = leader_cpu_util(rep)
    out["proc.replica_us_per_op"] = 1e6 * replicas / ops
    out["proc.driver_us_per_op"] = \
        1e6 * cpu_s(need(usage, "driver", "rusage")) / ops
    out["proc.coordinator_us_per_op"] = \
        1e6 * cpu_s(need(usage, "coordinator", "rusage")) / ops
    out["proc.ctxsw_per_op"] = sum(
        u["nvcsw"] + u["nivcsw"] for u in usage.values()) / ops
    out["proc.invol_ctxsw_per_op"] = sum(
        u["nivcsw"] for u in usage.values()) / ops

    jsonl = need(rep, "jsonl", "rep")
    events = 0
    for name in REPLICA_NAMES + ["p6"]:
        final = parse_jsonl(need(jsonl, name, "metrics JSONL"),
                            f"{name} metrics JSONL")[-1]
        events += sum(1 for e in need(final["metrics"], "events", name)
                      if e["category"] in FAULT_EVENTS)
    out["obs.events"] = float(events)

    steal, iowait = machine_shares(rep)
    out["health.steal_pct"] = steal
    out["health.iowait_pct"] = iowait
    out["health.rate_drift_pct"] = delivery_rate_drift(
        need(jsonl, "p0", "metrics JSONL"), proto,
        need(rep, "metrics_interval_s", "rep"))
    return out


def probe_metrics(probe):
    """The probe program's timings and simulator rows, by metric name."""
    timings = need(probe, "probes", "probe output")
    out = {name: need(timings, name, "probe output") for name in PROBES}
    sim = need(probe, "sim", "probe output")
    for proto in SIM_PROTOCOLS:
        row = need(sim, proto, "sim probe")
        for key in ("msgs_per_op", "bytes_per_op", "host_ns_per_op",
                    "cf_delta", "conc_delta"):
            out[f"sim.{proto}.{key}"] = need(row, key, f"sim probe {proto}")
    return out


# --- across repetitions --------------------------------------------------------


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def end_to_end(reps):
    """Median of each end-to-end metric, bounded or not, over the
    repetitions; plus the per-repetition values."""
    per_rep = [rep_end_to_end(r) for r in reps]
    out = {name: median_of(per_rep, name) for name, _ in END_TO_END + UNBOUNDED}
    return out, per_rep


def per_layer(traced, untraced, probe, wl):
    rows = [rep_per_layer(r, wl) for r in traced]
    out = {name: median_of(rows, name) for name in rows[0]}
    out.update(probe_metrics(probe))
    plain, _ = end_to_end(untraced)
    out.update({name: plain[e2e] for name, e2e in FROM_UNTRACED.items()})
    traced_cost = median_of([rep_end_to_end(r) for r in traced],
                            "cpu_us_per_op")
    out["obs.overhead_pct"] = \
        100.0 * (traced_cost / plain["cpu_us_per_op"] - 1.0)
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise MissingInput(f"per-layer metrics not derived: {missing}")
    return out


def steadiness(per_rep, drift_pct=None):
    """(steady?, reasons) for one run: machine contention during the
    windows, throughput spread across repetitions, delivery-rate drift."""
    reasons = []
    steal = max(r["steal_pct"] for r in per_rep)
    iowait = max(r["iowait_pct"] for r in per_rep)
    tput = [r["throughput_ops_s"] for r in per_rep]
    spread = 100.0 * (max(tput) / min(tput) - 1.0)
    if steal > STEADY_MAX_STEAL_PCT:
        reasons.append(f"steal up to {steal:.1f}%")
    if iowait > STEADY_MAX_IOWAIT_PCT:
        reasons.append(f"iowait up to {iowait:.1f}%")
    if spread > STEADY_MAX_REP_SPREAD_PCT:
        reasons.append(f"repetitions' throughput spread {spread:.0f}%")
    if drift_pct is not None and abs(drift_pct) > STEADY_MAX_DRIFT_PCT:
        reasons.append(f"delivery rate drifted {drift_pct:+.0f}%")
    return not reasons, reasons
