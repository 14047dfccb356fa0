#!/usr/bin/env python3
"""The repository's benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds wbamd, wbamctl and the benchmark's
own programs into .bench_build/, then runs the workload REPS times, each
time on a fresh 2-group x 3-replica cluster of real processes over
loopback with a measurement window of S/REPS seconds, and reports the
median of each metric over the repetitions.

--trace 0 reports the end-to-end metrics. --trace 1 runs REPS untraced
and REPS traced repetitions, interleaved, plus the per-layer probes, and
reports the per-layer metrics. Every metric is printed by name with its
unit and sample count; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every repetition passed validation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cluster  # noqa: E402
import derive  # noqa: E402

BUILD_DIR = ".bench_build"
# target -> binary path under BUILD_DIR (the repository's own targets
# build in the binary directory of its add_subdirectory).
TARGETS = {"wbamd": "wbam/wbamd", "wbamctl": "wbam/wbamctl",
           "perfdriver": "perfdriver", "perfprobe": "perfprobe"}
REPS = 5

KV_MIX = {"kv_keys": 1000, "kv_theta": 0.99, "kv_read_pct": 50,
          "kv_cross_pct": 10}
WORKLOADS = {
    # The paper's headline path: every multicast crosses both groups while
    # three others are in flight.
    "mc2g-wbcast": {"proto": "wbcast", "kind": "bytes", "dest_groups": 2,
                    "payload": 20, "wal": False},
    # The partitioned store the system serves: ~90 % single-group
    # multicasts, the only workload where kvstore and wal do work.
    "kv-zipf-wbcast": {"proto": "wbcast", "kind": "kv", "wal": True,
                       **KV_MIX},
    # The same traffic as mc2g-wbcast over the black-box baseline: the only
    # workload that drives paxos and ftskeen.
    "mc2g-ftskeen": {"proto": "ftskeen", "kind": "bytes", "dest_groups": 2,
                     "payload": 20, "wal": False},
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the four targets (incremental)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, f"-j{os.cpu_count() or 1}",
                    "--target", *TARGETS], stdout=sys.stderr, check=True)
    return {t: os.path.abspath(os.path.join(BUILD_DIR, path))
            for t, path in TARGETS.items()}


def run_probes(bins, wl, seed, outdir):
    out = os.path.join(outdir, "probe.json")
    argv = [bins["perfprobe"], f"--workload={wl['kind']}", f"--seed={seed}",
            f"--scratch={outdir}", f"--out={out}"]
    if wl["kind"] == "kv":
        argv += [f"--kv-keys={wl['kv_keys']}", f"--kv-theta={wl['kv_theta']}",
                 f"--kv-read-pct={wl['kv_read_pct']}",
                 f"--kv-cross-pct={wl['kv_cross_pct']}"]
    else:
        argv.append(f"--payload={wl['payload']}")
    try:
        status = subprocess.run(argv, stdout=sys.stderr,
                                timeout=120).returncode
        with open(out) as f:
            probe = json.load(f)
    except (OSError, ValueError, subprocess.TimeoutExpired) as e:
        return {}, [f"probe: {e}"]
    failures = [f"probe: {why}" for why in probe.get("failures", [])]
    if status != 0 and not failures:
        failures.append(f"probe exited {status}")
    return probe, failures


def print_table(title, rows):
    print(title)
    for name, value, unit, samples in rows:
        print(f"  {name:34s} {value:14.4f} {unit:6s} {samples}")


def print_end_to_end(workload, per_rep, e2e, measure_ms, attempted, failed):
    """Prints the end-to-end table, bounded metrics first."""
    ops = sum(r["samples"] for r in per_rep)

    def row(name, unit, suffix=""):
        samples = f"n={ops} ops" if name.startswith(("lat", "thr")) \
            else f"n={len(per_rep)} repetitions"
        return (name + suffix, e2e[name], unit, samples)

    print_table(
        f"{workload}: end-to-end (median of {len(per_rep)} repetitions, "
        f"{measure_ms} ms windows)",
        [row(n, u) for n, u in derive.END_TO_END] +
        [row(n, u, " (unbounded)") for n, u in derive.UNBOUNDED] +
        [("failed_ops_pct (unbounded)", 100.0 * failed / attempted, "%",
          f"n={attempted} issued")])


def print_health(per_rep, drift_pct):
    steady, why = derive.steadiness(per_rep, drift_pct)
    drift = "" if drift_pct is None else \
        f"; delivery-rate drift {drift_pct:+.1f}% (traced)"
    print(f"health: steal {max(r['steal_pct'] for r in per_rep):.1f}%, "
          f"iowait {max(r['iowait_pct'] for r in per_rep):.1f}% (worst "
          f"window); throughput by repetition "
          f"{[round(r['throughput_ops_s']) for r in per_rep]}{drift} -> "
          f"{'steady' if steady else 'UNSTEADY: ' + '; '.join(why)}")


def layer_samples(name, traced):
    if name in derive.PROBES:
        return "n=9 blocks"
    if name.startswith("sim."):
        return "n=1 simulated run"
    if name in derive.FROM_UNTRACED:
        return f"n={REPS} untraced repetitions"
    return f"n={len(traced)} traced repetitions"


def run_reps(bins, wl, args, measure_ms, rundir):
    """Runs REPS untraced repetitions and, with --trace 1, REPS traced ones
    interleaved with them."""
    reps, failures = [], []
    kinds = [False] * REPS if not args.trace else [False, True] * REPS
    for i, traced in enumerate(kinds):
        rep = cluster.run_rep(bins, wl, args.seed * 100 + i, measure_ms, traced,
                              os.path.join(rundir, f"rep{i}"))
        failures += [f"rep {i}: {why}" for why in rep["validation"]]
        reps.append(rep)
        log(f"rep {i} ({'traced' if traced else 'untraced'}) "
            f"{'FAILED' if rep['validation'] else 'done'}")
    return reps, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    wl = {"name": args.workload, **WORKLOADS[args.workload]}

    try:
        bins = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    rundir = os.path.abspath(os.path.join(BUILD_DIR, "run", args.workload))
    shutil.rmtree(rundir, ignore_errors=True)
    measure_ms = max(1, args.seconds * 1000 // REPS)
    reps, failures = run_reps(bins, wl, args, measure_ms, rundir)

    attempted = sum(r.get("driver", {}).get("issued", 0) for r in reps) or 1
    failed = sum(r.get("driver", {}).get("failed", 0) for r in reps)
    metrics, units = {}, {}
    if not failures:
        try:
            untraced = [r for r in reps if not r["traced"]]
            e2e, per_rep = derive.end_to_end(untraced)
            print_end_to_end(args.workload, per_rep, e2e, measure_ms,
                             attempted, failed)
            metrics = {n: e2e[n] for n, _ in derive.END_TO_END}
            units = dict(derive.END_TO_END)
            drift = None
            if args.trace:
                probe, probe_failures = run_probes(bins, wl, args.seed,
                                                   rundir)
                failures += probe_failures
                traced = [r for r in reps if r["traced"]]
                metrics = derive.per_layer(traced, untraced, probe, wl)
                units = dict(derive.PER_LAYER)
                drift = metrics["health.rate_drift_pct"]
                print_table(f"{args.workload}: per-layer (median of "
                            f"{len(traced)} traced repetitions)",
                            [(n, metrics[n], u, layer_samples(n, traced))
                             for n, u in derive.PER_LAYER])
            print_health(per_rep, drift)
        except derive.MissingInput as e:
            failures.append(f"missing input: {e}")

    correct = not failures
    for why in failures:
        log(f"FAILED {why}")
    if not correct:
        # A run that fails validation reports every op as failed and no
        # latency or throughput.
        failed = attempted
        metrics = {}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
