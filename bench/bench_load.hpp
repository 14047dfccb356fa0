// Shared load-sweep driver for the Fig. 7 (LAN) and Fig. 8 (WAN)
// benchmarks: for each protocol and destination-group count, sweeps the
// number of closed-loop clients and prints (clients, throughput, latency)
// series — the same series the paper's figures plot. Each point is one
// harness::run_experiment: measured by the benchmark plane's drivers and
// validated by its coordinator's per-group digest check; a point that
// fails validation aborts the sweep with the coordinator's reason.
#ifndef WBAM_BENCH_BENCH_LOAD_HPP
#define WBAM_BENCH_BENCH_LOAD_HPP

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/fig_report.hpp"

namespace wbam::bench {

// Parses --runtime={sim,net} from the bench argv (falling back to
// the WBAM_RUNTIME environment variable). Unknown values abort loudly:
// silently running the wrong runtime would corrupt a figure.
inline harness::RuntimeKind runtime_from_args(int argc, char** argv) {
    const char* value = std::getenv("WBAM_RUNTIME");
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--runtime=", 10) == 0) value = argv[i] + 10;
    }
    if (value == nullptr) return harness::RuntimeKind::sim;
    const auto kind = harness::parse_runtime_kind(value);
    if (!kind) {
        std::fprintf(stderr, "unknown --runtime=%s (sim|net)\n",
                     value);
        std::exit(2);
    }
    return *kind;
}

struct SweepSetup {
    const char* name = "";
    // "fig7" / "fig8": tags the emitted BENCH_<tag>.json (path override:
    // the BENCH_FIG_JSON environment variable; empty tag = no JSON).
    const char* json_tag = "";
    harness::RuntimeKind runtime = harness::RuntimeKind::sim;
    std::function<std::unique_ptr<sim::DelayModel>()> make_delays;
    std::vector<int> client_counts;
    std::vector<int> dest_group_counts;
    int groups = 10;
    int group_size = 3;
    bool staggered_leaders = false;
    Duration warmup = milliseconds(200);
    Duration measure = milliseconds(500);  // halved in quick mode
};

// The figure experiments' common shape: housekeeping kept off the
// measured path (the spec's distributed replica knobs), clients that
// retry only when truly stuck, and the simulator's implementation-cost
// model, set by hand rather than measured (see docs/BENCHMARKS.md, "The
// simulator's cost model"): the black-box baselines drive two consensus
// commands per message through a general-purpose engine; the white-box
// path pays only lightweight timestamp bookkeeping.
inline harness::ExperimentConfig quiet_experiment() {
    harness::ExperimentConfig cfg;
    cfg.spec.heartbeat_interval = milliseconds(100);
    cfg.spec.suspect_timeout = seconds(30);
    cfg.spec.retry_interval = seconds(20);
    cfg.spec.client_retry = seconds(2);
    // A driver reports DRIVER_DONE on its first sample tick after the
    // window closes; a short tick keeps the loaded tail past it short.
    cfg.spec.sample_interval = milliseconds(50);
    cfg.replica.gc_interval = seconds(1);
    cfg.replica.consensus_cmd_cost = microseconds(12);
    cfg.replica.wbcast_multicast_cost = microseconds(10);
    cfg.replica.wbcast_accept_cost = nanoseconds(500);
    cfg.cpu = sim::CpuModel{.per_message = nanoseconds(300),
                            .per_byte = nanoseconds(2),
                            .wakeup = microseconds(3)};
    return cfg;
}

// The LAN of Fig. 7: ~0.1 ms RTT, one-way 40-60 us.
inline std::unique_ptr<sim::DelayModel> lan_delays() {
    return std::make_unique<sim::JitterDelay>(microseconds(40),
                                              microseconds(20));
}

// True when the environment asks for a reduced sweep (used while iterating
// on the code; the full run is the default).
inline bool quick_mode() { return std::getenv("WBAM_BENCH_QUICK") != nullptr; }

inline void run_sweep(const SweepSetup& setup) {
    using harness::ProtocolKind;
    using harness::RuntimeKind;
    const ProtocolKind kinds[] = {ProtocolKind::wbcast, ProtocolKind::fastcast,
                                  ProtocolKind::ftskeen};
    // The net runtime spawns one poll loop per process: a 1400-client
    // sweep point would be 1430 threads. Cap the client axis so
    // --runtime=net stays a sanity-scale run; the full axis is the
    // simulator's job.
    std::vector<int> client_counts = setup.client_counts;
    if (setup.runtime != RuntimeKind::sim) {
        std::vector<int> capped;
        for (const int c : client_counts)
            if (c <= 64) capped.push_back(c);
        if (capped.empty()) capped.push_back(16);
        client_counts = capped;
        std::printf("(runtime=%s: client axis capped at 64 — the net "
                    "runtime runs one OS thread per process)\n",
                    harness::to_string(setup.runtime));
    }
    std::printf("=== %s: latency vs throughput, %d groups x %d replicas, "
                "20-byte messages, runtime=%s ===\n",
                setup.name, setup.groups, setup.group_size,
                harness::to_string(setup.runtime));
    // protocol -> d -> points; kept for the cross-protocol summary.
    std::map<int, std::map<int, std::vector<harness::FigPoint>>> all;
    for (const ProtocolKind kind : kinds) {
        for (const int d : setup.dest_group_counts) {
            std::printf("\n-- %s, multicast to %d group(s) --\n",
                        harness::to_string(kind), d);
            std::printf("%8s %16s %14s %12s %12s\n", "clients", "msgs/s",
                        "mean ms", "p50 ms", "p99 ms");
            for (const int clients : client_counts) {
                harness::ExperimentConfig cfg = quiet_experiment();
                cfg.runtime = setup.runtime;
                cfg.groups = setup.groups;
                cfg.group_size = setup.group_size;
                cfg.drivers = clients;  // one session each
                cfg.staggered_leaders = setup.staggered_leaders;
                cfg.make_delays = setup.make_delays;
                cfg.spec.proto = kind;
                cfg.spec.dest_groups = static_cast<std::uint32_t>(d);
                cfg.spec.seed = static_cast<std::uint64_t>(clients) * 31 +
                                static_cast<std::uint64_t>(d);
                cfg.spec.warmup = setup.warmup;
                cfg.spec.measure =
                    quick_mode() ? setup.measure / 2 : setup.measure;
                const harness::ExperimentOutcome r =
                    harness::run_experiment(cfg);
                if (!r.ok) {
                    std::fprintf(stderr,
                                 "%s, %d group(s), %d clients: validation "
                                 "FAILED — %s\n",
                                 harness::to_string(kind), d, clients,
                                 r.error.c_str());
                    std::exit(1);
                }
                const harness::FigPoint& p = r.point;
                std::printf("%8d %16.0f %14.3f %12.3f %12.3f\n", p.clients,
                            p.throughput_ops_s, p.mean_ms, p.p50_ms, p.p99_ms);
                all[static_cast<int>(kind)][d].push_back(p);
            }
        }
    }
    // The merged BENCH_fig7/fig8 JSON (same schema as `wbamctl run` —
    // docs/BENCHMARKS.md).
    if (setup.json_tag[0] != '\0') {
        harness::FigReport report;
        report.bench = setup.json_tag;
        report.name = setup.name;
        report.runtime = harness::to_string(setup.runtime);
        report.groups = setup.groups;
        report.group_size = setup.group_size;
        for (const ProtocolKind kind : kinds) {
            for (const int d : setup.dest_group_counts) {
                harness::FigSeries series;
                series.protocol = harness::to_string(kind);
                series.dest_groups = d;
                series.points = all[static_cast<int>(kind)][d];
                report.series.push_back(std::move(series));
            }
        }
        const char* path = std::getenv("BENCH_FIG_JSON");
        const std::string out =
            path != nullptr ? path
                            : "BENCH_" + std::string(setup.json_tag) + ".json";
        if (report.write(out))
            std::printf("\n(wrote %s)\n", out.c_str());
    }
    // Headline comparison at 1000 clients (the point the paper marks).
    std::printf("\n-- comparison at 1000 clients (WbCast vs FastCast) --\n");
    std::printf("%8s %22s %22s\n", "dests", "throughput ratio", "latency ratio");
    for (const int d : setup.dest_group_counts) {
        const harness::FigPoint* wb = nullptr;
        const harness::FigPoint* fc = nullptr;
        for (const auto& p : all[static_cast<int>(ProtocolKind::wbcast)][d])
            if (p.clients == 1000) wb = &p;
        for (const auto& p : all[static_cast<int>(ProtocolKind::fastcast)][d])
            if (p.clients == 1000) fc = &p;
        if (!wb || !fc || fc->throughput_ops_s <= 0 || wb->mean_ms <= 0)
            continue;
        std::printf("%8d %21.2fx %21.2fx\n", d,
                    wb->throughput_ops_s / fc->throughput_ops_s,
                    fc->mean_ms / wb->mean_ms);
    }
}

}  // namespace wbam::bench

#endif  // WBAM_BENCH_BENCH_LOAD_HPP
