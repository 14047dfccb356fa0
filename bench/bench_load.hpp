// Shared load-sweep driver for the Fig. 7 (LAN) and Fig. 8 (WAN)
// benchmarks: for each protocol and destination-group count, sweeps the
// number of closed-loop clients and prints (clients, throughput, latency)
// series — the same series the paper's figures plot.
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

// Parses --net-shards=N (falling back to WBAM_NET_SHARDS). Only the net
// runtime reads it; default 1.
inline int net_shards_from_args(int argc, char** argv) {
    const char* value = std::getenv("WBAM_NET_SHARDS");
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--net-shards=", 13) == 0)
            value = argv[i] + 13;
    }
    if (value == nullptr) return 1;
    char* end = nullptr;
    const long n = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || n < 1 || n > 64) {
        std::fprintf(stderr, "bad --net-shards=%s (range 1..64)\n", value);
        std::exit(2);
    }
    return static_cast<int>(n);
}

struct SweepSetup {
    const char* name = "";
    // "fig7" / "fig8": tags the emitted BENCH_<tag>.json (path override:
    // the BENCH_FIG_JSON environment variable; empty tag = no JSON).
    const char* json_tag = "";
    harness::RuntimeKind runtime = harness::RuntimeKind::sim;
    std::function<std::unique_ptr<sim::DelayModel>()> make_delays;
    sim::CpuModel cpu;
    std::vector<int> client_counts;
    std::vector<int> dest_group_counts;
    int groups = 10;
    int group_size = 3;
    bool staggered_leaders = false;
    int net_shards = 1;  // net runtime only
    Duration warmup = milliseconds(200);
    std::uint64_t target_ops = 2500;
    Duration min_measure = milliseconds(500);
    Duration max_measure = seconds(30);
};

inline ReplicaConfig quiet_replica_config() {
    ReplicaConfig replica;
    replica.heartbeat_interval = milliseconds(100);
    replica.suspect_timeout = seconds(30);
    replica.retry_interval = seconds(20);
    replica.gc_interval = seconds(1);
    // Implementation-cost model, set by hand rather than measured (see
    // docs/BENCHMARKS.md, "The simulator's cost model"): the black-box
    // baselines drive two consensus commands per message through a
    // general-purpose engine; the white-box path pays only lightweight
    // timestamp bookkeeping.
    replica.consensus_cmd_cost = microseconds(12);
    replica.wbcast_multicast_cost = microseconds(10);
    replica.wbcast_accept_cost = nanoseconds(500);
    return replica;
}

inline sim::CpuModel bench_cpu_model() {
    return sim::CpuModel{.per_message = nanoseconds(300),
                         .per_byte = nanoseconds(2),
                         .wakeup = microseconds(3)};
}

// True when the environment asks for a reduced sweep (used while iterating
// on the code; the full run is the default).
inline bool quick_mode() { return std::getenv("WBAM_BENCH_QUICK") != nullptr; }

struct SweepPoint {
    int clients = 0;
    harness::ExperimentResult result;
};

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
    std::map<int, std::map<int, std::vector<SweepPoint>>> all;
    for (const ProtocolKind kind : kinds) {
        for (const int d : setup.dest_group_counts) {
            std::printf("\n-- %s, multicast to %d group(s) --\n",
                        harness::to_string(kind), d);
            std::printf("%8s %16s %14s %12s %12s\n", "clients", "msgs/s",
                        "mean ms", "p50 ms", "p99 ms");
            for (const int clients : client_counts) {
                harness::ExperimentConfig cfg;
                cfg.runtime = setup.runtime;
                cfg.kind = kind;
                cfg.groups = setup.groups;
                cfg.group_size = setup.group_size;
                cfg.clients = clients;
                cfg.dest_groups = d;
                cfg.staggered_leaders = setup.staggered_leaders;
                cfg.make_delays = setup.make_delays;
                cfg.cpu = setup.cpu;
                cfg.replica = quiet_replica_config();
                cfg.net_shards = setup.net_shards;
                cfg.seed = static_cast<std::uint64_t>(clients) * 31 +
                           static_cast<std::uint64_t>(d);
                cfg.warmup = setup.warmup;
                cfg.target_ops = quick_mode() ? setup.target_ops / 5
                                              : setup.target_ops;
                cfg.min_measure = quick_mode() ? setup.min_measure / 2
                                               : setup.min_measure;
                cfg.max_measure = setup.max_measure;
                const auto r = harness::run_experiment(cfg);
                std::printf("%8d %16.0f %14.3f %12.3f %12.3f\n", clients,
                            r.throughput_ops_s, r.mean_ms, r.p50_ms, r.p99_ms);
                all[static_cast<int>(kind)][d].push_back(SweepPoint{clients, r});
            }
        }
    }
    // The merged BENCH_fig7/fig8 JSON (same schema as the distributed
    // coordinator's — docs/BENCHMARKS.md).
    if (setup.json_tag[0] != '\0') {
        harness::FigReport report;
        report.bench = setup.json_tag;
        report.name = setup.name;
        report.runtime = harness::to_string(setup.runtime);
        report.groups = setup.groups;
        report.group_size = setup.group_size;
        if (setup.runtime == RuntimeKind::net)
            report.net_shards = setup.net_shards;
        for (const ProtocolKind kind : kinds) {
            for (const int d : setup.dest_group_counts) {
                harness::FigSeries series;
                series.protocol = harness::to_string(kind);
                series.dest_groups = d;
                for (const SweepPoint& p : all[static_cast<int>(kind)][d])
                    series.points.push_back(harness::FigPoint{
                        p.clients, p.result.throughput_ops_s, p.result.mean_ms,
                        p.result.p50_ms, p.result.p99_ms, p.result.ops});
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
        const auto& wb = all[static_cast<int>(harness::ProtocolKind::wbcast)][d];
        const auto& fc =
            all[static_cast<int>(harness::ProtocolKind::fastcast)][d];
        const SweepPoint* wb_pt = nullptr;
        const SweepPoint* fc_pt = nullptr;
        for (const auto& p : wb)
            if (p.clients == 1000) wb_pt = &p;
        for (const auto& p : fc)
            if (p.clients == 1000) fc_pt = &p;
        if (!wb_pt || !fc_pt || fc_pt->result.throughput_ops_s <= 0 ||
            wb_pt->result.mean_ms <= 0)
            continue;
        std::printf("%8d %21.2fx %21.2fx\n", d,
                    wb_pt->result.throughput_ops_s /
                        fc_pt->result.throughput_ops_s,
                    fc_pt->result.mean_ms / wb_pt->result.mean_ms);
    }
}

}  // namespace wbam::bench

#endif  // WBAM_BENCH_BENCH_LOAD_HPP
