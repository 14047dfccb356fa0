// Closed-loop load experiment driver for the Fig. 7 / Fig. 8 benchmarks:
// builds a cluster of the requested protocol ON the requested runtime,
// attaches closed-loop load clients, runs a warmup phase, then measures
// throughput and the paper's latency metric over a window. Under
// RuntimeKind::sim the window is virtual time and the run is
// deterministic; under RuntimeKind::net the same processes run on real
// loopback sockets and the window is wall clock.
#ifndef WBAM_HARNESS_EXPERIMENT_HPP
#define WBAM_HARNESS_EXPERIMENT_HPP

#include "client/load_client.hpp"
#include "harness/cluster.hpp"
#include "harness/runtime.hpp"

namespace wbam::harness {

struct ExperimentConfig {
    RuntimeKind runtime = RuntimeKind::sim;
    ProtocolKind kind = ProtocolKind::wbcast;
    int groups = 10;
    int group_size = 3;
    int clients = 100;
    int dest_groups = 1;
    bool staggered_leaders = false;
    std::uint32_t payload = 20;  // bytes, as in the paper
    // Simulator only (RuntimeKind::sim): link delays and CPU cost model.
    std::function<std::unique_ptr<sim::DelayModel>()> make_delays;
    sim::CpuModel cpu;
    ReplicaConfig replica;
    // Transport shard count per NetWorld (RuntimeKind::net only).
    int net_shards = 1;
    std::uint64_t seed = 1;
    Duration warmup = milliseconds(200);
    // The measurement window closes once target_ops completions AND
    // min_measure simulated time have both been reached (or max_measure
    // elapses).
    std::uint64_t target_ops = 3000;
    Duration min_measure = milliseconds(500);
    Duration max_measure = seconds(60);
};

struct ExperimentResult {
    double throughput_ops_s = 0;  // completed multicasts per measured second
    double mean_ms = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;  // simulator only (0 on wall-clock runtimes)
    double sim_seconds = 0;    // simulated (sim) or wall-clock (net)
};

ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_EXPERIMENT_HPP
