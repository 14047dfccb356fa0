// Figure 7: performance of the multicast protocols in a LAN with
// increasing numbers of closed-loop clients. Setup mirrors the paper's
// CloudLab deployment: 10 groups x 3 replicas, 20-byte messages, ~0.1 ms
// round-trip links; clients multicast to a fixed number of groups per
// panel (1, 2, 4, 6, all 10). The substrate is the simulator with its
// hand-set cost model (docs/BENCHMARKS.md): shapes and protocol ordering
// are the reproduction target, not absolute msgs/s.
#include "bench_load.hpp"

int main(int argc, char** argv) {
    using namespace wbam;
    bench::SweepSetup setup;
    setup.runtime = bench::runtime_from_args(argc, argv);
    setup.net_shards = bench::net_shards_from_args(argc, argv);
    setup.name = "Figure 7 (LAN, CloudLab-like)";
    setup.json_tag = "fig7";
    // ~0.1 ms RTT: one-way 40-60 us.
    setup.make_delays = [] {
        return std::make_unique<sim::JitterDelay>(microseconds(40),
                                                  microseconds(20));
    };
    // Per-message CPU cost bounds throughput (serial per-process queueing).
    setup.cpu = bench::bench_cpu_model();
    setup.client_counts = {50, 150, 400, 700, 1000, 1400};
    setup.dest_group_counts = {1, 2, 6, 10};
    setup.warmup = milliseconds(200);
    setup.target_ops = 1500;
    setup.min_measure = milliseconds(400);
    setup.max_measure = seconds(20);
    if (bench::quick_mode()) {
        setup.client_counts = {100, 1000};
        setup.dest_group_counts = {1, 6};
    }
    bench::run_sweep(setup);
    return 0;
}
