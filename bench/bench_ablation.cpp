// Ablations of the white-box protocol's design choices:
//
//  A1  Speculative clock advance (Fig. 4 line 14) on/off: the advance is
//      what shrinks the convoy window to 2δ; without it the failure-free
//      latency degrades (and real recovery would need an extra round trip,
//      as in the black-box baselines).
//  A2  Garbage collection on/off: state compaction under a sustained
//      stream, and its (absence of) throughput cost.
//  A3  Group size 2f+1 for f in {1, 2, 3}: quorum size vs LAN performance.
#include <cstdio>

#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "wbcast/protocol.hpp"

namespace {

using namespace wbam;
using harness::ProtocolKind;

void ablation_speculative_clock() {
    std::printf("=== A1: speculative clock advance (Fig. 4 line 14) ===\n");
    std::printf("%-22s %12s %14s\n", "variant", "CF (delta)", "FF measured");
    for (const bool spec : {true, false}) {
        ReplicaConfig replica;
        replica.heartbeat_interval = milliseconds(50);
        replica.suspect_timeout = seconds(10);
        replica.retry_interval = seconds(5);
        replica.gc_interval = seconds(5);
        replica.wbcast_speculative_clock = spec;
        const auto cf =
            bench::collision_free_probe(ProtocolKind::wbcast, &replica);
        const double ff = bench::convoy_worst(ProtocolKind::wbcast, &replica);
        std::printf("%-22s %12.2f %14.2f\n",
                    spec ? "speculative (paper)" : "advance-on-commit",
                    cf.leader_min, ff);
    }
    std::printf("The speculative advance narrows the convoy window by a full "
                "delta;\nit is also what makes recovery safe without an extra "
                "round trip.\n\n");
}

void ablation_gc() {
    std::printf("=== A2: garbage collection of delivered messages ===\n");
    std::printf("%-8s %14s %16s %18s\n", "gc", "msgs/s", "entries@leader",
                "compacted@leader");
    for (const bool gc : {true, false}) {
        harness::ClusterConfig cfg =
            bench::base_config(ProtocolKind::wbcast, 2, 4);
        cfg.replica.gc_enabled = gc;
        cfg.replica.gc_interval = milliseconds(50);
        harness::Cluster c(cfg);
        const int ops = 2000;
        for (int i = 0; i < ops; ++i)
            c.multicast_at(i * microseconds(100), i % 4, {0, 1},
                           Bytes(64, 0x5a));
        const TimePoint start = 0;
        c.run_for(milliseconds(100) * (ops / 1000 + 1) + seconds(1));
        const double secs = to_secs(c.world().now() - start);
        auto& leader = c.world().process_as<wbcast::WbcastReplica>(0);
        std::printf("%-8s %14.0f %16zu %18zu\n", gc ? "on" : "off",
                    static_cast<double>(c.log().completed_count()) / secs,
                    leader.entry_count(), leader.compacted_count());
    }
    std::printf("Compaction drops payload and vote state of fully-delivered "
                "messages\nwithout touching the ordering facts, so throughput "
                "is unaffected.\n\n");
}

void ablation_group_size() {
    std::printf("=== A3: group size (quorum size) on LAN, d=2, 400 clients "
                "===\n");
    std::printf("%-12s %14s %12s %12s\n", "group size", "msgs/s", "mean ms",
                "p99 ms");
    for (const int n : {3, 5, 7}) {
        harness::ExperimentConfig cfg;
        cfg.kind = ProtocolKind::wbcast;
        cfg.groups = 10;
        cfg.group_size = n;
        cfg.clients = 400;
        cfg.dest_groups = 2;
        cfg.make_delays = [] {
            return std::make_unique<sim::JitterDelay>(microseconds(40),
                                                      microseconds(20));
        };
        cfg.cpu = sim::CpuModel{.per_message = nanoseconds(300),
                                .per_byte = nanoseconds(2),
                                .wakeup = microseconds(3)};
        cfg.replica = bench::base_config(ProtocolKind::wbcast, 1, 1).replica;
        cfg.replica.wbcast_multicast_cost = microseconds(10);
        cfg.replica.wbcast_accept_cost = nanoseconds(500);
        cfg.target_ops = 2000;
        cfg.max_measure = seconds(20);
        const auto r = harness::run_experiment(cfg);
        std::printf("%-12d %14.0f %12.3f %12.3f\n", n, r.throughput_ops_s,
                    r.mean_ms, r.p99_ms);
    }
    std::printf("Larger groups add quorum traffic (n*d^2 ACCEPTs) but no "
                "extra rounds:\nlatency stays ~3 delta while per-leader load "
                "grows.\n");
}

}  // namespace

int main() {
    ablation_speculative_clock();
    ablation_gc();
    ablation_group_size();
    return 0;
}
