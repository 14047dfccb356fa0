// harness::run_experiment: the benchmark plane (NodeShim / BenchDriver /
// Coordinator) run in-process on either runtime. Every point it returns
// is measured by the drivers and validated by the coordinator's
// per-group delivery- and app-digest check.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace wbam {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentOutcome;
using harness::ProtocolKind;

// 2 groups x 3 replicas, 3 drivers x 2 sessions, every multicast to both
// groups.
ExperimentConfig small_config(ProtocolKind proto) {
    ExperimentConfig cfg;
    cfg.groups = 2;
    cfg.group_size = 3;
    cfg.drivers = 3;
    cfg.spec.proto = proto;
    cfg.spec.dest_groups = 2;
    cfg.spec.sessions = 2;
    cfg.spec.warmup = milliseconds(50);
    cfg.spec.measure = milliseconds(200);
    cfg.spec.sample_interval = milliseconds(50);
    cfg.spec.seed = 7;
    return cfg;
}

void expect_valid(const ExperimentOutcome& r, const ExperimentConfig& cfg) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.point.clients,
              cfg.drivers * static_cast<int>(cfg.spec.sessions));
    EXPECT_GT(r.point.ops, 0u);
    EXPECT_GT(r.point.throughput_ops_s, 0.0);
    EXPECT_GT(r.point.p50_ms, 0.0);
    EXPECT_GE(r.point.p99_ms, r.point.p50_ms);
}

TEST(ExperimentTest, EveryMeasuredProtocolValidatesOnSim) {
    for (const ProtocolKind proto :
         {ProtocolKind::wbcast, ProtocolKind::fastcast,
          ProtocolKind::ftskeen}) {
        SCOPED_TRACE(harness::to_string(proto));
        const ExperimentConfig cfg = small_config(proto);
        expect_valid(harness::run_experiment(cfg), cfg);
    }
}

// Replicas apply the KV ops in delivery order; the coordinator's check
// then also compares every group's application-state hash.
TEST(ExperimentTest, KvWorkloadValidatesAppHashOnSim) {
    ExperimentConfig cfg = small_config(ProtocolKind::wbcast);
    cfg.spec.workload = ctrl::WorkloadKind::kv;
    cfg.spec.kv_keys = 100;
    cfg.spec.kv_read_pct = 40;
    cfg.spec.kv_cross_pct = 20;
    expect_valid(harness::run_experiment(cfg), cfg);
}

TEST(ExperimentTest, SameSeedGivesIdenticalPointOnSim) {
    const ExperimentConfig cfg = small_config(ProtocolKind::wbcast);
    const ExperimentOutcome a = harness::run_experiment(cfg);
    const ExperimentOutcome b = harness::run_experiment(cfg);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.point.clients, b.point.clients);
    EXPECT_EQ(a.point.ops, b.point.ops);
    EXPECT_EQ(a.point.throughput_ops_s, b.point.throughput_ops_s);
    EXPECT_EQ(a.point.mean_ms, b.point.mean_ms);
    EXPECT_EQ(a.point.p50_ms, b.point.p50_ms);
    EXPECT_EQ(a.point.p99_ms, b.point.p99_ms);
}

// 500 sessions keep every leader saturated, and links of 1-2 ms land the
// coordinator's REPORT at a group's replicas up to 1 ms apart. The
// replicas' counts agree only because the drivers stop before the
// coordinator asks for them; under live load every re-poll diverges.
TEST(ExperimentTest, SaturatingLoadValidatesOnSim) {
    ExperimentConfig cfg = small_config(ProtocolKind::wbcast);
    cfg.drivers = 5;
    cfg.spec.sessions = 100;
    cfg.make_delays = [] {
        return std::make_unique<sim::JitterDelay>(milliseconds(1),
                                                  milliseconds(1));
    };
    cfg.cpu = sim::CpuModel{.per_message = nanoseconds(300),
                            .per_byte = nanoseconds(2),
                            .wakeup = microseconds(3)};
    expect_valid(harness::run_experiment(cfg), cfg);
}

TEST(ExperimentTest, LoopbackNetPointValidates) {
    ExperimentConfig cfg = small_config(ProtocolKind::wbcast);
    cfg.runtime = harness::RuntimeKind::net;
    expect_valid(harness::run_experiment(cfg), cfg);
}

}  // namespace
}  // namespace wbam
