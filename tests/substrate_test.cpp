// Substrate-level tests added alongside the benchmark cost model: CPU
// charge accounting, idle-wakeup amortization, shared-buffer fan-out, the
// WAL commit barrier, staggered leader topology, and the delivery-log
// bookkeeping that the experiments rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/commit_barrier.hpp"
#include "harness/cluster.hpp"
#include "multicast/api.hpp"
#include "multicast/delivery_log.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "test_util.hpp"
#include "wal/log.hpp"

namespace wbam {
namespace {

class Sponge final : public Process {
public:
    void on_start(Context& c) override { ctx = &c; }
    void on_message(Context& c, ProcessId, const BufferSlice& b) override {
        if (charge_per_message > 0) c.charge(charge_per_message);
        received.push_back({c.now(), b});
    }
    void on_timer(Context&, TimerId) override {}

    Context* ctx = nullptr;
    Duration charge_per_message = 0;
    std::vector<std::pair<TimePoint, BufferSlice>> received;
};

struct SpongeWorld {
    explicit SpongeWorld(int n, sim::CpuModel cpu,
                         Duration delta = milliseconds(1))
        : world(Topology(1, 1, n - 1),
                std::make_unique<sim::UniformDelay>(delta), 1, cpu) {
        for (ProcessId p = 0; p < n; ++p) {
            auto s = std::make_unique<Sponge>();
            sponges.push_back(s.get());
            world.add_process(p, std::move(s));
        }
        world.start();
    }
    sim::World world;
    std::vector<Sponge*> sponges;
};

TEST(CpuModelTest, WakeupPaidOnlyWhenIdle) {
    // Two back-to-back messages: the first pays wakeup + per_message, the
    // second (arriving while busy) only per_message.
    SpongeWorld w(2, sim::CpuModel{.per_message = microseconds(10),
                                   .per_byte = 0,
                                   .wakeup = microseconds(100)});
    w.world.at(0, [&] {
        w.sponges[0]->ctx->send(1, Bytes{1});
        w.sponges[0]->ctx->send(1, Bytes{2});
    });
    w.world.run_for(milliseconds(5));
    ASSERT_EQ(w.sponges[1]->received.size(), 2u);
    EXPECT_EQ(w.sponges[1]->received[0].first,
              milliseconds(1) + microseconds(110));
    EXPECT_EQ(w.sponges[1]->received[1].first,
              milliseconds(1) + microseconds(120));
    // Busy-time accounting matches: 110us + 10us.
    EXPECT_EQ(w.world.busy_time_of(1), microseconds(120));
}

TEST(CpuModelTest, WakeupPaidAgainAfterIdleGap) {
    SpongeWorld w(2, sim::CpuModel{.per_message = microseconds(10),
                                   .per_byte = 0,
                                   .wakeup = microseconds(100)});
    w.world.at(0, [&] { w.sponges[0]->ctx->send(1, Bytes{1}); });
    w.world.at(milliseconds(10), [&] { w.sponges[0]->ctx->send(1, Bytes{2}); });
    w.world.run_for(milliseconds(20));
    ASSERT_EQ(w.sponges[1]->received.size(), 2u);
    // Both messages found the process idle: both pay the wakeup.
    EXPECT_EQ(w.world.busy_time_of(1), 2 * microseconds(110));
}

TEST(CpuModelTest, ChargeExtendsBusyPeriod) {
    // The handler self-charges 50us; a message arriving inside that period
    // queues behind it.
    SpongeWorld w(3, sim::CpuModel{.per_message = microseconds(1),
                                   .per_byte = 0,
                                   .wakeup = 0});
    w.sponges[2]->charge_per_message = microseconds(50);
    w.world.at(0, [&] { w.sponges[0]->ctx->send(2, Bytes{1}); });
    // Arrives at 1.030ms, inside the first handler's 50us charge window.
    w.world.at(microseconds(30), [&] { w.sponges[1]->ctx->send(2, Bytes{2}); });
    w.world.run_for(milliseconds(5));
    ASSERT_EQ(w.sponges[2]->received.size(), 2u);
    // First handled at 1ms + 1us (charge applies during the handler).
    EXPECT_EQ(w.sponges[2]->received[0].first, milliseconds(1) + microseconds(1));
    // Second queues behind the charge: busy until 1.051ms, then +1us cost.
    EXPECT_EQ(w.sponges[2]->received[1].first,
              milliseconds(1) + microseconds(52));
}

TEST(SendManyTest, SharedBufferReachesAllRecipients) {
    SpongeWorld w(4, sim::CpuModel{});
    w.world.enable_send_trace(true);
    w.world.at(0, [&] { w.sponges[0]->ctx->send_many({1, 2, 3}, Bytes{7}); });
    w.world.run_for(milliseconds(5));
    for (int p = 1; p <= 3; ++p) {
        ASSERT_EQ(w.sponges[static_cast<std::size_t>(p)]->received.size(), 1u);
        EXPECT_EQ(w.sponges[static_cast<std::size_t>(p)]->received[0].second,
                  Bytes{7});
    }
    EXPECT_EQ(w.world.send_trace().size(), 3u);  // one record per recipient
}

TEST(SendManyTest, RespectsPartitions) {
    SpongeWorld w(3, sim::CpuModel{});
    w.world.at(0, [&] { w.world.block_link(0, 2); });
    w.world.at(milliseconds(1), [&] {
        w.sponges[0]->ctx->send_many({1, 2}, Bytes{9});
    });
    w.world.run_for(milliseconds(10));
    EXPECT_EQ(w.sponges[1]->received.size(), 1u);
    EXPECT_TRUE(w.sponges[2]->received.empty());
    // Heal: the held copy is delivered (reliable channels).
    w.world.at(w.world.now() + milliseconds(1),
               [&] { w.world.unblock_link(0, 2); });
    w.world.run_for(milliseconds(10));
    EXPECT_EQ(w.sponges[2]->received.size(), 1u);
}

TEST(SendManyTest, FanOutSharesStorageWithoutCopies) {
    SpongeWorld w(4, sim::CpuModel{});
    // buffer_stats is process-global and shared with every other test in
    // this binary: assert on a scoped delta, not absolute values.
    const obs::CounterDelta delta;
    w.world.at(0, [&] {
        codec::Writer enc;
        enc.str("shared fan-out image");
        w.sponges[0]->ctx->send_many({1, 2, 3}, std::move(enc).take_buffer());
    });
    w.world.run_for(milliseconds(5));
    // Zero payload bytes copied end to end; all recipients alias one buffer.
    EXPECT_EQ(delta("buffer/bytes_copied"), 0u);
    ASSERT_EQ(w.sponges[1]->received.size(), 1u);
    EXPECT_TRUE(same_storage(w.sponges[1]->received[0].second,
                             w.sponges[2]->received[0].second));
    EXPECT_TRUE(same_storage(w.sponges[1]->received[0].second,
                             w.sponges[3]->received[0].second));
}

// --- the WAL commit barrier (run_handler) -----------------------------------

// Records every send that reaches it and, when a log is attached, how many
// commits that log had issued at the moment of the send.
class RecordingContext final : public Context {
public:
    explicit RecordingContext(const wal::Log* log = nullptr) : log_(log) {}

    ProcessId self() const override { return 0; }
    TimePoint now() const override { return 0; }
    void send(ProcessId to, BufferSlice bytes) override {
        sent.emplace_back(to, std::move(bytes));
        if (log_) commits_at_send.push_back(log_->stats().commits);
    }
    TimerId set_timer(Duration) override { return invalid_timer; }
    void cancel_timer(TimerId) override {}
    Rng& rng() override { return rng_; }

    std::vector<std::pair<ProcessId, BufferSlice>> sent;
    std::vector<std::uint64_t> commits_at_send;

private:
    const wal::Log* log_;
    Rng rng_{1};
};

Buffer tagged(std::uint8_t module, std::uint8_t tag) {
    codec::Writer w;
    w.u8(module);
    w.u8(tag);
    w.varint(invalid_msg);
    return std::move(w).take_buffer();
}

TEST(CommitBarrierTest, WalCommitsBeforeSendsLeaveInCallOrder) {
    const std::string path = testing::TempDir() + "substrate_commit_barrier.wal";
    std::remove(path.c_str());
    {
        wal::Log log(path, wal::SyncMode::group_commit);
        ASSERT_TRUE(log.ok());
        RecordingContext inner(&log);
        ReplicaConfig cfg;
        cfg.wal = &log;
        run_handler(inner, cfg, [&](Context& c) {
            log.append(1, Bytes{0x01});
            c.send(2, tagged(1, 0));
            c.send(1, tagged(1, 1));
            EXPECT_TRUE(inner.sent.empty());  // held until the commit
        });
        EXPECT_EQ(log.stats().commits, 1u);
        ASSERT_EQ(inner.sent.size(), 2u);
        // The record was durable before the first send left.
        EXPECT_EQ(inner.commits_at_send, (std::vector<std::uint64_t>{1, 1}));
        EXPECT_EQ(inner.sent[0].first, 2);
        EXPECT_EQ(inner.sent[0].second, BufferSlice(tagged(1, 0)));
        EXPECT_EQ(inner.sent[1].first, 1);
        EXPECT_EQ(inner.sent[1].second, BufferSlice(tagged(1, 1)));
    }
    std::remove(path.c_str());
}

TEST(CommitBarrierTest, WithoutWalSendsLeaveDuringTheBody) {
    RecordingContext inner;
    const ReplicaConfig cfg;  // wal == nullptr
    run_handler(inner, cfg, [&](Context& c) {
        c.send(3, tagged(1, 7));
        EXPECT_EQ(&c, &inner);  // no decorator in the way
        ASSERT_EQ(inner.sent.size(), 1u);
        EXPECT_EQ(inner.sent[0].first, 3);
    });
    EXPECT_EQ(inner.sent.size(), 1u);
}

TEST(TopologyTest, StaggeredLeadersRotateAcrossIndices) {
    const Topology t(5, 3, 0, /*staggered_leaders=*/true);
    EXPECT_EQ(t.leader_index_of(0), 0);
    EXPECT_EQ(t.leader_index_of(1), 1);
    EXPECT_EQ(t.leader_index_of(2), 2);
    EXPECT_EQ(t.leader_index_of(3), 0);  // wraps at group_size
    EXPECT_EQ(t.initial_leader(1), t.member(1, 1));
    const auto order = t.members_leader_first(1);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], t.member(1, 1));
    EXPECT_EQ(order[1], t.member(1, 2));
    EXPECT_EQ(order[2], t.member(1, 0));
}

TEST(TopologyTest, DefaultLeadersAreMemberZero) {
    const Topology t(3, 5, 0);
    for (GroupId g = 0; g < 3; ++g) {
        EXPECT_EQ(t.leader_index_of(g), 0);
        EXPECT_EQ(t.members_leader_first(g), t.members(g));
    }
}

TEST(DeliveryLogTest, LatencyIsSlowestGroupFirstDelivery) {
    DeliveryLog log;
    const AppMessage m = make_app_message(make_msg_id(5, 0), {0, 1}, {});
    log.note_multicast(milliseconds(10), 5, m);
    EXPECT_FALSE(log.multicasts().at(m.id).partially_delivered());
    log.note_delivery(milliseconds(13), 0, 0, m);
    log.note_delivery(milliseconds(14), 1, 0, m);  // later copy, same group
    EXPECT_FALSE(log.multicasts().at(m.id).partially_delivered());
    log.note_delivery(milliseconds(16), 3, 1, m);
    const auto& rec = log.multicasts().at(m.id);
    ASSERT_TRUE(rec.partially_delivered());
    // First delivery per group: g0 at 13, g1 at 16 -> latency 6ms.
    EXPECT_EQ(rec.delivery_latency(), milliseconds(6));
    EXPECT_EQ(log.completed_count(), 1u);
    EXPECT_EQ(log.total_deliveries(), 3u);
}

TEST(DeliveryLogTest, RetriedMulticastKeepsFirstTimestamp) {
    DeliveryLog log;
    const AppMessage m = make_app_message(make_msg_id(5, 0), {0}, {});
    log.note_multicast(milliseconds(10), 5, m);
    log.note_multicast(milliseconds(50), 5, m);  // client retry
    EXPECT_EQ(log.multicasts().at(m.id).multicast_at, milliseconds(10));
}

}  // namespace
}  // namespace wbam
