// Runtime-contract smoke tests on the TCP runtime, each process in its own
// NetWorld over loopback (harness::make_loopback_worlds): FIFO delivery of
// sends injected with run_on, timers firing and cancelling, and run_on
// thunks executing in the target's context. No exact-timing assertions
// (wall-clock scheduling jitter), only ordering and completeness. Full
// protocol clusters over the same wiring are net_integration_test's job.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>

#include "harness/live_cluster.hpp"

namespace wbam {
namespace {

class Echo final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context&, ProcessId, const BufferSlice& b) override {
        const std::lock_guard<std::mutex> guard(mutex);
        received.push_back(b);
    }
    void on_timer(Context&, TimerId) override { fired.fetch_add(1); }

    std::size_t received_count() {
        const std::lock_guard<std::mutex> guard(mutex);
        return received.size();
    }

    std::mutex mutex;
    std::vector<BufferSlice> received;
    std::atomic<int> fired{0};
};

// Polls `done` every 5 ms for at most 5 s; true once it holds.
bool eventually(const std::function<bool()>& done) {
    for (int spin = 0; spin < 1000; ++spin) {
        if (done()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
}

// One Echo per process of `topo`, each in its own started loopback world.
struct EchoCluster {
    explicit EchoCluster(const Topology& topo) {
        worlds = harness::make_loopback_worlds(
            topo, /*seed=*/1, [this](ProcessId) -> std::unique_ptr<Process> {
                auto echo = std::make_unique<Echo>();
                echoes.push_back(echo.get());
                return echo;
            });
        for (const auto& w : worlds) w->start();
    }
    ~EchoCluster() { shutdown(); }

    void run_on(ProcessId pid, std::function<void(Context&)> fn) {
        worlds[static_cast<std::size_t>(pid)]->run_on(pid, std::move(fn));
    }
    void shutdown() {
        for (const auto& w : worlds) w->shutdown();
    }

    std::vector<Echo*> echoes;
    std::vector<std::unique_ptr<net::NetWorld>> worlds;
};

TEST(NetRuntimeTest, DeliversMessagesFifo) {
    EchoCluster c(Topology(1, 1, 1));
    Echo* pb = c.echoes[1];
    // External injection goes through run_on: the thunk runs on process
    // 0's own loop, after its on_start.
    c.run_on(0, [](Context& ctx) {
        for (std::uint8_t i = 0; i < 50; ++i) ctx.send(1, Bytes{i});
    });
    EXPECT_TRUE(eventually([pb] { return pb->received_count() >= 50; }));
    c.shutdown();
    ASSERT_EQ(pb->received.size(), 50u);
    for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(pb->received[i], Bytes{i});
}

TEST(NetRuntimeTest, TimersFireAndCancel) {
    EchoCluster c(Topology(1, 1, 0));
    Echo* pa = c.echoes[0];
    c.run_on(0, [](Context& ctx) {
        ctx.set_timer(milliseconds(5));
        const TimerId cancelled = ctx.set_timer(milliseconds(5));
        ctx.cancel_timer(cancelled);
    });
    EXPECT_TRUE(eventually([pa] { return pa->fired.load() >= 1; }));
    // Both timers were due at the same instant; give the cancelled one
    // ample time to (wrongly) fire.
    c.worlds[0]->run_for(milliseconds(50));
    c.shutdown();
    EXPECT_EQ(pa->fired.load(), 1);
}

// run_on injection delivers the thunk on the target process's own loop,
// in its context.
TEST(NetRuntimeTest, RunOnExecutesOnProcessContext) {
    EchoCluster c(Topology(1, 1, 1));
    Echo* pb = c.echoes[1];
    std::atomic<ProcessId> seen{invalid_process};
    c.run_on(1, [&seen](Context& ctx) {
        seen.store(ctx.self());
        ctx.send(ctx.self(), Bytes{0x7e});  // self-send still works
    });
    EXPECT_TRUE(eventually([pb] { return pb->received_count() >= 1; }));
    c.shutdown();
    EXPECT_EQ(seen.load(), 1);
    ASSERT_EQ(pb->received.size(), 1u);
    EXPECT_EQ(pb->received[0], Bytes{0x7e});
}

}  // namespace
}  // namespace wbam
