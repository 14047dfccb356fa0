// The WAL commit barrier every replica handler runs through. With a
// write-ahead log attached, the handler's sends are held in call order
// while it runs; at handler exit run_handler commits the log (one fsync
// per handler in SyncMode::group_commit) and only then forwards the held
// sends, one by one. So every record a handler appended is durable before
// any message it produced leaves the process, and no acknowledged
// delivery can be lost to a crash.
//
// Nothing here groups or re-frames messages: coalescing frames on the
// wire is the transport's job (net::NetWorld gathers each connection's
// queued frames into one writev). Without a WAL the body runs directly on
// the runtime's Context.
#ifndef WBAM_COMMON_COMMIT_BARRIER_HPP
#define WBAM_COMMON_COMMIT_BARRIER_HPP

#include <utility>
#include <vector>

#include "common/process.hpp"

namespace wbam {

// A Context decorator that holds every send until forward().
class DeferringContext final : public Context {
public:
    explicit DeferringContext(Context& inner) : inner_(inner) {}

    DeferringContext(const DeferringContext&) = delete;
    DeferringContext& operator=(const DeferringContext&) = delete;

    ProcessId self() const override { return inner_.self(); }
    TimePoint now() const override { return inner_.now(); }

    // send_many is inherited: the base default loops over send().
    void send(ProcessId to, BufferSlice bytes) override {
        held_.emplace_back(to, std::move(bytes));
    }

    TimerId set_timer(Duration delay) override { return inner_.set_timer(delay); }
    void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
    Rng& rng() override { return inner_.rng(); }
    void charge(Duration cpu_work) override { inner_.charge(cpu_work); }

    // Sends every held message to the inner context, in call order.
    void forward() {
        for (auto& [to, bytes] : held_) inner_.send(to, std::move(bytes));
        held_.clear();
    }

private:
    Context& inner_;
    std::vector<std::pair<ProcessId, BufferSlice>> held_;
};

// Runs one replica handler `body(Context&)` under the replica's config (a
// ReplicaConfig): directly on `ctx` without a WAL, behind the commit
// barrier with one. A body that throws (malformed input, rejected before
// it mutates state) forwards nothing; any records it queued ride the next
// commit.
template <typename Config, typename Body>
void run_handler(Context& ctx, const Config& cfg, Body&& body) {
    if (cfg.wal == nullptr) {
        body(ctx);
        return;
    }
    DeferringContext deferred(ctx);
    body(deferred);
    cfg.wal->commit();
    deferred.forward();
}

}  // namespace wbam

#endif  // WBAM_COMMON_COMMIT_BARRIER_HPP
