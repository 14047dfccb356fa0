// Leader-side send batching: a Context decorator that coalesces sends
// made during one handler invocation and flushes them at handler exit.
// Multiple messages to the same destination leave as a single
// codec::Module::batch frame (one wire image, one arrival event, one
// per-message CPU wakeup at the receiver); a destination with a single
// pending message gets it forwarded untouched. Both runtimes unwrap batch
// frames transparently, so protocols never see them.
//
// Flush order is deterministic: destinations in first-send order, messages
// within a destination in send order — the relative order of any two sends
// to the same destination is preserved, which is all the FIFO-channel
// contract promises.
//
// Opt in per replica via ReplicaConfig::batching_enabled; replicas run
// each handler through run_handler below.
#ifndef WBAM_COMMON_BATCHING_HPP
#define WBAM_COMMON_BATCHING_HPP

#include <cstddef>
#include <vector>

#include "common/process.hpp"

namespace wbam {

class BatchingContext final : public Context {
public:
    // Batches for one destination are flushed early once their framed size
    // would exceed max_batch_bytes (0 means unbounded).
    explicit BatchingContext(Context& inner, std::size_t max_batch_bytes = 0)
        : inner_(inner), max_batch_bytes_(max_batch_bytes) {}
    ~BatchingContext() override { flush(); }

    BatchingContext(const BatchingContext&) = delete;
    BatchingContext& operator=(const BatchingContext&) = delete;

    ProcessId self() const override { return inner_.self(); }
    TimePoint now() const override { return inner_.now(); }

    // send_many is inherited: the base default loops over send(), which
    // dispatches here and appends to each destination's batch.
    void send(ProcessId to, BufferSlice bytes) override;

    TimerId set_timer(Duration delay) override { return inner_.set_timer(delay); }
    void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
    Rng& rng() override { return inner_.rng(); }
    void charge(Duration cpu_work) override { inner_.charge(cpu_work); }

    // Emits every pending batch (first-send destination order). Called
    // automatically on destruction; safe to call repeatedly.
    void flush();

    std::size_t pending_messages() const;

private:
    struct PerDest {
        ProcessId to = invalid_process;
        std::vector<BufferSlice> pending;
        std::size_t pending_bytes = 0;
    };

    PerDest& dest(ProcessId to);
    void emit(PerDest& d);

    Context& inner_;
    std::size_t max_batch_bytes_;
    std::vector<PerDest> dests_;  // first-send order; small fan-out degree
};

// Runs one replica handler `body(Context&)` under the replica's config
// (a ReplicaConfig). With batching on or a WAL attached, same-destination
// sends coalesce into batch frames flushed at handler exit, and that flush
// point doubles as the WAL group-commit point: every record the handler
// appended is durable (one fsync per batch in group_commit mode) before
// any message it produced leaves. Otherwise the body runs directly on
// `ctx`, with no decorator in the way.
template <typename Config, typename Body>
void run_handler(Context& ctx, const Config& cfg, Body&& body) {
    if (!cfg.batching_enabled && cfg.wal == nullptr) {
        body(ctx);
        return;
    }
    BatchingContext batched(ctx, cfg.batch_max_bytes);
    body(batched);
    if (cfg.wal) cfg.wal->commit();
    batched.flush();
}

}  // namespace wbam

#endif  // WBAM_COMMON_BATCHING_HPP
