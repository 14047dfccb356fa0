// The benchmark plane: the processes that turn a cluster into a
// measurement instrument producing the BENCH_fig7/fig8 JSON. A deployed
// wbamd cluster (real OS processes over TCP — loopback, netns-emulated
// WAN, or real hosts) runs them under wbamctl; harness::run_experiment
// runs the same processes in-process on the simulator or on loopback
// NetWorlds, so every figure point is measured and validated alike.
//
// Three roles, all ordinary Process implementations (so the control plane
// inherits the runtime's reliable-FIFO channels — and, on the net
// runtime, its reconnect behaviour — for free):
//
//   * NodeShim    — wraps a replica. Starts bare; instantiates the actual
//                   protocol stack only when the coordinator's RUN_SPEC
//                   arrives (the deployment driver never bakes protocol
//                   knobs into argv). Records its delivery sequence as an
//                   order-sensitive digest for the coordinator's
//                   per-group agreement check, and acks deliveries to the
//                   originating driver.
//   * BenchDriver — hosts `sessions` closed-loop client sessions and the
//                   node-side LatencySampler; streams drained raw samples
//                   to the coordinator (SAMPLE) during the measurement
//                   window and reports final counters (DRIVER_DONE).
//                   Keeps applying load after its window closes so other
//                   drivers measure under full contention; stops at
//                   SHUTDOWN, which the coordinator sends once every
//                   driver's window has closed.
//   * Coordinator — distributes the BenchSpec, opens the measurement
//                   window (absolute timepoints when the deployment
//                   shares a clock epoch), merges streamed samples into
//                   one histogram (exact merged percentiles), stops the
//                   load, validates that every replica group agrees on
//                   its delivery sequence, and exposes the merged
//                   FigReport point.
//
// The message exchange is documented in ctrl/messages.hpp; the file
// format and deployment modes in docs/DEPLOYMENT.md.
#ifndef WBAM_CTRL_BENCH_PLANE_HPP
#define WBAM_CTRL_BENCH_PLANE_HPP

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/latency_sampler.hpp"
#include "ctrl/messages.hpp"
#include "harness/fig_report.hpp"
#include "kvstore/shard.hpp"
#include "kvstore/workload.hpp"
#include "wal/log.hpp"

namespace wbam::ctrl {

// --- replica side ------------------------------------------------------------

class NodeShim final : public Process {
public:
    // `shutdown_flag` is set (from the loop thread) when the coordinator
    // orders SHUTDOWN; the hosting main loop polls it to exit. `base` is
    // the inner replica's configuration under the spec's distributed knobs
    // (BenchSpec::replica_config): the simulator's cost model, GC, and the
    // WAL. `base.wal`, when given, is also the shim's: it appends an
    // app_delivered record per delivery (riding the protocol's commit
    // batches) and rebuilds its delivery sequence + digest from the
    // recovered records on restart, so a kill -9'd node reports the FULL
    // run in its REPLICA_DONE digest, not just the post-restart suffix.
    NodeShim(Topology topo, ProcessId self, ProcessId coordinator,
             std::atomic<bool>* shutdown_flag, ReplicaConfig base = {});

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    // Snapshot of the recorded delivery sequence (read after shutdown for
    // --out files; thread-safe).
    std::vector<MsgId> deliveries() const;

    // The sequence as of the last REPORT answered — the snapshot the
    // coordinator's digest validation agreed on. Deliveries landing
    // between that report and process exit are excluded, so the written
    // sequence files of one group compare byte-identical even when tail
    // traffic is still settling at the shutdown deadline. Falls back to
    // the live sequence if no REPORT was ever answered.
    std::vector<MsgId> reported_deliveries() const;

private:
    void handle_ctrl(Context& ctx, const codec::EnvelopeView& env);

    Topology topo_;
    ProcessId self_;
    ProcessId coordinator_;
    std::atomic<bool>* shutdown_flag_;
    ReplicaConfig base_;
    // Ids restored from the WAL: if the inner replica's replay re-emits
    // one (at-least-once above its durable watermark), the sink drops the
    // duplicate instead of double-counting it.
    std::unordered_set<MsgId> replayed_;

    std::unique_ptr<Process> inner_;
    // Protocol traffic that raced ahead of our RUN_SPEC (a peer that
    // received its spec first may already be heartbeating): replayed into
    // the inner process the moment it exists.
    std::vector<std::pair<ProcessId, BufferSlice>> early_mail_;

    mutable std::mutex deliveries_mutex_;
    std::vector<MsgId> deliveries_;  // append-only
    // deliveries_.size() at the last REPORT answered; reported_deliveries()
    // is that prefix.
    std::optional<std::size_t> reported_len_;
    std::uint64_t digest_ = 0;
    // KV workload only (spec.workload == kv): this replica's shard of the
    // partitioned store. Built at RUN_SPEC (the group/shard mapping needs
    // the spec's word that payloads are KvOps); guarded by
    // deliveries_mutex_ like the delivery record it rides along with.
    std::unique_ptr<kv::ShardState> kv_state_;
};

// --- driver side -------------------------------------------------------------

class BenchDriver final : public Process {
public:
    BenchDriver(Topology topo, ProcessId coordinator,
                std::atomic<bool>* shutdown_flag);

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

private:
    // One op in flight; msg.submit_ts is its issue time, the start of its
    // latency sample (retries keep it).
    struct PendingOp {
        AppMessage msg;
        std::unordered_set<GroupId> acked;
        TimePoint last_send = 0;
    };

    void handle_ctrl(Context& ctx, const codec::EnvelopeView& env);
    void begin(Context& ctx, const StartMsg& start);
    void issue(Context& ctx);
    void flush_samples(Context& ctx);

    Topology topo_;
    ProcessId coordinator_;
    std::atomic<bool>* shutdown_flag_;

    BenchSpec spec_;
    bool have_spec_ = false;
    bool started_ = false;
    bool stopped_ = false;
    bool done_sent_ = false;
    TimePoint window_open_ = 0;
    TimePoint window_close_ = 0;

    client::LatencySampler sampler_;
    // Destination choice is drawn from the spec's seed (not the world
    // RNG), so wbamctl --seed reproduces the same workload shape across
    // runs and deployments.
    Rng workload_rng_{1};
    // KV workload only: the zipfian op generator. Destinations come from
    // key placement (shard_of) instead of the uniform dest_groups draw.
    std::unique_ptr<kv::KvWorkload> kv_workload_;
    std::uint32_t seq_ = 0;
    std::unordered_map<MsgId, PendingOp> pending_;
    TimerId sample_timer_ = invalid_timer;
    TimerId retry_timer_ = invalid_timer;
};

// --- coordinator side --------------------------------------------------------

struct CoordinatorConfig {
    BenchSpec spec;
    // Deployment shares one clock epoch (NetConfig::epoch / --epoch-ns):
    // START carries absolute window timepoints, so every driver measures
    // the SAME wall-clock window.
    bool shared_epoch = false;
    // Settle time between the last DRIVER_DONE and the first REPORT (lets
    // in-flight deliveries land so replica digests converge).
    Duration quiesce = milliseconds(750);
    // Replica digest collection: groups still converging are re-polled.
    Duration report_retry = milliseconds(400);
    int report_attempts = 25;
    // Overall run deadline, measured from on_start.
    Duration deadline = seconds(180);
};

class Coordinator final : public Process {
public:
    Coordinator(Topology topo, CoordinatorConfig cfg);

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    // Cross-thread progress flag for the hosting main loop.
    bool finished() const { return finished_.load(); }

    // The accessors below are valid only after the world has shut down
    // (the loop thread is joined; no concurrent mutation remains).
    bool succeeded() const { return ok_; }
    const std::string& error() const { return error_; }
    harness::FigPoint result_point() const;
    const stats::Histogram& merged_latency() const { return merged_; }
    std::uint64_t samples_streamed() const { return samples_streamed_; }
    int drivers() const { return drivers_; }
    // Cluster-wide metrics, folded from the final REPLICA_DONE snapshots
    // at finish: counters summed, histograms (the stage/<proto>/<stage>
    // rows in particular) bucket-merged — percentiles over the merge are
    // exact, not approximated from per-replica quantiles.
    const std::map<std::string, std::uint64_t>& merged_counters() const {
        return merged_counters_;
    }
    const std::map<std::string, stats::Histogram>& merged_histograms() const {
        return merged_histograms_;
    }

private:
    enum class Phase {
        wait_ready,
        wait_spec_ok,
        measuring,
        quiescing,
        reporting,
        done,
    };

    void broadcast(Context& ctx, const Buffer& wire);
    void handle_ctrl(Context& ctx, ProcessId from, const BufferSlice& bytes);
    void send_report(Context& ctx);
    void shutdown_drivers(Context& ctx);
    // Shuts down every process not yet shut down; marks the run finished.
    void end_run(Context& ctx);
    void finish(Context& ctx);
    void fail(Context& ctx, const std::string& why);
    bool validate_groups(std::string* why) const;

    Topology topo_;
    CoordinatorConfig cfg_;
    ProcessId self_ = invalid_process;
    int participants_ = 0;
    int drivers_ = 0;

    Phase phase_ = Phase::wait_ready;
    std::set<ProcessId> ready_;
    std::set<ProcessId> spec_ok_;
    std::map<ProcessId, DriverDoneMsg> driver_done_;
    std::map<ProcessId, ReplicaDoneMsg> replica_done_;
    int report_attempts_made_ = 0;
    TimePoint started_at_ = 0;
    TimePoint window_open_ = 0;
    TimePoint window_close_ = 0;
    TimePoint quiesce_until_ = 0;
    TimePoint next_report_at_ = 0;
    TimerId tick_timer_ = invalid_timer;
    // Each process gets exactly one SHUTDOWN: a second one to a driver
    // that already exited would stall this process's shutdown drain.
    bool drivers_shut_down_ = false;

    stats::Histogram merged_;
    std::uint64_t samples_streamed_ = 0;
    std::map<std::string, std::uint64_t> merged_counters_;
    std::map<std::string, stats::Histogram> merged_histograms_;

    std::atomic<bool> finished_{false};
    bool ok_ = false;
    std::string error_;
};

}  // namespace wbam::ctrl

#endif  // WBAM_CTRL_BENCH_PLANE_HPP
