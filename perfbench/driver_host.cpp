// perfdriver — the benchmark's load generator. It hosts one
// ctrl::BenchDriver on the net runtime, exactly as `wbamd --bench` does
// for a client pid, and takes the same flags (--pid, --topology,
// --epoch-ns, --net-shards, --run-ms, --metrics-dump). Around the
// unchanged driver it keeps a ledger of what the bench plane does not
// report by itself:
//
//   * the measurement window the coordinator's START opened (with the
//     deployment's shared clock epoch set to the launch of the first
//     process, window_open is the cluster's set-up time);
//   * every multicast issued over the whole run, its destination groups,
//     and which groups acknowledged it — whole-run completions are the
//     denominator of the per-op cost metrics, and ops still unacked at
//     exit are split into in-flight (younger than `stuck_after`) and
//     failed;
//   * the issued ids with their destination groups (--out=FILE.ids), so
//     the benchmark can check every replica's delivery sequence against
//     what was actually sent.
//
// At exit it writes one JSON object to --out and, with --metrics-dump,
// a single "final" registry snapshot line in wbamd's JSONL format.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ctrl/bench_plane.hpp"
#include "harness/bootstrap.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"

using namespace wbam;

namespace {

// An op unacked for longer than this at exit is counted as failed rather
// than in flight: four client retries (BenchSpec::client_retry = 500 ms)
// went unanswered, while a healthy loopback op completes in about 1 ms.
constexpr Duration stuck_after = seconds(2);

struct Ledger {
    struct Op {
        std::uint64_t dest_mask = 0;
        std::uint64_t acked_mask = 0;
        TimePoint first_send = 0;
    };

    std::unordered_map<MsgId, Op> ops;
    std::uint64_t completed = 0;
    TimePoint window_open = -1;
    TimePoint window_close = -1;
    // Submit-to-last-ack latency of every op completed in the window,
    // kept exactly (the coordinator's merged histogram has ~2 % buckets).
    std::vector<Duration> window_latencies;

    void note_send(MsgId id, const std::vector<GroupId>& dests, TimePoint now) {
        auto [it, fresh] = ops.try_emplace(id);
        if (!fresh) return;  // a retry of an op already issued
        for (const GroupId g : dests) it->second.dest_mask |= 1ULL << g;
        it->second.first_send = now;
    }

    // Same rule as client::LatencySampler: an op counts in the window when
    // its last destination group acknowledges inside [open, close).
    void note_ack(MsgId id, GroupId group, TimePoint now) {
        const auto it = ops.find(id);
        if (it == ops.end() || group >= 64) return;
        Op& op = it->second;
        if (op.acked_mask == op.dest_mask) return;  // duplicate replica ack
        op.acked_mask |= 1ULL << group;
        if (op.acked_mask != op.dest_mask) return;
        ++completed;
        if (window_open >= 0 && now >= window_open && now < window_close)
            window_latencies.push_back(now - op.first_send);
    }
};

// Forwards every call to the runtime's context; client multicast
// requests leaving the driver are recorded in the ledger on the way.
class RecordingContext final : public Context {
public:
    RecordingContext(Context& inner, Ledger& ledger)
        : inner_(inner), ledger_(ledger) {}

    ProcessId self() const override { return inner_.self(); }
    TimePoint now() const override { return inner_.now(); }
    void send(ProcessId to, BufferSlice bytes) override {
        try {
            const codec::EnvelopeView env(bytes);
            // Only a first send is decoded: fan-out to the other groups'
            // leaders and retries carry an id the ledger already holds.
            if (env.module == codec::Module::client &&
                env.type ==
                    static_cast<std::uint8_t>(ClientMsgType::multicast) &&
                ledger_.ops.count(env.about) == 0) {
                codec::Reader body = env.body;
                const AppMessage m = AppMessage::decode(body);
                ledger_.note_send(m.id, m.dests, inner_.now());
            }
        } catch (const codec::DecodeError&) {
        }
        inner_.send(to, std::move(bytes));
    }
    TimerId set_timer(Duration delay) override {
        return inner_.set_timer(delay);
    }
    void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
    Rng& rng() override { return inner_.rng(); }

private:
    Context& inner_;
    Ledger& ledger_;
};

class RecordingDriver final : public Process {
public:
    RecordingDriver(std::unique_ptr<ctrl::BenchDriver> inner, Ledger* ledger)
        : inner_(std::move(inner)), ledger_(ledger) {}

    void on_start(Context& ctx) override {
        RecordingContext rc(ctx, *ledger_);
        inner_->on_start(rc);
    }

    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        try {
            const codec::EnvelopeView env(bytes);
            if (env.module == codec::Module::ctrl &&
                env.type == static_cast<std::uint8_t>(ctrl::CtrlMsgType::start)) {
                codec::Reader body = env.body;
                const ctrl::StartMsg start = ctrl::StartMsg::decode(body);
                ledger_->window_open = start.window_open;
                ledger_->window_close = start.window_close;
            } else if (env.module == codec::Module::client &&
                       env.type == static_cast<std::uint8_t>(
                                       ClientMsgType::deliver_ack)) {
                codec::Reader body = env.body;
                ledger_->note_ack(env.about, DeliverAckMsg::decode(body).group,
                                  ctx.now());
            }
        } catch (const codec::DecodeError&) {
        }
        RecordingContext rc(ctx, *ledger_);
        inner_->on_message(rc, from, bytes);
    }

    void on_timer(Context& ctx, TimerId id) override {
        RecordingContext rc(ctx, *ledger_);
        inner_->on_timer(rc, id);
    }

private:
    std::unique_ptr<ctrl::BenchDriver> inner_;
    Ledger* ledger_;
};

// Nearest-rank percentile, the rule stats::Histogram::percentile uses.
Duration percentile(const std::vector<Duration>& sorted, double q) {
    if (sorted.empty()) return 0;
    return sorted[static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1))];
}

bool write_report(const std::string& path, Ledger& ledger, ProcessId pid,
                  TimePoint exit_at) {
    std::vector<Duration>& lat = ledger.window_latencies;
    std::sort(lat.begin(), lat.end());
    std::uint64_t in_flight = 0;
    std::uint64_t stuck = 0;
    for (const auto& [id, op] : ledger.ops) {
        if (op.acked_mask == op.dest_mask) continue;
        if (exit_at - op.first_send > stuck_after)
            ++stuck;
        else
            ++in_flight;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(
        f,
        "{\"pid\": %d, \"window_open_ns\": %lld, \"window_close_ns\": %lld, "
        "\"issued\": %zu, \"completed\": %llu, \"in_flight\": %llu, "
        "\"failed\": %llu, \"window_ops\": %zu, \"window_p50_ns\": %lld, "
        "\"window_p90_ns\": %lld, \"window_p99_ns\": %lld}\n",
        pid,
        static_cast<long long>(ledger.window_open),
        static_cast<long long>(ledger.window_close), ledger.ops.size(),
        static_cast<unsigned long long>(ledger.completed),
        static_cast<unsigned long long>(in_flight),
        static_cast<unsigned long long>(stuck),
        lat.size(), static_cast<long long>(percentile(lat, 0.50)),
        static_cast<long long>(percentile(lat, 0.90)),
        static_cast<long long>(percentile(lat, 0.99)));
    std::fclose(f);

    std::FILE* ids = std::fopen((path + ".ids").c_str(), "w");
    if (ids == nullptr) return false;
    for (const auto& [id, op] : ledger.ops)
        std::fprintf(ids, "%016llx %llx\n", static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(op.dest_mask));
    std::fclose(ids);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::string error;
    const auto options = harness::parse_node_args(argc, argv, &error);
    if (!options || options->out.empty() || !options->bench) {
        std::fprintf(stderr,
                     "perfdriver: %s\nusage: perfdriver --pid=N "
                     "--topology=FILE --bench --out=FILE [--epoch-ns=T] "
                     "[--net-shards=N] [--run-ms=MS] [--metrics-dump=FILE]\n",
                     options ? "--bench and --out=FILE are required"
                             : error.c_str());
        return 2;
    }
    const harness::NodeOptions& o = *options;
    const auto boot = harness::resolve_bootstrap(o, &error);
    if (!boot) {
        std::fprintf(stderr, "perfdriver: %s\n", error.c_str());
        return 2;
    }
    const Topology& topo = boot->topo;
    if (!topo.is_client(o.pid) || topo.num_clients() < 2 ||
        o.pid == topo.client(topo.num_clients() - 1)) {
        std::fprintf(stderr,
                     "perfdriver: pid %d is not a driver seat (a client pid "
                     "other than the last, which is the coordinator's)\n",
                     o.pid);
        return 2;
    }

    net::NetConfig cfg;
    cfg.shards = o.net_shards;
    if (o.epoch_ns > 0)
        cfg.epoch = std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::nanoseconds(o.epoch_ns)));
    net::NetWorld world(topo, static_cast<std::uint64_t>(o.pid) + 1, cfg);

    Ledger ledger;
    std::atomic<bool> done{false};
    world.add_process(
        o.pid,
        std::make_unique<RecordingDriver>(
            std::make_unique<ctrl::BenchDriver>(
                topo, topo.client(topo.num_clients() - 1), &done),
            &ledger),
        boot->map.of(o.pid).port);
    world.set_cluster(boot->map);
    world.start();
    for (int s = 0; s < o.run_ms / 10 && !done.load(); ++s)
        world.run_for(milliseconds(10));
    const TimePoint exit_at = world.now();
    world.shutdown();

    if (!o.metrics_dump.empty()) {
        std::FILE* f = std::fopen(o.metrics_dump.c_str(), "w");
        if (f == nullptr) return 1;
        std::fprintf(f, "{\"kind\": \"final\", \"pid\": %d, \"metrics\": %s}\n",
                     o.pid, obs::metrics().snapshot().to_json().c_str());
        std::fclose(f);
    }
    if (!write_report(o.out, ledger, o.pid, exit_at)) {
        std::fprintf(stderr, "perfdriver: cannot write %s\n", o.out.c_str());
        return 1;
    }
    return done.load() ? 0 : 1;
}
