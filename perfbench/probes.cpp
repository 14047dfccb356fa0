// perfprobe — the benchmark's per-layer probes. It times calls into the
// public functions of single modules, on the frame and op sizes of the
// workload being traced, and runs the four protocols through the
// deterministic simulator on the benchmark's cross-group traffic shape.
//
//   perfprobe --workload=bytes|kv [--payload=20] [--seed=1] [--kv-keys=1000]
//             [--kv-theta=0.99] [--kv-read-pct=50] [--kv-cross-pct=10]
//             --scratch=DIR --out=FILE
//
// Writes one JSON object to --out: {"probes": {name: ns}, "sim": {proto:
// {...}}, "failures": [...]}. A non-empty "failures" list (a simulated
// run that breaks the multicast specification, or delta latencies off
// the paper's values) makes the exit code 1.
//
// Timings are the median over nine blocks of the per-item cost, each
// block at least 10 ms of work, so one descheduled block cannot move
// the result.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "kvstore/shard.hpp"
#include "kvstore/workload.hpp"
#include "multicast/api.hpp"
#include "net/frame.hpp"
#include "net/send_queue.hpp"
#include "wal/log.hpp"
#include "wal/records.hpp"

using namespace wbam;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
    bool kv = false;
    int payload = 20;
    std::uint64_t seed = 1;
    kv::WorkloadConfig kv_cfg;
    std::string scratch;
    std::string out;
};

// Keeps results of timed work observable so it cannot be optimised away.
volatile std::uint64_t g_sink = 0;

double elapsed_ns(Clock::time_point from, Clock::time_point to) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// One round of a probe: the items it processed and the nanoseconds spent
// in the timed call (probes that must do untimed set-up per item, such as
// draining a socket, time only the call they measure).
struct Round {
    double ns = 0;
    std::size_t items = 0;
};

double median_ns_per_item(const std::function<Round()>& round) {
    round();  // warm caches and lazy allocations
    std::vector<double> blocks;
    for (int b = 0; b < 9; ++b) {
        double ns = 0;
        std::size_t items = 0;
        const Clock::time_point start = Clock::now();
        while (elapsed_ns(start, Clock::now()) < 10e6) {
            const Round r = round();
            ns += r.ns;
            items += r.items;
        }
        blocks.push_back(ns / static_cast<double>(items));
    }
    return median(std::move(blocks));
}

// The workload's multicasts as a driver issues them: 20 B opaque payloads
// to both groups, or KV ops with their key-placement destinations.
std::vector<AppMessage> workload_messages(const Options& o, std::size_t n) {
    std::vector<AppMessage> msgs;
    Rng rng(o.seed);
    const kv::KvWorkload gen(o.kv_cfg);
    for (std::size_t i = 0; i < n; ++i) {
        const MsgId id = make_msg_id(6, static_cast<std::uint32_t>(i));
        AppMessage m;
        if (o.kv) {
            kv::KvRequest req = gen.next(rng);
            codec::Writer w;
            req.op.encode(w);
            m = make_app_message(id, std::move(req.dests), std::move(w).take());
        } else {
            m = make_app_message(id, {0, 1},
                                 Bytes(static_cast<std::size_t>(o.payload),
                                       0x77));
        }
        m.submit_ts = 1'000'000 + static_cast<TimePoint>(i);
        msgs.push_back(std::move(m));
    }
    return msgs;
}

std::vector<kv::KvRequest> kv_requests(const Options& o, std::size_t n) {
    std::vector<kv::KvRequest> reqs;
    Rng rng(o.seed);
    const kv::KvWorkload gen(o.kv_cfg);
    for (std::size_t i = 0; i < n; ++i) reqs.push_back(gen.next(rng));
    return reqs;
}

// --- codec -------------------------------------------------------------------

double probe_encode(const std::vector<AppMessage>& msgs) {
    return median_ns_per_item([&] {
        std::uint64_t bytes = 0;
        const Clock::time_point t0 = Clock::now();
        for (const AppMessage& m : msgs)
            bytes += encode_multicast_request(m).size();
        const Clock::time_point t1 = Clock::now();
        g_sink = g_sink + bytes;
        return Round{elapsed_ns(t0, t1), msgs.size()};
    });
}

double probe_decode(const std::vector<Buffer>& wires) {
    return median_ns_per_item([&] {
        std::uint64_t check = 0;
        const Clock::time_point t0 = Clock::now();
        for (const Buffer& wire : wires) {
            const codec::EnvelopeView env{BufferSlice(wire)};
            codec::Reader body = env.body;
            const AppMessage m = AppMessage::decode(body);
            check += m.id + m.payload.size();
        }
        const Clock::time_point t1 = Clock::now();
        g_sink = g_sink + check;
        return Round{elapsed_ns(t0, t1), wires.size()};
    });
}

// --- net ---------------------------------------------------------------------

// Frames handed to one flush: the coalescing the mc2g workloads showed on
// loopback (about 4.8 frames per writev).
constexpr std::size_t frames_per_flush = 4;

struct SocketPair {
    int fds[2] = {-1, -1};
    SocketPair() {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
            std::perror("perfprobe: socketpair");
            std::exit(1);
        }
        for (const int fd : fds)
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
    ~SocketPair() {
        ::close(fds[0]);
        ::close(fds[1]);
    }
    SocketPair(const SocketPair&) = delete;
    SocketPair& operator=(const SocketPair&) = delete;

    std::size_t drain() {
        std::uint8_t buf[1 << 16];
        std::size_t total = 0;
        for (;;) {
            const ssize_t n = ::read(fds[1], buf, sizeof buf);
            if (n <= 0) return total;
            total += static_cast<std::size_t>(n);
        }
    }
};

double probe_flush(const std::vector<Buffer>& wires) {
    SocketPair sp;
    net::SendQueue q;
    std::size_t next = 0;
    return median_ns_per_item([&] {
        double ns = 0;
        std::uint64_t seq = 0;
        for (int i = 0; i < 64; ++i) {
            for (std::size_t f = 0; f < frames_per_flush; ++f)
                seq = q.push_data(BufferSlice(wires[next++ % wires.size()]));
            const Clock::time_point t0 = Clock::now();
            const auto status = q.flush(sp.fds[0]);
            const Clock::time_point t1 = Clock::now();
            if (status != net::SendQueue::FlushStatus::idle) {
                std::fprintf(stderr, "perfprobe: flush did not drain\n");
                std::exit(1);
            }
            ns += elapsed_ns(t0, t1);
            g_sink = g_sink + sp.drain();
            q.on_ack(seq);
        }
        return Round{ns, 64 * frames_per_flush};
    });
}

double probe_reassemble(const std::vector<Buffer>& wires) {
    // The receive image a peer's read(2) returns: real DATA frames, as a
    // SendQueue writes them.
    std::vector<std::uint8_t> image;
    {
        SocketPair sp;
        net::SendQueue q;
        for (const Buffer& w : wires) q.push_data(BufferSlice(w));
        while (!q.empty()) {
            if (q.flush(sp.fds[0]) == net::SendQueue::FlushStatus::error) {
                std::fprintf(stderr, "perfprobe: flush failed\n");
                std::exit(1);
            }
            std::uint8_t buf[1 << 16];
            ssize_t n;
            while ((n = ::read(sp.fds[1], buf, sizeof buf)) > 0)
                image.insert(image.end(), buf, buf + n);
        }
    }
    return median_ns_per_item([&] {
        net::FrameReassembler r;
        std::size_t frames = 0;
        const Clock::time_point t0 = Clock::now();
        r.feed(image.data(), image.size());
        const bool ok = r.drain([&](const BufferSlice& frame) {
            frames += frame.size() > 0 ? 1 : 0;
        });
        const Clock::time_point t1 = Clock::now();
        if (!ok || frames != wires.size()) {
            std::fprintf(stderr, "perfprobe: reassembled %zu of %zu frames\n",
                         frames, wires.size());
            std::exit(1);
        }
        return Round{elapsed_ns(t0, t1), frames};
    });
}

// --- wal ---------------------------------------------------------------------

// One delivery record per op (the bench shim's app_delivered meta plus the
// op's payload), committed one at a time: the worst case of group commit.
// SyncMode::off — the log lives on the benchmark's own disk, where fsync
// latency is the neighbours' device flush, not this program's work.
double probe_wal(const std::vector<AppMessage>& msgs, const std::string& dir) {
    const std::string path = dir + "/probe.wal";
    ::unlink(path.c_str());
    double result = 0;
    {
        wal::Log log(path, wal::SyncMode::off);
        if (!log.ok()) {
            std::fprintf(stderr, "perfprobe: cannot open %s\n", path.c_str());
            std::exit(1);
        }
        result = median_ns_per_item([&] {
            const Clock::time_point t0 = Clock::now();
            for (const AppMessage& m : msgs) {
                log.append(wal::tag(wal::RecordType::app_delivered),
                           wal::encode_app_delivered(m.id), m.payload);
                log.commit();
            }
            const Clock::time_point t1 = Clock::now();
            return Round{elapsed_ns(t0, t1), msgs.size()};
        });
    }
    ::unlink(path.c_str());
    return result;
}

// --- kvstore -----------------------------------------------------------------

double probe_kv_apply(const std::vector<kv::KvRequest>& reqs) {
    kv::ShardState shard(0, 2);
    std::vector<const kv::KvOp*> mine;
    for (const kv::KvRequest& r : reqs)
        if (std::find(r.dests.begin(), r.dests.end(), 0) != r.dests.end())
            mine.push_back(&r.op);
    return median_ns_per_item([&] {
        const Clock::time_point t0 = Clock::now();
        for (const kv::KvOp* op : mine) shard.apply(*op);
        const Clock::time_point t1 = Clock::now();
        g_sink = g_sink + shard.state_hash();
        return Round{elapsed_ns(t0, t1), mine.size()};
    });
}

double probe_kv_gen(const Options& o) {
    const kv::KvWorkload gen(o.kv_cfg);
    Rng rng(o.seed);
    return median_ns_per_item([&] {
        std::uint64_t n = 0;
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 256; ++i) n += gen.next(rng).dests.size();
        const Clock::time_point t1 = Clock::now();
        g_sink = g_sink + n;
        return Round{elapsed_ns(t0, t1), 256};
    });
}

// --- sim ---------------------------------------------------------------------

constexpr Duration sim_delta = milliseconds(1);
constexpr int sim_sessions = 4;
constexpr int sim_ops_per_session = 50;

struct PaperBound {
    harness::ProtocolKind kind;
    double cf;  // collision-free latency, units of delta
    double ff;  // failure-free upper bound, units of delta
};

// The paper's latency table (Skeen 2/4, FT-Skeen 6/12, FastCast 4/8,
// WbCast 3/5).
constexpr PaperBound paper_bounds[] = {
    {harness::ProtocolKind::wbcast, 3, 5},
    {harness::ProtocolKind::ftskeen, 6, 12},
    {harness::ProtocolKind::fastcast, 4, 8},
    {harness::ProtocolKind::skeen, 2, 4},
};

struct SimRow {
    double cf_delta = 0;
    double conc_delta = 0;
    double msgs_per_op = 0;
    double bytes_per_op = 0;
    double host_ns_per_op = 0;
};

harness::ClusterConfig sim_config(harness::ProtocolKind kind, int clients) {
    harness::ClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = 2;
    // Skeen is not fault tolerant: one process per group is its shape.
    cfg.group_size = kind == harness::ProtocolKind::skeen ? 1 : 3;
    cfg.clients = clients;
    cfg.seed = 1;
    cfg.delta = sim_delta;
    // Housekeeping off the measured path (no failures are injected).
    cfg.replica.heartbeat_interval = milliseconds(50);
    cfg.replica.suspect_timeout = seconds(10);
    cfg.replica.retry_interval = seconds(5);
    cfg.replica.gc_interval = seconds(5);
    cfg.client_retry = seconds(10);
    return cfg;
}

double delta_units(Duration d) {
    return static_cast<double>(d) / static_cast<double>(sim_delta);
}

SimRow sim_probe(const PaperBound& bound, std::vector<std::string>* failures) {
    const char* name = harness::protocol_id(bound.kind);
    SimRow row;
    {
        // One isolated multicast to both groups.
        harness::Cluster c(sim_config(bound.kind, 1));
        const MsgId id = c.multicast_at(0, 0, {0, 1});
        c.run_for(milliseconds(100));
        const auto& rec = c.log().multicasts().at(id);
        if (!rec.partially_delivered())
            failures->push_back(std::string(name) + ": isolated multicast "
                                "was not delivered");
        else
            row.cf_delta = delta_units(rec.delivery_latency());
        const CheckResult check = c.check();
        if (!check.ok())
            failures->push_back(std::string(name) + " (isolated): " +
                                check.summary());
    }

    // Closed loop, four sessions, every multicast to both groups: the
    // mc2g traffic shape. Under uniform delta, sessions stay in lock-step
    // and never collide, so half the sessions sit next to group 0's
    // leader and half next to group 1's (the Figure 2 asymmetry, both
    // ways round) and their starts are staggered by a quarter delta: each
    // group then sees the two halves' multicasts in opposite orders.
    harness::ClusterConfig cfg = sim_config(bound.kind, sim_sessions);
    cfg.trace_sends = true;
    harness::Cluster c(cfg);
    const Bytes payload(20, 0x77);
    std::vector<MsgId> current(sim_sessions, invalid_msg);
    std::vector<int> issued(sim_sessions, 0);
    std::vector<MsgId> all;
    TimePoint end_at = -1;
    auto issue = [&](int s, TimePoint at) {
        current[static_cast<std::size_t>(s)] =
            c.multicast_at(at, s, {0, 1}, BufferSlice(payload));
        ++issued[static_cast<std::size_t>(s)];
        all.push_back(current[static_cast<std::size_t>(s)]);
    };
    for (int s = 0; s < sim_sessions; ++s) {
        const ProcessId client = c.topo().client(s);
        const GroupId near = static_cast<GroupId>(s % 2);
        c.world().set_link_override(client, c.topo().initial_leader(near),
                                    microseconds(10));
        c.world().set_link_override(client, c.topo().initial_leader(1 - near),
                                    sim_delta);
    }
    for (int s = 0; s < sim_sessions; ++s) issue(s, s * sim_delta / 4);
    std::function<void()> poll = [&] {
        bool active = false;
        for (int s = 0; s < sim_sessions; ++s) {
            MsgId& id = current[static_cast<std::size_t>(s)];
            if (id == invalid_msg) continue;
            if (c.log().multicasts().count(id) != 0 &&
                c.client(s).fully_acked(id)) {
                if (issued[static_cast<std::size_t>(s)] < sim_ops_per_session)
                    issue(s, c.world().now());
                else
                    id = invalid_msg;
            }
            active = active || id != invalid_msg;
        }
        if (active)
            c.world().after(microseconds(50), poll);
        else
            end_at = c.world().now();
    };
    c.world().at(microseconds(50), poll);
    const Clock::time_point t0 = Clock::now();
    while (end_at < 0 && c.world().now() < seconds(60))
        c.run_for(milliseconds(10));
    const Clock::time_point t1 = Clock::now();
    if (end_at < 0) {
        failures->push_back(std::string(name) + ": closed loop stalled");
        return row;
    }
    std::vector<double> lat;
    for (const MsgId id : all)
        lat.push_back(delta_units(c.log().multicasts().at(id).delivery_latency()));
    // The worst case, compared against the paper's failure-free bound
    // (itself a worst case over interleavings).
    row.conc_delta = *std::max_element(lat.begin(), lat.end());
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    for (const sim::SendRecord& r : c.world().send_trace()) {
        if (r.at > end_at) break;
        ++msgs;
        bytes += r.size + r.frame_overhead;
    }
    const double ops = static_cast<double>(all.size());
    row.msgs_per_op = static_cast<double>(msgs) / ops;
    row.bytes_per_op = static_cast<double>(bytes) / ops;
    row.host_ns_per_op = elapsed_ns(t0, t1) / ops;
    const CheckResult check = c.check();
    if (!check.ok())
        failures->push_back(std::string(name) + " (closed loop): " +
                            check.summary());
    return row;
}

void check_delta_order(const std::map<std::string, SimRow>& rows,
                       std::vector<std::string>* failures) {
    char buf[256];
    for (const PaperBound& b : paper_bounds) {
        const char* name = harness::protocol_id(b.kind);
        const SimRow& r = rows.at(name);
        if (r.cf_delta != b.cf) {
            std::snprintf(buf, sizeof buf,
                          "%s: isolated multicast took %.3f delta, paper %.0f",
                          name, r.cf_delta, b.cf);
            failures->push_back(buf);
        }
        if (r.conc_delta > b.ff) {
            std::snprintf(buf, sizeof buf,
                          "%s: concurrent worst case %.3f delta exceeds the "
                          "paper's failure-free bound %.0f",
                          name, r.conc_delta, b.ff);
            failures->push_back(buf);
        }
    }
    const SimRow& wb = rows.at("wbcast");
    const SimRow& ft = rows.at("ftskeen");
    if (!(wb.cf_delta < ft.cf_delta && wb.conc_delta < ft.conc_delta))
        failures->push_back("wbcast is not faster than ftskeen in delta");
}

// --- main --------------------------------------------------------------------

const char* flag_value(const char* arg, const char* name) {
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
    return nullptr;
}

bool parse(int argc, char** argv, Options& o) {
    for (int i = 1; i < argc; ++i) {
        const char* v = nullptr;
        if ((v = flag_value(argv[i], "--workload"))) {
            if (std::strcmp(v, "kv") != 0 && std::strcmp(v, "bytes") != 0)
                return false;
            o.kv = std::strcmp(v, "kv") == 0;
        } else if ((v = flag_value(argv[i], "--payload"))) {
            o.payload = std::atoi(v);
        } else if ((v = flag_value(argv[i], "--seed"))) {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if ((v = flag_value(argv[i], "--kv-keys"))) {
            o.kv_cfg.keys = static_cast<std::uint32_t>(std::atoi(v));
        } else if ((v = flag_value(argv[i], "--kv-theta"))) {
            o.kv_cfg.theta = std::strtod(v, nullptr);
        } else if ((v = flag_value(argv[i], "--kv-read-pct"))) {
            o.kv_cfg.read_pct = static_cast<std::uint32_t>(std::atoi(v));
        } else if ((v = flag_value(argv[i], "--kv-cross-pct"))) {
            o.kv_cfg.cross_pct = static_cast<std::uint32_t>(std::atoi(v));
        } else if ((v = flag_value(argv[i], "--scratch"))) {
            o.scratch = v;
        } else if ((v = flag_value(argv[i], "--out"))) {
            o.out = v;
        } else {
            return false;
        }
    }
    o.kv_cfg.num_groups = 2;
    return !o.scratch.empty() && !o.out.empty() && o.payload >= 0 &&
           o.kv_cfg.keys >= 2 && o.kv_cfg.theta >= 0 && o.kv_cfg.theta < 1 &&
           o.kv_cfg.read_pct + o.kv_cfg.cross_pct <= 100;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    if (!parse(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: perfprobe --workload=bytes|kv [--payload=20] "
                     "[--seed=N] [--kv-keys=N] [--kv-theta=T] "
                     "[--kv-read-pct=P] [--kv-cross-pct=P] --scratch=DIR "
                     "--out=FILE\n");
        return 2;
    }

    const std::vector<AppMessage> msgs = workload_messages(o, 512);
    std::vector<Buffer> wires;
    for (const AppMessage& m : msgs) wires.push_back(encode_multicast_request(m));
    const std::vector<kv::KvRequest> reqs = kv_requests(o, 4096);

    std::vector<std::pair<std::string, double>> probes = {
        {"codec.encode_request_ns", probe_encode(msgs)},
        {"codec.decode_request_ns", probe_decode(wires)},
        {"net.flush_ns_per_frame", probe_flush(wires)},
        {"net.reassemble_ns_per_frame", probe_reassemble(wires)},
        {"wal.append_commit_ns", probe_wal(msgs, o.scratch)},
        {"kv.apply_ns", probe_kv_apply(reqs)},
        {"kv.gen_ns", probe_kv_gen(o)},
    };

    std::vector<std::string> failures;
    std::map<std::string, SimRow> rows;
    for (const PaperBound& b : paper_bounds)
        rows[harness::protocol_id(b.kind)] = sim_probe(b, &failures);
    check_delta_order(rows, &failures);

    std::FILE* f = std::fopen(o.out.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfprobe: cannot write %s\n", o.out.c_str());
        return 1;
    }
    std::fprintf(f, "{\"probes\": {");
    for (std::size_t i = 0; i < probes.size(); ++i)
        std::fprintf(f, "%s\"%s\": %.3f", i ? ", " : "",
                     probes[i].first.c_str(), probes[i].second);
    std::fprintf(f, "}, \"sim\": {");
    bool first = true;
    for (const auto& [name, r] : rows) {
        std::fprintf(f,
                     "%s\"%s\": {\"cf_delta\": %.6f, \"conc_delta\": %.6f, "
                     "\"msgs_per_op\": %.6f, \"bytes_per_op\": %.6f, "
                     "\"host_ns_per_op\": %.1f}",
                     first ? "" : ", ", name.c_str(), r.cf_delta,
                     r.conc_delta, r.msgs_per_op, r.bytes_per_op,
                     r.host_ns_per_op);
        first = false;
    }
    std::fprintf(f, "}, \"failures\": [");
    for (std::size_t i = 0; i < failures.size(); ++i) {
        std::string escaped;
        for (const char ch : failures[i]) {
            if (ch == '"' || ch == '\\') escaped += '\\';
            escaped += ch == '\n' ? ' ' : ch;
        }
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", escaped.c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    for (const std::string& why : failures)
        std::fprintf(stderr, "perfprobe: %s\n", why.c_str());
    return failures.empty() ? 0 : 1;
}
