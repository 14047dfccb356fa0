// Unit and integration coverage of the TCP transport below the protocols:
// the poll loop's wake fd (net/wake_fd.hpp), writev coalescing in the
// send queue (the one-syscall-per-burst contract and its budget and
// partial-write edge cases), and NetWorld itself — cross-world echo
// traffic, reconnect/retransmit, cross-thread run_on and the shutdown
// drain contract. The NetWorld tests double as the TSan stress target
// (CI runs this binary under -fsanitize=thread).
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hpp"
#include "net/send_queue.hpp"
#include "net/wake_fd.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"

namespace wbam::net {
namespace {

// --- wake fd -----------------------------------------------------------------

bool readable(int fd) {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 0) == 1 && (p.revents & POLLIN) != 0;
}

TEST(WakeFdTest, WakeMakesPollFdReadableAndClearDrains) {
    WakeFd w;
    ASSERT_GE(w.poll_fd(), 0);
    EXPECT_FALSE(readable(w.poll_fd()));
    w.wake();
    w.wake();  // coalesces; still one readable event
    EXPECT_TRUE(readable(w.poll_fd()));
    w.clear();
    EXPECT_FALSE(readable(w.poll_fd()));
}

// --- inline ack header -------------------------------------------------------

TEST(FrameTest, MakeAckHeaderMatchesHeapEncodedAck) {
    for (const std::uint64_t upto : {0ULL, 1ULL, 127ULL, 128ULL, 300000ULL,
                                     ~0ULL}) {
        const DataHeader h = make_ack_header(upto);
        const Buffer heap = encode_ack(upto);
        // Same payload bytes behind the same length prefix.
        ASSERT_EQ(h.size(), frame_header_size + heap.size());
        EXPECT_EQ(get_frame_header(h.data()), heap.size());
        EXPECT_EQ(std::memcmp(h.data() + frame_header_size, heap.data(),
                              heap.size()),
                  0);
    }
}

// --- send queue over a socketpair --------------------------------------------

struct SocketPair {
    int a = -1;
    int b = -1;
    SocketPair() {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            a = fds[0];
            b = fds[1];
        }
    }
    ~SocketPair() {
        if (a >= 0) ::close(a);
        if (b >= 0) ::close(b);
    }
};

BufferSlice body_of(std::size_t n, std::uint8_t fill) {
    return Buffer(Bytes(n, fill));
}

// Reads everything currently buffered on `fd` into the reassembler.
void pump(int fd, FrameReassembler& rx) {
    std::uint8_t chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n <= 0) break;
        rx.feed(chunk, static_cast<std::size_t>(n));
    }
}

TEST(SendQueueTest, BurstOfFramesFlushesInOneWritev) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    SendQueue q;
    constexpr int burst = 10;
    // The per-queue counters also feed the process-global transport_stats
    // mirror, which other tests (and the net runtime's background loop
    // threads) touch concurrently: the global assertion below uses a
    // scoped delta, never absolute values.
    const obs::CounterDelta delta;
    for (int i = 0; i < burst; ++i)
        q.push_data(body_of(100, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(q.pending_frames(), static_cast<std::size_t>(burst));

    bool progressed = false;
    EXPECT_EQ(q.flush(sp.a, &progressed), SendQueue::FlushStatus::idle);
    EXPECT_TRUE(progressed);
    // The coalescing contract: >= 8 queued frames, ONE gathered write.
    EXPECT_EQ(q.writev_calls(), 1u);
    EXPECT_EQ(q.frames_sent(), static_cast<std::uint64_t>(burst));
    EXPECT_GE(delta("net/writev_calls"), 1u);
    EXPECT_GE(delta("net/frames_sent"), static_cast<std::uint64_t>(burst));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.unacked_frames(), static_cast<std::size_t>(burst));

    FrameReassembler rx;
    pump(sp.b, rx);
    int seen = 0;
    ASSERT_TRUE(rx.drain([&](BufferSlice frame) {
        ASSERT_EQ(frame[0], static_cast<std::uint8_t>(FrameType::data));
        ++seen;
    }));
    EXPECT_EQ(seen, burst);
}

TEST(SendQueueTest, IovecBudgetSplitsBurstIntoMultipleWritevs) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    FlushLimits limits;
    limits.max_iov = 2;  // one header+body pair per batch
    SendQueue q(limits);
    constexpr int burst = 5;
    for (int i = 0; i < burst; ++i)
        q.push_data(body_of(50, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    EXPECT_EQ(q.writev_calls(), static_cast<std::uint64_t>(burst));
    EXPECT_EQ(q.frames_sent(), static_cast<std::uint64_t>(burst));

    FrameReassembler rx;
    pump(sp.b, rx);
    int seen = 0;
    ASSERT_TRUE(rx.drain([&](BufferSlice) { ++seen; }));
    EXPECT_EQ(seen, burst);
}

TEST(SendQueueTest, ByteBudgetBoundsABatchButHeadAlwaysGoes) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    FlushLimits limits;
    limits.max_bytes = 64;  // smaller than a single 100-byte frame
    SendQueue q(limits);
    q.push_data(body_of(100, 0xaa));
    q.push_data(body_of(100, 0xbb));
    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    // Each frame alone exceeds the budget, so each went in its own batch —
    // but both DID go (the head frame is always included).
    EXPECT_EQ(q.writev_calls(), 2u);
    EXPECT_EQ(q.frames_sent(), 2u);
}

TEST(SendQueueTest, PartialWriteResumesByteExact) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    // Shrink the kernel buffers so a large frame cannot fit in one write.
    const int small = 4096;
    ASSERT_EQ(::setsockopt(sp.a, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
              0);
    ASSERT_EQ(::setsockopt(sp.b, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small)),
              0);
    // Non-blocking writer: flush must see EAGAIN, not block the test.
    ASSERT_EQ(::fcntl(sp.a, F_SETFL, O_NONBLOCK), 0);

    const std::size_t big = 256 * 1024;
    Bytes expected_body(big);
    for (std::size_t i = 0; i < big; ++i)
        expected_body[i] = static_cast<std::uint8_t>(i * 31 + 7);
    SendQueue q;
    q.push_data(Buffer(Bytes(expected_body)));
    q.push_data(body_of(64, 0xcc));  // a trailing frame rides behind

    FrameReassembler rx;
    std::vector<Bytes> received;
    int blocked_rounds = 0;
    for (int round = 0; round < 10000 && received.size() < 2; ++round) {
        const auto status = q.flush(sp.a);
        ASSERT_NE(status, SendQueue::FlushStatus::error);
        if (status == SendQueue::FlushStatus::blocked) ++blocked_rounds;
        pump(sp.b, rx);
        ASSERT_TRUE(rx.drain([&](BufferSlice frame) {
            received.emplace_back(frame.begin(), frame.end());
        }));
    }
    ASSERT_GT(blocked_rounds, 0) << "test never exercised a partial write";
    ASSERT_EQ(received.size(), 2u);
    // Frame payload = [type][seq varint][body]: verify the body survived
    // the partial-write resume byte-exact.
    const Bytes& first = received[0];
    ASSERT_GT(first.size(), big);
    EXPECT_EQ(first[0], static_cast<std::uint8_t>(FrameType::data));
    EXPECT_TRUE(std::equal(expected_body.begin(), expected_body.end(),
                           first.end() - static_cast<std::ptrdiff_t>(big)));
    EXPECT_EQ(received[1].size(), 64u + 2u);  // type + seq(=2) + body
}

TEST(SendQueueTest, AckPrunesAndRequeueReplaysUnackedInOrder) {
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    SendQueue q;
    EXPECT_EQ(q.push_data(body_of(10, 0x01)), 1u);
    EXPECT_EQ(q.push_data(body_of(10, 0x02)), 2u);
    EXPECT_EQ(q.push_data(body_of(10, 0x03)), 3u);
    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    EXPECT_EQ(q.unacked_frames(), 3u);

    q.on_ack(1);
    EXPECT_EQ(q.unacked_frames(), 2u);

    // The connection dies: seqs 2 and 3 are owed again, in order, and a
    // queued control frame (an ack) is dropped — it regenerates later.
    q.push_control(make_ack_header(7));
    q.requeue_unacked();
    EXPECT_EQ(q.unacked_frames(), 0u);
    EXPECT_EQ(q.pending_frames(), 2u);

    EXPECT_EQ(q.flush(sp.a), SendQueue::FlushStatus::idle);
    FrameReassembler rx;
    pump(sp.b, rx);
    std::vector<std::uint8_t> fills;
    ASSERT_TRUE(rx.drain([&](BufferSlice frame) {
        fills.push_back(frame[frame.size() - 1]);
    }));
    // First flush delivered 1,2,3; the replay delivered 2,3 again.
    ASSERT_EQ(fills.size(), 5u);
    EXPECT_EQ(fills[3], 0x02);
    EXPECT_EQ(fills[4], 0x03);
}

// --- worlds ------------------------------------------------------------------

// Echoes every message back to its sender.
class Echo final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override {
        ctx.send(from, bytes);
    }
    void on_timer(Context&, TimerId) override {}
};

// Keeps `window` round trips to `peer` in flight until `total` complete.
class Pinger final : public Process {
public:
    Pinger(ProcessId peer, int total, int window,
           std::atomic<int>* completed)
        : peer_(peer), total_(total), window_(window), completed_(completed) {}

    void on_start(Context& ctx) override {
        for (int i = 0; i < window_ && issued_ < total_; ++i) {
            ++issued_;
            ctx.send(peer_, Bytes{0x5a});
        }
    }
    void on_message(Context& ctx, ProcessId, const BufferSlice&) override {
        completed_->fetch_add(1);
        if (issued_ < total_) {
            ++issued_;
            ctx.send(peer_, Bytes{0x5a});
        }
    }
    void on_timer(Context&, TimerId) override {}

private:
    ProcessId peer_;
    int total_;
    int window_;
    std::atomic<int>* completed_;
    int issued_ = 0;
};

struct PairedWorlds {
    static constexpr int pairs = 4;
    static constexpr int per_pair = 200;

    std::atomic<int> completed{0};
    Topology topo{1, 1, 2 * pairs - 1};
    std::unique_ptr<NetWorld> ping_world;
    std::unique_ptr<NetWorld> echo_world;

    PairedWorlds() {
        NetConfig cfg;
        cfg.epoch = std::chrono::steady_clock::now();
        ping_world = std::make_unique<NetWorld>(topo, 101, cfg);
        echo_world = std::make_unique<NetWorld>(topo, 202, cfg);
        for (ProcessId p = 0; p < 2 * pairs; p += 2)
            ping_world->add_process(
                p, std::make_unique<Pinger>(p + 1, per_pair, 8, &completed));
        for (ProcessId p = 1; p < 2 * pairs; p += 2)
            echo_world->add_process(p, std::make_unique<Echo>());
        ClusterMap map;
        map.endpoints.resize(static_cast<std::size_t>(2 * pairs));
        for (ProcessId p = 0; p < 2 * pairs; ++p)
            map.endpoints[static_cast<std::size_t>(p)] = Endpoint{
                "127.0.0.1",
                (p % 2 == 0 ? *ping_world : *echo_world).port_of(p)};
        ping_world->set_cluster(map);
        echo_world->set_cluster(map);
    }

    int target() const { return pairs * per_pair; }

    bool await(int count, Duration timeout) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::nanoseconds(timeout);
        while (completed.load() < count) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }
};

TEST(NetWorldTest, AllPairsCompleteAcrossTwoWorlds) {
    PairedWorlds w;
    w.echo_world->start();
    w.ping_world->start();
    EXPECT_TRUE(w.await(w.target(), seconds(30)));
    w.ping_world->shutdown();
    w.echo_world->shutdown();
    EXPECT_EQ(w.completed.load(), w.target());
}

TEST(NetWorldTest, ReconnectRetransmitsEveryUnackedFrame) {
    PairedWorlds w;
    w.echo_world->start();
    w.ping_world->start();
    // Let some traffic flow, then sever every connection on both sides —
    // unacked frames must retransmit over re-dialled sockets.
    ASSERT_TRUE(w.await(w.target() / 4, seconds(30)));
    w.ping_world->drop_connections();
    w.echo_world->drop_connections();
    EXPECT_TRUE(w.await(w.target(), seconds(60)));
    w.ping_world->shutdown();
    w.echo_world->shutdown();
    EXPECT_EQ(w.completed.load(), w.target());
}

// Remembers the loop thread it was started on.
class LoopThreadProbe final : public Process {
public:
    void on_start(Context&) override {
        loop_thread = std::this_thread::get_id();
    }
    void on_message(Context&, ProcessId, const BufferSlice&) override {}
    void on_timer(Context&, TimerId) override {}

    std::thread::id loop_thread;
};

TEST(NetWorldTest, RunOnFromManyThreadsRunsEveryThunkInProducerOrder) {
    constexpr int producers = 4;
    constexpr int per_producer = 1000;
    NetWorld world(Topology(1, 1, 0));
    auto probe = std::make_unique<LoopThreadProbe>();
    const LoopThreadProbe* loop = probe.get();
    world.add_process(0, std::move(probe));
    world.start();

    // Written only by thunks, i.e. only on the loop thread; read after
    // shutdown() joined it.
    std::vector<std::pair<int, int>> ran;  // (producer, seq)
    std::vector<std::thread::id> ran_on;
    std::atomic<int> count{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i) {
                world.run_on(0, [&, p, i](Context& ctx) {
                    EXPECT_EQ(ctx.self(), 0);
                    ran.emplace_back(p, i);
                    ran_on.push_back(std::this_thread::get_id());
                    count.fetch_add(1);
                });
            }
        });
    }
    for (auto& t : threads) t.join();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (count.load() < producers * per_producer &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    world.shutdown();

    ASSERT_EQ(ran.size(), static_cast<std::size_t>(producers * per_producer))
        << "every thunk runs exactly once";
    std::vector<int> next(producers, 0);
    for (const auto& [p, i] : ran)
        EXPECT_EQ(i, next[static_cast<std::size_t>(p)]++)
            << "per-producer order";
    for (const std::thread::id id : ran_on)
        EXPECT_EQ(id, loop->loop_thread) << "thunks run on the loop thread";
}

// Counts deliveries and checks they arrive in send order.
class CountingSink final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context&, ProcessId, const BufferSlice& bytes) override {
        const int seq = bytes.size() == 3 ? bytes[1] | (bytes[2] << 8) : -1;
        if (seq == received.load()) received.fetch_add(1);
    }
    void on_timer(Context&, TimerId) override {}

    std::atomic<int> received{0};  // in-order prefix length
};

class Idle final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context&, ProcessId, const BufferSlice&) override {}
    void on_timer(Context&, TimerId) override {}
};

constexpr int drain_burst = 500;

void send_burst(NetWorld& world, ProcessId from, ProcessId to) {
    world.run_on(from, [to](Context& ctx) {
        for (int i = 0; i < drain_burst; ++i)
            ctx.send(to, Bytes{0x5a, static_cast<std::uint8_t>(i),
                               static_cast<std::uint8_t>(i >> 8)});
    });
}

// shutdown() right after a burst is injected still delivers all of it:
// the drain runs posted thunks and the local sends they make.
TEST(NetWorldTest, ShutdownDeliversALocalBurstPostedJustBefore) {
    NetWorld world(Topology(1, 1, 1));
    auto sink = std::make_unique<CountingSink>();
    const CountingSink* counts = sink.get();
    world.add_process(0, std::make_unique<Idle>());
    world.add_process(1, std::move(sink));
    world.start();
    send_burst(world, 0, 1);
    world.shutdown();
    EXPECT_EQ(counts->received.load(), drain_burst);
}

// The same burst addressed to another world: shutdown() returns only after
// the frames reached the kernel, so the peer receives all of them after
// the sender's loop is gone.
TEST(NetWorldTest, ShutdownFlushesARemoteBurstToThePeer) {
    const Topology topo(1, 1, 1);
    NetConfig cfg;
    cfg.epoch = std::chrono::steady_clock::now();
    NetWorld sender(topo, 1, cfg);
    NetWorld receiver(topo, 2, cfg);
    auto sink = std::make_unique<CountingSink>();
    const CountingSink* counts = sink.get();
    sender.add_process(0, std::make_unique<Idle>());
    receiver.add_process(1, std::move(sink));
    ClusterMap map;
    map.endpoints = {{"127.0.0.1", sender.port_of(0)},
                     {"127.0.0.1", receiver.port_of(1)}};
    sender.set_cluster(map);
    receiver.set_cluster(map);
    receiver.start();
    sender.start();
    send_burst(sender, 0, 1);
    sender.shutdown();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (counts->received.load() < drain_burst &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    receiver.shutdown();
    EXPECT_EQ(counts->received.load(), drain_burst);
}

// Keeps a copy of the one message it expects.
class PayloadSink final : public Process {
public:
    void on_start(Context&) override {}
    void on_message(Context&, ProcessId, const BufferSlice& bytes) override {
        got = Bytes(bytes.begin(), bytes.end());
        arrived.store(true);
    }
    void on_timer(Context&, TimerId) override {}

    Bytes got;  // written on the receiver's loop; read after `arrived`
    std::atomic<bool> arrived{false};
};

// A 1 MiB frame spans many capped reads (each at most one read chunk) and
// usually a partial tail carried from one receive image to the next; it
// must arrive byte-identical.
TEST(NetWorldTest, FrameLargerThanOneReadArrivesIntact) {
    const Topology topo(1, 1, 1);
    NetConfig cfg;
    cfg.epoch = std::chrono::steady_clock::now();
    NetWorld sender(topo, 1, cfg);
    NetWorld receiver(topo, 2, cfg);
    auto sink = std::make_unique<PayloadSink>();
    PayloadSink* got = sink.get();
    sender.add_process(0, std::make_unique<Idle>());
    receiver.add_process(1, std::move(sink));
    ClusterMap map;
    map.endpoints = {{"127.0.0.1", sender.port_of(0)},
                     {"127.0.0.1", receiver.port_of(1)}};
    sender.set_cluster(map);
    receiver.set_cluster(map);
    receiver.start();
    sender.start();

    Bytes payload(1024 * 1024);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 131 + (i >> 12));
    const obs::CounterDelta delta;
    sender.run_on(0, [payload](Context& ctx) { ctx.send(1, payload); });

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!got->arrived.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sender.shutdown();
    receiver.shutdown();
    ASSERT_TRUE(got->arrived.load());
    EXPECT_EQ(got->got, payload);
    EXPECT_GT(delta("net/read_calls"), 1u) << "the frame spans several reads";
}

}  // namespace
}  // namespace wbam::net
