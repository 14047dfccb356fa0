// The TCP runtime: a poll(2) event-loop world whose NetContext implements
// the same Process/Context contract as the discrete-event simulator, but
// whose channels are real sockets. One NetWorld hosts one or more local
// processes (one per OS process in a deployed cluster — see
// examples/wbamd.cpp — or one per ProcessId when an in-process test wires
// several worlds over loopback) and speaks length-prefixed frames
// (net/frame.hpp) carrying the exact envelope bytes the simulator carries.
//
// One loop thread per world: every socket, send queue, channel cursor and
// timer, and every handler of every local process, lives on it, so the
// "single-threaded per process" contract holds without locks. The only
// calls that come from other threads — run_on(), drop_connections(), and
// a Context::send made off the loop — are posted as thunks to one
// mutex-guarded queue whose first push rings a WakeFd (net/wake_fd.hpp).
// A deployment gets multi-core parallelism from its several processes; a
// second loop per process measured no faster (docs/ARCHITECTURE.md).
//
// Zero-copy at the socket boundary: Context::send queues the RETAINED
// BufferSlice behind an inline stack-built header and the coalescing
// flush path (net/send_queue.hpp) hands many queued frames to ONE
// writev(2) per batch — payload bytes are never copied into a transport
// buffer and the batched path allocates nothing per message. Inbound,
// each readable socket gets reads sized to the bytes it holds
// (FrameReassembler::read_from: FIONREAD, capped at read_chunk), each
// receive image holds one read's bytes, and complete frames are
// delivered as aliasing subslices of it in one multi-frame handler pass.
//
// Connection lifecycle: every local process listens on its endpoint from
// the ClusterMap; a send to a remote ProcessId lazily dials one outbound
// connection per directed (local, remote) pair, whose first frame is a
// HELLO identifying both ends (the peer handshake is keyed by ProcessId,
// never by address). Failed dials and broken connections re-dial with
// exponential backoff. DATA frames carry a per-channel sequence number
// and are retained until the peer acks them: a reconnect retransmits
// everything unacked, in order, and the receiver's channel cursor drops
// duplicates — so a connection drop DELAYS frames instead of losing
// them, preserving the reliable-FIFO channel contract of Context::send
// that the simulator provides (and that e.g. wbcast's fire-once
// DELIVER plane depends on). Cumulative ACKs never trigger their own
// write: they piggyback on the next coalesced flush of the reverse
// connection, or ride a short delayed-ack timer when no data is flowing.
//
// Graceful-shutdown contract: shutdown() makes the loop DRAIN — thunks
// already posted run, frames already received and local sends already
// queued are delivered, and outbound queues are flushed to the kernel —
// then joins it. The loop exits after two consecutive turns in which
// nothing ran, arrived or stayed queued, or after 500 ms of draining.
// Pending timers do not fire; messages sent while draining are flushed
// best-effort. Tests therefore never race teardown against in-flight
// deliveries.
#ifndef WBAM_NET_WORLD_HPP
#define WBAM_NET_WORLD_HPP

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/process.hpp"
#include "common/topology.hpp"
#include "net/address.hpp"
#include "net/frame.hpp"

namespace wbam::net {

struct NetConfig {
    // Address this world's listeners bind (dial targets come from the
    // ClusterMap).
    std::string bind_host = "127.0.0.1";
    // Clock epoch of Context::now(). Worlds that cooperate in one process
    // (e.g. a loopback test cluster) share one epoch so latencies measured
    // across worlds are coherent; the default (time_point{}) means "this
    // world's construction time".
    std::chrono::steady_clock::time_point epoch{};
    // Must be 1: a NetWorld runs one event loop, and its constructor
    // asserts so. Kept only because existing callers still assign it.
    int shards = 1;
};

class NetWorld {
public:
    explicit NetWorld(Topology topo, std::uint64_t seed = 1,
                      NetConfig cfg = {});
    ~NetWorld();

    NetWorld(const NetWorld&) = delete;
    NetWorld& operator=(const NetWorld&) = delete;

    // Registers a local process and binds+listens on `listen_port`
    // (0 = ephemeral; read the outcome back with port_of). Call before
    // start().
    void add_process(ProcessId id, std::unique_ptr<Process> p,
                     std::uint16_t listen_port = 0);
    std::uint16_t port_of(ProcessId id) const;
    bool is_local(ProcessId id) const;

    // Endpoints of every process in the topology; required before start()
    // whenever any remote process will be addressed.
    void set_cluster(ClusterMap map);

    // Spawns the loop thread; on_start of every local process runs there,
    // before any delivery.
    void start();
    // Sleeps the caller for wall-clock `d` (the loop runs meanwhile).
    void run_for(Duration d);
    // Runs fn(ctx) on the loop thread, in the context of local process
    // `id` (external injection: test drivers, example workloads). Thunks
    // posted from one thread run in the order they were posted.
    void run_on(ProcessId id, std::function<void(Context&)> fn);
    // Drains (see the contract above), then joins the loop thread.
    void shutdown();

    // Nanoseconds since the configured epoch; same base as every
    // NetContext::now() of this world.
    TimePoint now() const;

    // Test hook: closes every live connection (on the loop thread). The
    // next sends re-dial; exercises the reconnect path.
    void drop_connections();

private:
    struct Host;
    struct HostContext;
    struct Conn;
    struct Loop;

    Host* host_of(ProcessId id);
    void send_from(ProcessId from, ProcessId to, BufferSlice bytes);
    void deliver(Host& h, ProcessId from, const BufferSlice& frame);

    Topology topo_;
    NetConfig cfg_;
    // Boot nonce carried in every HELLO: non-deterministic on purpose (the
    // seed repeats across restarts of the same pid, and peers use an
    // incarnation CHANGE to reset their receive cursors — see frame.hpp).
    std::uint64_t incarnation_ = 0;
    Rng seed_rng_;
    std::chrono::steady_clock::time_point epoch_;
    ClusterMap cluster_;

    std::vector<std::unique_ptr<Host>> hosts_;  // local processes only
    std::map<ProcessId, Host*> by_pid_;
    std::unique_ptr<Loop> loop_;

    // Set by shutdown(): the loop drains, then exits.
    std::atomic<bool> draining_{false};
    bool started_ = false;
};

}  // namespace wbam::net

#endif  // WBAM_NET_WORLD_HPP
