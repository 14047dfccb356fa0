// Wall-clock counterpart of harness::Cluster: builds a cluster of any
// protocol (via the same make_replica factory) on the TCP runtime, records
// every multicast/delivery into a mutex-guarded DeliveryLog, and runs the
// same specification checker over the run. The cluster is one NetWorld
// (own poll loop thread) per ProcessId, wired over loopback TCP on
// ephemeral ports — the in-process equivalent of the wbamd multi-process
// deployment.
//
// Together with harness::Cluster this closes the matrix: any of the
// protocols on either runtime (ClusterConfig is the sim harness,
// LiveClusterConfig the net one).
#ifndef WBAM_HARNESS_LIVE_CLUSTER_HPP
#define WBAM_HARNESS_LIVE_CLUSTER_HPP

#include <memory>
#include <mutex>
#include <vector>

#include "harness/cluster.hpp"
#include "net/world.hpp"

namespace wbam::harness {

// Builds one NetWorld per ProcessId of the topology, each hosting the
// process `factory(pid)` on an ephemeral loopback port, with the full
// ClusterMap distributed to every world and one shared clock epoch.
// Returned worlds are constructed but not started.
std::vector<std::unique_ptr<net::NetWorld>> make_loopback_worlds(
    const Topology& topo, std::uint64_t seed,
    const std::function<std::unique_ptr<Process>(ProcessId)>& factory);

struct LiveClusterConfig {
    ProtocolKind kind = ProtocolKind::wbcast;
    int groups = 2;
    int group_size = 3;
    int clients = 1;
    bool staggered_leaders = false;
    std::uint64_t seed = 1;
    ReplicaConfig replica;
    Duration client_retry = milliseconds(300);
    bool send_acks = true;
};

class LiveCluster {
public:
    explicit LiveCluster(LiveClusterConfig cfg);
    ~LiveCluster();

    LiveCluster(const LiveCluster&) = delete;
    LiveCluster& operator=(const LiveCluster&) = delete;

    const Topology& topo() const { return topo_; }

    // Issues multicast(m) from client `idx` (asynchronously, on the
    // client's own execution context) and returns the message id.
    MsgId multicast(int client_idx, std::vector<GroupId> dests,
                    BufferSlice payload = {});

    // Blocks until every issued multicast has been delivered by all of its
    // destination groups (or `timeout` elapses). True on completion.
    bool await_completion(Duration timeout);

    // Copy of the recorded run (safe to inspect while the cluster runs).
    DeliveryLog log_snapshot() const;
    std::size_t issued() const;

    // Runs the full specification checker over the recorded run.
    CheckResult check(bool check_termination = true) const;

    // Test hook: severs every live TCP connection; the next sends re-dial,
    // exercising the reconnect-with-backoff path.
    void drop_net_connections();

    void shutdown();

private:
    LiveClusterConfig cfg_;
    Topology topo_;

    mutable std::mutex log_mutex_;
    DeliveryLog log_;
    std::size_t issued_ = 0;

    std::vector<std::unique_ptr<net::NetWorld>> nets_;  // one per ProcessId
    std::vector<ScriptedClient*> clients_;
    std::vector<std::uint32_t> next_seq_;
    bool running_ = false;
};

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_LIVE_CLUSTER_HPP
