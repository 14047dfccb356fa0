// wbamd/wbamctl bootstrap parsing: the node daemon's command line and the
// rules that turn it into a (Topology, ClusterMap, role) triple. Factored
// out of examples/wbamd.cpp so deployment-driver-generated configurations
// are validated at the unit level (tests/bootstrap_test.cpp) — a malformed
// --peers list or topology file must be rejected here, not discovered as
// a hung cluster.
#ifndef WBAM_HARNESS_BOOTSTRAP_HPP
#define WBAM_HARNESS_BOOTSTRAP_HPP

#include <optional>
#include <string>

#include "harness/cluster.hpp"
#include "harness/topology_spec.hpp"
#include "net/address.hpp"

namespace wbam::harness {

struct NodeOptions {
    ProcessId pid = invalid_process;
    ProtocolKind proto = ProtocolKind::wbcast;
    int groups = 2;
    int group_size = 3;
    int clients = 1;
    int base_port = 0;
    std::string peers;
    std::string topology_file;
    // Shared steady-clock epoch (nanoseconds since CLOCK_MONOTONIC zero) of
    // a single-machine deployment; 0 = per-process epoch.
    std::int64_t epoch_ns = 0;
    bool bench = false;  // join the distributed benchmark plane (src/ctrl/)
    // --net-shards: accepted for existing launch scripts, must be 1 (a
    // NetWorld runs one event loop; net::NetConfig::shards).
    int net_shards = 1;
    int run_ms = 6000;
    int msgs = 25;
    int payload = 32;
    std::string out;
    // Durability: directory for this replica's write-ahead log (empty =
    // volatile). A restarted replica replays <wal_dir>/p<pid>.wal and
    // rejoins with its pre-crash state. `wal_sync` is the fsync policy:
    // "off", "group" (at most one fsync per handler) or "always".
    std::string wal_dir;
    std::string wal_sync = "group";
    // Observability: path for the process's metrics dump. When set, wbamd
    // appends one JSON line per --metrics-interval-ms with the delta since
    // the previous line, writes a full snapshot at exit, and re-dumps on
    // SIGUSR1 (docs/OBSERVABILITY.md).
    std::string metrics_dump;
    int metrics_interval_ms = 1000;
    bool verbose = false;
};

// Parses wbamd's argv. On error returns nullopt and fills `error` (when
// non-null) with a one-line diagnostic. Validation here covers flag
// syntax and basic ranges; cross-field validation (pid inside the
// topology, peers length) happens in resolve_bootstrap once the topology
// shape is known.
std::optional<NodeOptions> parse_node_args(int argc, const char* const* argv,
                                           std::string* error = nullptr);

struct Bootstrap {
    Topology topo;
    net::ClusterMap map;
    // Present when the shape came from a topology file (region metadata
    // for delay models; the file also fixes groups/group_size/clients).
    std::optional<TopologySpec> spec;
};

// Resolves options into the deployable triple. Precedence for the address
// map: --topology file > --peers list > --base-port arithmetic. Checks
// that the pid is inside the topology and that the map covers exactly one
// endpoint per process.
std::optional<Bootstrap> resolve_bootstrap(const NodeOptions& o,
                                           std::string* error = nullptr);

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_BOOTSTRAP_HPP
