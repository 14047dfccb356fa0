// wbamd bootstrap parsing: the node daemon's command line and the rules
// that turn it into a (Topology, ClusterMap) pair from the --topology file.
// Factored out of examples/wbamd.cpp so deployment-driver-generated
// configurations are validated at the unit level (tests/bootstrap_test.cpp)
// — a malformed command line or topology file must be rejected here, not
// discovered as a hung cluster.
#ifndef WBAM_HARNESS_BOOTSTRAP_HPP
#define WBAM_HARNESS_BOOTSTRAP_HPP

#include <optional>
#include <string>

#include "common/topology.hpp"
#include "net/address.hpp"

namespace wbam::harness {

struct NodeOptions {
    ProcessId pid = invalid_process;
    std::string topology_file;
    // Shared steady-clock epoch (nanoseconds since CLOCK_MONOTONIC zero) of
    // a single-machine deployment; 0 = per-process epoch.
    std::int64_t epoch_ns = 0;
    // --bench: accepted for existing launch lines; wbamd always runs the
    // benchmark plane (src/ctrl/), and only perfdriver requires the flag.
    bool bench = false;
    // --net-shards: accepted for existing launch scripts, must be 1 (a
    // NetWorld runs one event loop; net::NetConfig::shards).
    int net_shards = 1;
    int run_ms = 6000;
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
// syntax, basic ranges and the required --pid and --topology; whether
// the pid lies inside the topology is checked by resolve_bootstrap once
// the file is read.
std::optional<NodeOptions> parse_node_args(int argc, const char* const* argv,
                                           std::string* error = nullptr);

struct Bootstrap {
    Topology topo;
    net::ClusterMap map;
};

// Loads the --topology file into the deployable pair and checks that the
// pid is inside the topology.
std::optional<Bootstrap> resolve_bootstrap(const NodeOptions& o,
                                           std::string* error = nullptr);

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_BOOTSTRAP_HPP
