// Closed-loop load experiment for the Fig. 7 / Fig. 8 benchmarks: runs
// the benchmark plane (src/ctrl/) in-process — a NodeShim on every
// replica pid, a BenchDriver on every client pid but the last, and the
// Coordinator on the last — on the requested runtime, and returns the
// coordinator's merged, digest-validated point. Under RuntimeKind::sim
// the run is deterministic in virtual time; under RuntimeKind::net the
// same processes run on per-process loopback NetWorlds in wall-clock time.
// A deployed `wbamctl run` measures with exactly the same processes.
#ifndef WBAM_HARNESS_EXPERIMENT_HPP
#define WBAM_HARNESS_EXPERIMENT_HPP

#include <string>

#include "ctrl/messages.hpp"
#include "harness/fig_report.hpp"
#include "harness/runtime.hpp"

namespace wbam::harness {

struct ExperimentConfig {
    RuntimeKind runtime = RuntimeKind::sim;
    int groups = 10;
    int group_size = 3;
    // Driver processes, each running spec.sessions closed-loop sessions;
    // the coordinator takes one more client pid after them.
    int drivers = 100;
    bool staggered_leaders = false;
    // What the coordinator distributes: protocol, workload, window, seed.
    ctrl::BenchSpec spec;
    // Every replica's configuration under the spec's distributed knobs
    // (the simulator's cost model and GC live here).
    ReplicaConfig replica;
    // Simulator only (RuntimeKind::sim): link delays and CPU cost model.
    std::function<std::unique_ptr<sim::DelayModel>()> make_delays;
    sim::CpuModel cpu;
};

struct ExperimentOutcome {
    FigPoint point;
    bool ok = false;    // every replica group agreed on its digests
    std::string error;  // the coordinator's reason when !ok
};

ExperimentOutcome run_experiment(const ExperimentConfig& cfg);

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_EXPERIMENT_HPP
