#include "harness/experiment.hpp"

#include <chrono>
#include <thread>

#include "ctrl/bench_plane.hpp"
#include "harness/live_cluster.hpp"
#include "sim/network.hpp"

namespace wbam::harness {

ExperimentOutcome run_experiment(const ExperimentConfig& cfg) {
    const Topology topo(cfg.groups, cfg.group_size, cfg.drivers + 1,
                        cfg.staggered_leaders);
    const ProcessId coordinator_pid = topo.client(cfg.drivers);
    ctrl::CoordinatorConfig ccfg;
    ccfg.spec = cfg.spec;
    // Both runtimes give every process one clock (virtual time; the shared
    // epoch of make_loopback_worlds), so all drivers measure one window.
    ccfg.shared_epoch = true;
    ctrl::Coordinator* coordinator = nullptr;
    auto factory = [&](ProcessId p) -> std::unique_ptr<Process> {
        if (topo.is_replica(p))
            return std::make_unique<ctrl::NodeShim>(topo, p, coordinator_pid,
                                                    nullptr, cfg.replica);
        if (p != coordinator_pid)
            return std::make_unique<ctrl::BenchDriver>(topo, coordinator_pid,
                                                       nullptr);
        auto c = std::make_unique<ctrl::Coordinator>(topo, ccfg);
        coordinator = c.get();
        return c;
    };

    // Only building the world and advancing it differ between runtimes.
    std::unique_ptr<sim::World> sim_world;
    std::vector<std::unique_ptr<net::NetWorld>> net_worlds;
    std::function<void()> advance;
    if (cfg.runtime == RuntimeKind::sim) {
        auto delays = cfg.make_delays ? cfg.make_delays()
                                      : std::make_unique<sim::UniformDelay>(
                                            microseconds(50));
        sim_world = std::make_unique<sim::World>(topo, std::move(delays),
                                                 cfg.spec.seed, cfg.cpu);
        for (ProcessId p = 0; p < topo.num_processes(); ++p)
            sim_world->add_process(p, factory(p));
        sim_world->start();
        advance = [&] { sim_world->run_for(milliseconds(10)); };
    } else {
        net_worlds = make_loopback_worlds(topo, cfg.spec.seed, factory);
        for (auto& world : net_worlds) world->start();
        advance = [] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        };
    }
    while (!coordinator->finished()) advance();
    // The coordinator's accessors need its loop thread joined.
    for (auto& world : net_worlds) world->shutdown();
    return {coordinator->result_point(), coordinator->succeeded(),
            coordinator->error()};
}

}  // namespace wbam::harness
