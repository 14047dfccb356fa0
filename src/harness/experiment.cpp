#include "harness/experiment.hpp"

#include <chrono>
#include <thread>

#include "common/assert.hpp"
#include "harness/live_cluster.hpp"
#include "sim/network.hpp"

namespace wbam::harness {

namespace {

// Wall-clock variant: the same replicas and closed-loop clients on
// per-process NetWorlds over loopback TCP.
ExperimentResult run_experiment_live(const ExperimentConfig& cfg) {
    const Topology topo(cfg.groups, cfg.group_size, cfg.clients,
                        cfg.staggered_leaders);
    client::BenchCoordinator coordinator(topo);
    DeliverySink sink = coordinator.make_sink();
    client::LoadPattern pattern;
    pattern.dest_groups = cfg.dest_groups;
    pattern.payload_size = cfg.payload;

    auto factory = [&](ProcessId p) -> std::unique_ptr<Process> {
        if (topo.is_replica(p))
            return make_replica(cfg.kind, topo, p, sink, cfg.replica);
        return std::make_unique<client::LoadClient>(topo, &coordinator,
                                                    pattern);
    };

    net::NetConfig base;
    base.shards = cfg.net_shards;
    const auto nets = make_loopback_worlds(topo, cfg.seed, factory, base);
    for (auto& world : nets) world->start();
    auto runtime_now = [&] { return nets.front()->now(); };

    const auto sleep_ns = [](Duration d) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(d));
    };
    sleep_ns(cfg.warmup);

    const TimePoint measure_start = runtime_now();
    coordinator.set_window(measure_start, time_never);
    const TimePoint deadline = measure_start + cfg.max_measure;
    while (runtime_now() < deadline &&
           (coordinator.completed_in_window() < cfg.target_ops ||
            runtime_now() - measure_start < cfg.min_measure))
        sleep_ns(milliseconds(5));
    const TimePoint measure_end = runtime_now();
    // The shutdown drain below keeps delivering; completions past
    // measure_end must not count into a window whose duration is fixed.
    coordinator.close_window(measure_end);

    // Quiesce before reading the unlocked accessors (latency histogram).
    for (auto& world : nets) world->shutdown();

    ExperimentResult result;
    result.ops = coordinator.completed_in_window();
    const double window_s = to_secs(measure_end - measure_start);
    result.throughput_ops_s =
        window_s > 0 ? static_cast<double>(result.ops) / window_s : 0;
    result.mean_ms = coordinator.latency().mean() / 1e6;
    result.p50_ms = to_millis(coordinator.latency().percentile(0.50));
    result.p99_ms = to_millis(coordinator.latency().percentile(0.99));
    result.sim_seconds = to_secs(measure_end);
    return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
    if (cfg.runtime != RuntimeKind::sim) return run_experiment_live(cfg);
    const Topology topo(cfg.groups, cfg.group_size, cfg.clients,
                        cfg.staggered_leaders);
    auto delays = cfg.make_delays
                      ? cfg.make_delays()
                      : std::make_unique<sim::UniformDelay>(microseconds(50));
    sim::World world(topo, std::move(delays), cfg.seed, cfg.cpu);

    client::BenchCoordinator coordinator(topo);
    DeliverySink sink = coordinator.make_sink();
    for (ProcessId p = 0; p < topo.num_replicas(); ++p)
        world.add_process(p,
                          make_replica(cfg.kind, topo, p, sink, cfg.replica));

    client::LoadPattern pattern;
    pattern.dest_groups = cfg.dest_groups;
    pattern.payload_size = cfg.payload;
    for (int i = 0; i < topo.num_clients(); ++i)
        world.add_process(topo.client(i),
                          std::make_unique<client::LoadClient>(
                              topo, &coordinator, pattern));

    world.start();
    world.run_for(cfg.warmup);

    const TimePoint measure_start = world.now();
    coordinator.set_window(measure_start, time_never);
    const TimePoint deadline = measure_start + cfg.max_measure;
    // Run in slices so the window can close as soon as enough operations
    // completed.
    const Duration slice = milliseconds(10);
    while (world.now() < deadline &&
           (coordinator.completed_in_window() < cfg.target_ops ||
            world.now() - measure_start < cfg.min_measure))
        world.run_for(slice);
    const TimePoint measure_end = world.now();

    ExperimentResult result;
    result.ops = coordinator.completed_in_window();
    const double window_s = to_secs(measure_end - measure_start);
    result.throughput_ops_s =
        window_s > 0 ? static_cast<double>(result.ops) / window_s : 0;
    result.mean_ms = coordinator.latency().mean() / 1e6;
    result.p50_ms = to_millis(coordinator.latency().percentile(0.50));
    result.p99_ms = to_millis(coordinator.latency().percentile(0.99));
    result.events = world.events_processed();
    result.sim_seconds = to_secs(measure_end);
    return result;
}

}  // namespace wbam::harness
