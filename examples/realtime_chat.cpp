// Real-time runtime demo: a totally-ordered two-room "chat" over the
// white-box protocol, with every process in its own NetWorld (its own
// event-loop thread) wired over loopback TCP — no discrete-event
// simulation. Three posters race to publish; atomic multicast guarantees
// that both rooms' replicas agree on one interleaving, which the demo
// prints and verifies.
//
//   build/realtime_chat
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/live_cluster.hpp"
#include "multicast/api.hpp"
#include "wbcast/protocol.hpp"

int main() {
    using namespace wbam;

    const Topology topo(2, 3, 3);  // two rooms x three replicas, 3 posters

    std::mutex mutex;
    std::unordered_map<ProcessId, std::vector<std::string>> feeds;
    DeliverySink sink = [&](Context& ctx, GroupId, const AppMessage& m) {
        const std::lock_guard<std::mutex> guard(mutex);
        feeds[ctx.self()].emplace_back(m.payload.begin(), m.payload.end());
    };
    ReplicaConfig cfg;
    cfg.heartbeat_interval = milliseconds(50);
    cfg.suspect_timeout = milliseconds(500);
    cfg.retry_interval = milliseconds(250);

    // Posters: plain processes that publish to both rooms. post() runs on
    // the poster's own loop (injected with NetWorld::run_on), never on the
    // main thread.
    class Poster final : public Process {
    public:
        Poster(Topology t, std::string who) : topo(std::move(t)),
                                              who(std::move(who)) {}
        void on_start(Context&) override {}
        void on_message(Context&, ProcessId, const BufferSlice&) override {}
        void on_timer(Context&, TimerId) override {}
        void post(Context& ctx, int i) {
            const std::string text = who + "#" + std::to_string(i);
            const AppMessage m = make_app_message(
                make_msg_id(ctx.self(), static_cast<std::uint32_t>(i)), {0, 1},
                Bytes(text.begin(), text.end()));
            const Buffer wire = encode_multicast_request(m);
            ctx.send(topo.initial_leader(0), wire);
            ctx.send(topo.initial_leader(1), wire);
        }
        Topology topo;
        std::string who;
    };
    const char* names[] = {"alice", "bob", "carol"};
    std::vector<Poster*> posters;
    const auto worlds = harness::make_loopback_worlds(
        topo, /*seed=*/1, [&](ProcessId p) -> std::unique_ptr<Process> {
            if (topo.is_replica(p))
                return std::make_unique<wbcast::WbcastReplica>(topo, p, sink,
                                                               cfg);
            auto poster = std::make_unique<Poster>(
                topo, names[posters.size()]);
            posters.push_back(poster.get());
            return poster;
        });
    for (const auto& world : worlds) world->start();

    // One round every millisecond: within a round the three posters' loops
    // race each other to the leaders.
    std::printf("Three posters race to publish 5 messages each...\n");
    for (int i = 0; i < 5; ++i) {
        for (int c = 0; c < topo.num_clients(); ++c) {
            const ProcessId pid = topo.client(c);
            Poster* poster = posters[static_cast<std::size_t>(c)];
            worlds[static_cast<std::size_t>(pid)]->run_on(
                pid, [poster, i](Context& ctx) { poster->post(ctx, i); });
        }
        worlds.front()->run_for(milliseconds(1));
    }

    // Wait until every replica has all 15 messages (bounded).
    bool done = false;
    for (int spin = 0; spin < 200 && !done; ++spin) {
        worlds.front()->run_for(milliseconds(25));
        const std::lock_guard<std::mutex> guard(mutex);
        done = true;
        for (ProcessId p = 0; p < topo.num_replicas(); ++p)
            done &= feeds[p].size() == 15u;
    }
    for (const auto& world : worlds) world->shutdown();
    if (!done) {
        std::printf("timed out waiting for deliveries\n");
        return 1;
    }

    std::printf("\nRoom feed (replica 0's order):\n  ");
    for (const auto& line : feeds[0]) std::printf("%s ", line.c_str());
    std::printf("\n\n");
    bool agree = true;
    for (ProcessId p = 1; p < topo.num_replicas(); ++p)
        agree &= feeds[p] == feeds[0];
    std::printf("All 6 replicas across both rooms agree on the interleaving: "
                "%s\n", agree ? "yes" : "NO");
    return agree ? 0 : 1;
}
