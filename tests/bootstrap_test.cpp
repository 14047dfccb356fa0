// wbamd/wbamctl bootstrap validation (harness/bootstrap.hpp): argv
// parsing with a malformed-input rejection table, --peers/--base-port/
// --topology ClusterMap resolution (including precedence), and the
// parse_cluster/format_cluster round-trip — the unit-level guarantee
// that deployment-driver-generated configurations are validated before
// any socket is opened.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bootstrap.hpp"

namespace wbam {
namespace {

using harness::Bootstrap;
using harness::NodeOptions;
using harness::parse_node_args;
using harness::resolve_bootstrap;

std::optional<NodeOptions> parse(std::vector<const char*> args,
                                 std::string* error = nullptr) {
    args.insert(args.begin(), "wbamd");
    return parse_node_args(static_cast<int>(args.size()), args.data(), error);
}

TEST(BootstrapArgsTest, FullFlagSetParses) {
    const auto o = parse({"--pid=7", "--proto=ftskeen", "--groups=3",
                          "--group-size=5", "--clients=2", "--base-port=9000",
                          "--run-ms=1234", "--msgs=9", "--payload=64",
                          "--epoch-ns=123456789", "--bench",
                          "--out=/tmp/x.txt", "-v"});
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->pid, 7);
    EXPECT_EQ(o->proto, harness::ProtocolKind::ftskeen);
    EXPECT_EQ(o->groups, 3);
    EXPECT_EQ(o->group_size, 5);
    EXPECT_EQ(o->clients, 2);
    EXPECT_EQ(o->base_port, 9000);
    EXPECT_EQ(o->run_ms, 1234);
    EXPECT_EQ(o->msgs, 9);
    EXPECT_EQ(o->payload, 64);
    EXPECT_EQ(o->epoch_ns, 123456789);
    EXPECT_TRUE(o->bench);
    EXPECT_EQ(o->out, "/tmp/x.txt");
    EXPECT_TRUE(o->verbose);
}

TEST(BootstrapArgsTest, PeersAloneSufficesForAddressing) {
    const auto o = parse({"--pid=0", "--peers=a:1,b:2,c:3"});
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->peers, "a:1,b:2,c:3");
    EXPECT_EQ(o->base_port, 0);
}

TEST(BootstrapArgsTest, MalformedArgsRejected) {
    const struct {
        const char* name;
        std::vector<const char*> args;
    } cases[] = {
        {"no pid", {"--base-port=9000"}},
        {"no addressing", {"--pid=0"}},
        {"unknown flag", {"--pid=0", "--base-port=9000", "--frobnicate=1"}},
        {"unknown proto", {"--pid=0", "--base-port=9000", "--proto=quux"}},
        {"non-numeric pid", {"--pid=zero", "--base-port=9000"}},
        {"negative pid", {"--pid=-3", "--base-port=9000"}},
        {"port zero", {"--pid=0", "--base-port=0"}},
        {"port too large", {"--pid=0", "--base-port=70000"}},
        {"bad run-ms", {"--pid=0", "--base-port=9000", "--run-ms=0"}},
        {"trailing junk", {"--pid=0x7", "--base-port=9000"}},
    };
    for (const auto& c : cases) {
        std::string error;
        EXPECT_FALSE(parse(c.args, &error).has_value())
            << c.name << " was accepted";
        EXPECT_FALSE(error.empty()) << c.name << " gave no diagnostic";
    }
}

// Launch scripts still pass --net-shards=1; a NetWorld runs one event
// loop, so that is the only value the flag takes.
TEST(BootstrapArgsTest, NetShardsAcceptsOnlyOne) {
    const auto o = parse({"--pid=0", "--base-port=9000", "--net-shards=1"});
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->net_shards, 1);
    for (const char* arg : {"--net-shards=0", "--net-shards=2"}) {
        std::string error;
        EXPECT_FALSE(parse({"--pid=0", "--base-port=9000", arg}, &error)
                         .has_value())
            << arg << " was accepted";
        EXPECT_NE(error.find("--net-shards"), std::string::npos)
            << arg << ": " << error;
    }
}

TEST(ClusterMapTest, ParseFormatRoundTrip) {
    const std::string spec = "10.0.0.1:7000,10.0.0.2:7001,host.example:65535";
    const auto map = net::parse_cluster(spec);
    ASSERT_TRUE(map.has_value());
    ASSERT_EQ(map->endpoints.size(), 3u);
    EXPECT_EQ(map->endpoints[0].host, "10.0.0.1");
    EXPECT_EQ(map->endpoints[2].port, 65535);
    EXPECT_EQ(net::format_cluster(*map), spec);
}

TEST(ClusterMapTest, MalformedPeerListsRejected) {
    for (const char* bad :
         {"", "hostonly", ":7000", "host:", "host:notaport", "host:70000",
          "host:7000,", "a:1,,b:2", "host:-1"}) {
        EXPECT_FALSE(net::parse_cluster(bad).has_value()) << "'" << bad << "'";
    }
}

TEST(BootstrapResolveTest, BasePortBuildsLoopbackMap) {
    const auto o = parse({"--pid=2", "--groups=2", "--group-size=3",
                          "--clients=1", "--base-port=9100"});
    ASSERT_TRUE(o.has_value());
    std::string error;
    const auto b = resolve_bootstrap(*o, &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(b->topo.num_processes(), 7);
    EXPECT_EQ(b->map.of(6).port, 9106);
    EXPECT_EQ(b->map.of(0).host, "127.0.0.1");
    EXPECT_FALSE(b->spec.has_value());
}

TEST(BootstrapResolveTest, PeersMustMatchTopologySize) {
    const auto o = parse({"--pid=0", "--groups=2", "--group-size=1",
                          "--clients=1", "--peers=a:1,b:2"});
    ASSERT_TRUE(o.has_value());
    std::string error;
    EXPECT_FALSE(resolve_bootstrap(*o, &error).has_value());
    EXPECT_NE(error.find("2 endpoints"), std::string::npos) << error;

    const auto ok = parse({"--pid=0", "--groups=2", "--group-size=1",
                           "--clients=1", "--peers=a:1,b:2,c:3"});
    const auto b = resolve_bootstrap(*ok, &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(b->map.of(2).host, "c");
}

TEST(BootstrapResolveTest, RejectsOutOfTopologyPidAndEvenGroups) {
    std::string error;
    const auto o = parse({"--pid=7", "--groups=2", "--group-size=1",
                          "--clients=1", "--base-port=9000"});
    EXPECT_FALSE(resolve_bootstrap(*o, &error).has_value());
    EXPECT_NE(error.find("outside"), std::string::npos) << error;

    const auto even = parse({"--pid=0", "--groups=2", "--group-size=4",
                             "--clients=1", "--base-port=9000"});
    EXPECT_FALSE(resolve_bootstrap(*even, &error).has_value());
    EXPECT_NE(error.find("odd"), std::string::npos) << error;

    const auto high = parse({"--pid=0", "--groups=2", "--group-size=3",
                             "--clients=1", "--base-port=65533"});
    EXPECT_FALSE(resolve_bootstrap(*high, &error).has_value());
    EXPECT_NE(error.find("room"), std::string::npos) << error;
}

TEST(BootstrapResolveTest, TopologyFileWinsAndSuppliesShape) {
    const harness::TopologySpec spec = harness::TopologySpec::make_grouped(
        2, 3, 3, 2, microseconds(100), milliseconds(20), 7200);
    const std::string path = testing::TempDir() + "/bootstrap_topo.txt";
    ASSERT_TRUE(spec.save(path));

    // Flag shape (1x1x1) contradicts the file; the file wins.
    auto o = parse({"--pid=8", "--groups=1", "--group-size=1", "--clients=1",
                    "--base-port=9000"});
    o->topology_file = path;
    std::string error;
    const auto b = resolve_bootstrap(*o, &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(b->topo.num_processes(), 9);
    EXPECT_EQ(b->map.of(8).port, 7208);
    ASSERT_TRUE(b->spec.has_value());
    EXPECT_EQ(b->spec->regions, 2);
    std::remove(path.c_str());

    o->topology_file = "/nonexistent/nope.txt";
    EXPECT_FALSE(resolve_bootstrap(*o, &error).has_value());
}

}  // namespace
}  // namespace wbam
