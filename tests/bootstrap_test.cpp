// wbamd bootstrap validation (harness/bootstrap.hpp): argv parsing with
// a malformed-input rejection table (shape, addressing and workload
// flags included), --topology ClusterMap resolution, and the
// parse_cluster/format_cluster round-trip the topology file's endpoint
// lists rely on — the unit-level guarantee that deployment-driver-
// generated configurations are validated before any socket is opened.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bootstrap.hpp"
#include "harness/topology_spec.hpp"

namespace wbam {
namespace {

using harness::NodeOptions;
using harness::parse_node_args;
using harness::resolve_bootstrap;

std::optional<NodeOptions> parse(std::vector<const char*> args,
                                 std::string* error = nullptr) {
    args.insert(args.begin(), "wbamd");
    return parse_node_args(static_cast<int>(args.size()), args.data(), error);
}

TEST(BootstrapArgsTest, FullFlagSetParses) {
    const auto o = parse({"--pid=7", "--topology=/tmp/c.topo",
                          "--run-ms=1234", "--epoch-ns=123456789", "--bench",
                          "--net-shards=1", "--out=/tmp/x.txt",
                          "--wal-dir=/tmp/wal", "--wal-sync=always",
                          "--metrics-dump=/tmp/m.jsonl",
                          "--metrics-interval-ms=250", "-v"});
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->pid, 7);
    EXPECT_EQ(o->topology_file, "/tmp/c.topo");
    EXPECT_EQ(o->run_ms, 1234);
    EXPECT_EQ(o->epoch_ns, 123456789);
    EXPECT_TRUE(o->bench);
    EXPECT_EQ(o->out, "/tmp/x.txt");
    EXPECT_EQ(o->wal_dir, "/tmp/wal");
    EXPECT_EQ(o->wal_sync, "always");
    EXPECT_EQ(o->metrics_dump, "/tmp/m.jsonl");
    EXPECT_EQ(o->metrics_interval_ms, 250);
    EXPECT_TRUE(o->verbose);
}

TEST(BootstrapArgsTest, MalformedArgsRejected) {
    const struct {
        const char* name;
        std::vector<const char*> args;
    } cases[] = {
        {"no pid", {"--topology=c.topo"}},
        {"no topology", {"--pid=0"}},
        {"unknown flag", {"--pid=0", "--topology=c.topo", "--frobnicate=1"}},
        {"non-numeric pid", {"--pid=zero", "--topology=c.topo"}},
        {"negative pid", {"--pid=-3", "--topology=c.topo"}},
        {"bad run-ms", {"--pid=0", "--topology=c.topo", "--run-ms=0"}},
        {"bad wal-sync", {"--pid=0", "--topology=c.topo", "--wal-sync=maybe"}},
        {"trailing junk", {"--pid=0x7", "--topology=c.topo"}},
    };
    for (const auto& c : cases) {
        std::string error;
        EXPECT_FALSE(parse(c.args, &error).has_value())
            << c.name << " was accepted";
        EXPECT_FALSE(error.empty()) << c.name << " gave no diagnostic";
    }
}

// Shape, addressing and workload are not wbamd flags: the topology file
// fixes the shape and addresses, and the coordinator's RUN_SPEC the
// workload. Each such flag is an unknown argument, named in the error.
TEST(BootstrapArgsTest, RemovedFlagsAreUnknownArguments) {
    for (const char* arg :
         {"--proto=wbcast", "--groups=2", "--group-size=3", "--clients=1",
          "--base-port=9000", "--peers=a:1,b:2", "--msgs=25",
          "--payload=32"}) {
        std::string error;
        EXPECT_FALSE(parse({"--pid=0", "--topology=c.topo", arg}, &error)
                         .has_value())
            << arg << " was accepted";
        EXPECT_NE(error.find(std::string("unknown argument: ") + arg),
                  std::string::npos)
            << arg << ": " << error;
    }
}

// Launch scripts still pass --net-shards=1; a NetWorld runs one event
// loop, so that is the only value the flag takes.
TEST(BootstrapArgsTest, NetShardsAcceptsOnlyOne) {
    const auto o = parse({"--pid=0", "--topology=c.topo", "--net-shards=1"});
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->net_shards, 1);
    for (const char* arg : {"--net-shards=0", "--net-shards=2"}) {
        std::string error;
        EXPECT_FALSE(parse({"--pid=0", "--topology=c.topo", arg}, &error)
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

// A 2x3 topology with 3 clients (9 processes) on ports 7200..7208.
class BootstrapResolveTest : public testing::Test {
protected:
    void SetUp() override {
        ASSERT_TRUE(harness::TopologySpec::make_grouped(
                        2, 3, 3, 2, microseconds(100), milliseconds(20), 7200)
                        .save(path_));
        flag_ = "--topology=" + path_;
    }
    void TearDown() override { std::remove(path_.c_str()); }

    std::optional<NodeOptions> parse_pid(const char* pid) {
        return parse({pid, flag_.c_str()});
    }

    const std::string path_ = testing::TempDir() + "/bootstrap_topo.txt";
    std::string flag_;
};

TEST_F(BootstrapResolveTest, TopologyFileSuppliesShapeAndAddresses) {
    const auto o = parse_pid("--pid=8");
    ASSERT_TRUE(o.has_value());
    std::string error;
    const auto b = resolve_bootstrap(*o, &error);
    ASSERT_TRUE(b.has_value()) << error;
    EXPECT_EQ(b->topo.num_groups(), 2);
    EXPECT_EQ(b->topo.num_clients(), 3);
    EXPECT_EQ(b->topo.num_processes(), 9);
    ASSERT_EQ(b->map.endpoints.size(), 9u);
    EXPECT_EQ(b->map.of(0).port, 7200);
    EXPECT_EQ(b->map.of(8).port, 7208);
}

TEST_F(BootstrapResolveTest, RejectsOutOfTopologyPid) {
    const auto o = parse_pid("--pid=9");
    ASSERT_TRUE(o.has_value());
    std::string error;
    EXPECT_FALSE(resolve_bootstrap(*o, &error).has_value());
    EXPECT_NE(error.find("outside"), std::string::npos) << error;
}

TEST_F(BootstrapResolveTest, MissingOrMalformedFileRejected) {
    auto o = parse_pid("--pid=0");
    ASSERT_TRUE(o.has_value());
    std::string error;
    o->topology_file = "/nonexistent/nope.txt";
    EXPECT_FALSE(resolve_bootstrap(*o, &error).has_value());
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a topology\n", f);
    std::fclose(f);
    o->topology_file = path_;
    EXPECT_FALSE(resolve_bootstrap(*o, &error).has_value());
    EXPECT_NE(error.find(path_), std::string::npos) << error;
}

}  // namespace
}  // namespace wbam
