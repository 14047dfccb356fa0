// Golden regression test for the two black-box baselines (FT-Skeen and
// FastCast): fixed-seed 2x3 sim runs whose per-member delivery sequences
// (message id and delivery time) and full replicated-state snapshots are
// pinned to hard-coded FNV-1a digests. The other replay tests compare
// members of one run with each other; this one pins the bytes across
// commits, so a refactor of the shared Paxos-group replica code must leave
// every protocol action, send and timer exactly where it was.
//
// Scenarios: a fault-free random workload, a crash of a group leader, a
// follower severed long enough to rejoin through a state snapshot, and a
// leader kill -9 restarted from its write-ahead log.
//
// When a digest legitimately changes (a deliberate protocol change), the
// failure message prints the new constants in source form.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "sim/network.hpp"
#include "test_util.hpp"
#include "wal/log.hpp"

namespace wbam {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::ProtocolKind;

constexpr int replicas = 6;
using Digests = std::array<std::uint64_t, replicas>;

struct Golden {
    Digests deliveries;  // per member: (time, id) delivery sequence
    Digests snapshots;   // per member: state_snapshot(bottom_ts)
};

struct Fnv {
    std::uint64_t h = 1469598103934665603ULL;
    void add(const std::uint8_t* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ULL;
        }
    }
    void add_u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            const auto b = static_cast<std::uint8_t>(v >> (8 * i));
            add(&b, 1);
        }
    }
};

// The concrete replica types, not a shared base: the digests were recorded
// before the two protocols shared one.
Bytes full_snapshot(Cluster& c, ProtocolKind kind, ProcessId p) {
    if (kind == ProtocolKind::ftskeen)
        return c.world()
            .process_as<ftskeen::FtSkeenReplica>(p)
            .state_snapshot(bottom_ts);
    return c.world()
        .process_as<fastcast::FastCastReplica>(p)
        .state_snapshot(bottom_ts);
}

Golden digest_run(Cluster& c, ProtocolKind kind) {
    Golden g{};
    for (ProcessId p = 0; p < replicas; ++p) {
        Fnv d;
        const auto it = c.log().deliveries().find(p);
        if (it != c.log().deliveries().end()) {
            for (const DeliveryEvent& ev : it->second) {
                d.add_u64(static_cast<std::uint64_t>(ev.at));
                d.add_u64(ev.msg);
            }
        }
        g.deliveries[static_cast<std::size_t>(p)] = d.h;
        Fnv s;
        const Bytes snap = full_snapshot(c, kind, p);
        s.add(snap.data(), snap.size());
        g.snapshots[static_cast<std::size_t>(p)] = s.h;
    }
    return g;
}

std::string source_form(const Golden& g) {
    std::ostringstream os;
    const auto row = [&os](const Digests& d) {
        os << "{{";
        for (std::size_t i = 0; i < d.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%016llxULL",
                          static_cast<unsigned long long>(d[i]));
            os << (i ? ", " : "") << buf;
        }
        os << "}}";
    };
    os << "{";
    row(g.deliveries);
    os << ",\n ";
    row(g.snapshots);
    os << "}";
    return os.str();
}

void expect_golden(Cluster& c, ProtocolKind kind, const Golden& want) {
    const auto result = c.check();
    EXPECT_TRUE(result.ok()) << result.summary();
    const Golden got = digest_run(c, kind);
    EXPECT_EQ(got.deliveries, want.deliveries) << source_form(got);
    EXPECT_EQ(got.snapshots, want.snapshots) << source_form(got);
}

ClusterConfig golden_config(ProtocolKind kind, std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.kind = kind;
    cfg.groups = 2;
    cfg.group_size = 3;
    cfg.clients = 2;
    cfg.seed = seed;
    cfg.make_delays = [] {
        return std::make_unique<sim::JitterDelay>(microseconds(200),
                                                  microseconds(1800));
    };
    cfg.replica.heartbeat_interval = milliseconds(5);
    cfg.replica.suspect_timeout = milliseconds(20);
    cfg.replica.retry_interval = milliseconds(25);
    cfg.replica.gc_interval = milliseconds(50);
    cfg.replica.paxos_gc_interval = milliseconds(50);
    cfg.client_retry = milliseconds(50);
    return cfg;
}

class PaxosGroupGolden : public ::testing::TestWithParam<ProtocolKind> {
protected:
    // Picks this test's protocol from a scenario's two golden rows.
    Golden want(const Golden& ftskeen, const Golden& fastcast) const {
        return GetParam() == ProtocolKind::ftskeen ? ftskeen : fastcast;
    }
};

TEST_P(PaxosGroupGolden, FaultFreeRandomWorkload) {
    Cluster c(golden_config(GetParam(), 41));
    Rng rng(43);
    testutil::random_workload(c, rng, 40, milliseconds(300), 2);
    c.run_for(milliseconds(900));
    const Golden ftskeen{
        {{0x1594ae42328f1ec1ULL, 0x33f8c2be6444df54ULL, 0x0a07069b5c2fec86ULL,
          0x6412b6b3aafc1d5dULL, 0xd864c0eab296139bULL, 0xc24a73ea1f94e43eULL}},
        {{0x203223cee475b9f2ULL, 0x203223cee475b9f2ULL, 0x203223cee475b9f2ULL,
          0x39f36acc91291bb9ULL, 0x39f36acc91291bb9ULL, 0x39f36acc91291bb9ULL}}};
    const Golden fastcast{
        {{0xf815927eb0c59632ULL, 0x50b5504be0d79ca0ULL, 0x5614478cf48d6f62ULL,
          0x6706084b57916cd8ULL, 0xd8810e6776afb0d2ULL, 0xb6bd71af1b21b25fULL}},
        {{0x4cff3b2903b09f47ULL, 0x4cff3b2903b09f47ULL, 0x4cff3b2903b09f47ULL,
          0xb15545ae90fa7872ULL, 0xb15545ae90fa7872ULL, 0xb15545ae90fa7872ULL}}};
    expect_golden(c, GetParam(), want(ftskeen, fastcast));
}

TEST_P(PaxosGroupGolden, GroupLeaderCrash) {
    Cluster c(golden_config(GetParam(), 47));
    Rng rng(53);
    testutil::random_workload(c, rng, 40, milliseconds(300), 2);
    const ProcessId leader = c.topo().initial_leader(0);
    c.world().at(milliseconds(120), [&] { c.world().crash(leader); });
    c.run_for(milliseconds(1500));
    EXPECT_GT(c.log().completed_count(), 0u);
    const Golden ftskeen{
        {{0xe0291f38a47ede94ULL, 0x4d338a834d8def51ULL, 0x94e24a21f0ec5fdfULL,
          0x71f001e5c4c36436ULL, 0x50c6d7ceabb36665ULL, 0xbaf6fc9527e31067ULL}},
        {{0xb3ec8acf8ef45a86ULL, 0xf201a1d39989768cULL, 0xf201a1d39989768cULL,
          0x3df17eb2b1c29b71ULL, 0x3df17eb2b1c29b71ULL, 0x3df17eb2b1c29b71ULL}}};
    const Golden fastcast{
        {{0x58db4ca5b1aa6d0bULL, 0x5ca6e759a340b8efULL, 0xc8cbd062830a557cULL,
          0x538cc76806d2b3c8ULL, 0x9633350a15b9f933ULL, 0x8a2fb0a360253db5ULL}},
        {{0xc4e4bd90295db243ULL, 0x0bc1b75f296234a9ULL, 0x0bc1b75f296234a9ULL,
          0x21ee3bdf347d6f9bULL, 0x21ee3bdf347d6f9bULL, 0x21ee3bdf347d6f9bULL}}};
    expect_golden(c, GetParam(), want(ftskeen, fastcast));
}

TEST_P(PaxosGroupGolden, SeveredFollowerRejoinsViaSnapshot) {
    ClusterConfig cfg = golden_config(GetParam(), 59);
    cfg.trace_sends = true;
    Cluster c(cfg);
    Rng rng(61);
    testutil::random_workload(c, rng, 40, milliseconds(600), 2);
    const ProcessId follower = c.topo().member(0, 2);
    c.world().at(milliseconds(60), [&] { c.world().sever_process(follower); });
    c.world().at(milliseconds(500),
                 [&] { c.world().restore_process(follower); });
    c.run_for(milliseconds(1500));
    // The follower fell behind the pruned log: it rejoined through a state
    // snapshot, so install_state is part of what the digests pin.
    const auto paxos_module = static_cast<std::uint8_t>(codec::Module::paxos);
    const auto snapshot_type =
        static_cast<std::uint8_t>(paxos::MsgType::catchup_snapshot);
    std::size_t snapshots = 0;
    for (const sim::SendRecord& r : c.world().send_trace())
        snapshots += r.to == follower && r.module == paxos_module &&
                     r.type == snapshot_type;
    EXPECT_GE(snapshots, 1u);
    const Golden ftskeen{
        {{0xc987b12054e64bb1ULL, 0xfc4057cb24433c1dULL, 0xe77b16f47d6109b5ULL,
          0xaf98e54d91a0f09dULL, 0xb86ea3c00aa0f89fULL, 0xd1995f8ec80ebfa4ULL}},
        {{0x49a68cee6ad764abULL, 0x49a68cee6ad764abULL, 0x49a68cee6ad764abULL,
          0xf83a6d3542dfbcf4ULL, 0xf83a6d3542dfbcf4ULL, 0xf83a6d3542dfbcf4ULL}}};
    const Golden fastcast{
        {{0x8200cbaa761478f6ULL, 0xd693db753c107d12ULL, 0xa14a7814e872640fULL,
          0x47b3f0d86fe484d7ULL, 0xe5862cf182c4a19bULL, 0xe3cfbf2c78d329f0ULL}},
        {{0xeb3f13f49b00b6d5ULL, 0xeb3f13f49b00b6d5ULL, 0xeb3f13f49b00b6d5ULL,
          0xacb38b7d913f4641ULL, 0xacb38b7d913f4641ULL, 0xacb38b7d913f4641ULL}}};
    expect_golden(c, GetParam(), want(ftskeen, fastcast));
}

// One WAL file per replica, reopened on the same path across the kill.
struct WalSet {
    std::string dir;
    std::vector<std::unique_ptr<wal::Log>> logs;

    explicit WalSet(const std::string& tag) {
        dir = testing::TempDir() + "paxos_group_golden_" + tag + "_" +
              std::to_string(::getpid());
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        for (ProcessId p = 0; p < replicas; ++p)
            logs.push_back(std::make_unique<wal::Log>(
                path(p), wal::SyncMode::group_commit));
    }
    ~WalSet() {
        logs.clear();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    std::string path(ProcessId p) const {
        return dir + "/p" + std::to_string(p) + ".wal";
    }
    void kill_and_reopen(ProcessId p) {
        auto& log = logs[static_cast<std::size_t>(p)];
        log->discard_pending();
        log.reset();
        log = std::make_unique<wal::Log>(path(p), wal::SyncMode::group_commit);
    }
};

TEST_P(PaxosGroupGolden, LeaderRestartsFromWal) {
    WalSet wals(harness::protocol_id(GetParam()));
    ClusterConfig cfg = golden_config(GetParam(), 67);
    cfg.tune_replica = [&wals](ProcessId p, ReplicaConfig& rc) {
        rc.wal = wals.logs[static_cast<std::size_t>(p)].get();
    };
    Cluster c(cfg);
    Rng rng(71);
    testutil::random_workload(c, rng, 40, milliseconds(400), 2);
    const ProcessId leader = c.topo().initial_leader(1);
    c.world().at(milliseconds(150), [&] { c.world().crash(leader); });
    c.world().at(milliseconds(260), [&] {
        wals.kill_and_reopen(leader);
        c.restart_replica(leader);
    });
    c.run_for(milliseconds(1500));
    const Golden ftskeen{
        {{0x91e1f02ac8d3ef2cULL, 0x013a5dba7c17df4bULL, 0x2e74dfeadf0d2a34ULL,
          0x4b9f922d5dc431ddULL, 0x6edeef8d01bc7bb7ULL, 0x7da193f5e34932d8ULL}},
        {{0xba678fb2413095c3ULL, 0xba678fb2413095c3ULL, 0xba678fb2413095c3ULL,
          0x90b8f8a6d65666c2ULL, 0x90b8f8a6d65666c2ULL, 0x90b8f8a6d65666c2ULL}}};
    const Golden fastcast{
        {{0x0bac3c12cdacb718ULL, 0x2cf1b4fea9eedb83ULL, 0x41bf1d48723484d5ULL,
          0x8a421c7caa4b642eULL, 0xeeb9f20f24fc7cdfULL, 0x4d71d7fbead44de6ULL}},
        {{0xc02635ec77fd56cbULL, 0xc02635ec77fd56cbULL, 0xc02635ec77fd56cbULL,
          0xed23e8f4e2cf5752ULL, 0xed23e8f4e2cf5752ULL, 0xed23e8f4e2cf5752ULL}}};
    expect_golden(c, GetParam(), want(ftskeen, fastcast));
}

INSTANTIATE_TEST_SUITE_P(BlackBoxProtocols, PaxosGroupGolden,
                         ::testing::Values(ProtocolKind::ftskeen,
                                           ProtocolKind::fastcast),
                         [](const auto& info) {
                             return std::string(
                                 harness::protocol_id(info.param));
                         });

}  // namespace
}  // namespace wbam
