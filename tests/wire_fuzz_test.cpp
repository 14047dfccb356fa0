// Wire robustness: every protocol message decoder must either round-trip
// its own encoding exactly or reject malformed input with DecodeError —
// never crash, loop, or over-allocate. Also: replicas fed random garbage
// from a "byzantine network" must survive (drop) it.
#include <gtest/gtest.h>

#include "fastcast/fastcast.hpp"
#include "ftskeen/ftskeen.hpp"
#include "harness/cluster.hpp"
#include "kvstore/ops.hpp"
#include "paxos/messages.hpp"
#include "skeen/skeen.hpp"
#include "wbcast/messages.hpp"

namespace wbam {
namespace {

AppMessage sample_msg() {
    return make_app_message(make_msg_id(9, 3), {0, 2, 5}, Bytes{1, 2, 3});
}

template <typename T>
void expect_roundtrip(const T& in) {
    const Bytes wire = codec::encode_to_bytes(in);
    const T out = codec::decode_from_bytes<T>(wire);
    // Round-trip must consume the whole buffer and re-encode identically.
    EXPECT_EQ(codec::encode_to_bytes(out), wire);
}

TEST(WireRoundTripTest, WbcastMessages) {
    expect_roundtrip(wbcast::AcceptMsg{sample_msg(), 2, Ballot{3, 7},
                                       Timestamp{11, 2}});
    expect_roundtrip(wbcast::AcceptAckMsg{
        1, {{0, Ballot{1, 0}}, {2, Ballot{4, 8}}}});
    expect_roundtrip(wbcast::DeliverMsg{sample_msg(), Ballot{2, 1},
                                        Timestamp{5, 0}, Timestamp{9, 2}});
    expect_roundtrip(wbcast::NewLeaderMsg{Ballot{6, 4}});
    expect_roundtrip(wbcast::NewLeaderAckMsg{
        Ballot{6, 4}, Ballot{5, 1}, 42,
        {wbcast::EntryState{sample_msg(), 2, Timestamp{1, 0}, Timestamp{2, 1},
                            false},
         wbcast::EntryState{sample_msg(), 3, Timestamp{3, 0}, Timestamp{4, 1},
                            true}}});
    expect_roundtrip(wbcast::NewStateMsg{Ballot{6, 4}, 17, {}});
    expect_roundtrip(wbcast::NewStateAckMsg{Ballot{6, 4}});
    expect_roundtrip(wbcast::GcStatusMsg{Timestamp{100, 1}});
    expect_roundtrip(wbcast::GcPruneMsg{Timestamp{90, 0}});
}

TEST(WireRoundTripTest, PaxosMessages) {
    const paxos::Command cmd{7, Bytes{9, 9, 9}};
    expect_roundtrip(paxos::P1aMsg{Ballot{2, 3}, 5});
    expect_roundtrip(paxos::P1bMsg{
        Ballot{2, 3},
        {paxos::AcceptedEntry{4, Ballot{1, 0}, cmd}},
        {paxos::ChosenEntry{2, cmd}}});
    expect_roundtrip(paxos::P2aMsg{Ballot{2, 3}, 9, cmd});
    expect_roundtrip(paxos::P2bMsg{Ballot{2, 3}, 9});
    expect_roundtrip(paxos::ChosenMsg{9, cmd});
    expect_roundtrip(paxos::NackMsg{Ballot{8, 1}});
}

TEST(WireRoundTripTest, BaselineMessages) {
    expect_roundtrip(skeen::ProposeMsg{sample_msg(), 1, Timestamp{4, 1}});
    expect_roundtrip(ftskeen::ProposeTsMsg{sample_msg(), 0, Timestamp{2, 0}});
    expect_roundtrip(ftskeen::ProposeCmd{sample_msg()});
    expect_roundtrip(ftskeen::CommitCmd{7, Timestamp{3, 1}});
    expect_roundtrip(fastcast::SpecProposeMsg{sample_msg(), 2, Timestamp{8, 2}});
    expect_roundtrip(fastcast::ConfirmMsg{7, 2, Timestamp{8, 2}});
    expect_roundtrip(fastcast::DeliverFloorMsg{Timestamp{12, 1}});
    expect_roundtrip(fastcast::ProposeCmd{sample_msg(), Timestamp{1, 0}});
    expect_roundtrip(fastcast::CommitCmd{
        7, {{0, Timestamp{1, 0}}, {2, Timestamp{2, 2}}}});
}

TEST(WireRoundTripTest, KvOps) {
    expect_roundtrip(kv::KvOp{kv::OpKind::put, "alpha", "", 42});
    expect_roundtrip(kv::KvOp{kv::OpKind::add, "k7", "", -3});
    expect_roundtrip(kv::KvOp{kv::OpKind::get, "hot", "", 0});
    expect_roundtrip(kv::KvOp{kv::OpKind::transfer, "from", "to", 100});
    expect_roundtrip(kv::KvOp{kv::OpKind::put_blob, "b", "", 0,
                              BufferSlice{Bytes{1, 2, 3}}});
}

// KvOps come off the same hostile wire as protocol messages, so decode
// must reject ops the store could not place or apply: unknown kinds,
// empty keys (no shard placement), transfers missing their credit side.
TEST(WireRoundTripTest, KvOpMalformedRejected) {
    Bytes wire =
        codec::encode_to_bytes(kv::KvOp{kv::OpKind::put, "k", "", 1});
    wire[0] = 9;  // kind is the first byte; 9 is out of range
    EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(wire),
                 codec::DecodeError);

    const Bytes empty_key =
        codec::encode_to_bytes(kv::KvOp{kv::OpKind::put, "", "", 1});
    EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(empty_key),
                 codec::DecodeError);

    const Bytes half_transfer =
        codec::encode_to_bytes(kv::KvOp{kv::OpKind::transfer, "from", "", 5});
    EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(half_transfer),
                 codec::DecodeError);
}

TEST(WireRoundTripTest, KvOpTruncationsRejected) {
    const Bytes wire = codec::encode_to_bytes(
        kv::KvOp{kv::OpKind::transfer, "acct-a", "acct-b", 17});
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(codec::decode_from_bytes<kv::KvOp>(prefix),
                     codec::DecodeError)
            << "cut at " << cut;
    }
}

// Truncations of valid encodings must throw, never crash.
TEST(WireRoundTripTest, TruncationsRejected) {
    const Bytes wire = codec::encode_to_bytes(wbcast::AcceptMsg{
        sample_msg(), 2, Ballot{3, 7}, Timestamp{11, 2}});
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
        EXPECT_THROW(codec::decode_from_bytes<wbcast::AcceptMsg>(prefix),
                     codec::DecodeError)
            << "cut at " << cut;
    }
}

// Slice fuzzing: random (including truncated and overlapping) subslices of
// valid wire images fed through a backed codec::Reader must either decode
// or throw DecodeError — never crash, read out of bounds, or return views
// outside the slice they were cut from.
class SliceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SliceFuzz, RandomSubslicesNeverEscapeBounds) {
    Rng rng(GetParam() * 104729);
    std::size_t benchmark_sink = 0;
    const Bytes wire_bytes =
        codec::encode_to_bytes(wbcast::AcceptMsg{sample_msg(), 2, Ballot{3, 7},
                                                 Timestamp{11, 2}});
    const Buffer frozen{Bytes(wire_bytes)};
    const BufferSlice whole(frozen);
    for (int trial = 0; trial < 500; ++trial) {
        // Overlapping random windows over the same storage.
        const auto off = static_cast<std::size_t>(
            rng.next_below(frozen.size() + 1));
        const auto len = static_cast<std::size_t>(
            rng.next_below(frozen.size() + 8));  // may exceed; must clamp
        const BufferSlice s = whole.subslice(off, len);
        ASSERT_LE(s.size(), frozen.size() - off);
        codec::Reader r(s);
        try {
            const auto out = wbcast::AcceptMsg::decode(r);
            benchmark_sink += out.msg.dests.size();  // keep the decode alive
            // The whole window decodes exactly when it is the full image.
            if (off == 0 && s.size() == frozen.size()) {
                EXPECT_EQ(out.msg.id, sample_msg().id);
                EXPECT_TRUE(r.done());
            }
        } catch (const codec::DecodeError&) {
            // expected for truncated/offset windows
        }
    }
    (void)benchmark_sink;
}

TEST_P(SliceFuzz, AliasingReadsStayInsideTheirSlice) {
    Rng rng(GetParam() * 7907);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes junk(rng.next_below(64) + 8);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
        const Buffer frozen(std::move(junk));
        const auto off =
            static_cast<std::size_t>(rng.next_below(frozen.size()));
        const BufferSlice window = BufferSlice(frozen).subslice(
            off, static_cast<std::size_t>(rng.next_below(frozen.size())));
        codec::Reader r(window);
        try {
            while (!r.done()) {
                const BufferSlice view = r.bytes_slice();
                // Aliased views must point inside the window they came from.
                EXPECT_GE(view.data(), window.data());
                EXPECT_LE(view.data() + view.size(),
                          window.data() + window.size());
                EXPECT_TRUE(same_storage(view, window));
            }
        } catch (const codec::DecodeError&) {
            // expected on malformed input
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceFuzz, ::testing::Values(1, 2, 3, 4, 5));

// Module tag 5 is retired: an envelope that starts with it must be
// rejected whatever follows, never decoded as a nameless Module.
class RetiredTagFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetiredTagFuzz, EnvelopesWithRetiredTagAreRejected) {
    Rng rng(GetParam() * 2357);
    for (int trial = 0; trial < 300; ++trial) {
        Bytes junk(rng.next_below(48) + 1);
        junk[0] = 0x05;
        for (std::size_t i = 1; i < junk.size(); ++i)
            junk[i] = static_cast<std::uint8_t>(rng.next_u64());
        EXPECT_THROW(codec::EnvelopeView{BufferSlice{std::move(junk)}},
                     codec::DecodeError);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetiredTagFuzz, ::testing::Values(1, 2, 3));

// A replica bombarded with random garbage bytes must neither crash nor
// corrupt an ongoing run. (Decode failures surface as DecodeError from
// on_message; the harness treats the message as dropped.)
class GarbageStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GarbageStorm, RepliasSurviveRandomBytes) {
    harness::ClusterConfig cfg;
    cfg.kind = harness::ProtocolKind::wbcast;
    cfg.groups = 2;
    cfg.clients = 1;
    cfg.seed = GetParam();
    harness::Cluster c(cfg);
    c.multicast_at(0, 0, {0, 1});
    // A client process sprays garbage at every replica mid-protocol.
    c.world().at(microseconds(500), [&c] {
        Rng rng(GetParam() * 17);
        auto& client = c.client(0);
        (void)client;
        for (ProcessId p = 0; p < c.topo().num_replicas(); ++p) {
            for (int i = 0; i < 20; ++i) {
                Bytes junk(rng.next_below(40));
                for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
                // Inject through a scripted client's context by scheduling
                // sends from the world (sender identity is irrelevant).
                c.world().send_from(c.topo().client(0), p, std::move(junk));
            }
        }
    });
    c.run_for(milliseconds(100));
    // Garbage is dropped at the runtime boundary; the protocol run itself
    // must be unaffected.
    EXPECT_TRUE(c.check().ok()) << c.check().summary();
    EXPECT_EQ(c.log().completed_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageStorm, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace wbam
