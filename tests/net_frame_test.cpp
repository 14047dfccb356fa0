// Unit tests for the TCP transport's framing layer: header codec, the
// identity handshake, and FrameReassembler under adversarial
// fragmentation — byte-by-byte reads, several frames per read, reads
// ending mid-header and mid-payload, and the zero-copy guarantee that
// frames completed in one receive image alias one frozen buffer. The
// socket read path (FrameReassembler::read_from) runs over a socketpair:
// each read is sized to the queued bytes, so an image holds exactly what
// was read.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"

namespace wbam::net {
namespace {

Bytes make_frame(const Bytes& payload) {
    // Assembled byte-by-byte: GCC 12 raises spurious -Warray-bounds /
    // -Wstringop-overflow warnings on vector::insert of the 4-byte header.
    const auto hdr = frame_header(payload.size());
    Bytes out;
    out.reserve(hdr.size() + payload.size());
    for (const std::uint8_t b : hdr) out.push_back(b);
    for (const std::uint8_t b : payload) out.push_back(b);
    return out;
}

Bytes payload_of(std::size_t n, std::uint8_t seed) {
    Bytes p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = static_cast<std::uint8_t>(seed + i);
    return p;
}

TEST(NetFrameTest, HeaderRoundTrip) {
    std::uint8_t buf[frame_header_size];
    for (const std::uint32_t len : {0u, 1u, 255u, 256u, 70'000u, 0xabcdef12u}) {
        put_frame_header(buf, len);
        EXPECT_EQ(get_frame_header(buf), len);
    }
}

TEST(NetFrameTest, HelloRoundTrip) {
    const Buffer wire =  // full payload: [type][body]
        encode_hello(7, 42, 0xfeedf00dcafebabeull);
    ASSERT_FALSE(wire.empty());
    EXPECT_EQ(wire.data()[0], static_cast<std::uint8_t>(FrameType::hello));
    const BufferSlice body = BufferSlice(wire).subslice(1, wire.size() - 1);
    const auto hello = decode_hello(body);
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->from, 7);
    EXPECT_EQ(hello->to, 42);
    EXPECT_EQ(hello->incarnation, 0xfeedf00dcafebabeull);
    // Garbage and truncations are rejected, never thrown.
    EXPECT_FALSE(decode_hello(Bytes{1, 2, 3}).has_value());
    EXPECT_FALSE(decode_hello(body.subslice(0, 5)).has_value());
    EXPECT_FALSE(decode_hello(BufferSlice{}).has_value());
}

TEST(NetFrameTest, DataHeaderEncodesLengthTypeSeq) {
    for (const std::uint64_t seq : {1ull, 127ull, 128ull, 1ull << 40}) {
        const std::size_t payload_len = 37;
        const DataHeader h = make_data_header(seq, payload_len);
        // The length field covers type + seq varint + payload.
        const std::uint32_t framed = get_frame_header(h.data());
        EXPECT_EQ(framed, h.size() - frame_header_size + payload_len);
        EXPECT_EQ(h.data()[frame_header_size],
                  static_cast<std::uint8_t>(FrameType::data));
        // Decode the seq varint back.
        std::uint64_t v = 0;
        int shift = 0;
        for (std::size_t i = frame_header_size + 1; i < h.size(); ++i) {
            v |= static_cast<std::uint64_t>(h.data()[i] & 0x7f) << shift;
            shift += 7;
        }
        EXPECT_EQ(v, seq);
    }
}

TEST(NetFrameTest, ByteByByteReassembly) {
    const Bytes p1 = payload_of(10, 1);
    const Bytes p2 = payload_of(3, 100);
    Bytes stream = make_frame(p1);
    const Bytes f2 = make_frame(p2);
    stream.insert(stream.end(), f2.begin(), f2.end());

    FrameReassembler r;
    std::vector<Bytes> got;
    for (const std::uint8_t b : stream) {
        r.feed(&b, 1);
        ASSERT_TRUE(r.drain([&](const BufferSlice& s) {
            got.push_back(Bytes(s.begin(), s.end()));
        }));
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], p1);
    EXPECT_EQ(got[1], p2);
    EXPECT_EQ(r.buffered(), 0u);
}

TEST(NetFrameTest, ManyFramesInOneRead) {
    Bytes stream;
    std::vector<Bytes> payloads;
    for (int i = 0; i < 17; ++i) {
        payloads.push_back(payload_of(static_cast<std::size_t>(i * 13), i));
        const Bytes f = make_frame(payloads.back());
        stream.insert(stream.end(), f.begin(), f.end());
    }
    FrameReassembler r;
    r.feed(stream.data(), stream.size());
    std::vector<BufferSlice> got;
    ASSERT_TRUE(r.drain([&](const BufferSlice& s) { got.push_back(s); }));
    ASSERT_EQ(got.size(), payloads.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], payloads[i]);
    // Zero copy: every frame of one receive image aliases one frozen
    // buffer.
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_TRUE(same_storage(got[i], got[0]));
}

TEST(NetFrameTest, PartialTailCarriesAcrossImages) {
    const Bytes p1 = payload_of(8, 5);
    const Bytes p2 = payload_of(300, 9);
    const Bytes f1 = make_frame(p1);
    const Bytes f2 = make_frame(p2);
    Bytes stream = f1;
    stream.insert(stream.end(), f2.begin(), f2.end());

    // First read: all of frame 1 plus frame 2 cut mid-payload.
    const std::size_t cut = f1.size() + 40;
    FrameReassembler r;
    r.feed(stream.data(), cut);
    std::vector<Bytes> got;
    ASSERT_TRUE(r.drain([&](const BufferSlice& s) {
        got.push_back(Bytes(s.begin(), s.end()));
    }));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], p1);
    EXPECT_GT(r.buffered(), 0u);  // the partial tail of frame 2

    // Second read completes frame 2.
    r.feed(stream.data() + cut, stream.size() - cut);
    ASSERT_TRUE(r.drain([&](const BufferSlice& s) {
        got.push_back(Bytes(s.begin(), s.end()));
    }));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1], p2);
    EXPECT_EQ(r.buffered(), 0u);
}

// Random short reads (the "short writes" of the sender turn into exactly
// this on the receive side): any fragmentation must reproduce the frame
// sequence byte-for-byte.
TEST(NetFrameTest, RandomizedFragmentation) {
    Rng rng(0xfeed);
    for (int round = 0; round < 50; ++round) {
        Bytes stream;
        std::vector<Bytes> payloads;
        const int nframes = 1 + static_cast<int>(rng.next_below(9));
        for (int i = 0; i < nframes; ++i) {
            payloads.push_back(payload_of(
                static_cast<std::size_t>(rng.next_below(2000)),
                static_cast<std::uint8_t>(rng.next_below(256))));
            const Bytes f = make_frame(payloads.back());
            stream.insert(stream.end(), f.begin(), f.end());
        }
        FrameReassembler r;
        std::vector<Bytes> got;
        std::size_t pos = 0;
        while (pos < stream.size()) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rng.next_below(700), stream.size() - pos);
            r.feed(stream.data() + pos, chunk);
            pos += chunk;
            ASSERT_TRUE(r.drain([&](const BufferSlice& s) {
                got.push_back(Bytes(s.begin(), s.end()));
            }));
        }
        ASSERT_EQ(got.size(), payloads.size()) << "round " << round;
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], payloads[i]) << "round " << round;
        EXPECT_EQ(r.buffered(), 0u);
    }
}

TEST(NetFrameTest, OversizedFrameIsMalformed) {
    FrameReassembler r(/*max_frame=*/64);
    Bytes header(frame_header_size);
    put_frame_header(header.data(), 65);
    r.feed(header.data(), header.size());
    EXPECT_FALSE(r.drain([](const BufferSlice&) {
        FAIL() << "malformed stream must emit nothing";
    }));
}

TEST(NetFrameTest, EmptyFramesAreDelivered) {
    FrameReassembler r;
    const Bytes f = make_frame({});
    r.feed(f.data(), f.size());
    int count = 0;
    ASSERT_TRUE(r.drain([&](const BufferSlice& s) {
        EXPECT_TRUE(s.empty());
        ++count;
    }));
    EXPECT_EQ(count, 1);
}

// --- the socket read path ----------------------------------------------------

// A connected pair whose reading end `rd` is nonblocking, like every
// NetWorld socket.
struct SocketPair {
    int rd = -1;
    int wr = -1;
    SocketPair() {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            rd = fds[0];
            wr = fds[1];
            ::fcntl(rd, F_SETFL, O_NONBLOCK);
        }
    }
    ~SocketPair() {
        if (rd >= 0) ::close(rd);
        if (wr >= 0) ::close(wr);
    }
    void write_all(const Bytes& b) const {
        ASSERT_EQ(::write(wr, b.data(), b.size()),
                  static_cast<ssize_t>(b.size()));
    }
};

Bytes frames_of(const std::vector<Bytes>& payloads) {
    Bytes stream;
    for (const Bytes& p : payloads) {
        const Bytes f = make_frame(p);
        stream.insert(stream.end(), f.begin(), f.end());
    }
    return stream;
}

TEST(NetFrameTest, SocketReadFreezesOneImageOfExactlyTheQueuedBytes) {
    SocketPair sp;
    ASSERT_GE(sp.rd, 0);
    const std::vector<Bytes> payloads = {payload_of(20, 1), payload_of(7, 2),
                                         payload_of(300, 3)};
    const Bytes stream = frames_of(payloads);
    sp.write_all(stream);  // three frames in one write

    const obs::CounterDelta delta;
    FrameReassembler r;
    std::vector<BufferSlice> got;
    EXPECT_EQ(r.read_from(sp.rd, 64 * 1024,
                          [&](const BufferSlice& s) {
                              got.push_back(s);
                              return true;
                          }),
              FrameReassembler::ReadStatus::open);
    ASSERT_EQ(got.size(), payloads.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], payloads[i]);
        EXPECT_TRUE(same_storage(got[i], got[0]));
    }
    // The image holds exactly the bytes read — no read-chunk slack — and
    // one read fetched them: none ended in EAGAIN.
    EXPECT_EQ(got[0].buffer().size(), stream.size());
    EXPECT_EQ(delta("buffer/bytes_frozen"), stream.size());
    EXPECT_EQ(delta("buffer/buffers_frozen"), 1u);
    EXPECT_EQ(delta("net/read_calls"), 1u);
    EXPECT_EQ(delta("net/recv_syscalls"), 2u) << "one ioctl, one read";
    EXPECT_EQ(r.bytes_read(), stream.size());
    EXPECT_EQ(r.buffered(), 0u);
}

TEST(NetFrameTest, CappedSocketReadsContinueUntilTheQueueIsRead) {
    SocketPair sp;
    ASSERT_GE(sp.rd, 0);
    std::vector<Bytes> payloads;
    for (int i = 0; i < 6; ++i)
        payloads.push_back(payload_of(static_cast<std::size_t>(5 + 9 * i),
                                      static_cast<std::uint8_t>(i)));
    const Bytes stream = frames_of(payloads);
    sp.write_all(stream);

    // A 16-byte cap splits frames across reads: partial tails carry over,
    // and a capped read is followed by another in the same call.
    FrameReassembler r;
    std::vector<Bytes> got;
    EXPECT_EQ(r.read_from(sp.rd, 16,
                          [&](const BufferSlice& s) {
                              got.emplace_back(s.begin(), s.end());
                              return true;
                          }),
              FrameReassembler::ReadStatus::open);
    EXPECT_EQ(got, payloads);
    EXPECT_EQ(r.bytes_read(), stream.size());
    EXPECT_EQ(r.buffered(), 0u);
}

TEST(NetFrameTest, PeerCloseWithNothingQueuedIsEof) {
    SocketPair sp;
    ASSERT_GE(sp.rd, 0);
    ::close(sp.wr);
    sp.wr = -1;
    const obs::CounterDelta delta;
    FrameReassembler r;
    EXPECT_EQ(r.read_from(sp.rd, 64 * 1024,
                          [](const BufferSlice&) {
                              ADD_FAILURE() << "nothing was sent";
                              return true;
                          }),
              FrameReassembler::ReadStatus::closed);
    EXPECT_EQ(r.bytes_read(), 0u) << "an EOF is not read progress";
    // The ioctl and the read that saw EOF are syscalls, not reads.
    EXPECT_EQ(delta("net/recv_syscalls"), 2u);
    EXPECT_EQ(delta("net/read_calls"), 0u);
}

TEST(NetFrameTest, RejectedFrameMakesTheSocketStreamMalformed) {
    SocketPair sp;
    ASSERT_GE(sp.rd, 0);
    sp.write_all(frames_of({payload_of(4, 1), payload_of(4, 2)}));
    FrameReassembler r;
    int seen = 0;
    EXPECT_EQ(r.read_from(sp.rd, 64 * 1024,
                          [&](const BufferSlice&) {
                              ++seen;
                              return false;
                          }),
              FrameReassembler::ReadStatus::malformed);
    EXPECT_EQ(seen, 1) << "frames after a rejected one are dropped";
}

}  // namespace
}  // namespace wbam::net
