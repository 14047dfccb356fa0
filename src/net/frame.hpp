// Length-prefixed framing of the TCP transport (net::NetWorld). Every
// frame on a connection is [length: u32 LE][type: u8][type-specific...]:
//
//   HELLO  [magic u32][version u8][from u32][to u32]  — first frame of
//          every connection: the peer-identity handshake, keyed by
//          ProcessId, never by address.
//   DATA   [seq varint][envelope bytes]               — one codec
//          envelope, exactly as the simulator carries it, tagged with
//          the channel sequence number.
//   ACK    [upto varint]                              — cumulative ack of
//          the REVERSE channel's DATA sequence (travels on the receiving
//          side's own outbound connection).
//
// The DATA sequence is what upgrades bare TCP to the runtime contract
// (Context::send: reliable FIFO): a sender retains DATA frames until
// acked and retransmits them, in order, over a re-dialled connection;
// the receiver's per-channel cursor drops the duplicates. A connection
// drop therefore delays frames instead of losing them — same channel
// semantics as the simulator.
//
// The zero-copy Buffer/BufferSlice path extends to the socket boundary:
//
// * Send side: a queued DATA frame is a small header (length + type +
//   seq varint) plus the RETAINED BufferSlice the protocol handed to
//   Context::send — one writev of header + slice, no byte is copied into
//   a transport buffer.
// * Receive side: FrameReassembler::read_from asks the socket how many
//   bytes it holds (FIONREAD) and reads exactly that many, capped at one
//   read chunk, straight into the receive image; only a capped read is
//   followed by another. Once at least one complete frame is present,
//   the image is frozen into an immutable Buffer holding just the bytes
//   read, and every complete frame is emitted as a zero-copy subslice of
//   it (protocols then decode in place, as everywhere else), so a
//   retained frame pins at most one read's bytes. Only a partial trailing
//   frame is carried over into the next receive image — a bounded,
//   counted copy of at most one frame prefix.
#ifndef WBAM_NET_FRAME_HPP
#define WBAM_NET_FRAME_HPP

#include <sys/ioctl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "codec/reader.hpp"
#include "codec/writer.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/stats.hpp"

namespace wbam::net {

inline constexpr std::size_t frame_header_size = 4;
// Upper bound on a single frame; a peer announcing more is malformed and
// the connection is dropped (protects the reassembler from unbounded
// allocation on garbage input).
inline constexpr std::size_t default_max_frame = 16 * 1024 * 1024;

inline void put_frame_header(std::uint8_t* out, std::uint32_t len) {
    out[0] = static_cast<std::uint8_t>(len);
    out[1] = static_cast<std::uint8_t>(len >> 8);
    out[2] = static_cast<std::uint8_t>(len >> 16);
    out[3] = static_cast<std::uint8_t>(len >> 24);
}

inline std::uint32_t get_frame_header(const std::uint8_t* in) {
    return static_cast<std::uint32_t>(in[0]) |
           (static_cast<std::uint32_t>(in[1]) << 8) |
           (static_cast<std::uint32_t>(in[2]) << 16) |
           (static_cast<std::uint32_t>(in[3]) << 24);
}

inline std::array<std::uint8_t, frame_header_size> frame_header(
    std::size_t len) {
    std::array<std::uint8_t, frame_header_size> out{};
    put_frame_header(out.data(), static_cast<std::uint32_t>(len));
    return out;
}

enum class FrameType : std::uint8_t { hello = 0, data = 1, ack = 2 };

// Compact header of a DATA frame: [length][type][seq varint]. The length
// field covers type + seq + payload.
struct DataHeader {
    std::array<std::uint8_t, frame_header_size + 1 + 10> bytes{};
    std::uint8_t len = 0;

    const std::uint8_t* data() const { return bytes.data(); }
    std::size_t size() const { return len; }
};

inline DataHeader make_data_header(std::uint64_t seq,
                                   std::size_t payload_len) {
    DataHeader h;
    std::uint8_t* p = h.bytes.data() + frame_header_size;
    *p++ = static_cast<std::uint8_t>(FrameType::data);
    std::uint64_t v = seq;
    do {
        std::uint8_t b = v & 0x7f;
        v >>= 7;
        if (v != 0) b |= 0x80;
        *p++ = b;
    } while (v != 0);
    h.len = static_cast<std::uint8_t>(p - h.bytes.data());
    put_frame_header(h.bytes.data(),
                     static_cast<std::uint32_t>(
                         (h.len - frame_header_size) + payload_len));
    return h;
}

// --- handshake ---------------------------------------------------------------

inline constexpr std::uint32_t hello_magic = 0x5742414d;  // "WBAM"
inline constexpr std::uint8_t wire_version = 3;

struct Hello {
    ProcessId from = invalid_process;  // the dialling process
    ProcessId to = invalid_process;    // the local endpoint it wants
    // Boot nonce of the dialling PROCESS (not the connection): a changed
    // incarnation tells the receiver the peer restarted, so its data
    // channel begins again at seq 1 and the receive cursor must reset —
    // otherwise every frame the new incarnation sends is dropped as a
    // retransmit duplicate of the old one's acked history.
    std::uint64_t incarnation = 0;
};

// Encodes the full frame payload (type byte included).
inline Buffer encode_hello(ProcessId from, ProcessId to,
                           std::uint64_t incarnation) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::hello));
    w.u32(hello_magic);
    w.u8(wire_version);
    w.u32(static_cast<std::uint32_t>(from));
    w.u32(static_cast<std::uint32_t>(to));
    w.u64(incarnation);
    return std::move(w).take_buffer();
}

// `body` is the frame payload after the type byte.
inline std::optional<Hello> decode_hello(const BufferSlice& body) {
    try {
        codec::Reader r(body);
        if (r.u32() != hello_magic) return std::nullopt;
        if (r.u8() != wire_version) return std::nullopt;
        Hello h;
        h.from = static_cast<ProcessId>(r.u32());
        h.to = static_cast<ProcessId>(r.u32());
        h.incarnation = r.u64();
        r.expect_done();
        return h;
    } catch (const codec::DecodeError&) {
        return std::nullopt;
    }
}

// Cumulative ack of the reverse channel (full frame payload).
inline Buffer encode_ack(std::uint64_t upto) {
    codec::Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::ack));
    w.varint(upto);
    return std::move(w).take_buffer();
}

// Fully-inline ACK frame: [length][type][upto varint] in the same
// fixed-size header array DATA frames use, so piggybacked acks ride the
// coalesced flush with zero heap allocations (encode_ack remains for
// callers that want a standalone payload buffer).
inline DataHeader make_ack_header(std::uint64_t upto) {
    DataHeader h;
    std::uint8_t* p = h.bytes.data() + frame_header_size;
    *p++ = static_cast<std::uint8_t>(FrameType::ack);
    std::uint64_t v = upto;
    do {
        std::uint8_t b = v & 0x7f;
        v >>= 7;
        if (v != 0) b |= 0x80;
        *p++ = b;
    } while (v != 0);
    h.len = static_cast<std::uint8_t>(p - h.bytes.data());
    put_frame_header(h.bytes.data(),
                     static_cast<std::uint32_t>(h.len - frame_header_size));
    return h;
}

// --- receive-side reassembly -------------------------------------------------

// Accumulates raw socket bytes and pops complete frames as zero-copy
// slices of one frozen receive image. Tolerates arbitrary fragmentation:
// a frame split across any number of reads, several frames in one read,
// and a read ending mid-header or mid-payload.
class FrameReassembler {
public:
    explicit FrameReassembler(std::size_t max_frame = default_max_frame)
        : max_frame_(max_frame) {}

    enum class ReadStatus { open, closed, malformed };

    // Reads what the nonblocking socket `fd` holds and emits fn(payload) for
    // every frame that completes; fn returns false to reject a frame, which
    // makes the stream malformed and drops the frames after it. Each
    // read(2) is sized to the bytes the socket holds (FIONREAD), capped at
    // `max_read`, so the image it fills allocates exactly the bytes read.
    // Only a capped read is followed by another: the caller's
    // level-triggered poll reports whatever arrives later, so no read ends
    // in EAGAIN. A readable socket with nothing queued gets one 1-byte
    // read, which reports EOF or an error as `closed`.
    template <typename Fn>
    ReadStatus read_from(int fd, std::size_t max_read, Fn&& fn) {
        for (;;) {
            int queued = 0;
            if (::ioctl(fd, FIONREAD, &queued) < 0) queued = 0;
            transport_stats::note_recv_syscall();
            const std::size_t want =
                queued > 0
                    ? std::min(static_cast<std::size_t>(queued), max_read)
                    : 1;
            const ssize_t n = ::read(fd, write_ptr(want), want);
            transport_stats::note_recv_syscall();
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return ReadStatus::open;
            if (n <= 0) return ReadStatus::closed;
            transport_stats::note_read();
            bytes_read_ += static_cast<std::uint64_t>(n);
            filled_ += static_cast<std::size_t>(n);
            bool rejected = false;
            const bool ok = drain([&](const BufferSlice& payload) {
                if (!rejected && !fn(payload)) rejected = true;
            });
            if (!ok || rejected) return ReadStatus::malformed;
            if (static_cast<std::size_t>(n) < max_read) return ReadStatus::open;
        }
    }

    // Appends bytes already in hand (tests, probes).
    void feed(const std::uint8_t* data, std::size_t n) {
        std::memcpy(write_ptr(n), data, n);
        filled_ += n;
    }

    // Emits fn(BufferSlice payload) for every complete frame, in order.
    // The slices alias one frozen Buffer spanning this receive image; a
    // partial trailing frame is carried into the next image. Returns false
    // (and emits nothing) when the stream is malformed: a frame longer
    // than max_frame.
    template <typename Fn>
    bool drain(Fn&& fn) {
        std::size_t end = 0;  // end of the last complete frame
        while (filled_ - end >= frame_header_size) {
            const std::uint32_t len = get_frame_header(pending_.data() + end);
            if (len > max_frame_) return false;
            if (filled_ - end - frame_header_size < len) break;
            end += frame_header_size + len;
        }
        if (end == 0) return true;
        const std::size_t tail = filled_ - end;
        pending_.resize(filled_);  // shrink: no reallocation, no copy
        const Buffer image(std::move(pending_));
        pending_ = Bytes();
        filled_ = 0;
        if (tail > 0) {
            // The partial trailing frame moves into the next image: the one
            // place the receive path genuinely copies, bounded by a single
            // frame prefix and counted like every other real copy.
            buffer_stats::note_copy(tail);
            pending_.assign(image.data() + end, image.data() + end + tail);
            filled_ = tail;
        }
        for (std::size_t pos = 0; pos < end;) {
            const std::uint32_t len = get_frame_header(image.data() + pos);
            fn(image.slice(pos + frame_header_size, len));
            pos += frame_header_size + len;
        }
        return true;
    }

    // Bytes buffered but not yet emitted (header or partial frame).
    std::size_t buffered() const { return filled_; }

    // Bytes read_from has read from the socket, in total.
    std::uint64_t bytes_read() const { return bytes_read_; }

private:
    // Writable window of `n` bytes at the tail of the pending image.
    std::uint8_t* write_ptr(std::size_t n) {
        if (pending_.size() < filled_ + n) pending_.resize(filled_ + n);
        return pending_.data() + filled_;
    }

    std::size_t max_frame_;
    Bytes pending_;
    std::size_t filled_ = 0;
    std::uint64_t bytes_read_ = 0;
};

}  // namespace wbam::net

#endif  // WBAM_NET_FRAME_HPP
