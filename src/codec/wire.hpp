// Uniform wire envelope shared by every module:
//   [module:u8][type:u8][about: varint MsgId][body...]
// `about` names the application message a protocol message concerns
// (invalid_msg when the message is not specific to one), which lets the
// genuineness checker audit traffic without protocol-specific parsing.
//
// Wire-path ownership in brief (the full lifetime story — encode → send →
// retain → decode → deliver → compact — and the decode-side aliasing
// rules live in docs/ARCHITECTURE.md):
// * encode_envelope freezes one immutable Buffer per logical message; the
//   sender fans the SAME buffer out to every recipient.
// * A handler's inbound BufferSlice aliases the sender's frozen buffer;
//   EnvelopeView/Reader parse in place, and kept subslices (including
//   decoded AppMessage payloads) share the whole allocation. Long-lived
//   state detaches via BufferSlice::compact()/to_bytes().
// * Each wire image carries exactly one envelope. Frames are coalesced
//   below the envelope layer, by the transport's gathered writev, never
//   by re-framing envelopes.
#ifndef WBAM_CODEC_WIRE_HPP
#define WBAM_CODEC_WIRE_HPP

#include "codec/fields.hpp"
#include "codec/reader.hpp"
#include "codec/writer.hpp"
#include "common/types.hpp"

namespace wbam::codec {

enum class Module : std::uint8_t {
    elect = 0,   // leader election heartbeats/suspicions
    proto = 1,   // the atomic multicast protocol itself
    paxos = 2,   // intra-group consensus used by black-box baselines
    client = 3,  // client requests and delivery acknowledgements
    app = 4,     // application payloads layered over multicast (kv store)
    ctrl = 6,    // distributed-benchmark control plane (src/ctrl/)
};

// Tag 5 is retired: it is never reused, the other tags keep their numbers
// (they are on the wire), and EnvelopeView rejects it.
inline constexpr std::uint8_t retired_module = 5;

template <WireMessage T>
Buffer encode_envelope(Module module, std::uint8_t type, MsgId about,
                       const T& body) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(module));
    w.u8(type);
    w.varint(about);
    body.encode(w);
    return std::move(w).take_buffer();
}

// Envelope with no body.
inline Buffer encode_envelope(Module module, std::uint8_t type, MsgId about) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(module));
    w.u8(type);
    w.varint(about);
    return std::move(w).take_buffer();
}

struct EnvelopeView {
    Module module{};
    std::uint8_t type = 0;
    MsgId about = invalid_msg;
    Reader body;

    explicit EnvelopeView(const BufferSlice& bytes) : body(bytes) { parse(); }
    // Unbacked view (tests, hand-built frames): aliasing reads copy.
    explicit EnvelopeView(const Bytes& bytes) : body(bytes) { parse(); }

private:
    void parse() {
        const std::uint8_t m = body.u8();
        if (m == retired_module || m > static_cast<std::uint8_t>(Module::ctrl))
            throw DecodeError("unknown module");
        module = static_cast<Module>(m);
        type = body.u8();
        about = body.varint();
    }
};

}  // namespace wbam::codec

#endif  // WBAM_CODEC_WIRE_HPP
