// Byte containers of the messaging substrate.
//
// `Bytes` is the mutable scratch type used while building a message.
// `Buffer` freezes a Bytes into an immutable, ref-counted allocation, and
// `BufferSlice` is a cheap view (buffer + offset + length) of one. The
// whole wire path — Context::send/send_many, runtime mailboxes, the
// simulator's in-flight events, codec::Reader, and delivered payloads
// (AppMessage::payload) — passes slices, so a leader encodes a fan-out
// message once and every recipient (and every retry of a held partition
// message) shares the same allocation down to the delivery upcall.
//
// Retention rule: a slice shares ownership of its WHOLE backing
// allocation, so state that outlives the handler pins the full wire image
// it was cut from. On the TCP runtime that image holds one read(2)'s
// bytes, sized by FIONREAD and capped at the read chunk (net/frame.hpp),
// so a retained slice pins at most one read's bytes. Transient
// protocol state accepts this (one shared allocation per fan-out or per
// read, reclaimed on GC/compaction); long-lived application state
// detaches deliberately via compact(). The full lifetime story lives in
// docs/ARCHITECTURE.md.
//
// Copy accounting: every place that genuinely duplicates payload bytes
// (freezing an lvalue Bytes, Reader::bytes(), BufferSlice::to_bytes(),
// a detaching compact()) reports to buffer_stats. bench_micro uses these
// counters to demonstrate the fan-out copy reduction over the seed's
// copy-per-recipient path. buffer_stats also sums the capacity of every
// Buffer it freezes (bytes_frozen), which makes slack behind retained
// slices visible.
#ifndef WBAM_COMMON_BYTES_HPP
#define WBAM_COMMON_BYTES_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace wbam {

using Bytes = std::vector<std::uint8_t>;

// Substrate-wide copy/allocation counters (relaxed atomics: cheap enough
// to stay enabled everywhere, exact under the single-threaded simulator).
namespace buffer_stats {

inline std::atomic<std::uint64_t>& bytes_copied_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}
inline std::atomic<std::uint64_t>& buffers_frozen_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}
inline std::atomic<std::uint64_t>& bytes_frozen_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}

inline void note_copy(std::size_t n) {
    bytes_copied_counter().fetch_add(n, std::memory_order_relaxed);
}
// `capacity` is the allocation the frozen Buffer keeps alive, slack
// included: what a retained slice of it pins.
inline void note_freeze(std::size_t capacity) {
    buffers_frozen_counter().fetch_add(1, std::memory_order_relaxed);
    bytes_frozen_counter().fetch_add(capacity, std::memory_order_relaxed);
}
inline std::uint64_t bytes_copied() {
    return bytes_copied_counter().load(std::memory_order_relaxed);
}
inline std::uint64_t buffers_frozen() {
    return buffers_frozen_counter().load(std::memory_order_relaxed);
}
inline std::uint64_t bytes_frozen() {
    return bytes_frozen_counter().load(std::memory_order_relaxed);
}
inline void reset() {
    bytes_copied_counter().store(0, std::memory_order_relaxed);
    buffers_frozen_counter().store(0, std::memory_order_relaxed);
    bytes_frozen_counter().store(0, std::memory_order_relaxed);
}

}  // namespace buffer_stats

class BufferSlice;

// Immutable, ref-counted byte buffer. Freezing a Bytes moves the vector
// (no byte copy); copying a Buffer bumps a refcount.
class Buffer {
public:
    Buffer() = default;
    explicit Buffer(Bytes bytes) {
        buffer_stats::note_freeze(bytes.capacity());
        storage_ = std::make_shared<const Bytes>(std::move(bytes));
    }

    // Freezes a copy of `n` bytes (counted as a genuine payload copy).
    static Buffer copy_of(const std::uint8_t* data, std::size_t n) {
        buffer_stats::note_copy(n);
        return Buffer(Bytes(data, data + n));
    }

    const std::uint8_t* data() const {
        return storage_ ? storage_->data() : nullptr;
    }
    std::size_t size() const { return storage_ ? storage_->size() : 0; }
    bool empty() const { return size() == 0; }
    // Number of Buffer/BufferSlice handles sharing this allocation.
    long use_count() const { return storage_ ? storage_.use_count() : 0; }

    BufferSlice slice(std::size_t offset, std::size_t length) const;

    friend bool same_storage(const Buffer& a, const Buffer& b) {
        return a.storage_ == b.storage_;
    }

private:
    std::shared_ptr<const Bytes> storage_;
};

// A view of a Buffer: shares ownership of the underlying allocation, so a
// slice outlives the Buffer handle it was cut from. Default-constructed
// slices are empty. Copying is a refcount bump, never a byte copy.
class BufferSlice {
public:
    BufferSlice() = default;

    // Whole-buffer view (implicit: lets call sites pass a Buffer wherever
    // a slice is expected).
    BufferSlice(Buffer buffer)  // NOLINT(google-explicit-constructor)
        : length_(buffer.size()), buffer_(std::move(buffer)) {}

    BufferSlice(Buffer buffer, std::size_t offset, std::size_t length)
        : offset_(offset), length_(length), buffer_(std::move(buffer)) {
        if (offset_ > buffer_.size()) offset_ = buffer_.size();
        if (length_ > buffer_.size() - offset_) length_ = buffer_.size() - offset_;
    }

    // Freezing an rvalue Bytes moves it into a fresh Buffer: no byte copy.
    BufferSlice(Bytes&& bytes)  // NOLINT(google-explicit-constructor)
        : BufferSlice(Buffer(std::move(bytes))) {}

    // Freezing an lvalue Bytes duplicates the payload (counted).
    BufferSlice(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
        : BufferSlice(Buffer::copy_of(bytes.data(), bytes.size())) {}

    const std::uint8_t* data() const { return buffer_.data() + offset_; }
    std::size_t size() const { return length_; }
    bool empty() const { return length_ == 0; }
    std::uint8_t operator[](std::size_t i) const { return data()[i]; }
    const std::uint8_t* begin() const { return data(); }
    const std::uint8_t* end() const { return data() + length_; }

    // Aliasing sub-view, clamped to this slice's bounds.
    BufferSlice subslice(std::size_t offset, std::size_t length) const {
        if (offset > length_) offset = length_;
        if (length > length_ - offset) length = length_ - offset;
        return BufferSlice(buffer_, offset_ + offset, length);
    }

    // Explicit copy out of the shared storage (counted).
    Bytes to_bytes() const {
        buffer_stats::note_copy(length_);
        return Bytes(data(), data() + length_);
    }

    // True when this view spans its whole backing allocation — retaining it
    // pins no bytes beyond its own content.
    bool is_compact() const {
        return offset_ == 0 && length_ == buffer_.size();
    }

    // Returns a slice whose backing storage holds exactly these bytes.
    // Already-compact views are returned as-is (refcount bump); a strict
    // sub-view is copied (counted) into a fresh buffer, deliberately
    // detaching long-lived state from the larger wire allocation it would
    // otherwise pin (see the retention rule at the top of this header).
    BufferSlice compact() const {
        if (is_compact()) return *this;
        return BufferSlice(Buffer::copy_of(data(), length_));
    }

    const Buffer& buffer() const { return buffer_; }

    friend bool same_storage(const BufferSlice& a, const BufferSlice& b) {
        return same_storage(a.buffer_, b.buffer_);
    }

    // Content equality (slices may alias different storage).
    friend bool operator==(const BufferSlice& a, const BufferSlice& b) {
        return a.size() == b.size() &&
               std::equal(a.data(), a.data() + a.size(), b.data());
    }
    friend bool operator==(const BufferSlice& a, const Bytes& b) {
        return a.size() == b.size() &&
               std::equal(a.data(), a.data() + a.size(), b.data());
    }

private:
    std::size_t offset_ = 0;
    std::size_t length_ = 0;
    Buffer buffer_;
};

inline BufferSlice Buffer::slice(std::size_t offset, std::size_t length) const {
    return BufferSlice(*this, offset, length);
}

}  // namespace wbam

#endif  // WBAM_COMMON_BYTES_HPP
