// Transport-wide syscall/frame counters, the net twin of buffer_stats
// (common/bytes.hpp): relaxed atomics, cheap enough to stay enabled
// everywhere. The writev_calls/frames_sent pair is what makes send-path
// coalescing *measurable* — frames_sent / writev_calls is the syscall
// amortization factor the saturation benchmark reports, and
// net_transport_test asserts a burst of queued frames flushes in a single
// writev. On the receive side, read_calls counts productive reads only,
// while recv_syscalls counts every receive-path syscall (the FIONREAD
// ioctl and each read(2), including those that end in EAGAIN, EOF or an
// error), so wasted receive syscalls show as their difference.
#ifndef WBAM_NET_STATS_HPP
#define WBAM_NET_STATS_HPP

#include <atomic>
#include <cstdint>

namespace wbam::net::transport_stats {

inline std::atomic<std::uint64_t>& writev_calls_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}
inline std::atomic<std::uint64_t>& frames_sent_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}
inline std::atomic<std::uint64_t>& read_calls_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}
inline std::atomic<std::uint64_t>& recv_syscalls_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}
inline std::atomic<std::uint64_t>& frames_received_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}
inline std::atomic<std::uint64_t>& acks_sent_counter() {
    static std::atomic<std::uint64_t> v{0};
    return v;
}

inline void note_writev(std::uint64_t frames) {
    writev_calls_counter().fetch_add(1, std::memory_order_relaxed);
    frames_sent_counter().fetch_add(frames, std::memory_order_relaxed);
}
inline void note_read() {
    read_calls_counter().fetch_add(1, std::memory_order_relaxed);
}
inline void note_recv_syscall() {
    recv_syscalls_counter().fetch_add(1, std::memory_order_relaxed);
}
inline void note_frames_received(std::uint64_t frames) {
    frames_received_counter().fetch_add(frames, std::memory_order_relaxed);
}
inline void note_ack() {
    acks_sent_counter().fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t writev_calls() {
    return writev_calls_counter().load(std::memory_order_relaxed);
}
inline std::uint64_t frames_sent() {
    return frames_sent_counter().load(std::memory_order_relaxed);
}
inline std::uint64_t read_calls() {
    return read_calls_counter().load(std::memory_order_relaxed);
}
inline std::uint64_t recv_syscalls() {
    return recv_syscalls_counter().load(std::memory_order_relaxed);
}
inline std::uint64_t frames_received() {
    return frames_received_counter().load(std::memory_order_relaxed);
}
inline std::uint64_t acks_sent() {
    return acks_sent_counter().load(std::memory_order_relaxed);
}

inline void reset() {
    writev_calls_counter().store(0, std::memory_order_relaxed);
    frames_sent_counter().store(0, std::memory_order_relaxed);
    read_calls_counter().store(0, std::memory_order_relaxed);
    recv_syscalls_counter().store(0, std::memory_order_relaxed);
    frames_received_counter().store(0, std::memory_order_relaxed);
    acks_sent_counter().store(0, std::memory_order_relaxed);
}

}  // namespace wbam::net::transport_stats

#endif  // WBAM_NET_STATS_HPP
