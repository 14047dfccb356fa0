// Sharding primitives of the multi-core TCP runtime: the deterministic
// connection-affinity map, the MPSC command mailbox, and the eventfd /
// self-pipe wakeup every loop sleeps on.
//
// Affinity contract: shard_for(a, b, n) is total (every pid pair maps to
// a shard), stable (pure function of the pair), and SYMMETRIC — both
// directions between two processes land on the same shard. Symmetry is
// what keeps the reliable-channel state loop-local: the inbound
// connection carrying channel (remote -> local) and the outbound
// connection carrying (local -> remote) are owned by one loop thread, so
// cumulative acks piggyback on the reverse send queue and ack frames
// prune the retransmit buffer without a cross-shard hop. The receive
// cursor of a channel likewise stays on one shard across reconnects.
#ifndef WBAM_NET_SHARD_HPP
#define WBAM_NET_SHARD_HPP

#include <unistd.h>
#ifdef __linux__
#include <sys/eventfd.h>
#endif
#include <fcntl.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/types.hpp"

namespace wbam::net {

// splitmix64 finalizer: full-avalanche mix so consecutive pid pairs
// spread evenly over small shard counts.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// The owning shard of the (a, b) connection pair. See the contract above.
inline int shard_for(ProcessId a, ProcessId b, int shards) {
    if (shards <= 1) return 0;
    const std::uint64_t lo = static_cast<std::uint32_t>(std::min(a, b));
    const std::uint64_t hi = static_cast<std::uint32_t>(std::max(a, b));
    return static_cast<int>(mix64((lo << 32) | hi) %
                            static_cast<std::uint64_t>(shards));
}

// Config knob -> actual loop count: requests are honored in [1, 64].
inline int resolve_shard_count(int requested) {
    return std::clamp(requested, 1, 64);
}

// Level-triggered wakeup a poll loop sleeps on: eventfd where available,
// self-pipe elsewhere. wake() is async-signal-thin (one write syscall)
// and safe from any thread; clear() runs on the owning loop after poll
// reports the fd readable.
class WakeFd {
public:
    WakeFd() {
#ifdef __linux__
        fds_[0] = ::eventfd(0, EFD_NONBLOCK);
        if (fds_[0] >= 0) return;
#endif
        if (::pipe(fds_) == 0) {
            for (const int fd : fds_) {
                const int flags = ::fcntl(fd, F_GETFL, 0);
                ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
            }
        }
    }
    ~WakeFd() {
        if (fds_[0] >= 0) ::close(fds_[0]);
        if (fds_[1] >= 0) ::close(fds_[1]);
    }
    WakeFd(const WakeFd&) = delete;
    WakeFd& operator=(const WakeFd&) = delete;

    int poll_fd() const { return fds_[0]; }

    void wake() {
        const std::uint64_t one = 1;
        const int fd = fds_[1] >= 0 ? fds_[1] : fds_[0];
        if (fd < 0) return;
        [[maybe_unused]] const ssize_t n =
            ::write(fd, &one, fds_[1] >= 0 ? 1 : sizeof(one));
    }

    void clear() {
        if (fds_[0] < 0) return;
        std::uint8_t buf[256];
        while (::read(fds_[0], buf, sizeof(buf)) > 0) {
        }
    }

private:
    int fds_[2] = {-1, -1};  // eventfd uses [0] only
};

// MPSC command queue feeding a loop thread: any thread pushes, the owning
// loop drains. push() reports the empty -> non-empty transition so the
// producer wakes the consumer exactly once per batch (a non-empty queue
// already has a wake in flight that the owner has not consumed yet).
template <typename T>
class Mailbox {
public:
    bool push(T item) {
        const std::lock_guard<std::mutex> guard(mutex_);
        const bool was_empty = items_.empty();
        items_.push_back(std::move(item));
        return was_empty;
    }

    std::deque<T> drain() {
        std::deque<T> out;
        const std::lock_guard<std::mutex> guard(mutex_);
        out.swap(items_);
        return out;
    }

    bool empty() const {
        const std::lock_guard<std::mutex> guard(mutex_);
        return items_.empty();
    }

private:
    mutable std::mutex mutex_;
    std::deque<T> items_;
};

}  // namespace wbam::net

#endif  // WBAM_NET_SHARD_HPP
