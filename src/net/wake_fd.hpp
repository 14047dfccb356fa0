// The wakeup a NetWorld's poll loop sleeps on, so that work posted from
// another thread (run_on, drop_connections, shutdown) interrupts a
// blocked poll(2).
#ifndef WBAM_NET_WAKE_FD_HPP
#define WBAM_NET_WAKE_FD_HPP

#include <unistd.h>
#ifdef __linux__
#include <sys/eventfd.h>
#endif
#include <fcntl.h>

#include <cstdint>

namespace wbam::net {

// Level-triggered wakeup: eventfd where available, self-pipe elsewhere.
// wake() is one write syscall and safe from any thread; clear() runs on
// the loop thread after poll reports the fd readable.
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

}  // namespace wbam::net

#endif  // WBAM_NET_WAKE_FD_HPP
