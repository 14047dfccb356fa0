// Node-side half of the benchmark measurement plane: tracks every
// multicast from issue to partial delivery (first delivery in every
// destination group — the paper's client-perceived latency metric, §II)
// and accumulates completion samples over a measurement window, both into
// a local histogram and into a drainable queue of raw samples that the
// control plane streams to the coordinator (SAMPLE messages, src/ctrl/).
// ctrl::BenchDriver hosts it next to its client sessions, and every
// measured run — deployed (`wbamctl run`) or in-process
// (harness::run_experiment) — goes through that driver, so all of them
// stop the clock at the same point: the driver's receipt of the last
// destination group's deliver-ack.
#ifndef WBAM_CLIENT_LATENCY_SAMPLER_HPP
#define WBAM_CLIENT_LATENCY_SAMPLER_HPP

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "stats/histogram.hpp"

namespace wbam::client {

// Single-threaded: the hosting driver's execution context calls every
// method.
class LatencySampler {
public:
    // Outcome of one observed (message, group) delivery.
    struct Delivery {
        bool first_in_group = false;  // first delivery of m in this group
        bool completed = false;       // this delivery completed the op
    };

    void note_multicast(MsgId id, TimePoint at, std::size_t ngroups) {
        Pending p;
        p.issued = at;
        p.remaining = static_cast<std::uint32_t>(ngroups);
        pending_.emplace(id, std::move(p));
    }

    Delivery note_group_delivery(MsgId id, GroupId group, TimePoint now) {
        Delivery d;
        const auto it = pending_.find(id);
        if (it == pending_.end()) return d;  // duplicate after completion
        Pending& p = it->second;
        if (!p.seen.insert(group).second) return d;  // not first in group
        d.first_in_group = true;
        if (--p.remaining == 0) {
            d.completed = true;
            ++completed_total_;
            if (now >= window_start_ && now < window_end_) {
                ++completed_in_window_;
                const Duration sample = now - p.issued;
                latency_.record(sample);
                samples_.push_back(sample);
            }
            pending_.erase(it);
        }
        return d;
    }

    // Latency samples are recorded for operations that COMPLETE within
    // [start, end).
    void set_window(TimePoint start, TimePoint end) {
        window_start_ = start;
        window_end_ = end;
        completed_in_window_ = 0;
        latency_.clear();
        samples_.clear();
    }

    // Raw samples accumulated since the last drain (streamed to the
    // coordinator by the driver; the merged histogram then
    // sees every individual sample, so merged percentiles are exact).
    std::vector<Duration> drain_samples() {
        std::vector<Duration> out;
        out.swap(samples_);
        return out;
    }

    const stats::Histogram& latency() const { return latency_; }
    std::uint64_t completed_in_window() const { return completed_in_window_; }
    std::uint64_t completed_total() const { return completed_total_; }

private:
    struct Pending {
        TimePoint issued = 0;
        std::uint32_t remaining = 0;
        std::unordered_set<GroupId> seen;
    };

    std::unordered_map<MsgId, Pending> pending_;
    stats::Histogram latency_;
    std::vector<Duration> samples_;
    TimePoint window_start_ = 0;
    TimePoint window_end_ = time_never;
    std::uint64_t completed_in_window_ = 0;
    std::uint64_t completed_total_ = 0;
};

}  // namespace wbam::client

#endif  // WBAM_CLIENT_LATENCY_SAMPLER_HPP
