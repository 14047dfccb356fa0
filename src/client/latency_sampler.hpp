// Node-side half of the benchmark measurement plane: accumulates the
// latencies of multicasts that complete inside a measurement window, as a
// drainable queue of raw samples that the control plane streams to the
// coordinator (SAMPLE messages, src/ctrl/). ctrl::BenchDriver hosts it:
// the driver tracks every op from issue to partial delivery (first
// delivery in every destination group — the paper's client-perceived
// latency metric, §II) and hands each completion over. Every measured run
// — deployed (`wbamctl run`) or in-process (harness::run_experiment) —
// goes through that driver, so all of them stop the clock at the same
// point: the driver's receipt of the last destination group's
// deliver-ack.
#ifndef WBAM_CLIENT_LATENCY_SAMPLER_HPP
#define WBAM_CLIENT_LATENCY_SAMPLER_HPP

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace wbam::client {

// Single-threaded: the hosting driver's execution context calls every
// method.
class LatencySampler {
public:
    // Latency samples are recorded for operations that COMPLETE within
    // [start, end).
    void set_window(TimePoint start, TimePoint end) {
        window_start_ = start;
        window_end_ = end;
        completed_in_window_ = 0;
        samples_.clear();
    }

    // One completed operation: issued at `issued`, its last destination
    // group's first deliver-ack received at `now`.
    void note_completion(TimePoint issued, TimePoint now) {
        if (now < window_start_ || now >= window_end_) return;
        ++completed_in_window_;
        samples_.push_back(now - issued);
    }

    // Raw samples accumulated since the last drain (streamed to the
    // coordinator by the driver; the merged histogram then
    // sees every individual sample, so merged percentiles are exact).
    std::vector<Duration> drain_samples() {
        std::vector<Duration> out;
        out.swap(samples_);
        return out;
    }

    std::uint64_t completed_in_window() const { return completed_in_window_; }

private:
    std::vector<Duration> samples_;
    TimePoint window_start_ = 0;
    TimePoint window_end_ = time_never;
    std::uint64_t completed_in_window_ = 0;
};

}  // namespace wbam::client

#endif  // WBAM_CLIENT_LATENCY_SAMPLER_HPP
