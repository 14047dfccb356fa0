#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "common/bytes.hpp"
#include "net/stats.hpp"

namespace wbam::obs {

// --- StageHistogram ----------------------------------------------------------

void StageHistogram::record(Duration value) {
    const std::size_t b = stats::Histogram::bucket_index(value);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(value, std::memory_order_relaxed);
    Duration cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
}

stats::Histogram StageHistogram::snapshot() const {
    std::vector<std::uint64_t> buckets(stats::Histogram::num_buckets, 0);
    // Buckets first, the total after: concurrent records can make the
    // bucket sum exceed `count` momentarily; from_raw's percentile scan
    // only ever under-reports the tail in that window, never corrupts.
    std::uint64_t in_buckets = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        buckets[i] = buckets_[i].load(std::memory_order_relaxed);
        in_buckets += buckets[i];
    }
    const std::uint64_t counted = count_.load(std::memory_order_relaxed);
    const std::uint64_t count = std::min(counted, in_buckets);
    if (count == 0) return stats::Histogram();
    const Duration lo = min_.load(std::memory_order_relaxed);
    const Duration hi = max_.load(std::memory_order_relaxed);
    return stats::Histogram::from_raw(
        std::move(buckets), count,
        static_cast<double>(sum_ns_.load(std::memory_order_relaxed)),
        lo == INT64_MAX ? 0 : lo, hi == INT64_MIN ? 0 : hi);
}

// --- EventRing ---------------------------------------------------------------

void EventRing::note(std::string category, std::string detail, TimePoint at) {
    const std::lock_guard<std::mutex> guard(mutex_);
    if (ring_.size() == capacity_) ring_.pop_front();
    ring_.push_back(Event{next_seq_++, at, std::move(category),
                          std::move(detail)});
}

std::vector<Event> EventRing::entries() const {
    const std::lock_guard<std::mutex> guard(mutex_);
    return std::vector<Event>(ring_.begin(), ring_.end());
}

// --- MetricsSnapshot wire codec ----------------------------------------------

namespace {

void encode_histogram(codec::Writer& w, const stats::Histogram& h) {
    w.varint(h.count());
    if (h.count() == 0) return;
    w.u64(std::bit_cast<std::uint64_t>(h.sum()));
    w.zigzag(h.min());
    w.zigzag(h.max());
    const std::vector<std::uint64_t>& buckets = h.raw_buckets();
    std::uint64_t nonzero = 0;
    for (const std::uint64_t b : buckets) nonzero += b != 0;
    w.varint(nonzero);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0) continue;
        w.varint(i);
        w.varint(buckets[i]);
    }
}

stats::Histogram decode_histogram(codec::Reader& r) {
    const std::uint64_t count = r.varint();
    if (count == 0) return stats::Histogram();
    const double sum = std::bit_cast<double>(r.u64());
    const Duration min = r.zigzag();
    const Duration max = r.zigzag();
    const std::uint64_t pairs = r.varint();
    if (pairs > stats::Histogram::num_buckets)
        throw codec::DecodeError("histogram has more pairs than buckets");
    std::vector<std::uint64_t> buckets(stats::Histogram::num_buckets, 0);
    for (std::uint64_t p = 0; p < pairs; ++p) {
        const std::uint64_t idx = r.varint();
        if (idx >= buckets.size())
            throw codec::DecodeError("histogram bucket index out of range");
        buckets[idx] = r.varint();
    }
    return stats::Histogram::from_raw(std::move(buckets), count, sum, min,
                                      max);
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void append_ms(std::ostringstream& out, double ns) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", ns / 1e6);
    out << buf;
}

}  // namespace

void MetricsSnapshot::encode(codec::Writer& w) const {
    codec::write_field(w, counters);
    codec::write_field(w, gauges);
    w.varint(histograms.size());
    for (const auto& [name, hist] : histograms) {
        w.str(name);
        encode_histogram(w, hist);
    }
    codec::write_field(w, events);
}

MetricsSnapshot MetricsSnapshot::decode(codec::Reader& r) {
    MetricsSnapshot s;
    codec::read_field(r, s.counters);
    codec::read_field(r, s.gauges);
    const std::uint64_t n = r.varint();
    if (n > r.remaining())
        throw codec::DecodeError("histogram count exceeds body");
    s.histograms.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string name = r.str();
        s.histograms.emplace_back(std::move(name), decode_histogram(r));
    }
    codec::read_field(r, s.events);
    return s;
}

std::string MetricsSnapshot::to_json() const {
    std::ostringstream out;
    out << "{\"counters\":{";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        out << (i ? "," : "") << '"' << json_escape(counters[i].first)
            << "\":" << counters[i].second;
    }
    out << "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        out << (i ? "," : "") << '"' << json_escape(gauges[i].first)
            << "\":" << gauges[i].second;
    }
    out << "},\"histograms\":{";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const stats::Histogram& h = histograms[i].second;
        out << (i ? "," : "") << '"' << json_escape(histograms[i].first)
            << "\":{\"count\":" << h.count() << ",\"mean_ms\":";
        append_ms(out, h.mean());
        out << ",\"p50_ms\":";
        append_ms(out, static_cast<double>(h.percentile(0.50)));
        out << ",\"p99_ms\":";
        append_ms(out, static_cast<double>(h.percentile(0.99)));
        out << ",\"max_ms\":";
        append_ms(out, static_cast<double>(h.max()));
        out << '}';
    }
    out << "},\"events\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event& e = events[i];
        out << (i ? "," : "") << "{\"seq\":" << e.seq << ",\"at_ns\":" << e.at
            << ",\"category\":\"" << json_escape(e.category)
            << "\",\"detail\":\"" << json_escape(e.detail) << "\"}";
    }
    out << "]}";
    return out.str();
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
    for (const auto& [n, v] : counters)
        if (n == name) return v;
    return 0;
}

MetricsSnapshot MetricsSnapshot::delta_since(const MetricsSnapshot& base) const {
    MetricsSnapshot d;
    for (const auto& [name, v] : counters) {
        const std::uint64_t then = base.counter(name);
        d.counters.emplace_back(name, v >= then ? v - then : 0);
    }
    d.gauges = gauges;  // gauges are levels, not accumulators
    for (const auto& [name, hist] : histograms) {
        const stats::Histogram* b = nullptr;
        for (const auto& [bn, bh] : base.histograms)
            if (bn == name) {
                b = &bh;
                break;
            }
        if (b == nullptr || b->count() == 0) {
            d.histograms.emplace_back(name, hist);
            continue;
        }
        std::vector<std::uint64_t> buckets = hist.raw_buckets();
        const std::vector<std::uint64_t>& prev = b->raw_buckets();
        std::size_t top = 0;
        std::uint64_t in_buckets = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            buckets[i] -= std::min(buckets[i], prev[i]);
            if (buckets[i] != 0) top = i;
            in_buckets += buckets[i];
        }
        const std::uint64_t count =
            std::min(in_buckets, hist.count() - std::min(hist.count(),
                                                         b->count()));
        const double sum = hist.sum() - b->sum();
        d.histograms.emplace_back(
            name, count == 0
                      ? stats::Histogram()
                      : stats::Histogram::from_raw(
                            std::move(buckets), count, sum < 0 ? 0 : sum, 0,
                            stats::Histogram::bucket_upper_bound(top)));
    }
    std::uint64_t base_last = 0;
    for (const Event& e : base.events) base_last = std::max(base_last, e.seq);
    for (const Event& e : events)
        if (e.seq > base_last) d.events.push_back(e);
    return d;
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry::MetricsRegistry() {
    register_adapter("buffer/bytes_copied", &buffer_stats::bytes_copied);
    register_adapter("buffer/buffers_frozen", &buffer_stats::buffers_frozen);
    register_adapter("buffer/bytes_frozen", &buffer_stats::bytes_frozen);
    register_adapter("net/writev_calls", &net::transport_stats::writev_calls);
    register_adapter("net/frames_sent", &net::transport_stats::frames_sent);
    register_adapter("net/read_calls", &net::transport_stats::read_calls);
    register_adapter("net/recv_syscalls",
                     &net::transport_stats::recv_syscalls);
    register_adapter("net/frames_received",
                     &net::transport_stats::frames_received);
    register_adapter("net/acks_sent", &net::transport_stats::acks_sent);
}

MetricsRegistry& MetricsRegistry::instance() {
    static MetricsRegistry registry;
    return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
    const std::lock_guard<std::mutex> guard(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    const std::lock_guard<std::mutex> guard(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

StageHistogram& MetricsRegistry::histogram(const std::string& name) {
    const std::lock_guard<std::mutex> guard(mutex_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<StageHistogram>();
    return *slot;
}

void MetricsRegistry::register_adapter(const std::string& name,
                                       std::function<std::uint64_t()> read) {
    const std::lock_guard<std::mutex> guard(mutex_);
    adapters_[name] = std::move(read);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot s;
    {
        const std::lock_guard<std::mutex> guard(mutex_);
        s.counters.reserve(counters_.size() + adapters_.size());
        for (const auto& [name, c] : counters_)
            s.counters.emplace_back(name, c->value());
        for (const auto& [name, read] : adapters_)
            s.counters.emplace_back(name, read());
        for (const auto& [name, g] : gauges_)
            s.gauges.emplace_back(name, g->value());
        for (const auto& [name, h] : histograms_)
            s.histograms.emplace_back(name, h->snapshot());
    }
    s.events = events_.entries();
    std::sort(s.counters.begin(), s.counters.end());
    return s;
}

}  // namespace wbam::obs
