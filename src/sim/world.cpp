#include "sim/world.hpp"

#include <algorithm>

#include "codec/wire.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"

namespace wbam::sim {

// Per-process runtime state plus its Context implementation.
struct World::Host final {
    struct Ctx final : Context {
        World* world = nullptr;
        ProcessId id = invalid_process;

        ProcessId self() const override { return id; }
        TimePoint now() const override { return world->now(); }
        void send(ProcessId to, BufferSlice bytes) override {
            world->send_from(id, to, std::move(bytes));
        }
        void send_many(const std::vector<ProcessId>& to,
                       BufferSlice bytes) override {
            world->send_many_from(id, to, std::move(bytes));
        }
        TimerId set_timer(Duration delay) override {
            return world->set_timer_for(id, delay);
        }
        void cancel_timer(TimerId timer) override {
            world->cancel_timer_for(id, timer);
        }
        Rng& rng() override { return world->rng_of(id); }
        void charge(Duration cpu_work) override {
            world->charge_for(id, cpu_work);
        }
    };

    std::unique_ptr<Process> proc;
    Ctx ctx;
    Rng rng{0};
    bool crashed = false;
    TimePoint busy_until = 0;
    Duration busy_total = 0;
    TimerId next_timer = 1;
    std::unordered_set<TimerId> active_timers;
};

World::World(Topology topo, std::unique_ptr<DelayModel> delays,
             std::uint64_t seed, CpuModel cpu)
    : topo_(std::move(topo)), delays_(std::move(delays)), cpu_(cpu),
      net_rng_(seed ^ 0x9e3779b97f4a7c15ULL), seed_rng_(seed) {
    hosts_.resize(static_cast<std::size_t>(topo_.num_processes()));
    for (auto& slot : hosts_) {
        slot = std::make_unique<Host>();
        slot->rng = seed_rng_.fork();
    }
    for (int i = 0; i < topo_.num_processes(); ++i) {
        hosts_[static_cast<std::size_t>(i)]->ctx.world = this;
        hosts_[static_cast<std::size_t>(i)]->ctx.id = i;
    }
}

World::~World() = default;

World::Host& World::host(ProcessId id) {
    WBAM_ASSERT(id >= 0 && static_cast<std::size_t>(id) < hosts_.size());
    return *hosts_[static_cast<std::size_t>(id)];
}

const World::Host& World::host(ProcessId id) const {
    WBAM_ASSERT(id >= 0 && static_cast<std::size_t>(id) < hosts_.size());
    return *hosts_[static_cast<std::size_t>(id)];
}

void World::add_process(ProcessId id, std::unique_ptr<Process> p) {
    WBAM_ASSERT_MSG(!started_, "cannot add processes after start()");
    WBAM_ASSERT_MSG(host(id).proc == nullptr, "process id already registered");
    host(id).proc = std::move(p);
}

Process& World::process(ProcessId id) {
    WBAM_ASSERT(host(id).proc != nullptr);
    return *host(id).proc;
}

void World::start() {
    WBAM_ASSERT(!started_);
    started_ = true;
    for (int i = 0; i < topo_.num_processes(); ++i) {
        Host& h = host(i);
        WBAM_ASSERT_MSG(h.proc != nullptr, "unregistered process id");
        h.proc->on_start(h.ctx);
    }
}

// --- event heap (hand-rolled so pop() can move the payload out) ----------

void World::push(Event ev) {
    ev.seq = next_seq_++;
    heap_.push_back(std::move(ev));
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        auto& a = heap_[i];
        auto& b = heap_[parent];
        if (b.at < a.at || (b.at == a.at && b.seq < a.seq)) break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

World::Event World::pop() {
    WBAM_ASSERT(!heap_.empty());
    Event out = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t l = 2 * i + 1;
        const std::size_t r = l + 1;
        std::size_t best = i;
        auto earlier = [&](std::size_t x, std::size_t y) {
            return heap_[x].at < heap_[y].at ||
                   (heap_[x].at == heap_[y].at && heap_[x].seq < heap_[y].seq);
        };
        if (l < n && earlier(l, best)) best = l;
        if (r < n && earlier(r, best)) best = r;
        if (best == i) break;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
    return out;
}

void World::run_until(TimePoint t) {
    while (!heap_.empty()) {
        if (heap_.front().at > t) break;
        Event ev = pop();
        now_ = ev.at;
        ++events_processed_;
        execute(ev);
    }
    now_ = std::max(now_, t);
}

bool World::run_until_idle(TimePoint horizon) {
    while (!heap_.empty() && heap_.front().at <= horizon) {
        Event ev = pop();
        now_ = ev.at;
        ++events_processed_;
        execute(ev);
    }
    return heap_.empty();
}

void World::execute(Event& ev) {
    switch (ev.kind) {
        case Kind::custom:
            (*ev.fn)();
            return;
        case Kind::msg_arrive: {
            Host& h = host(ev.pid);
            if (h.crashed) return;
            if (cpu_.is_zero()) {
                dispatch_message(h, ev.from, ev.payload);
                return;
            }
            // An idle process pays the wakeup cost; a busy one drains its
            // backlog without it (event-loop batching).
            const bool idle = h.busy_until <= now_;
            const TimePoint begin = std::max(now_, h.busy_until);
            const TimePoint done =
                begin + cpu_.cost(ev.payload.size()) + (idle ? cpu_.wakeup : 0);
            h.busy_total += done - begin;
            h.busy_until = done;
            push(Event{.at = done, .kind = Kind::msg_exec, .pid = ev.pid,
                       .from = ev.from, .payload = std::move(ev.payload)});
            return;
        }
        case Kind::msg_exec: {
            Host& h = host(ev.pid);
            if (h.crashed) return;
            dispatch_message(h, ev.from, ev.payload);
            return;
        }
        case Kind::timer_fire: {
            Host& h = host(ev.pid);
            if (h.crashed) return;
            if (h.active_timers.erase(ev.timer) == 0) return;  // cancelled
            if (cpu_.is_zero()) {
                h.proc->on_timer(h.ctx, ev.timer);
                return;
            }
            const TimePoint begin = std::max(now_, h.busy_until);
            const TimePoint done = begin + cpu_.per_message;
            h.busy_total += done - begin;
            h.busy_until = done;
            push(Event{.at = done, .kind = Kind::timer_exec, .pid = ev.pid,
                       .timer = ev.timer});
            return;
        }
        case Kind::timer_exec: {
            Host& h = host(ev.pid);
            if (h.crashed) return;
            h.proc->on_timer(h.ctx, ev.timer);
            return;
        }
    }
}

void World::dispatch_message(Host& h, ProcessId from, const BufferSlice& bytes) {
    try {
        h.proc->on_message(h.ctx, from, bytes);
    } catch (const codec::DecodeError& err) {
        // Malformed input is dropped, never fatal: decoding happens before
        // any state mutation in every handler.
        log::warn("p", h.ctx.id, " dropped malformed message from ", from,
                  ": ", err.what());
    }
}

// --- network --------------------------------------------------------------

void World::record_send(ProcessId from, ProcessId to, const BufferSlice& bytes) {
    SendRecord rec;
    rec.at = now_;
    rec.from = from;
    rec.to = to;
    rec.size = static_cast<std::uint32_t>(bytes.size());
    try {
        const codec::EnvelopeView env(bytes);
        rec.module = static_cast<std::uint8_t>(env.module);
        rec.type = env.type;
        rec.about = env.about;
    } catch (const codec::DecodeError&) {
        rec.module = 0xff;
    }
    if (send_hook_) send_hook_(rec, bytes);
    if (tracing_) {
        trace_.push_back(rec);
        if (trace_keep_bodies_) trace_bodies_.push_back(bytes);
    }
}

void World::send_from(ProcessId from, ProcessId to, BufferSlice bytes) {
    WBAM_ASSERT(to >= 0 && static_cast<std::size_t>(to) < hosts_.size());
    if (tracing_ || send_hook_) record_send(from, to, bytes);
    const std::uint64_t undirected =
        link_key(std::min(from, to), std::max(from, to));
    if (severed_links_.count(undirected)) return;  // lost on the wire
    if (blocked_links_.count(undirected)) {
        held_[link_key(from, to)].push_back(std::move(bytes));
        return;
    }
    schedule_arrival(from, to, std::move(bytes));
}

void World::send_many_from(ProcessId from, const std::vector<ProcessId>& to,
                           BufferSlice bytes) {
    // Every recipient shares the slice's storage: the fan-out costs one
    // refcount bump per recipient, zero byte copies.
    for (const ProcessId t : to) send_from(from, t, bytes);
}

void World::schedule_arrival(ProcessId from, ProcessId to, Payload payload) {
    Duration delay = 0;
    if (from != to) {
        const auto it = link_overrides_.find(link_key(from, to));
        delay = it != link_overrides_.end()
                    ? it->second
                    : delays_->sample(from, to, payload.size(), net_rng_);
    }
    WBAM_ASSERT(delay >= 0);
    const std::uint64_t key = link_key(from, to);
    TimePoint arrival = now_ + delay;
    auto [it, inserted] = last_arrival_.try_emplace(key, arrival);
    if (!inserted) {
        arrival = std::max(arrival, it->second);  // FIFO per channel
        it->second = arrival;
    }
    push(Event{.at = arrival, .kind = Kind::msg_arrive, .pid = to, .from = from,
               .payload = std::move(payload)});
}

// --- timers ----------------------------------------------------------------

TimerId World::set_timer_for(ProcessId pid, Duration delay) {
    WBAM_ASSERT(delay >= 0);
    Host& h = host(pid);
    const TimerId id = h.next_timer++;
    h.active_timers.insert(id);
    push(Event{.at = now_ + delay, .kind = Kind::timer_fire, .pid = pid,
               .timer = id});
    return id;
}

void World::cancel_timer_for(ProcessId pid, TimerId id) {
    host(pid).active_timers.erase(id);
}

Rng& World::rng_of(ProcessId pid) { return host(pid).rng; }

void World::charge_for(ProcessId pid, Duration cpu_work) {
    if (cpu_.is_zero() || cpu_work <= 0) return;
    Host& h = host(pid);
    h.busy_until = std::max(h.busy_until, now_) + cpu_work;
    h.busy_total += cpu_work;
}

Duration World::busy_time_of(ProcessId pid) const {
    return host(pid).busy_total;
}

// --- fault injection ---------------------------------------------------------

void World::crash(ProcessId p) {
    Host& h = host(p);
    h.crashed = true;
    h.active_timers.clear();
}

void World::restart(ProcessId p, std::unique_ptr<Process> proc) {
    WBAM_ASSERT_MSG(started_, "restart() models recovery after start()");
    Host& h = host(p);
    WBAM_ASSERT_MSG(h.crashed, "restart() requires a crashed process");
    // The old incarnation is destroyed before the new one boots; messages
    // already in flight to p are delivered to the new incarnation (the
    // network does not know the host rebooted). Timers died with the crash.
    h.proc = std::move(proc);
    h.crashed = false;
    h.active_timers.clear();
    h.busy_until = now_;
    h.proc->on_start(h.ctx);
}

bool World::is_crashed(ProcessId p) const { return host(p).crashed; }

void World::block_link(ProcessId a, ProcessId b) {
    blocked_links_.insert(link_key(std::min(a, b), std::max(a, b)));
}

void World::unblock_link(ProcessId a, ProcessId b) {
    blocked_links_.erase(link_key(std::min(a, b), std::max(a, b)));
    // Release held messages in FIFO order with fresh delays.
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        const auto it = held_.find(link_key(from, to));
        if (it == held_.end()) continue;
        std::vector<Payload> msgs = std::move(it->second);
        held_.erase(it);
        for (auto& m : msgs) schedule_arrival(from, to, std::move(m));
    }
}

void World::sever_link(ProcessId a, ProcessId b) {
    severed_links_.insert(link_key(std::min(a, b), std::max(a, b)));
}

void World::restore_link(ProcessId a, ProcessId b) {
    severed_links_.erase(link_key(std::min(a, b), std::max(a, b)));
}

void World::sever_process(ProcessId p) {
    for (int other = 0; other < topo_.num_processes(); ++other)
        if (other != p) sever_link(p, other);
}

void World::restore_process(ProcessId p) {
    for (int other = 0; other < topo_.num_processes(); ++other)
        if (other != p) restore_link(p, other);
}

void World::set_link_override(ProcessId from, ProcessId to, Duration one_way) {
    WBAM_ASSERT(one_way >= 0);
    link_overrides_[link_key(from, to)] = one_way;
}

void World::clear_link_override(ProcessId from, ProcessId to) {
    link_overrides_.erase(link_key(from, to));
}

void World::at(TimePoint t, std::function<void()> fn) {
    WBAM_ASSERT(t >= now_);
    push(Event{.at = t, .kind = Kind::custom,
               .fn = std::make_unique<std::function<void()>>(std::move(fn))});
}

// --- tracing ---------------------------------------------------------------

void World::enable_send_trace(bool on, bool keep_bodies) {
    tracing_ = on;
    trace_keep_bodies_ = keep_bodies;
}

void World::set_send_hook(
    std::function<void(const SendRecord&, const BufferSlice&)> hook) {
    send_hook_ = std::move(hook);
}

}  // namespace wbam::sim
