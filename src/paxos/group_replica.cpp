#include "paxos/group_replica.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/batching.hpp"
#include "common/log.hpp"
#include "wal/log.hpp"
#include "wal/mute_context.hpp"
#include "wal/records.hpp"

namespace wbam::paxos {

GroupReplica::GroupReplica(ProtocolInfo info, const Topology& topo,
                           ProcessId pid, DeliverySink sink,
                           const ReplicaConfig& cfg)
    : topo_(topo), pid_(pid), g0_(topo.group_of(pid)), cfg_(cfg),
      stages_(info.name),
      paxos_(topo.members_leader_first(topo.group_of(pid)), topo.quorum_size(),
             [this](Context& ctx, std::uint64_t, const Command& cmd) {
                 apply(ctx, cmd);
             },
             PaxosConfig{.retry_interval = cfg.retry_interval,
                         .cmd_cost = cfg.consensus_cmd_cost,
                         .gc_enabled = cfg.paxos_gc_enabled,
                         .gc_interval = cfg.paxos_gc_interval,
                         .wal = cfg.wal}),
      info_(info), sink_(std::move(sink)),
      elector_(topo.members_leader_first(topo.group_of(pid)),
               elect::ElectorConfig{cfg.election_enabled,
                                    cfg.heartbeat_interval,
                                    cfg.suspect_timeout},
               [this](Context& ctx, ProcessId trusted) {
                   if (trusted == ctx.self()) paxos_.maybe_lead(ctx);
               }),
      delivered_floor_(topo.members(topo.group_of(pid))) {
    WBAM_ASSERT(g0_ != invalid_group);
    // The catch-up mark is the requester's delivery watermark
    // (CatchupRequestMsg::mark): the responder strips what it already has.
    paxos_.set_state_handlers(
        [this](const BufferSlice& mark) -> Bytes {
            Timestamp strip = bottom_ts;  // empty mark: requester holds nothing
            if (!mark.empty()) {
                codec::Reader r(mark);
                codec::read_field(r, strip);
            }
            // Empty = cannot serve: the requester would have to replay
            // entries we hold only as payload stubs. It retries against
            // another peer (MultiPaxos skips the reply).
            if (!can_serve_snapshot(strip)) return {};
            return state_snapshot(strip);
        },
        [this](Context& ctx, const BufferSlice& s) { install_state(ctx, s); },
        [this] {
            codec::Writer w;
            codec::write_field(w, max_delivered_gts_);
            return std::move(w).take();
        });
}

void GroupReplica::on_start(Context& ctx) {
    paxos_.start(ctx);
    const bool restarted = cfg_.wal && !cfg_.wal->recovered().empty();
    if (restarted) replay_wal(ctx);
    elector_.start(ctx);
    tick_timer_ = ctx.set_timer(cfg_.retry_interval);
    if (cfg_.paxos_gc_enabled)
        paxos_gc_timer_ = ctx.set_timer(cfg_.paxos_gc_interval);
    // The elector's trust callback fires only on change, and a restarted
    // initial leader boots already trusting itself: re-establish leadership
    // explicitly (with a fresh ballot above the restored promise).
    if (restarted && cfg_.election_enabled && elector_.trusts_self(ctx))
        paxos_.maybe_lead(ctx);
}

void GroupReplica::replay_wal(Context& ctx) {
    wal::Log& log = *cfg_.wal;
    // Pass 1: the last durable watermark. Restoring it before the records
    // replay suppresses re-delivery of everything the pre-crash process
    // already delivered and made durable (the delivery-loop guards).
    for (const wal::Record& r : log.recovered())
        if (r.type == wal::tag(wal::RecordType::watermark))
            max_delivered_gts_ =
                std::max(max_delivered_gts_, wal::decode_watermark(r.body));
    // Pass 2: feed the paxos engine in log order. The apply callbacks
    // rebuild the application log deterministically; sends are muted (the
    // pre-crash process already sent the originals, and the retry/catch-up
    // machinery re-syncs whatever peers still miss).
    wal::MuteContext mute(ctx);
    paxos_.begin_restore();
    log.replay([&](std::uint8_t type, const BufferSlice& body) {
        switch (static_cast<wal::RecordType>(type)) {
            case wal::RecordType::paxos_promised:
                paxos_.restore_promised(wal::decode_promised(body));
                break;
            case wal::RecordType::paxos_accepted: {
                const wal::AcceptedRecord rec = wal::decode_accepted(body);
                paxos_.restore_accepted(rec.slot, rec.ballot,
                                        Command{rec.about, rec.payload});
                break;
            }
            case wal::RecordType::paxos_chosen: {
                const wal::ChosenRecord rec = wal::decode_chosen(body);
                paxos_.restore_chosen(mute, rec.slot,
                                      Command{rec.about, rec.payload});
                break;
            }
            case wal::RecordType::paxos_snapshot: {
                const wal::SnapshotRecord rec = wal::decode_snapshot(body);
                paxos_.restore_snapshot(mute, rec.snap_upto, rec.state);
                break;
            }
            default:
                break;  // watermarks were folded in during pass 1
        }
    });
    paxos_.finish_restore();
    after_replay(ctx);
    log::info(info_.name, " p", pid_, " replayed ", log.recovered().size(),
              " wal records, watermark ", to_string(max_delivered_gts_));
}

void GroupReplica::on_message(Context& ctx, ProcessId from,
                              const BufferSlice& bytes) {
    run_handler(ctx, cfg_,
                [&](Context& c) { dispatch_message(c, from, bytes); });
}

void GroupReplica::on_timer(Context& ctx, TimerId id) {
    run_handler(ctx, cfg_, [&](Context& c) { dispatch_timer(c, id); });
}

void GroupReplica::dispatch_message(Context& ctx, ProcessId from,
                                    const BufferSlice& bytes) {
    codec::EnvelopeView env(bytes);
    if (elector_.handle_message(ctx, from, env)) return;
    if (paxos_.handle_message(ctx, from, env)) return;
    if (env.module == codec::Module::client) {
        if (env.type != static_cast<std::uint8_t>(ClientMsgType::multicast))
            return;
        const AppMessage m = AppMessage::decode(env.body);
        if (paxos_.is_leader() && m.addressed_to(g0_)) handle_multicast(ctx, m);
        return;
    }
    if (env.module != codec::Module::proto) return;
    if (env.type == info_.gc_status) {
        handle_gc_status(from, ::wbam::GcStatusMsg::decode(env.body));
    } else if (env.type == info_.gc_prune) {
        handle_gc_prune(::wbam::GcPruneMsg::decode(env.body));
    } else {
        handle_protocol(ctx, from, env);
    }
}

void GroupReplica::dispatch_timer(Context& ctx, TimerId id) {
    if (elector_.handle_timer(ctx, id)) return;
    if (id == paxos_gc_timer_) {
        paxos_gc_timer_ = ctx.set_timer(cfg_.paxos_gc_interval);
        paxos_.on_gc_tick(ctx);
        app_gc_tick(ctx);
        return;
    }
    if (id != tick_timer_) return;
    tick_timer_ = ctx.set_timer(cfg_.retry_interval);
    paxos_.on_tick(ctx);
    // Trusted group-wide but not leading and not mid-phase-1: a nacked
    // leadership attempt (restart with a stale promise) backed off and the
    // elector will not re-fire — without this retry nobody ever leads.
    if (cfg_.election_enabled && elector_.trusts_self(ctx) &&
        !paxos_.is_leader() && !paxos_.establishing())
        paxos_.maybe_lead(ctx);
    if (paxos_.is_leader()) leader_tick(ctx);
}

void GroupReplica::send_to_dests(Context& ctx, const AppMessage& m,
                                 const Buffer& wire, bool broadcast) const {
    for (const GroupId g : m.dests) {
        if (g == g0_) continue;
        if (broadcast) {
            for (const ProcessId p : topo_.members(g)) ctx.send(p, wire);
        } else {
            ctx.send(topo_.initial_leader(g), wire);
        }
    }
}

void GroupReplica::send_to_group(Context& ctx, const Buffer& wire) const {
    for (const ProcessId p : topo_.members(g0_))
        if (p != pid_) ctx.send(p, wire);
}

void GroupReplica::deliver(Context& ctx, Timestamp gts, const AppMessage& m,
                           bool record_stage) {
    max_delivered_gts_ = gts;
    if (cfg_.wal)
        cfg_.wal->append(wal::tag(wal::RecordType::watermark),
                         wal::encode_watermark(max_delivered_gts_));
    if (record_stage)
        stages_.record(obs::Stage::delivered, m.submit_ts, ctx.now());
    sink_(ctx, g0_, m);
}

// --- application-log retention (the wbcast-style delivered floor) ------------

void GroupReplica::app_gc_tick(Context& ctx) {
    if (paxos_.is_leader()) {
        run_app_gc(ctx);
        return;
    }
    // Idle members stay silent: nothing delivered means nothing to prune.
    if (max_delivered_gts_ == bottom_ts) return;
    const ProcessId leader = paxos_.leader_hint();
    if (leader == pid_ || leader == invalid_process) return;
    ctx.send(leader, proto_wire(info_.gc_status, invalid_msg,
                                ::wbam::GcStatusMsg{max_delivered_gts_}));
}

void GroupReplica::handle_gc_status(ProcessId from,
                                    const ::wbam::GcStatusMsg& m) {
    if (!paxos_.is_leader()) return;  // stale: the reporter will re-aim
    delivered_floor_.note(from, m.max_delivered_gts);
}

void GroupReplica::run_app_gc(Context& ctx) {
    delivered_floor_.note(pid_, max_delivered_gts_);
    const Timestamp floor = delivered_floor_.floor();
    if (floor == bottom_ts) return;
    const std::size_t before = compacted_count_;
    compact_below(floor);
    if (compacted_count_ > before)
        obs::events().note("gc_prune",
                           std::string(info_.name) + ": compacted " +
                               std::to_string(compacted_count_ - before) +
                               " entries at floor " + to_string(floor),
                           ctx.now());
    // Announce every round, not only on change: a member that missed an
    // earlier announcement (partition, snapshot heal) learns here.
    send_to_group(ctx, proto_wire(info_.gc_prune, invalid_msg,
                                  ::wbam::GcPruneMsg{floor}));
}

void GroupReplica::handle_gc_prune(const ::wbam::GcPruneMsg& m) {
    compact_below(std::min(m.floor, max_delivered_gts_));
}

void GroupReplica::compact_below(Timestamp floor) {
    // A message delivered by every member of the group drops its payload;
    // the ordering facts stay, so late inter-group retries and leader
    // recovery remain correct (mirrors wbcast::compact).
    std::uint64_t n = 0;
    for (auto& [id, e] : entries_) {
        if (!delivered_here(e) || e.compacted || e.gts > floor) continue;
        e.msg.payload = BufferSlice{};
        e.compacted = true;
        ++compacted_count_;
        ++n;
    }
    if (n > 0) obs::metrics().counter("gc/compacted_entries").add(n);
}

// --- consensus-log retention: state transfer --------------------------------

Bytes GroupReplica::state_snapshot(Timestamp strip_upto) const {
    // Entries the receiver already delivered are omitted outright — it
    // keeps its own record of them (install_state preserves the delivered
    // past), so the snapshot's entry count is bounded by the receiver's gap
    // plus the undelivered tail, never the run length. The id sort keeps
    // unordered_map iteration order out of the bytes.
    std::vector<MsgId> ids;
    ids.reserve(entries_.size());
    for (const auto& [id, e] : entries_)
        if (!(delivered_here(e) && e.gts <= strip_upto)) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    codec::Writer w;
    codec::write_field(w, clock_);
    w.varint(ids.size());
    for (const MsgId id : ids) {
        // `delivered` tells the installer to replay the message through
        // its own sink; `stripped` marks an entry shipped without payload.
        const Entry& e = entries_.at(id);
        codec::write_field(w, e.msg);
        codec::write_field(w, static_cast<std::uint8_t>(e.phase));
        codec::write_field(w, e.lts);
        codec::write_field(w, e.gts);
        encode_entry_extra(w, id);
        codec::write_field(w, delivered_here(e));
        codec::write_field(w, e.compacted);
    }
    return std::move(w).take();
}

bool GroupReplica::can_serve_snapshot(Timestamp strip_upto) const {
    for (const auto& [id, e] : entries_)
        if (e.compacted && e.gts > strip_upto) return false;
    return true;
}

void GroupReplica::install_state(Context& ctx, const BufferSlice& state) {
    // Keep the delivered past: the snapshot omits everything we reported
    // as delivered, so our own entries (full payloads or floor stubs) stay
    // the record of it. Every undelivered entry is replaced by the
    // responder's authoritative view.
    std::erase_if(entries_,
                  [&](const auto& kv) { return !delivered_here(kv.second); });
    pending_by_lts_.clear();
    committed_by_gts_.clear();
    forget_undelivered();
    // Messages the snapshotting member had already delivered: replayed
    // below in gts order, so this member's delivery sequence stays the
    // group's sequence (the watermark skips what we delivered pre-gap).
    std::map<Timestamp, MsgId> replay;
    codec::Reader r(state);
    codec::read_field(r, clock_);
    const std::size_t n = r.length();
    for (std::size_t i = 0; i < n; ++i) {
        AppMessage msg;
        std::uint8_t phase = 0;
        Timestamp lts;
        Timestamp gts;
        bool delivered = false;
        bool stripped = false;
        codec::read_field(r, msg);
        codec::read_field(r, phase);
        codec::read_field(r, lts);
        codec::read_field(r, gts);
        const bool keep = entries_.count(msg.id) == 0;
        decode_entry_extra(r, msg.id, keep);
        codec::read_field(r, delivered);
        codec::read_field(r, stripped);
        if (!keep) continue;  // our delivered past wins
        Entry& e = entries_[msg.id];
        e.msg = msg;
        // entries_ is long-lived: detach from the snapshot wire image.
        e.msg.payload = e.msg.payload.compact();
        e.phase = static_cast<Phase>(phase);
        e.lts = lts;
        e.gts = gts;
        e.compacted = stripped;
        if (e.phase == Phase::proposed) {
            pending_by_lts_.emplace(lts, msg.id);
        } else if (e.phase == Phase::committed) {
            if (delivered) {
                if (!stripped) replay.emplace(gts, msg.id);
            } else {
                committed_by_gts_.emplace(gts, msg.id);
            }
        }
    }
    r.expect_done();
    for (const auto& [gts, id] : replay)
        if (gts > max_delivered_gts_)  // else delivered before the gap
            deliver(ctx, gts, entries_.at(id).msg, /*record_stage=*/false);
    log::info(info_.name, " p", pid_, " installed state snapshot (", n,
              " entries)");
}

}  // namespace wbam::paxos
