#include "paxos/multipaxos.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "wal/log.hpp"
#include "wal/records.hpp"

namespace wbam::paxos {

namespace {
constexpr auto mod = codec::Module::paxos;
std::uint8_t type_of(MsgType t) { return static_cast<std::uint8_t>(t); }
}  // namespace

MultiPaxos::MultiPaxos(std::vector<ProcessId> members, int quorum, ApplyFn apply,
                       PaxosConfig cfg)
    : members_(std::move(members)), quorum_(static_cast<std::size_t>(quorum)),
      apply_(std::move(apply)), cfg_(cfg),
      chosen_hist_(&obs::metrics().histogram("stage/paxos/chosen")),
      applied_hist_(&obs::metrics().histogram("stage/paxos/applied")) {
    WBAM_ASSERT(!members_.empty());
    WBAM_ASSERT(quorum_ >= 1 && quorum_ <= members_.size());
}

void MultiPaxos::set_state_handlers(SnapshotFn snapshot, InstallFn install,
                                    MarkFn mark) {
    snapshot_ = std::move(snapshot);
    install_ = std::move(install);
    mark_ = std::move(mark);
}

void MultiPaxos::start(Context& ctx) {
    self_ = ctx.self();
    promised_ = Ballot{1, members_.front()};
    my_ballot_ = promised_;
    leading_ = self_ == members_.front();
}

bool MultiPaxos::submit(Context& ctx, Command cmd) {
    if (leading_) {
        submitted_at_.emplace(next_slot_, ctx.now());
        propose_at(ctx, next_slot_++, std::move(cmd));
        return true;
    }
    if (phase1_pending_) {
        queue_.push_back(std::move(cmd));
        return true;
    }
    return false;
}

void MultiPaxos::propose_at(Context& ctx, std::uint64_t slot, Command cmd) {
    ctx.charge(cfg_.cmd_cost);
    auto& inflight = inflight_[slot];
    inflight.cmd = std::move(cmd);
    inflight.last_sent = ctx.now();
    ctx.send_many(members_, codec::encode_envelope(
                                 mod, type_of(MsgType::p2a), inflight.cmd.about,
                                 P2aMsg{my_ballot_, slot, inflight.cmd}));
}

void MultiPaxos::maybe_lead(Context& ctx) {
    if (leading_ || phase1_pending_) return;
    my_ballot_ =
        Ballot{std::max(promised_.round, my_ballot_.round) + 1, self_};
    phase1_pending_ = true;
    phase1_started_ = ctx.now();
    p1b_acks_.clear();
    log::info("paxos p", self_, " phase1 at ", to_string(my_ballot_));
    const Buffer wire = codec::encode_envelope(
        mod, type_of(MsgType::p1a), invalid_msg,
        P1aMsg{my_ballot_, applied_upto_ + 1});
    for (const ProcessId p : members_) ctx.send(p, wire);
}

bool MultiPaxos::handle_message(Context& ctx, ProcessId from,
                                codec::EnvelopeView& env) {
    if (env.module != mod) return false;
    switch (static_cast<MsgType>(env.type)) {
        case MsgType::p1a: handle_p1a(ctx, from, P1aMsg::decode(env.body)); break;
        case MsgType::p1b: handle_p1b(ctx, from, P1bMsg::decode(env.body)); break;
        case MsgType::p2a: handle_p2a(ctx, from, P2aMsg::decode(env.body)); break;
        case MsgType::p2b: handle_p2b(ctx, from, P2bMsg::decode(env.body)); break;
        case MsgType::chosen: handle_chosen(ctx, ChosenMsg::decode(env.body)); break;
        case MsgType::nack: handle_nack(NackMsg::decode(env.body)); break;
        case MsgType::gc_status:
            handle_gc_status(ctx, from, GcStatusMsg::decode(env.body));
            break;
        case MsgType::gc_prune:
            handle_gc_prune(ctx, from, GcPruneMsg::decode(env.body));
            break;
        case MsgType::catchup_request:
            handle_catchup_request(ctx, from, CatchupRequestMsg::decode(env.body));
            break;
        case MsgType::catchup_snapshot:
            handle_catchup_snapshot(ctx, CatchupSnapshotMsg::decode(env.body));
            break;
    }
    return true;
}

void MultiPaxos::handle_p1a(Context& ctx, ProcessId from, const P1aMsg& m) {
    if (m.ballot < promised_) {
        ctx.send(from, codec::encode_envelope(mod, type_of(MsgType::nack),
                                              invalid_msg, NackMsg{promised_}));
        return;
    }
    if (promised_ != m.ballot) {
        promised_ = m.ballot;
        // A promise is a pledge to ignore lower ballots forever; forgetting
        // it across a restart could let an old leader choose a second value.
        if (cfg_.wal)
            cfg_.wal->append(wal::tag(wal::RecordType::paxos_promised),
                             wal::encode_promised(promised_));
    }
    if (m.ballot.leader() != self_) {
        leading_ = false;
        phase1_pending_ = false;
    }
    P1bMsg reply{m.ballot, {}, {}, pruned_upto_};
    for (const auto& [slot, entry] : accepted_) {
        if (slot < m.low_slot) continue;
        if (chosen_.count(slot)) continue;
        reply.accepted.push_back(AcceptedEntry{slot, entry.first, entry.second});
    }
    for (const auto& [slot, cmd] : chosen_) {
        if (slot < m.low_slot) continue;
        reply.known_chosen.push_back(ChosenEntry{slot, cmd});
    }
    ctx.send(from, codec::encode_envelope(mod, type_of(MsgType::p1b),
                                          invalid_msg, reply));
}

void MultiPaxos::handle_p1b(Context& ctx, ProcessId from, const P1bMsg& m) {
    if (!phase1_pending_ || m.ballot != my_ballot_) return;
    // Catch up on chosen slots immediately.
    for (const ChosenEntry& e : m.known_chosen)
        mark_chosen(ctx, e.slot, e.cmd, false);
    p1b_acks_[from] = m;
    if (p1b_acks_.size() < quorum_) return;
    finish_phase1(ctx);
}

void MultiPaxos::finish_phase1(Context& ctx) {
    // Adopt the highest-ballot accepted value for every open slot.
    std::map<std::uint64_t, std::pair<Ballot, Command>> adopt;
    std::uint64_t max_slot = applied_upto_;
    // Slots at-or-below `base` were pruned by some quorum member: they were
    // chosen and applied group-wide, so re-proposing there (in particular
    // the no-op gap filler) could choose a second value for a settled slot.
    // The quorum-intersection argument covers everything above base: any
    // prune floor was backed by a quorum of applied reports, which
    // intersects our phase-1 quorum in a member that either still retains
    // the chosen entry (it arrives in known_chosen) or reports its pruned
    // floor here.
    std::uint64_t base = pruned_upto_;
    ProcessId snap_peer = invalid_process;
    for (const auto& [p, ack] : p1b_acks_) {
        if (ack.pruned_upto > base) {
            base = ack.pruned_upto;
            snap_peer = p;
        }
        for (const AcceptedEntry& e : ack.accepted) {
            max_slot = std::max(max_slot, e.slot);
            auto [it, inserted] = adopt.try_emplace(
                e.slot, std::make_pair(e.ballot, e.cmd));
            if (!inserted && e.ballot > it->second.first)
                it->second = {e.ballot, e.cmd};
        }
    }
    if (!chosen_.empty()) max_slot = std::max(max_slot, chosen_.rbegin()->first);
    max_slot = std::max(max_slot, base);
    phase1_pending_ = false;
    leading_ = true;
    p1b_acks_.clear();
    next_slot_ = max_slot + 1;
    // Re-propose adopted values at their original slots and fill gaps with
    // no-ops so the log applies without holes. Slots at-or-below base are
    // settled; if we have not applied them ourselves we fetch a snapshot.
    for (std::uint64_t slot = std::max(applied_upto_, base) + 1;
         slot <= max_slot; ++slot) {
        if (chosen_.count(slot)) continue;
        const auto it = adopt.find(slot);
        propose_at(ctx, slot, it != adopt.end() ? it->second.second : Command{});
    }
    if (base > applied_upto_ && snap_peer != invalid_process) {
        // Remember the floor so on_gc_tick keeps retrying if this request
        // (or its reply) is lost; applies stall until the snapshot lands.
        gc_floor_ = std::max(gc_floor_, base);
        request_catchup(ctx, snap_peer);
    }
    // Drain commands queued while phase 1 was running.
    while (!queue_.empty()) {
        propose_at(ctx, next_slot_++, std::move(queue_.front()));
        queue_.pop_front();
    }
    log::info("paxos p", self_, " leads ", to_string(my_ballot_), " from slot ",
              next_slot_);
}

void MultiPaxos::handle_p2a(Context& ctx, ProcessId from, const P2aMsg& m) {
    if (m.ballot < promised_) {
        ctx.send(from, codec::encode_envelope(mod, type_of(MsgType::nack),
                                              invalid_msg, NackMsg{promised_}));
        return;
    }
    if (promised_ != m.ballot) {
        promised_ = m.ballot;
        if (cfg_.wal)
            cfg_.wal->append(wal::tag(wal::RecordType::paxos_promised),
                             wal::encode_promised(promised_));
    }
    if (m.ballot.leader() != self_) {
        leading_ = false;
        phase1_pending_ = false;
    }
    // A retried P2a for an already-chosen slot is acked but not stored:
    // the acceptor entry would never be consulted (handle_p1a skips chosen
    // slots) and would re-pin the wire image mark_chosen released.
    if (!chosen_.count(m.slot)) {
        accepted_[m.slot] = {m.ballot, m.cmd};
        // An accept is durable before the P2b leaves (the commit barrier
        // holds sends until commit): a quorum that counted us must find us
        // again. The command payload rides as a retained slice of the wire
        // image.
        if (cfg_.wal)
            cfg_.wal->append(
                wal::tag(wal::RecordType::paxos_accepted),
                wal::encode_accepted_meta(m.slot, m.ballot, m.cmd.about),
                m.cmd.data);
    }
    ctx.send(from,
             codec::encode_envelope(mod, type_of(MsgType::p2b), m.cmd.about,
                                    P2bMsg{m.ballot, m.slot}));
}

void MultiPaxos::handle_p2b(Context& ctx, ProcessId from, const P2bMsg& m) {
    if (!leading_ || m.ballot != my_ballot_) return;
    const auto it = inflight_.find(m.slot);
    if (it == inflight_.end()) return;  // already chosen
    it->second.acks.insert(from);
    if (it->second.acks.size() < quorum_) return;
    Command cmd = std::move(it->second.cmd);
    inflight_.erase(it);
    mark_chosen(ctx, m.slot, std::move(cmd), true);
}

void MultiPaxos::handle_chosen(Context& ctx, const ChosenMsg& m) {
    mark_chosen(ctx, m.slot, m.cmd, false);
}

void MultiPaxos::mark_chosen(Context& ctx, std::uint64_t slot, Command cmd,
                             bool announce) {
    // A slot at-or-below the pruned floor was applied group-wide and erased
    // from the log; a late CHOSEN/P1B copy must not re-enter (nothing would
    // ever erase it again).
    if (slot <= pruned_upto_) {
        accepted_.erase(slot);
        return;
    }
    // The acceptor entry for a chosen slot is never consulted again
    // (handle_p1a skips chosen slots): release its share of the wire.
    // Unconditional, so a duplicate CHOSEN also releases anything a racing
    // P2a retry slipped back in.
    accepted_.erase(slot);
    const auto existing = chosen_.find(slot);
    if (existing != chosen_.end()) {
        // Paxos guarantees agreement: a slot can only be chosen once.
        WBAM_ASSERT_MSG(existing->second == cmd, "two values chosen for one slot");
        return;
    }
    // chosen_ is long-lived (kept for p1b catch-up of lagging members), so
    // the command detaches from the wire image it was decoded out of —
    // without this, every slot would pin a full P2a envelope. Leader-
    // submitted commands are already compact (no copy); commands learned
    // from CHOSEN/P1B wire messages copy once here, only when actually
    // inserted.
    cmd.data = cmd.data.compact();
    if (const auto sub = submitted_at_.find(slot);
        sub != submitted_at_.end() && ctx.now() >= sub->second)
        chosen_hist_->record(ctx.now() - sub->second);
    const auto it = chosen_.emplace(slot, std::move(cmd)).first;
    // Appended exactly once per slot (guarded by the emplace): replay
    // re-learns the slot and re-drives the apply path deterministically.
    if (cfg_.wal)
        cfg_.wal->append(wal::tag(wal::RecordType::paxos_chosen),
                         wal::encode_chosen_meta(slot, it->second.about),
                         it->second.data);
    if (announce) {
        std::vector<ProcessId> others;
        others.reserve(members_.size() - 1);
        for (const ProcessId p : members_)
            if (p != self_) others.push_back(p);
        ctx.send_many(others, codec::encode_envelope(
                                  mod, type_of(MsgType::chosen),
                                  it->second.about, ChosenMsg{slot, it->second}));
    }
    apply_ready(ctx);
}

void MultiPaxos::apply_ready(Context& ctx) {
    for (auto it = chosen_.find(applied_upto_ + 1); it != chosen_.end();
         it = chosen_.find(applied_upto_ + 1)) {
        ++applied_upto_;
        if (!it->second.is_noop()) apply_(ctx, it->first, it->second);
        if (const auto sub = submitted_at_.find(applied_upto_);
            sub != submitted_at_.end() && ctx.now() >= sub->second)
            applied_hist_->record(ctx.now() - sub->second);
    }
    // Applied in slot order: everything at-or-below the apply point is
    // settled (recorded or lost to a leader change) — keep the map bounded.
    submitted_at_.erase(submitted_at_.begin(),
                        submitted_at_.upper_bound(applied_upto_));
}

void MultiPaxos::handle_nack(const NackMsg& m) {
    if (m.promised > my_ballot_ && m.promised.leader() != self_) {
        leading_ = false;
        phase1_pending_ = false;
        // Fold the revealed round into our ballot: a restarted leader's
        // promise can be arbitrarily stale (it slept through elections),
        // and without this the next attempt would re-pick a ballot below
        // the nacker's promise and be refused forever.
        my_ballot_ = Ballot{m.promised.round, self_};
    }
}

// --- log retention & floor-based catch-up -----------------------------------

void MultiPaxos::prune_chosen(std::uint64_t floor) {
    // Never prune past our own apply point: entries in (applied_upto_,
    // floor] are choices we still have to apply in slot order.
    const std::uint64_t upto = std::min(floor, applied_upto_);
    if (upto <= pruned_upto_) return;
    chosen_.erase(chosen_.begin(), chosen_.upper_bound(upto));
    accepted_.erase(accepted_.begin(), accepted_.upper_bound(upto));
    inflight_.erase(inflight_.begin(), inflight_.upper_bound(upto));
    pruned_upto_ = upto;
}

void MultiPaxos::on_gc_tick(Context& ctx) {
    if (!cfg_.gc_enabled) return;
    if (gc_floor_ > applied_upto_) {
        // Still behind a floor we have learned about (healed member, or a
        // new leader whose phase 1 revealed a pruned prefix): keep asking
        // until healed — the earlier request or its reply may have been
        // lost, or the asked peer declined (it may itself hold only a
        // stripped snapshot). Ask the peer with the deepest *fresh* report
        // (a stale report may name a dead ex-leader) AND the leader hint,
        // so one unresponsive or unservable peer cannot starve us.
        const ProcessId hint = leading_ ? invalid_process : promised_.leader();
        ProcessId deepest = invalid_process;
        std::uint64_t best = 0;
        for (const auto& [p, rep] : gc_reports_) {
            if (p == self_ || rep.applied <= best) continue;
            if (ctx.now() - rep.at > 3 * cfg_.gc_interval) continue;
            best = rep.applied;
            deepest = p;
        }
        request_catchup(ctx, deepest);
        if (hint != deepest) request_catchup(ctx, hint);
    }
    if (!leading_) {
        // Report progress to the leader. A member that has applied nothing
        // stays silent: idle clusters then produce zero GC traffic, and
        // the quorum floor deliberately advances without it — a freshly
        // (re)started member is treated as lagging and catches up via
        // snapshot rather than pinning retention at slot 0.
        if (applied_upto_ == 0) return;
        const ProcessId leader = promised_.leader();
        if (leader == invalid_process || leader == self_) return;
        ctx.send(leader,
                 codec::encode_envelope(mod, type_of(MsgType::gc_status),
                                        invalid_msg,
                                        GcStatusMsg{applied_upto_}));
        return;
    }
    // Leader: fold in our own progress and compute the floor over fresh
    // reports. Requiring only a quorum (not every member) keeps retention
    // bounded while a member is down — that member catches up via snapshot
    // when it returns. Staleness keeps a silent member from pinning the
    // floor through its last report forever.
    gc_reports_[self_] = GcReport{applied_upto_, ctx.now()};
    const Duration fresh_window = 3 * cfg_.gc_interval;
    std::size_t fresh = 0;
    std::uint64_t floor = 0;
    bool first = true;
    for (const auto& [p, rep] : gc_reports_) {
        if (ctx.now() - rep.at > fresh_window) continue;
        ++fresh;
        floor = first ? rep.applied : std::min(floor, rep.applied);
        first = false;
    }
    if (fresh < quorum_) return;
    gc_floor_ = std::max(gc_floor_, floor);
    if (gc_floor_ == 0) return;  // nothing applied anywhere yet
    prune_chosen(gc_floor_);
    // Announce every round, not only on change: a member that healed after
    // missing earlier announcements learns here that it is behind the
    // floor (or merely behind our apply point) and requests catch-up.
    const Buffer wire = codec::encode_envelope(
        mod, type_of(MsgType::gc_prune), invalid_msg,
        GcPruneMsg{gc_floor_, applied_upto_});
    for (const ProcessId p : members_)
        if (p != self_) ctx.send(p, wire);
}

void MultiPaxos::handle_gc_status(Context& ctx, ProcessId from,
                                  const GcStatusMsg& m) {
    auto& rep = gc_reports_[from];
    rep.applied = std::max(rep.applied, m.applied_upto);
    rep.at = ctx.now();
}

void MultiPaxos::handle_gc_prune(Context& ctx, ProcessId from,
                                 const GcPruneMsg& m) {
    gc_floor_ = std::max(gc_floor_, m.floor);
    prune_chosen(gc_floor_);
    // Behind the announcing leader (healed partition, lost CHOSEN traffic):
    // ask it for the missing suffix — or, below the floor, its state.
    if (m.applied_upto > applied_upto_) request_catchup(ctx, from);
}

void MultiPaxos::request_catchup(Context& ctx, ProcessId peer) {
    if (peer == invalid_process || peer == self_) return;
    const auto it = catchup_requested_.find(peer);
    if (it != catchup_requested_.end() &&
        ctx.now() - it->second < cfg_.retry_interval)
        return;
    catchup_requested_[peer] = ctx.now();
    ctx.send(peer,
             codec::encode_envelope(
                 mod, type_of(MsgType::catchup_request), invalid_msg,
                 CatchupRequestMsg{applied_upto_, mark_ ? mark_() : Bytes{}}));
}

void MultiPaxos::handle_catchup_request(Context& ctx, ProcessId from,
                                        const CatchupRequestMsg& m) {
    CatchupSnapshotMsg reply;
    std::uint64_t suffix_from = m.applied_upto;
    if (m.applied_upto < pruned_upto_) {
        // The requester's gap reaches below our retained log: ship the
        // applier state as of our apply point, plus everything retained
        // beyond it. Without state handlers — or when the host declines
        // (empty snapshot: it holds only stripped stubs the requester
        // would need) — we cannot help; a peer with a deeper log has to
        // answer instead.
        if (!snapshot_) return;
        Bytes state = snapshot_(m.mark);
        if (state.empty()) return;
        reply.snap_upto = applied_upto_;
        reply.state = std::move(state);
        suffix_from = applied_upto_;
    }
    for (auto it = chosen_.upper_bound(suffix_from); it != chosen_.end(); ++it)
        reply.entries.push_back(ChosenEntry{it->first, it->second});
    if (reply.snap_upto == 0 && reply.entries.empty()) return;  // nothing to offer
    log::info("paxos p", self_, " serves catchup to p", from, " (snap ",
              reply.snap_upto, ", ", reply.entries.size(), " entries)");
    ctx.send(from, codec::encode_envelope(mod, type_of(MsgType::catchup_snapshot),
                                          invalid_msg, reply));
}

void MultiPaxos::handle_catchup_snapshot(Context& ctx,
                                         const CatchupSnapshotMsg& m) {
    if (m.snap_upto > applied_upto_) {
        WBAM_ASSERT_MSG(install_, "paxos snapshot received without InstallFn");
        install_(ctx, m.state);
        // The snapshot supersedes pruned history we never logged (we were
        // below the floor): it must survive a restart or replay would hit
        // the same unbridgeable gap.
        if (cfg_.wal)
            cfg_.wal->append(wal::tag(wal::RecordType::paxos_snapshot),
                             wal::encode_snapshot_meta(m.snap_upto), m.state);
        applied_upto_ = m.snap_upto;
        // Everything at-or-below the snapshot point is superseded by it.
        chosen_.erase(chosen_.begin(), chosen_.upper_bound(m.snap_upto));
        accepted_.erase(accepted_.begin(), accepted_.upper_bound(m.snap_upto));
        inflight_.erase(inflight_.begin(), inflight_.upper_bound(m.snap_upto));
        pruned_upto_ = std::max(pruned_upto_, m.snap_upto);
        next_slot_ = std::max(next_slot_, applied_upto_ + 1);
        log::info("paxos p", self_, " installed snapshot upto ", m.snap_upto);
    }
    // The suffix rides the normal chosen path (compaction, in-order apply).
    for (const ChosenEntry& e : m.entries) mark_chosen(ctx, e.slot, e.cmd, false);
    apply_ready(ctx);
}

// --- WAL replay --------------------------------------------------------------

void MultiPaxos::begin_restore() {
    // Drop the bootstrap leadership start() granted members[0]: a restarted
    // member rejoins as a follower (finish_restore keeps it that way), and
    // apply callbacks that submit() during replay are refused instead of
    // growing inflight_ with muted proposals.
    leading_ = false;
    phase1_pending_ = false;
}

void MultiPaxos::restore_promised(const Ballot& b) {
    promised_ = std::max(promised_, b);
}

void MultiPaxos::restore_accepted(std::uint64_t slot, const Ballot& b,
                                  Command cmd) {
    if (slot <= pruned_upto_ || chosen_.count(slot)) return;
    // The payload aliases the log's boot image, which the wal::Log pins for
    // its own lifetime anyway; detaching here would only duplicate it.
    accepted_[slot] = {b, std::move(cmd)};
}

void MultiPaxos::restore_chosen(Context& ctx, std::uint64_t slot, Command cmd) {
    // The normal learn path: compaction, in-order apply through the host's
    // ApplyFn — this is what rebuilds the application state.
    mark_chosen(ctx, slot, std::move(cmd), false);
}

void MultiPaxos::restore_snapshot(Context& ctx, std::uint64_t snap_upto,
                                  const BufferSlice& state) {
    if (snap_upto <= applied_upto_) return;
    WBAM_ASSERT_MSG(install_, "wal snapshot replay without InstallFn");
    install_(ctx, state);
    applied_upto_ = snap_upto;
    chosen_.erase(chosen_.begin(), chosen_.upper_bound(snap_upto));
    accepted_.erase(accepted_.begin(), accepted_.upper_bound(snap_upto));
    pruned_upto_ = std::max(pruned_upto_, snap_upto);
    next_slot_ = std::max(next_slot_, applied_upto_ + 1);
}

void MultiPaxos::finish_restore() {
    std::uint64_t max_slot = std::max(applied_upto_, pruned_upto_);
    if (!chosen_.empty()) max_slot = std::max(max_slot, chosen_.rbegin()->first);
    if (!accepted_.empty())
        max_slot = std::max(max_slot, accepted_.rbegin()->first);
    next_slot_ = std::max(next_slot_, max_slot + 1);
    // Never resume leadership silently: the pre-crash leader's ballot may
    // have been superseded while we were down. The elector re-elects us if
    // appropriate; maybe_lead then picks a ballot above the restored
    // promise.
    leading_ = false;
    phase1_pending_ = false;
    inflight_.clear();
    queue_.clear();
    log::info("paxos p", self_, " restored from wal: applied ", applied_upto_,
              ", chosen ", chosen_.size(), ", accepted ", accepted_.size(),
              ", promised ", to_string(promised_));
}

void MultiPaxos::on_tick(Context& ctx) {
    if (phase1_pending_ &&
        ctx.now() - phase1_started_ >= cfg_.retry_interval) {
        // Phase 1 stalled (lost messages or a competing candidate): retry
        // with a fresh ballot.
        phase1_pending_ = false;
        maybe_lead(ctx);
        return;
    }
    if (!leading_) return;
    for (auto& [slot, inflight] : inflight_) {
        if (ctx.now() - inflight.last_sent < cfg_.retry_interval) continue;
        inflight.last_sent = ctx.now();
        const Buffer wire = codec::encode_envelope(
            mod, type_of(MsgType::p2a), inflight.cmd.about,
            P2aMsg{my_ballot_, slot, inflight.cmd});
        for (const ProcessId p : members_) ctx.send(p, wire);
    }
}

}  // namespace wbam::paxos
