// The black-box construction of §IV shared by FT-Skeen and FastCast: each
// group is a state machine over multi-Paxos that simulates one reliable
// Skeen process. This base owns everything the two protocols have in
// common — the consensus engine, the leader elector, the application log
// of entries with its timestamp indexes, WAL replay, app-log GC (payload
// stubs below the group-wide delivered floor), state snapshots for the
// paxos catch-up path and the delivery step. A protocol subclass keeps
// only how the leader orders messages: its replicated commands (`apply`),
// its inter-group messages (`handle_protocol`), its client entry point
// (`handle_multicast`), its periodic re-drive (`leader_tick`) and its
// leader-volatile maps (`forget_undelivered`).
#ifndef WBAM_PAXOS_GROUP_REPLICA_HPP
#define WBAM_PAXOS_GROUP_REPLICA_HPP

#include <map>
#include <unordered_map>

#include "elect/elector.hpp"
#include "multicast/api.hpp"
#include "multicast/gc_floor.hpp"
#include "obs/stage.hpp"
#include "paxos/multipaxos.hpp"

namespace wbam::paxos {

class GroupReplica : public Process {
public:
    // The engine and elector callbacks capture `this`.
    GroupReplica(const GroupReplica&) = delete;
    GroupReplica& operator=(const GroupReplica&) = delete;

    void on_start(Context& ctx) override;
    void on_message(Context& ctx, ProcessId from,
                    const BufferSlice& bytes) override;
    void on_timer(Context& ctx, TimerId id) override;

    bool is_leader() const { return paxos_.is_leader(); }
    std::uint64_t clock() const { return clock_; }
    Timestamp max_delivered_gts() const { return max_delivered_gts_; }
    // Consensus-log retention introspection for tests and benches.
    const MultiPaxos& paxos() const { return paxos_; }
    // Application-log retention introspection: total entries (stubs
    // included) and how many were compacted to stubs by the delivered
    // floor.
    std::size_t entry_count() const { return entries_.size(); }
    std::size_t compacted_count() const { return compacted_count_; }

    // Deterministic serialization of the replicated state (clock, then
    // entries in ascending message-id order), as shipped by the paxos
    // catch-up path. Entries the receiver has already delivered (delivered
    // here, gts at-or-below `strip_upto`) are OMITTED — the receiver keeps
    // its own record of them — so both the transfer size and the
    // snapshot's entry count stay proportional to the receiver's gap, not
    // the run length. An entry shipped without its payload (possible only
    // when serving below the compaction floor, which can_serve_snapshot
    // refuses) is explicitly flagged, never an invisibly empty payload.
    // The no-arg form strips by this member's own watermark: two quiesced
    // members produce byte-identical snapshots (mid-flight, FastCast
    // followers' delivered flags lag the leader's by one DELIVER_FLOOR).
    Bytes state_snapshot(Timestamp strip_upto) const;
    Bytes state_snapshot() const { return state_snapshot(max_delivered_gts_); }
    // False when this member holds only payload stubs for entries a
    // requester with watermark `strip_upto` would still have to replay —
    // serving it would deliver empty payloads. Such a member declines to
    // serve and the requester falls back to another peer. Since the
    // delivered floor never passes any member's reported watermark, every
    // real requester can be served; only a hypothetical blank member
    // (below every stub) cannot.
    bool can_serve_snapshot(Timestamp strip_upto) const;

protected:
    // What tells the protocols apart outside their ordering logic: the
    // name of their stage histograms and log lines, and the Module::proto
    // type values their app-log GC exchange is tagged with.
    struct ProtocolInfo {
        const char* name;
        std::uint8_t gc_status;
        std::uint8_t gc_prune;
    };

    GroupReplica(ProtocolInfo info, const Topology& topo, ProcessId pid,
                 DeliverySink sink, const ReplicaConfig& cfg);

    enum class Phase : std::uint8_t { start, proposed, committed };

    struct Entry {
        AppMessage msg;
        Phase phase = Phase::start;
        Timestamp lts;
        Timestamp gts;
        // True when the payload was dropped: the entry is a stub holding
        // only the ordering facts. Set by the delivered-floor compaction
        // (every group member delivered the message) or by installing a
        // below-floor snapshot; distinguishable from a legitimately empty
        // payload.
        bool compacted = false;
    };

    // --- protocol hooks -----------------------------------------------------
    // Applies one chosen command (replicated state changes only here).
    virtual void apply(Context& ctx, const Command& cmd) = 0;
    // A client MULTICAST addressed to this group, at its leader.
    virtual void handle_multicast(Context& ctx, const AppMessage& m) = 0;
    // A Module::proto message other than the GC exchange.
    virtual void handle_protocol(Context& ctx, ProcessId from,
                                 codec::EnvelopeView& env) = 0;
    // The leader's retry tick: re-drive what leader changes may have lost.
    virtual void leader_tick(Context& ctx) = 0;
    // A state snapshot replaced the undelivered entries: forget whatever
    // the protocol built on them (leader-volatile maps, per-entry extras).
    virtual void forget_undelivered() = 0;
    // Runs after WAL replay rebuilt the replicated state.
    virtual void after_replay(Context&) {}
    // Per-entry state the base does not know, written into each snapshot
    // entry after its timestamps; the decoder must consume exactly those
    // bytes and keep them only if `keep` (our own delivered past wins).
    virtual void encode_entry_extra(codec::Writer&, MsgId) const {}
    virtual void decode_entry_extra(codec::Reader&, MsgId, bool /*keep*/) {}

    // --- helpers for the protocols -------------------------------------------
    template <typename Kind, typename Body>
    static Command make_cmd(Kind kind, MsgId about, const Body& body) {
        codec::Writer w;
        w.u8(static_cast<std::uint8_t>(kind));
        body.encode(w);
        return Command{about, std::move(w).take()};
    }
    template <typename Type, typename Body>
    static Buffer proto_wire(Type type, MsgId about, const Body& body) {
        return codec::encode_envelope(codec::Module::proto,
                                      static_cast<std::uint8_t>(type), about,
                                      body);
    }
    // Sends to the other destination groups of `m`: their initial leaders,
    // or every member when `broadcast` (the leader guess may be stale after
    // remote leader changes).
    void send_to_dests(Context& ctx, const AppMessage& m, const Buffer& wire,
                       bool broadcast) const;
    // Sends to every other member of this group.
    void send_to_group(Context& ctx, const Buffer& wire) const;
    // Delivered at this member: committed and out of the delivery queue.
    bool delivered_here(const Entry& e) const {
        return e.phase == Phase::committed &&
               committed_by_gts_.count(e.gts) == 0;
    }
    // The delivery step: advance the watermark (and make it durable), record
    // the delivered stage, hand the message to the application. Snapshot
    // replays skip the stage: their submit time predates the gap.
    void deliver(Context& ctx, Timestamp gts, const AppMessage& m,
                 bool record_stage = true);

    Topology topo_;
    ProcessId pid_;
    GroupId g0_;
    ReplicaConfig cfg_;
    obs::StageRecorder stages_;
    MultiPaxos paxos_;

    // --- replicated state (only mutated in apply or install_state) ---------
    std::uint64_t clock_ = 0;
    std::unordered_map<MsgId, Entry> entries_;
    std::map<Timestamp, MsgId> pending_by_lts_;
    std::map<Timestamp, MsgId> committed_by_gts_;

    // --- per-replica delivery cursor ---------------------------------------
    // Deliveries happen in strictly increasing gts order at each member;
    // the watermark deduplicates snapshot-install and WAL replays.
    Timestamp max_delivered_gts_;

private:
    void dispatch_message(Context& ctx, ProcessId from,
                          const BufferSlice& bytes);
    void dispatch_timer(Context& ctx, TimerId id);
    // Boot-time WAL restore (two passes: watermark, then paxos records).
    void replay_wal(Context& ctx);
    void app_gc_tick(Context& ctx);
    void run_app_gc(Context& ctx);
    void handle_gc_status(ProcessId from, const ::wbam::GcStatusMsg& m);
    void handle_gc_prune(const ::wbam::GcPruneMsg& m);
    void compact_below(Timestamp floor);
    void install_state(Context& ctx, const BufferSlice& state);

    ProtocolInfo info_;
    DeliverySink sink_;
    elect::Elector elector_;
    DeliveredFloor delivered_floor_;  // leader-side report fold
    std::size_t compacted_count_ = 0;
    TimerId tick_timer_ = invalid_timer;
    TimerId paxos_gc_timer_ = invalid_timer;
};

}  // namespace wbam::paxos

#endif  // WBAM_PAXOS_GROUP_REPLICA_HPP
