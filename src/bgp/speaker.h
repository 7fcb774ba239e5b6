// A complete BGP-4 speaker: sessions, RIBs, decision process, policy, and
// update generation. One speaker models one AS border (the paper's
// experiments use one speaker per AS; centralized control per Section 3).
//
// Transport is abstracted: the speaker consumes raw message bytes and emits
// (peer, bytes) pairs; the discrete-event simulator (or a test) moves them.
// This is the baseline "Quagga" stand-in that D-BGP's Beagle-equivalent
// extends, and the unmodified comparator for the E1 stress benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bgp/attr_interner.h"
#include "bgp/decision.h"
#include "bgp/fsm.h"
#include "bgp/message.h"
#include "bgp/policy.h"
#include "bgp/rib.h"
#include "bgp/types.h"
#include "telemetry/peer_metrics.h"
#include "util/arena.h"

namespace dbgp::bgp {

// One encoded message queued for a peer.
struct Outgoing {
  PeerId peer = kInvalidPeer;
  std::vector<std::uint8_t> bytes;
};

// Counters exposed for benchmarks and tests. Each field is mirrored into
// the process-wide telemetry registry under "bgp.speaker.<field>"
// (aggregated across speakers).
struct SpeakerStats {
  std::uint64_t updates_received = 0;
  std::uint64_t prefixes_processed = 0;  // NLRI + withdrawals handled
  std::uint64_t updates_sent = 0;
  std::uint64_t routes_rejected_by_policy = 0;
  std::uint64_t routes_rejected_by_loop = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t refreshes_received = 0;
};

class BgpSpeaker {
 public:
  struct Config {
    AsNumber asn = 0;
    RouterId router_id;
    std::uint32_t hold_time = 90;
    net::Ipv4Address next_hop;  // address used for next-hop-self on export
    // MinRouteAdvertisementInterval (RFC 4271 9.2.1.1), seconds. 0 disables
    // pacing (every delta is sent immediately). With a non-zero MRAI,
    // updates toward a peer are batched: at most one burst per interval,
    // carrying only the latest state per prefix (intermediate flaps are
    // coalesced away). Withdrawals are paced too (simplified from the RFC,
    // which allows immediate withdraws).
    double mrai = 0.0;
  };

  explicit BgpSpeaker(Config config);

  // Movable (containers keep pointing at the same heap-pinned arena and
  // interner, which move over with the unique_ptrs), but not move-assignable:
  // member-wise move assignment would replace the arena while arena-backed
  // maps still reference it.
  BgpSpeaker(BgpSpeaker&&) noexcept = default;
  BgpSpeaker& operator=(BgpSpeaker&&) = delete;

  // -- Configuration ------------------------------------------------------
  PeerId add_peer(AsNumber peer_as, PolicyChain import_policy = {},
                  PolicyChain export_policy = {});
  std::size_t peer_count() const noexcept { return peers_.size(); }
  AsNumber peer_as(PeerId peer) const { return peers_.at(peer).asn; }
  const Config& config() const noexcept { return config_; }

  // -- Session control ----------------------------------------------------
  // Starts the session toward `peer` (manual start + instant TCP connect in
  // the sim model); returns the OPEN to transmit.
  std::vector<Outgoing> start_peer(PeerId peer, double now);
  std::vector<Outgoing> stop_peer(PeerId peer, double now);
  bool session_established(PeerId peer) const;

  // -- Input --------------------------------------------------------------
  // Feeds one complete raw message from a peer. Returns messages to send.
  std::vector<Outgoing> handle_bytes(PeerId from, std::span<const std::uint8_t> data,
                                     double now);
  // Same, for an already-decoded message (used by tests and by D-BGP).
  std::vector<Outgoing> handle_message(PeerId from, const Message& m, double now);

  // Drives timers; may emit KEEPALIVEs, flush MRAI-paced deltas, or tear
  // down expired sessions.
  std::vector<Outgoing> tick(double now);

  // RFC 2918: asks `peer` to resend its table (e.g., after an import-policy
  // change on our side). The peer answers with a fresh full table.
  std::vector<Outgoing> request_refresh(PeerId peer, double now);

  // -- Origination --------------------------------------------------------
  std::vector<Outgoing> originate(const net::Prefix& prefix, double now);
  std::vector<Outgoing> withdraw_origin(const net::Prefix& prefix, double now);

  // -- Inspection ---------------------------------------------------------
  const LocRib& loc_rib() const noexcept { return loc_rib_; }
  const AdjRibIn& adj_rib_in() const noexcept { return adj_rib_in_; }
  const AdjRibOut& adj_rib_out() const noexcept { return adj_rib_out_; }
  const SpeakerStats& stats() const noexcept { return stats_; }
  const AttrInterner& attr_interner() const noexcept { return *interner_; }
  const util::RibArena& rib_arena() const noexcept { return *arena_; }

 private:
  struct Peer {
    AsNumber asn = 0;
    SessionFsm fsm;
    PolicyChain import_policy;
    PolicyChain export_policy;
    // MRAI state: when we may next send, and the coalesced pending deltas
    // (value = interned attributes to announce; nullopt = withdraw).
    double next_send = 0.0;
    std::map<net::Prefix, std::optional<AttrHandle>> pending;
  };

  std::vector<Outgoing> process_update(PeerId from, const UpdateMessage& update, double now);
  // Stages one withdrawal / one NLRI into the Adj-RIB-In; returns true when
  // the decision process must run for the prefix.
  bool stage_withdraw(PeerId from, const net::Prefix& prefix);
  bool stage_nlri(PeerId from, const net::Prefix& prefix, const PathAttributes& update_attrs);
  // Re-runs the decision process for `prefix`; queues deltas to all peers.
  void run_decision(const net::Prefix& prefix, std::vector<Outgoing>& out, double now);
  // Builds export attributes (policy, next-hop-self, AS prepend) for a peer
  // and interns them; returns a null handle if export policy rejects.
  AttrHandle export_route(PeerId to, const Route& route) const;
  // Queues one announce (attrs) or withdraw (nullopt) toward a peer,
  // applying MRAI pacing.
  void queue_delta(PeerId to, const net::Prefix& prefix, std::optional<AttrHandle> attrs,
                   std::vector<Outgoing>& out, double now);
  void emit_update(PeerId to, const UpdateMessage& update, std::vector<Outgoing>& out);
  // Flushes a peer's pending deltas as batched UPDATEs.
  void flush_pending(PeerId to, std::vector<Outgoing>& out, double now);
  void send_full_table(PeerId to, std::vector<Outgoing>& out, double now);
  void session_down(PeerId peer, std::vector<Outgoing>& out, double now);
  Message make_open() const;

  Config config_;
  // Declared (and so constructed) before the RIBs that allocate from them;
  // heap-pinned so moving the speaker cannot invalidate container
  // allocators or interned handles.
  std::unique_ptr<util::RibArena> arena_;
  std::unique_ptr<AttrInterner> interner_;
  std::vector<Peer> peers_;
  // Labeled per-peer session counters ("bgp.peer.*|as=..,peer=.."), parallel
  // to peers_; the adj_out_depth gauge tracks the MRAI pending-queue depth.
  std::vector<telemetry::PeerMetrics> peer_metrics_;
  AdjRibIn adj_rib_in_;
  LocRib loc_rib_;
  AdjRibOut adj_rib_out_;
  std::map<net::Prefix, AttrHandle> originated_;
  std::uint64_t sequence_ = 0;
  SpeakerStats stats_;
};

}  // namespace dbgp::bgp
