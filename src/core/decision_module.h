// Decision-module API (Figure 5): the unit of protocol pluggability.
//
// A decision module encapsulates one protocol's path-selection algorithm and
// its protocol-specific import/export filtering. Only one module is active
// per address range at a time (Section 3.3: "only a single protocol's path
// choice can be installed in a single IP forwarding table"); inactive
// protocols' control information is passed through by the IA factory.
//
// The embedding DbgpSpeaker owns the candidate store (the IA DB) and the
// selection loop; modules contribute the protocol-specific pieces:
//   * import_filter  — accept/reject/modify incoming control info
//   * better         — the path-selection comparator
//   * annotate_export — write this protocol's control info into outgoing IAs
//   * annotate_origin — control info for locally originated prefixes
// This mirrors the paper's experience that Wiser "simply extends Beagle's
// existing BGP decision module" — most modules are a comparator plus a
// couple of descriptor read/write hooks.
#pragma once

#include <string>

#include "core/ia_db.h"
#include "ia/ids.h"

namespace dbgp::core {

// Context handed to export hooks.
struct ExportContext {
  bgp::AsNumber own_as = 0;
  ia::IslandId own_island;
  bgp::PeerId to_peer = bgp::kInvalidPeer;
  bgp::AsNumber to_peer_as = 0;
  bool to_peer_in_same_island = false;
};

class DecisionModule {
 public:
  virtual ~DecisionModule() = default;

  virtual ia::ProtocolId protocol() const noexcept = 0;
  virtual std::string name() const = 0;

  // Protocol-specific import filter (stage 3 of Figure 5). May mutate the
  // stored IA (e.g., scale Wiser costs). Returning false rejects the route
  // for this protocol's selection (it is still stored for pass-through).
  virtual bool import_filter(IaRoute& route) {
    (void)route;
    return true;
  }

  // The path-selection algorithm (stage 4): true if `a` beats `b`.
  virtual bool better(const IaRoute& a, const IaRoute& b) const = 0;

  // The step of the module's comparison at which `winner` beat `loser`
  // (precondition: better(winner, loser)). Decision audits record this as
  // the per-candidate rejection reason; modules with a multi-step ladder
  // should name the deciding rung.
  virtual std::string explain_better(const IaRoute& winner, const IaRoute& loser) const {
    (void)winner;
    (void)loser;
    return "preference";
  }

  // Protocol-specific export filter (stage 5): (re)writes this protocol's
  // descriptors in the outgoing IA. `best` is the selected incoming route
  // (already copied into `out` by the IA factory, including pass-through).
  virtual void annotate_export(const IaRoute& best, ia::IntegratedAdvertisement& out,
                               const ExportContext& ctx) {
    (void)best;
    (void)out;
    (void)ctx;
  }

  // Control information for prefixes this AS originates.
  virtual void annotate_origin(ia::IntegratedAdvertisement& out, const ExportContext& ctx) {
    (void)out;
    (void)ctx;
  }

  // Update-group contract. False (the default) promises that annotate_export
  // and annotate_origin read the receiving peer only through
  // ctx.to_peer_in_same_island: the speaker then exports once per update
  // group (the up peers sharing that flag) and hands every member the same
  // frame, so ctx.to_peer/to_peer_as name an arbitrary member. A module
  // whose output depends on which peer receives it (BGPSec signs toward
  // ctx.to_peer_as, R-BGP drops backups through it) returns true, and the
  // speaker rebuilds the IA for each peer.
  virtual bool peer_bound_export() const noexcept { return false; }

  // Notification that the best route changed (e.g., to program a FIB).
  // `best` is nullptr when the prefix became unreachable.
  virtual void on_best_changed(const net::Prefix& prefix, const IaRoute* best) {
    (void)prefix;
    (void)best;
  }
};

}  // namespace dbgp::core
