// The IA DB (Figure 5): stores every Integrated Advertisement received, so
// the IA factory can provide pass-through — when a best path is selected,
// the factory re-reads the *incoming* IA for that path and copies over
// control information for protocols that were not used in selection.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <optional>
#include <vector>

#include "bgp/types.h"
#include "ia/integrated_advertisement.h"
#include "net/ipv4.h"

namespace dbgp::core {

// One received IA plus arrival metadata.
struct IaRoute {
  ia::IntegratedAdvertisement ia;
  bgp::PeerId from_peer = bgp::kInvalidPeer;
  bgp::AsNumber neighbor_as = 0;
  std::uint64_t sequence = 0;  // arrival order; deterministic tie-break
  // Causal backlink: the telemetry span of the frame (or origination) that
  // installed this route; 0 when tracing is off. Provenance queries walk
  // these links from any RIB state back to the origination.
  std::uint64_t via_span = 0;
  // Set by the active decision module's import filter. Ineligible routes are
  // never selected but remain stored: their control information must still
  // pass through if another route drags them along, and they become
  // candidates again if the active protocol changes.
  bool eligible = true;
};

class IaDb {
 public:
  // Table storage (map nodes) comes from `arena` — the owning speaker's
  // shard-local RibArena (DESIGN.md §14). The IAs themselves hold their
  // descriptor bytes via shared (interned) OpaqueTail arenas.
  explicit IaDb(std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : routes_(arena) {}

  // Inserts or replaces the IA from (peer, prefix).
  void upsert(IaRoute route);
  // Removes (peer, prefix); true if present.
  bool remove(bgp::PeerId peer, const net::Prefix& prefix);
  // Drops everything from a peer; returns affected prefixes.
  std::vector<net::Prefix> remove_peer(bgp::PeerId peer);
  // Drops every route (crash/restart reset) without disturbing the arena
  // binding — unlike assigning a fresh IaDb, which std::pmr forbids to
  // retarget allocators.
  void clear() noexcept;

  const IaRoute* find(bgp::PeerId peer, const net::Prefix& prefix) const;
  // All candidates for a prefix in peer order (deterministic).
  std::vector<const IaRoute*> candidates(const net::Prefix& prefix) const;
  std::vector<IaRoute*> candidates_mutable(const net::Prefix& prefix);
  // Allocation-free view of the same candidates: the per-peer map for a
  // prefix, nullptr when the prefix is unknown. Iteration order (peer id)
  // matches candidates(); the pointer is invalidated by upsert/remove. The
  // decision hot path iterates this instead of materializing a vector.
  const std::pmr::map<bgp::PeerId, IaRoute>* candidate_map(const net::Prefix& prefix) const;
  // All prefixes currently known (for full-table dumps to new peers).
  std::vector<net::Prefix> prefixes() const;

  std::size_t size() const noexcept { return size_; }

 private:
  std::pmr::map<net::Prefix, std::pmr::map<bgp::PeerId, IaRoute>> routes_;
  std::size_t size_ = 0;
};

}  // namespace dbgp::core
