// The IA DB (Figure 5): stores every Integrated Advertisement received, so
// the IA factory can provide pass-through — when a best path is selected,
// the factory re-reads the *incoming* IA for that path and copies over
// control information for protocols that were not used in selection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <forward_list>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "bgp/types.h"
#include "ia/integrated_advertisement.h"
#include "net/ipv4.h"

namespace dbgp::core {

// -- Hashed prefix tables (DESIGN.md §14) -------------------------------------
// The speaker's per-prefix tables (IA DB, Loc-RIB, Adj-RIB-Out) are hashed,
// arena-backed maps: one O(1) probe per lookup instead of an Rb-tree walk.
template <typename V>
using PrefixTable = std::pmr::unordered_map<net::Prefix, V, net::PrefixHash>;

// A table's entries ascending by prefix. Every ordered output (full-table
// sync, snapshots, dumps, per-prefix re-decisions) goes through this, so
// emission order and snapshot bytes never depend on the hash layout.
template <typename V>
std::vector<const typename PrefixTable<V>::value_type*> sorted_entries(
    const PrefixTable<V>& table) {
  std::vector<const typename PrefixTable<V>::value_type*> out;
  out.reserve(table.size());
  for (const auto& entry : table) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

// A hashed table keeps its bucket array when its last entry goes; swapping
// in a fresh table on the same arena hands the buckets back, so a drained
// speaker returns to its exact pre-load arena footprint.
template <typename V>
void shed_if_empty(PrefixTable<V>& table) {
  if (table.empty()) table = PrefixTable<V>(table.get_allocator());
}

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
  // A prefix's candidates, sorted by from_peer.
  using Row = std::pmr::forward_list<IaRoute>;

  // Table storage comes from `arena` — the owning speaker's shard-local
  // RibArena (DESIGN.md §14). The IAs themselves hold their descriptor bytes
  // via shared (interned) OpaqueTail arenas.
  explicit IaDb(std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : routes_(arena) {}

  // Inserts or replaces the IA from (peer, prefix).
  void upsert(IaRoute route);
  // Removes (peer, prefix); true if present.
  bool remove(bgp::PeerId peer, const net::Prefix& prefix);
  // Drops everything from a peer; returns the affected prefixes, ascending.
  std::vector<net::Prefix> remove_peer(bgp::PeerId peer);
  // Drops every route (crash/restart reset).
  void clear();

  // All candidates for a prefix in peer order (deterministic), borrowed from
  // the table; empty when the prefix is unknown. A route's address is
  // stable until that route is removed. The decision hot path iterates this
  // without allocating.
  const Row& candidates(const net::Prefix& prefix) const noexcept;
  Row* candidates_mutable(const net::Prefix& prefix) noexcept;
  // All prefixes currently known, ascending (full-table dumps, re-decisions).
  std::vector<net::Prefix> prefixes() const;

  std::size_t size() const noexcept { return size_; }

 private:
  // prefix -> routes sorted by from_peer. Each route is one arena node of a
  // single size: a contiguous row would grow through a different pool size
  // class per route count, and with peers announcing in unrelated orders
  // every class stays reserved at its peak (DESIGN.md §14).
  PrefixTable<Row> routes_;
  std::size_t size_ = 0;
};

}  // namespace dbgp::core
