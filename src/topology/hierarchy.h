// Hierarchical Internet-like generator: a small clique of tier-1 ASes,
// transit ASes multihomed to tier-1s/other transits (with some peering),
// and stubs multihomed to transits. Used by tests and examples that want a
// recognizable Internet shape rather than a Waxman cloud.
#pragma once

#include "topology/graph.h"
#include "util/rng.h"

namespace dbgp::topology {

struct HierarchyConfig {
  std::size_t tier1 = 4;
  std::size_t transits = 20;
  std::size_t stubs = 100;
  std::size_t providers_per_transit = 2;
  std::size_t providers_per_stub = 2;
  double transit_peering_probability = 0.2;
};

struct Hierarchy {
  AsGraph graph;
  // Node-ID ranges: [0, tier1) tier-1s; [tier1, tier1+transits) transits;
  // rest stubs.
  std::size_t tier1 = 0;
  std::size_t transits = 0;
};

Hierarchy generate_hierarchy(const HierarchyConfig& config, util::Rng& rng);

}  // namespace dbgp::topology
