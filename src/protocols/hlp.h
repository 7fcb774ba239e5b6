// HLP (Subramanian et al., SIGCOMM'05) as a D-BGP replacement protocol:
// hybrid link-state / path-vector routing with path costs.
//
// Within an island (HLP's "hierarchy region") routing is link-state: every
// member floods link costs into a shared link-state database and computes
// shortest intra-island transit costs. Between islands HLP is path-vector
// with a cumulative cost.
//
// HLP is the paper's canonical example of why the path vector supports
// island-ID entries (Section 3.2): link-state internals *cannot* be
// expressed as a path vector, so HLP islands must abstract — they list only
// their island ID, and D-BGP's loop detection works at island granularity
// for them. The inter-island cost travels as a path descriptor
// (keys::kHlpCost) and crosses gulfs via pass-through, like Wiser's.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/decision_module.h"

namespace dbgp::protocols {

namespace hlp_keys {
inline constexpr std::uint16_t kHlpCost = 1;  // path descriptor
}

// The island-wide link-state database: nodes are router IDs, links carry
// symmetric costs. Every island member floods into the same instance (in a
// real deployment, via intra-island flooding; here, shared state).
class LinkStateDb {
 public:
  // Adds/updates a bidirectional link. Replaces any previous cost.
  void add_link(std::uint32_t a, std::uint32_t b, std::uint64_t cost);
  bool remove_link(std::uint32_t a, std::uint32_t b);

  // Dijkstra shortest cost between two routers; nullopt if disconnected.
  std::optional<std::uint64_t> shortest_cost(std::uint32_t from, std::uint32_t to) const;
  // The routers on that shortest path (inclusive); empty if disconnected.
  std::vector<std::uint32_t> shortest_path(std::uint32_t from, std::uint32_t to) const;

  std::size_t link_count() const noexcept;

 private:
  std::map<std::uint32_t, std::map<std::uint32_t, std::uint64_t>> adjacency_;
};

// Convenience alias for the well-known ID (kept as a function for source
// compatibility with earlier revisions).
inline ia::ProtocolId hlp_protocol_id() noexcept { return ia::kProtoHlp; }

std::vector<std::uint8_t> encode_hlp_cost(std::uint64_t cost);
std::uint64_t decode_hlp_cost(std::span<const std::uint8_t> payload);

class HlpModule : public core::DecisionModule {
 public:
  struct Config {
    ia::IslandId island;
    // This member's ingress and egress routers within the island; the
    // intra-island transit cost is the LSDB shortest cost between them.
    std::uint32_t ingress_router = 0;
    std::uint32_t egress_router = 0;
  };

  HlpModule(Config config, const LinkStateDb* lsdb) : config_(config), lsdb_(lsdb) {}

  ia::ProtocolId protocol() const noexcept override { return hlp_protocol_id(); }
  std::string name() const override { return "hlp"; }

  // Lowest cumulative cost wins; additive positive costs are strictly
  // monotone, so cost-first is convergence-safe (unlike widest/count-first).
  bool better(const core::IaRoute& a, const core::IaRoute& b) const override;

  // Adds the island's link-state transit cost to the cumulative cost.
  void annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override;
  void annotate_origin(ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override;

  static std::uint64_t path_cost(const core::IaRoute& route) noexcept;
  // The transit cost this member would add right now (LSDB-dependent).
  std::uint64_t transit_cost() const;

 private:
  Config config_;
  const LinkStateDb* lsdb_;
};

}  // namespace dbgp::protocols
