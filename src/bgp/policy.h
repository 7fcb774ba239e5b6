// Import/export policy engine.
//
// A PolicyChain is an ordered list of rules; the first matching rule decides
// accept/reject and applies its modifications. An empty chain accepts
// unmodified (Quagga-style implicit permit is deliberately NOT used: D-BGP's
// global filters wrap these chains, and tests cover both defaults).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/path_attributes.h"
#include "bgp/types.h"
#include "net/ipv4.h"

namespace dbgp::bgp {

struct MatchCondition {
  std::optional<net::Prefix> prefix_exact;
  std::optional<net::Prefix> prefix_covered_by;  // match any more-specific
  std::optional<AsNumber> as_path_contains;
  std::optional<std::uint32_t> has_community;

  bool matches(const net::Prefix& prefix, const PathAttributes& attrs) const noexcept;
};

struct AttributeActions {
  std::optional<std::uint32_t> set_local_pref;
  std::optional<std::uint32_t> set_med;
  std::uint8_t prepend_count = 0;  // prepend own AS n extra times on export
  std::vector<std::uint32_t> add_communities;
  std::vector<std::uint32_t> strip_communities;

  void apply(PathAttributes& attrs, AsNumber own_as) const;
};

struct PolicyRule {
  MatchCondition match;
  bool accept = true;
  AttributeActions actions;  // applied only when accepting
};

class PolicyChain {
 public:
  PolicyChain() = default;
  explicit PolicyChain(std::vector<PolicyRule> rules) : rules_(std::move(rules)) {}

  bool empty() const noexcept { return rules_.empty(); }

  // Applies the chain; returns false if the route is rejected. On accept,
  // modifications from the matching rule are applied to `attrs`.
  bool apply(const net::Prefix& prefix, PathAttributes& attrs, AsNumber own_as) const;

 private:
  std::vector<PolicyRule> rules_;
};

}  // namespace dbgp::bgp
