// AS-level topology annotated with business relationships.
//
// The paper's simulations use BRITE/Waxman topologies "annotated with
// customer/provider relationships, but not peering ones" (Section 6.3); the
// graph type nevertheless supports peering so the hierarchy generator and
// tests can exercise full Gao-Rexford policy.
#pragma once

#include <cstdint>
#include <vector>

namespace dbgp::topology {

using NodeId = std::uint32_t;

enum class Relationship : std::uint8_t {
  kProviderOf,  // edge (u,v): u is v's provider
  kCustomerOf,  // edge (u,v): u is v's customer
  kPeerOf,
};

struct Edge {
  NodeId neighbor = 0;
  Relationship rel = Relationship::kPeerOf;  // relationship of *this node* to neighbor
};

class AsGraph {
 public:
  explicit AsGraph(std::size_t n = 0) : adjacency_(n) {}

  std::size_t size() const noexcept { return adjacency_.size(); }

  // Adds the edge in both directions with consistent relationship views.
  // `rel` is u's relationship to v (kProviderOf => u provides for v).
  void add_edge(NodeId u, NodeId v, Relationship rel);
  bool has_edge(NodeId u, NodeId v) const noexcept;

  const std::vector<Edge>& neighbors(NodeId u) const { return adjacency_.at(u); }
  std::size_t degree(NodeId u) const { return adjacency_.at(u).size(); }
  std::size_t edge_count() const noexcept;

  // True if every node can reach node 0.
  bool connected() const;

  // Stub = node with exactly one neighbor... the conventional definition is
  // "no customers": a stub buys transit but provides none.
  bool is_stub(NodeId u) const;
  std::vector<NodeId> stubs() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
};

}  // namespace dbgp::topology
