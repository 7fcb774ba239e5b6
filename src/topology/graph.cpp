#include "topology/graph.h"

#include <algorithm>
#include <stdexcept>

namespace dbgp::topology {

namespace {
Relationship inverse(Relationship rel) noexcept {
  switch (rel) {
    case Relationship::kProviderOf: return Relationship::kCustomerOf;
    case Relationship::kCustomerOf: return Relationship::kProviderOf;
    case Relationship::kPeerOf: return Relationship::kPeerOf;
  }
  return Relationship::kPeerOf;
}
}  // namespace

void AsGraph::add_edge(NodeId u, NodeId v, Relationship rel) {
  if (u == v) throw std::invalid_argument("self-loop");
  if (has_edge(u, v)) return;
  adjacency_.at(u).push_back({v, rel});
  adjacency_.at(v).push_back({u, inverse(rel)});
}

bool AsGraph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= adjacency_.size()) return false;
  return std::any_of(adjacency_[u].begin(), adjacency_[u].end(),
                     [v](const Edge& e) { return e.neighbor == v; });
}

std::size_t AsGraph::edge_count() const noexcept {
  std::size_t total = 0;
  for (const auto& edges : adjacency_) total += edges.size();
  return total / 2;
}

bool AsGraph::connected() const {
  if (adjacency_.empty()) return true;
  std::vector<bool> seen(adjacency_.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const Edge& e : adjacency_[u]) {
      if (!seen[e.neighbor]) {
        seen[e.neighbor] = true;
        ++count;
        stack.push_back(e.neighbor);
      }
    }
  }
  return count == adjacency_.size();
}

bool AsGraph::is_stub(NodeId u) const {
  for (const Edge& e : adjacency_.at(u)) {
    if (e.rel == Relationship::kProviderOf) return false;
  }
  return true;
}

std::vector<NodeId> AsGraph::stubs() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    if (is_stub(u)) out.push_back(u);
  }
  return out;
}

}  // namespace dbgp::topology
