#include "core/ia_db.h"

namespace dbgp::core {

void IaDb::upsert(IaRoute route) {
  const net::Prefix prefix = route.ia.destination;
  auto& per_peer = routes_[prefix];
  auto it = per_peer.find(route.from_peer);
  if (it == per_peer.end()) {
    per_peer.emplace(route.from_peer, std::move(route));
    ++size_;
  } else {
    it->second = std::move(route);
  }
}

bool IaDb::remove(bgp::PeerId peer, const net::Prefix& prefix) {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return false;
  const bool removed = it->second.erase(peer) > 0;
  if (removed) {
    --size_;
    if (it->second.empty()) routes_.erase(it);
  }
  return removed;
}

std::vector<net::Prefix> IaDb::remove_peer(bgp::PeerId peer) {
  std::vector<net::Prefix> affected;
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second.erase(peer) > 0) {
      --size_;
      affected.push_back(it->first);
    }
    it = it->second.empty() ? routes_.erase(it) : std::next(it);
  }
  return affected;
}

std::vector<IaRoute*> IaDb::candidates_mutable(const net::Prefix& prefix) {
  std::vector<IaRoute*> out;
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return out;
  out.reserve(it->second.size());
  for (auto& [peer, route] : it->second) out.push_back(&route);
  return out;
}

const IaRoute* IaDb::find(bgp::PeerId peer, const net::Prefix& prefix) const {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return nullptr;
  auto pit = it->second.find(peer);
  return pit == it->second.end() ? nullptr : &pit->second;
}

std::vector<const IaRoute*> IaDb::candidates(const net::Prefix& prefix) const {
  std::vector<const IaRoute*> out;
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [peer, route] : it->second) out.push_back(&route);
  return out;
}

const std::pmr::map<bgp::PeerId, IaRoute>* IaDb::candidate_map(const net::Prefix& prefix) const {
  auto it = routes_.find(prefix);
  return it == routes_.end() ? nullptr : &it->second;
}

void IaDb::clear() noexcept {
  routes_.clear();
  size_ = 0;
}

std::vector<net::Prefix> IaDb::prefixes() const {
  std::vector<net::Prefix> out;
  out.reserve(routes_.size());
  for (const auto& [prefix, routes] : routes_) out.push_back(prefix);
  return out;
}

}  // namespace dbgp::core
