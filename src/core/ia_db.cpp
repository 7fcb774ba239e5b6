#include "core/ia_db.h"

namespace dbgp::core {

namespace {
// The node after which `peer`'s route is (or would be) stored.
IaDb::Row::iterator position_of(IaDb::Row& row, bgp::PeerId peer) {
  auto before = row.before_begin();
  for (auto it = row.begin(); it != row.end() && it->from_peer < peer; ++it) before = it;
  return before;
}

bool holds(const IaDb::Row& row, IaDb::Row::iterator before, bgp::PeerId peer) {
  const auto it = std::next(before);
  return it != row.end() && it->from_peer == peer;
}
}  // namespace

void IaDb::upsert(IaRoute route) {
  Row& row = routes_.try_emplace(route.ia.destination).first->second;
  const auto before = position_of(row, route.from_peer);
  if (holds(row, before, route.from_peer)) {
    *std::next(before) = std::move(route);
    return;
  }
  row.insert_after(before, std::move(route));
  ++size_;
}

bool IaDb::remove(bgp::PeerId peer, const net::Prefix& prefix) {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return false;
  Row& row = it->second;
  const auto before = position_of(row, peer);
  if (!holds(row, before, peer)) return false;
  row.erase_after(before);
  --size_;
  if (row.empty()) {
    routes_.erase(it);
    shed_if_empty(routes_);
  }
  return true;
}

std::vector<net::Prefix> IaDb::remove_peer(bgp::PeerId peer) {
  std::vector<net::Prefix> affected;
  for (auto it = routes_.begin(); it != routes_.end();) {
    Row& row = it->second;
    const auto before = position_of(row, peer);
    if (holds(row, before, peer)) {
      row.erase_after(before);
      --size_;
      affected.push_back(it->first);
    }
    it = row.empty() ? routes_.erase(it) : std::next(it);
  }
  shed_if_empty(routes_);
  std::sort(affected.begin(), affected.end());
  return affected;
}

void IaDb::clear() {
  routes_.clear();
  shed_if_empty(routes_);
  size_ = 0;
}

const IaDb::Row& IaDb::candidates(const net::Prefix& prefix) const noexcept {
  static const Row kNone;
  auto it = routes_.find(prefix);
  return it == routes_.end() ? kNone : it->second;
}

IaDb::Row* IaDb::candidates_mutable(const net::Prefix& prefix) noexcept {
  auto it = routes_.find(prefix);
  return it == routes_.end() ? nullptr : &it->second;
}

std::vector<net::Prefix> IaDb::prefixes() const {
  std::vector<net::Prefix> out;
  out.reserve(routes_.size());
  for (const auto& [prefix, routes] : routes_) out.push_back(prefix);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dbgp::core
