#include "workload.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "core/speaker.h"
#include "ia/integrated_advertisement.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dbgp::perfbench {

namespace {

// Global-table-like length mix: mostly /24, the rest /16../23.
std::uint8_t prefix_length(util::Rng& rng) {
  const std::uint32_t roll = rng.next_below(100);
  if (roll < 55) return 24;
  if (roll < 65) return 22;
  if (roll < 75) return 20;
  if (roll < 85) return 19;
  if (roll < 93) return 16;
  return 21;
}

std::vector<net::Prefix> distinct_prefixes(util::Rng& rng, std::size_t n) {
  std::vector<net::Prefix> out;
  std::unordered_set<net::Prefix, net::PrefixHash> seen;
  out.reserve(n);
  while (out.size() < n) {
    const net::Prefix p(net::Ipv4Address(rng.next_u32()), prefix_length(rng));
    if (seen.insert(p).second) out.push_back(p);
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, n - i));
  }
  return out;
}

// [peer, 0-4 transit hops, origin]: lengths differ per peer, so best-path
// selection picks different peers for different prefixes.
std::vector<bgp::AsNumber> peer_path(util::Rng& rng, bgp::AsNumber peer, bgp::AsNumber origin) {
  std::vector<bgp::AsNumber> path{peer};
  const std::uint32_t transits = rng.next_below(5);
  for (std::uint32_t i = 0; i < transits; ++i) path.push_back(1000 + rng.next_below(30000));
  path.push_back(origin);
  return path;
}

ia::SharedFrame announce(const net::Prefix& prefix, const std::vector<bgp::AsNumber>& path,
                         std::size_t peer, util::Rng& rng, const FeedShape& shape,
                         const std::vector<std::uint8_t>& shared_blob) {
  ia::IntegratedAdvertisement ia;
  ia.destination = prefix;
  for (auto it = path.rbegin(); it != path.rend(); ++it) ia.path_vector.prepend_as(*it);
  ia.baseline.origin = bgp::Origin::kIgp;
  ia.baseline.as_path = bgp::AsPath(path);
  ia.baseline.next_hop = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(peer), 1);
  if (rng.next_bool(0.3)) ia.baseline.med = rng.next_below(1000);
  if (rng.next_bool(0.4)) {
    const std::uint32_t n = rng.next_below(3) + 1;
    for (std::uint32_t i = 0; i < n; ++i) ia.baseline.communities.push_back(rng.next_u32());
  }
  const auto unique_bytes = static_cast<std::size_t>(
      static_cast<double>(shape.bytes_per_fix) * shape.unique_fraction);
  for (std::size_t f = 0; f < shape.fixes; ++f) {
    const auto proto = static_cast<ia::ProtocolId>(kFirstUnknownProtocol + f);
    ia.set_path_descriptor(proto, 1, shared_blob);  // one blob-table entry per IA
    ia.set_path_descriptor(proto, 2, random_bytes(rng, unique_bytes));
  }
  return ia::make_shared_frame(core::DbgpSpeaker::encode_announce(ia, {}));
}

}  // namespace

std::size_t Feed::load_frames() const {
  std::size_t n = 0;
  for (const auto& p : peers) n += p.load.size();
  return n;
}

std::size_t Feed::churn_frames() const {
  std::size_t n = 0;
  for (const auto& p : peers) n += p.replace.size() + p.withdraw.size();
  return n;
}

Feed make_feed(const FeedShape& shape, std::uint64_t seed) {
  util::Rng rng(util::split_seed(seed, 0));
  Feed feed;
  feed.prefixes = distinct_prefixes(rng, shape.prefixes);
  std::vector<bgp::AsNumber> origins(shape.prefixes);
  for (auto& o : origins) o = 40000 + rng.next_below(20000);
  const std::size_t shared_bytes =
      shape.bytes_per_fix - static_cast<std::size_t>(static_cast<double>(shape.bytes_per_fix) *
                                                     shape.unique_fraction);
  std::vector<std::vector<std::uint8_t>> shared(shape.fixes == 0 ? 0 : shape.prefixes);
  for (auto& blob : shared) blob = random_bytes(rng, shared_bytes);
  static const std::vector<std::uint8_t> kNoBlob;

  feed.peers.resize(shape.feeders);
  for (std::size_t p = 0; p < shape.feeders; ++p) {
    util::Rng prng(util::split_seed(seed, p + 1));
    PeerFeed& peer = feed.peers[p];
    peer.asn = feeder_as(p);
    std::vector<std::size_t> order(shape.prefixes);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    prng.shuffle(order);

    std::vector<std::vector<bgp::AsNumber>> paths(shape.prefixes);
    peer.load.reserve(order.size());
    for (const std::size_t i : order) {
      paths[i] = peer_path(prng, peer.asn, origins[i]);
      peer.load.push_back(announce(feed.prefixes[i], paths[i], p, prng, shape,
                                   shared.empty() ? kNoBlob : shared[i]));
    }
    prng.shuffle(order);
    const auto replaces = static_cast<std::size_t>(
        static_cast<double>(shape.prefixes) * shape.replace_fraction);
    for (std::size_t k = 0; k < replaces; ++k) {
      const std::size_t i = order[k];
      std::vector<bgp::AsNumber> path;
      do {
        path = peer_path(prng, peer.asn, origins[i]);
      } while (path == paths[i]);
      peer.replace.push_back(
          announce(feed.prefixes[i], path, p, prng, shape, shared.empty() ? kNoBlob : shared[i]));
    }
    prng.shuffle(order);
    for (const std::size_t i : order) {
      peer.withdraw.push_back(
          ia::make_shared_frame(core::DbgpSpeaker::encode_withdraw(feed.prefixes[i])));
    }
  }
  return feed;
}

Mesh make_mesh(std::uint64_t seed) {
  constexpr std::size_t kTier1 = 4, kTransits = 10, kStubs = 24;
  constexpr double kWiserFraction = 0.25;
  util::Rng rng(util::split_seed(seed, 1000));
  Mesh mesh;
  std::vector<bgp::AsNumber> tier1, transits;
  for (std::size_t i = 0; i < kTier1; ++i) tier1.push_back(static_cast<bgp::AsNumber>(1 + i));
  for (std::size_t i = 0; i < kTransits; ++i) {
    transits.push_back(static_cast<bgp::AsNumber>(100 + i));
  }
  for (std::size_t i = 0; i < kStubs; ++i) {
    mesh.stubs.push_back(static_cast<bgp::AsNumber>(1000 + i));
  }
  // The seed picks which ASes play which part; the shape (degrees per tier,
  // Wiser islands per tier) is the same for every seed, so seeds sample
  // inputs without changing how much work a change costs on average.
  std::vector<char> wiser;
  for (const auto* tier : {&tier1, &transits, &mesh.stubs}) {
    const auto n =
        static_cast<std::size_t>(static_cast<double>(tier->size()) * kWiserFraction + 0.5);
    std::vector<char> picks(tier->size(), 0);
    std::fill(picks.begin(), picks.begin() + static_cast<std::ptrdiff_t>(n), 1);
    rng.shuffle(picks);
    wiser.insert(wiser.end(), picks.begin(), picks.end());
    mesh.ases.insert(mesh.ases.end(), tier->begin(), tier->end());
  }
  for (std::size_t i = 0; i < mesh.ases.size(); ++i) {
    const std::string id = std::to_string(mesh.ases[i]);
    if (wiser[i]) {
      mesh.build.push_back("add-as " + id + " island=W" + id + " protocol=wiser cost=" +
                           std::to_string(1 + rng.next_below(20)));
    } else {
      mesh.build.push_back("add-as " + id);
    }
  }
  auto peer = [&](bgp::AsNumber a, bgp::AsNumber b) {
    mesh.build.push_back("add-peer " + std::to_string(a) + " " + std::to_string(b));
  };
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) peer(tier1[i], tier1[j]);
  }
  // Transit t homes to two distinct tier-1s and stub s to one transit, dealt
  // round-robin over seed-shuffled lists so every provider gets an equal share.
  rng.shuffle(tier1);
  rng.shuffle(transits);
  const std::size_t n1 = tier1.size();
  for (std::size_t t = 0; t < transits.size(); ++t) {
    peer(transits[t], tier1[t % n1]);
    peer(transits[t], tier1[(t + 1 + (t / n1) % (n1 - 1)) % n1]);
  }
  for (std::size_t s = 0; s < mesh.stubs.size(); ++s) {
    peer(mesh.stubs[s], transits[s % transits.size()]);
  }
  return mesh;
}

MeshScript make_mesh_script(const Mesh& mesh, std::size_t changes, std::size_t ribs_per_change,
                            std::size_t whys_per_change, std::uint64_t seed) {
  util::Rng rng(util::split_seed(seed, 2000));
  MeshScript script;
  // Live prefixes with their origin; the per-stub ones are never withdrawn.
  std::vector<std::pair<std::string, bgp::AsNumber>> permanent, changed;
  constexpr std::size_t kPrefixesPerStub = 3;
  for (std::size_t i = 0; i < mesh.stubs.size(); ++i) {
    for (std::size_t k = 0; k < kPrefixesPerStub; ++k) {
      const std::string prefix = "10." + std::to_string(i + 1) + "." + std::to_string(k) + ".0/24";
      script.initial.push_back("originate " + std::to_string(mesh.stubs[i]) + " " + prefix);
      permanent.emplace_back(prefix, mesh.stubs[i]);
    }
  }
  auto pick_as = [&](bgp::AsNumber except) {
    bgp::AsNumber asn = except;
    while (asn == except) {
      asn = mesh.ases[rng.next_below(static_cast<std::uint32_t>(mesh.ases.size()))];
    }
    return asn;
  };

  // Originations cycle through every stub in a seed-shuffled order and
  // withdraws retire the oldest changed prefix, after a fill of four
  // originations they alternate. Each seed thus exercises every stub equally
  // often, and the table neither grows without bound nor empties.
  std::vector<bgp::AsNumber> stub_order = mesh.stubs;
  rng.shuffle(stub_order);
  constexpr std::size_t kFill = 4;
  std::size_t minted = 0;
  for (std::size_t c = 0; c < changes; ++c) {
    Change change;
    change.originate = c < kFill || (c - kFill) % 2 == 1;
    if (change.originate) {
      change.asn = stub_order[minted % stub_order.size()];
      change.prefix = "172." + std::to_string(16 + minted / 256) + "." +
                      std::to_string(minted % 256) + ".0/24";
      ++minted;
      changed.emplace_back(change.prefix, change.asn);
    } else {
      change.prefix = changed.front().first;
      change.asn = changed.front().second;
      changed.erase(changed.begin());
    }
    for (std::size_t q = 0; q < ribs_per_change; ++q) {
      change.queries.push_back({false, pick_as(0), change.prefix, change.originate});
    }
    for (std::size_t q = 0; q < whys_per_change; ++q) {
      const auto& [prefix, origin] =
          change.originate ? changed.back()
                           : permanent[rng.next_below(static_cast<std::uint32_t>(permanent.size()))];
      change.queries.push_back({true, pick_as(origin), prefix, true});
    }
    script.changes.push_back(std::move(change));
  }
  return script;
}

}  // namespace dbgp::perfbench
