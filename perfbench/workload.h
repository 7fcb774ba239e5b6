// Seeded input generators for the repository benchmark.
//
// Everything the programs under test receive is made here from --seed; the
// same seed gives byte-identical inputs. Unlike bench/workload.h (whose
// streams give every peer disjoint random prefixes), every feeding peer here
// announces the *same* prefix set with its own per-peer paths, so each prefix
// has one candidate per peer and the decision process has real work to do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bgp/types.h"
#include "ia/frame_cache.h"
#include "net/ipv4.h"

namespace dbgp::perfbench {

// Unknown-protocol ids carried by large IAs: above every protocol the
// repository implements, so a BGP-only speaker can only pass them through.
inline constexpr std::uint16_t kFirstUnknownProtocol = 200;

struct FeedShape {
  std::size_t prefixes = 0;
  std::size_t feeders = 6;
  // Share of each peer's prefixes re-announced with a new path (implicit
  // replace) during churn.
  double replace_fraction = 0.25;
  // Large-IA descriptor split after Table 2: `fixes` critical fixes of
  // `bytes_per_fix` control information each, of which `unique_fraction` is
  // per-(peer, fix) and the rest one blob per prefix shared by all fixes and
  // all peers. fixes == 0 gives BGP-only IAs.
  std::size_t fixes = 0;
  std::size_t bytes_per_fix = 0;
  double unique_fraction = 0.2;
};

struct PeerFeed {
  bgp::AsNumber asn = 0;
  // Announce, replace and withdraw frames, each in this peer's own send
  // order (a per-peer permutation of the prefix set).
  std::vector<ia::SharedFrame> load;
  std::vector<ia::SharedFrame> replace;
  std::vector<ia::SharedFrame> withdraw;
};

struct Feed {
  std::vector<net::Prefix> prefixes;  // distinct
  std::vector<PeerFeed> peers;
  std::size_t load_frames() const;
  std::size_t churn_frames() const;
};

// ASN of the speaker under test and of its peers.
inline constexpr bgp::AsNumber kLocalAs = 65000;
inline bgp::AsNumber feeder_as(std::size_t peer) { return 64512 + static_cast<bgp::AsNumber>(peer); }

Feed make_feed(const FeedShape& shape, std::uint64_t seed);

// The daemon_mesh topology: a clique of 4 tier-1s, 10 transits dual-homed to
// tier-1s and 24 single-homed stubs, with a quarter of each tier Wiser
// singleton islands. Emitted as control-API command lines.
struct Mesh {
  std::vector<std::string> build;  // add-as / add-peer lines
  std::vector<bgp::AsNumber> ases;
  std::vector<bgp::AsNumber> stubs;
};

Mesh make_mesh(std::uint64_t seed);

// A query the daemon_mesh loop issues after a change settles, with the
// answer a correct daemon gives.
struct Query {
  bool why = false;  // `why` (provenance); otherwise `rib`
  bgp::AsNumber asn = 0;
  std::string prefix;
  bool reachable = true;  // expected `rib` answer
};

// One change of the daemon_mesh closed loop: originate or withdraw `prefix`
// at `asn`, drain with `run`, then issue `queries`.
struct Change {
  bool originate = true;
  bgp::AsNumber asn = 0;
  std::string prefix;
  std::vector<Query> queries;
};

// Initial originations (three permanent prefixes per stub) and the change
// script. Every withdraw names a prefix originated at that moment, `rib`
// queries ask about the changed prefix, and `why` queries ask about a live
// prefix at an AS other than its origin, so no command is expected to fail.
struct MeshScript {
  std::vector<std::string> initial;  // originate lines
  std::vector<Change> changes;
};

MeshScript make_mesh_script(const Mesh& mesh, std::size_t changes, std::size_t ribs_per_change,
                            std::size_t whys_per_change, std::uint64_t seed);

}  // namespace dbgp::perfbench
