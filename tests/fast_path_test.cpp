// Advertisement fast-path properties: lazy zero-copy decode + splice
// re-encode, the frame cache's encode-once fan-out, and the batched update
// pipeline's equivalence with per-frame processing.
#include <gtest/gtest.h>

#include "core/speaker.h"
#include "ia/codec.h"
#include "ia/frame_cache.h"
#include "protocols/bgp_module.h"
#include "protocols/bgpsec.h"
#include "protocols/rbgp.h"
#include "simnet/event_queue.h"
#include "telemetry/metrics.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace dbgp::ia {
namespace {

// Randomized IA: mixed path vector, memberships, and descriptors that
// include protocols no module in this process understands — the pass-through
// payloads CF-R1 is about.
IntegratedAdvertisement random_ia(util::Rng& rng) {
  IntegratedAdvertisement ia;
  ia.destination = net::Prefix(net::Ipv4Address(rng.next_u32()),
                               static_cast<std::uint8_t>(rng.next_below(33)));

  const std::size_t hops = 1 + rng.next_below(5);
  for (std::size_t i = 0; i < hops; ++i) {
    switch (rng.next_below(3)) {
      case 0:
        ia.path_vector.prepend_as(static_cast<bgp::AsNumber>(1 + rng.next_below(65000)));
        break;
      case 1:
        ia.path_vector.prepend_island(IslandId::assigned(1 + rng.next_below(100)));
        break;
      default:
        ia.path_vector.prepend_as_set({static_cast<bgp::AsNumber>(1 + rng.next_below(100)),
                                       static_cast<bgp::AsNumber>(101 + rng.next_below(100))});
        break;
    }
  }

  const std::size_t memberships = rng.next_below(3);
  for (std::size_t i = 0; i < memberships; ++i) {
    IslandMembership m;
    m.island = IslandId::assigned(1 + rng.next_below(50));
    m.protocol = static_cast<ProtocolId>(rng.next_below(4) == 0 ? 0 : kProtoWiser);
    const std::size_t members = rng.next_below(4);
    for (std::size_t j = 0; j < members; ++j) {
      m.members.push_back(static_cast<bgp::AsNumber>(1 + rng.next_below(65000)));
    }
    ia.add_membership(std::move(m));
  }

  ia.baseline.origin = rng.next_bool(0.5) ? bgp::Origin::kIgp : bgp::Origin::kEgp;
  ia.baseline.as_path = ia.path_vector.to_bgp_as_path();
  ia.baseline.next_hop = net::Ipv4Address(rng.next_u32());
  if (rng.next_bool(0.3)) ia.baseline.med = rng.next_below(100);

  auto random_blob = [&rng]() {
    std::vector<std::uint8_t> blob(1 + rng.next_below(300));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
    return blob;
  };
  // One payload reused across descriptors so the blob table's sharing path
  // (and its spliced layout) is exercised.
  const std::vector<std::uint8_t> shared = random_blob();

  const std::size_t path_descriptors = rng.next_below(4);
  for (std::size_t i = 0; i < path_descriptors; ++i) {
    // Mix known protocols with unknown ones (200+): pass-through payloads.
    const ProtocolId proto =
        rng.next_bool(0.5) ? kProtoWiser : static_cast<ProtocolId>(200 + rng.next_below(20));
    ia.set_path_descriptor(proto, static_cast<std::uint16_t>(i),
                           rng.next_bool(0.4) ? shared : random_blob());
  }
  const std::size_t island_descriptors = rng.next_below(3);
  for (std::size_t i = 0; i < island_descriptors; ++i) {
    const ProtocolId proto =
        rng.next_bool(0.5) ? kProtoScion : static_cast<ProtocolId>(220 + rng.next_below(20));
    ia.add_island_descriptor(IslandId::assigned(1 + rng.next_below(50)), proto,
                             static_cast<std::uint16_t>(i),
                             rng.next_bool(0.4) ? shared : random_blob());
  }
  return ia;
}

// THE splice property: a lazily decoded IA that was never edited re-encodes
// to exactly the bytes it arrived as — the pass-through fast path is
// invisible on the wire.
TEST(FastPath, SplicedReencodeMatchesEagerEncode) {
  util::Rng rng(20170821);  // SIGCOMM'17
  for (int round = 0; round < 200; ++round) {
    const IntegratedAdvertisement original = random_ia(rng);
    const auto eager = encode_ia(original);

    IntegratedAdvertisement decoded = decode_ia(eager);
    const auto spliced = encode_ia(decoded);
    ASSERT_EQ(spliced, eager) << "round " << round;
    // And the splice really was taken from the wire bytes, not a re-parse.
    EXPECT_EQ(decoded, original);
  }
}

TEST(FastPath, SplicedReencodeMatchesUnderCompression) {
  util::Rng rng(42);
  CodecOptions options;
  options.compress = true;
  for (int round = 0; round < 50; ++round) {
    IntegratedAdvertisement original = random_ia(rng);
    // Repetitive payload so the compressor engages on most rounds.
    original.set_path_descriptor(240, 9, std::vector<std::uint8_t>(600, 0x5a));
    const auto eager = encode_ia(original, options);
    IntegratedAdvertisement decoded = decode_ia(eager);
    ASSERT_EQ(encode_ia(decoded, options), eager) << "round " << round;
  }
}

TEST(FastPath, DecodeDefersDescriptorParsing) {
  util::Rng rng(7);
  IntegratedAdvertisement original = random_ia(rng);
  original.set_path_descriptor(201, 5, {1, 2, 3});  // ensure a non-trivial tail

  const IntegratedAdvertisement decoded = decode_ia(encode_ia(original));
  EXPECT_FALSE(decoded.descriptors_materialized());
  EXPECT_TRUE(decoded.has_opaque_tail());

  // Read access materializes but keeps the tail spliceable.
  EXPECT_FALSE(decoded.path_descriptors().empty());
  EXPECT_TRUE(decoded.descriptors_materialized());
  EXPECT_TRUE(decoded.has_opaque_tail());
}

TEST(FastPath, DescriptorEditInvalidatesSplice) {
  util::Rng rng(11);
  IntegratedAdvertisement original = random_ia(rng);
  original.set_path_descriptor(201, 5, {1, 2, 3});

  IntegratedAdvertisement decoded = decode_ia(encode_ia(original));
  decoded.set_path_descriptor(202, 1, {9});
  EXPECT_FALSE(decoded.has_opaque_tail());

  // Re-encode is canonical for the edited content.
  IntegratedAdvertisement expected = original;
  expected.set_path_descriptor(202, 1, {9});
  EXPECT_EQ(encode_ia(decoded), encode_ia(expected));
}

TEST(FastPath, NoOpStripKeepsSplice) {
  util::Rng rng(13);
  IntegratedAdvertisement original = random_ia(rng);
  original.set_path_descriptor(201, 5, {1, 2, 3});

  IntegratedAdvertisement decoded = decode_ia(encode_ia(original));
  // Removing descriptors of a protocol that carries none must not spoil the
  // fast path (strip filters run on every pass-through hop).
  decoded.remove_path_descriptors(77);
  decoded.remove_island_descriptors(77);
  EXPECT_TRUE(decoded.has_opaque_tail());
  EXPECT_EQ(encode_ia(decoded), encode_ia(original));
}

TEST(FastPath, BgpOnlyIaSkipsArenaEntirely) {
  IntegratedAdvertisement ia;
  ia.destination = *net::Prefix::parse("10.0.0.0/8");
  ia.path_vector.prepend_as(65001);
  ia.baseline.next_hop = net::Ipv4Address(10, 0, 0, 1);

  const IntegratedAdvertisement decoded = decode_ia(encode_ia(ia));
  EXPECT_TRUE(decoded.descriptors_materialized());
  EXPECT_FALSE(decoded.has_opaque_tail());  // trivial tail, nothing retained
  EXPECT_EQ(decoded, ia);
}

// Lazy decode must not defer *validation*: malformed descriptor sections
// still fail inside decode_ia, exactly as the eager decoder did.
TEST(FastPath, MalformedTailFailsAtDecodeTime) {
  util::Rng rng(17);
  IntegratedAdvertisement original = random_ia(rng);
  original.set_path_descriptor(201, 5, {1, 2, 3});
  auto bytes = encode_ia(original);

  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_THROW(decode_ia(trailing), util::DecodeError);

  auto truncated = bytes;
  truncated.resize(truncated.size() - 2);
  EXPECT_THROW(decode_ia(truncated), util::DecodeError);
}

// -- Frame cache -------------------------------------------------------------

std::uint64_t cache_counter(const char* name) {
  const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
  const auto* c = snapshot.find_counter(name);
  return c != nullptr ? c->value : 0;
}

TEST(FrameCache, EncodesOncePerDistinctAdvertisement) {
  util::Rng rng(23);
  const IntegratedAdvertisement ia = decode_ia(encode_ia(random_ia(rng)));

  FrameCache cache;
  int encodes = 0;
  const auto encoder = [&] {
    ++encodes;
    return encode_ia(ia);
  };
  const auto first = cache.get_or_encode(ia, {}, encoder);
  const auto second = cache.get_or_encode(ia, {}, encoder);
  EXPECT_EQ(encodes, 1);
  EXPECT_EQ(first.get(), second.get());  // the same shared frame, no copy
}

TEST(FrameCache, RewrittenAdvertisementMissesAndGetsOwnFrame) {
  util::Rng rng(29);
  const IntegratedAdvertisement base = decode_ia(encode_ia(random_ia(rng)));
  IntegratedAdvertisement rewritten = base;
  // An export-policy rewrite (e.g. a per-peer attestation) diverges the IA.
  rewritten.set_path_descriptor(230, 1, {0xaa});

  FrameCache cache;
  int encodes = 0;
  const auto frame_a =
      cache.get_or_encode(base, {}, [&] { ++encodes; return encode_ia(base); });
  const auto frame_b =
      cache.get_or_encode(rewritten, {}, [&] { ++encodes; return encode_ia(rewritten); });
  EXPECT_EQ(encodes, 2);
  EXPECT_NE(*frame_a, *frame_b);
  // Both entries stay warm for their respective peers.
  EXPECT_EQ(cache.get_or_encode(base, {}, [&] { ++encodes; return encode_ia(base); }).get(),
            frame_a.get());
  EXPECT_EQ(encodes, 2);
}

TEST(FrameCache, OptionsArePartOfTheKey) {
  util::Rng rng(31);
  const IntegratedAdvertisement ia = random_ia(rng);
  FrameCache cache;
  int encodes = 0;
  CodecOptions no_share;
  no_share.share_blobs = false;
  cache.get_or_encode(ia, {}, [&] { ++encodes; return encode_ia(ia, {}); });
  cache.get_or_encode(ia, no_share, [&] { ++encodes; return encode_ia(ia, no_share); });
  EXPECT_EQ(encodes, 2);
}

// Speaker-level: one decision fanning an advertisement out to N peers of one
// update group exports and encodes once, and every member gets the same
// frame. The group shares it before the cache is asked, so the
// dbgp.codec.frame_cache.{hits,misses} counters see one miss and no hit.
TEST(FrameCache, SpeakerFanOutHitsCache) {
  core::DbgpConfig config;
  config.asn = 65000;
  config.next_hop = net::Ipv4Address(10, 0, 0, 1);
  core::DbgpSpeaker speaker(config);
  speaker.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from = speaker.add_peer(65001);
  for (int p = 1; p < 5; ++p) speaker.add_peer(65001 + p);

  IntegratedAdvertisement ia;
  ia.destination = *net::Prefix::parse("10.1.0.0/16");
  ia.path_vector.prepend_as(65001);
  ia.baseline.next_hop = net::Ipv4Address(1, 1, 1, 1);
  ia.baseline.as_path = ia.path_vector.to_bgp_as_path();

  const std::uint64_t hits_before = cache_counter("dbgp.codec.frame_cache.hits");
  const std::uint64_t misses_before = cache_counter("dbgp.codec.frame_cache.misses");
  const auto out = speaker.handle_ia(from, ia);
  ASSERT_EQ(out.size(), 4u);  // split horizon toward the announcer
  // One export and one encode for the group; no per-peer cache lookups.
  EXPECT_EQ(cache_counter("dbgp.codec.frame_cache.misses") - misses_before, 1u);
  EXPECT_EQ(cache_counter("dbgp.codec.frame_cache.hits") - hits_before, 0u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].frame.get(), out[0].frame.get());
  }
}

// When an export filter rewrites the IA differently per peer, each peer's
// frame must be encoded (and cached) separately — no stale shared frame.
TEST(FrameCache, PerPeerExportRewriteInvalidatesSharing) {
  core::DbgpConfig config;
  config.asn = 65000;
  config.next_hop = net::Ipv4Address(10, 0, 0, 1);
  core::DbgpSpeaker speaker(config);
  speaker.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from = speaker.add_peer(65001);
  for (int p = 1; p < 4; ++p) speaker.add_peer(65001 + p);

  // Stamp the outgoing IA with the destination peer id (a stand-in for
  // peer-bound control information like BGPSec attestations).
  speaker.export_filters().add(
      "per-peer-stamp", [](IntegratedAdvertisement& ia, const core::FilterContext& ctx) {
        ia.set_path_descriptor(231, 1, {static_cast<std::uint8_t>(ctx.peer)});
        return true;
      });

  IntegratedAdvertisement ia;
  ia.destination = *net::Prefix::parse("10.2.0.0/16");
  ia.path_vector.prepend_as(65001);
  ia.baseline.next_hop = net::Ipv4Address(1, 1, 1, 1);
  ia.baseline.as_path = ia.path_vector.to_bgp_as_path();

  const auto out = speaker.handle_ia(from, ia);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_NE(*out[i].frame, *out[j].frame);
    }
    // Each peer's frame decodes to an IA stamped with that peer's id.
    const auto decoded =
        decode_ia(std::span(out[i].frame->begin() + 1, out[i].frame->end()));
    const auto* stamp = decoded.find_path_descriptor(231, 1);
    ASSERT_NE(stamp, nullptr);
    EXPECT_EQ(stamp->value, std::vector<std::uint8_t>{
                                static_cast<std::uint8_t>(out[i].peer)});
  }
}

// The same contract for modules that declare a peer-bound export: BGPSec
// signs each attestation toward the receiving AS, and R-BGP's backup avoids
// it. Neither may be exported once per update group; each yields one announce
// per receiving peer, pairwise different.
IntegratedAdvertisement announce_path(std::vector<bgp::AsNumber> path) {
  IntegratedAdvertisement ia;
  ia.destination = *net::Prefix::parse("10.2.0.0/16");
  for (auto it = path.rbegin(); it != path.rend(); ++it) ia.path_vector.prepend_as(*it);
  ia.baseline.next_hop = net::Ipv4Address(1, 1, 1, 1);
  ia.baseline.as_path = ia.path_vector.to_bgp_as_path();
  return ia;
}

// The announce frames of `out`, checked to differ pairwise.
std::vector<const core::DbgpOutgoing*> distinct_announces(
    const std::vector<core::DbgpOutgoing>& out) {
  std::vector<const core::DbgpOutgoing*> frames;
  for (const auto& o : out) {
    if (o.bytes()[0] == static_cast<std::uint8_t>(core::FrameType::kAnnounce)) {
      frames.push_back(&o);
    }
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    for (std::size_t j = i + 1; j < frames.size(); ++j) {
      EXPECT_NE(*frames[i]->frame, *frames[j]->frame)
          << "peers " << frames[i]->peer << " and " << frames[j]->peer;
    }
  }
  return frames;
}

core::DbgpConfig per_peer_config(ProtocolId active) {
  core::DbgpConfig config;
  config.asn = 65000;
  config.next_hop = net::Ipv4Address(10, 0, 0, 1);
  config.active_protocol = active;
  return config;
}

TEST(FrameCache, PerPeerExportRewriteInvalidatesSharingBgpSec) {
  const protocols::AttestationAuthority authority;
  core::DbgpSpeaker speaker(per_peer_config(kProtoBgpSec));
  speaker.add_module(std::make_unique<protocols::BgpSecModule>(
      protocols::BgpSecModule::Config{65000, {}, false}, &authority));
  const bgp::PeerId from = speaker.add_peer(65001);
  for (int p = 1; p < 4; ++p) speaker.add_peer(65001 + p);

  EXPECT_EQ(distinct_announces(speaker.handle_ia(from, announce_path({65001}))).size(), 3u);
  // Locally originated routes are signed per peer too.
  EXPECT_EQ(distinct_announces(speaker.originate(*net::Prefix::parse("10.9.0.0/16"))).size(),
            4u);
}

TEST(FrameCache, PerPeerExportRewriteInvalidatesSharingRBgp) {
  core::DbgpSpeaker speaker(per_peer_config(kProtoRBgp));
  speaker.add_module(std::make_unique<protocols::RBgpModule>(protocols::RBgpModule::Config{}));
  const bgp::PeerId primary = speaker.add_peer(65001);
  const bgp::PeerId p2 = speaker.add_peer(65002);
  const bgp::PeerId p3 = speaker.add_peer(65003);
  const bgp::PeerId p4 = speaker.add_peer(65004);
  // Alternatives, shortest first: each receiver's backup is the shortest one
  // that avoids its AS — 65002 gets p3's, 65003 gets p4's, 65004 gets p2's.
  speaker.handle_ia(p3, announce_path({65003, 65004, 9}));
  speaker.handle_ia(p4, announce_path({65004, 7, 8, 9}));
  speaker.handle_ia(p2, announce_path({65002, 7, 8, 6, 9}));

  const auto frames = distinct_announces(speaker.handle_ia(primary, announce_path({65001, 9})));
  ASSERT_EQ(frames.size(), 3u);
  for (const auto* f : frames) {
    const auto decoded = decode_ia(std::span(f->frame->begin() + 1, f->frame->end()));
    const IaPathVector backup = protocols::RBgpModule::backup_path(decoded);
    EXPECT_GT(backup.hop_count(), 0u);
    EXPECT_FALSE(backup.contains_as(speaker.peer_as(f->peer)));
  }
}

// -- Batched pipeline --------------------------------------------------------

// Batched staging + one flush must converge to the same routing state as
// processing every frame immediately.
TEST(BatchedPipeline, MatchesImmediateProcessing) {
  util::Rng rng(37);
  const auto make_speaker = [] {
    core::DbgpConfig config;
    config.asn = 65000;
    config.next_hop = net::Ipv4Address(10, 0, 0, 1);
    auto speaker = std::make_unique<core::DbgpSpeaker>(config);
    speaker->add_module(std::make_unique<protocols::BgpModule>());
    speaker->add_peer(65001);
    speaker->add_peer(65002);
    return speaker;
  };
  auto immediate = make_speaker();
  auto batched = make_speaker();

  std::vector<std::pair<bgp::PeerId, std::vector<std::uint8_t>>> frames;
  for (int i = 0; i < 64; ++i) {
    IntegratedAdvertisement ia;
    // A handful of prefixes so batching actually coalesces repeat updates.
    ia.destination = net::Prefix(net::Ipv4Address(10, 0, rng.next_below(8), 0), 24);
    ia.path_vector.prepend_as(static_cast<bgp::AsNumber>(65001 + rng.next_below(2)));
    ia.baseline.next_hop = net::Ipv4Address(1, 1, 1, static_cast<std::uint8_t>(i));
    ia.baseline.as_path = ia.path_vector.to_bgp_as_path();
    frames.emplace_back(static_cast<bgp::PeerId>(rng.next_below(2)),
                        core::DbgpSpeaker::encode_announce(ia, {}));
  }

  for (const auto& [peer, bytes] : frames) immediate->handle_frame(peer, bytes);
  for (const auto& [peer, bytes] : frames) batched->enqueue_frame(peer, bytes);
  batched->flush();
  EXPECT_EQ(batched->pending_batch(), 0u);

  const auto prefixes = immediate->selected_prefixes();
  EXPECT_EQ(prefixes, batched->selected_prefixes());
  for (const auto& prefix : prefixes) {
    const auto* a = immediate->best(prefix);
    const auto* b = batched->best(prefix);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->ia, b->ia) << prefix.to_string();
    EXPECT_EQ(a->from_peer, b->from_peer);
  }
}

TEST(BatchedPipeline, BoundedBatchAutoFlushes) {
  core::DbgpConfig config;
  config.asn = 65000;
  config.next_hop = net::Ipv4Address(10, 0, 0, 1);
  config.max_batch = 4;
  core::DbgpSpeaker speaker(config);
  speaker.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from = speaker.add_peer(65001);

  for (int i = 0; i < 4; ++i) {
    IntegratedAdvertisement ia;
    ia.destination = net::Prefix(net::Ipv4Address(10, 3, static_cast<std::uint8_t>(i), 0), 24);
    ia.path_vector.prepend_as(65001);
    ia.baseline.next_hop = net::Ipv4Address(1, 1, 1, 1);
    ia.baseline.as_path = ia.path_vector.to_bgp_as_path();
    speaker.enqueue_frame(from, core::DbgpSpeaker::encode_announce(ia, {}));
  }
  // The fourth staged prefix hit max_batch and flushed inline.
  EXPECT_EQ(speaker.pending_batch(), 0u);
  EXPECT_EQ(speaker.selected_prefixes().size(), 4u);
}

TEST(EventQueueCoalescing, DuplicateKeysCollapseAndRearm) {
  simnet::EventQueue events;
  int runs = 0;
  events.schedule_coalesced(1, 0.0, [&] { ++runs; });
  events.schedule_coalesced(1, 0.0, [&] { ++runs; });  // coalesced away
  events.schedule_coalesced(2, 0.0, [&] { ++runs; });  // distinct key
  EXPECT_EQ(events.pending(), 2u);
  events.run();
  EXPECT_EQ(runs, 2);
  // The key is released when the event fires; a later schedule re-arms.
  events.schedule_coalesced(1, 0.0, [&] { ++runs; });
  events.run();
  EXPECT_EQ(runs, 3);
}

}  // namespace
}  // namespace dbgp::ia
