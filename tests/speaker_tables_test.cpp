// Speaker table properties over seeded random workloads: the hashed prefix
// tables (IA DB, Loc-RIB, Adj-RIB-Out) must keep every ordered output sorted
// by key, agree across thread counts, keep the per-peer adj_out_depth gauges
// equal to the adj-out records, and hand every arena byte back when the
// routes drain (DESIGN.md §14). Part of the `dbgp_concurrency_tests` binary
// (ctest -L concurrency), so dbgp_tsan_check and dbgp_asan_check re-run it
// with planning reading the hashed tables from pool threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/speaker.h"
#include "ia/codec.h"
#include "protocols/bgp_module.h"
#include "telemetry/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dbgp {
namespace {

constexpr bgp::AsNumber kAs = 64990;  // unique in the binary: owns its gauges
constexpr std::size_t kPeers = 6;
constexpr std::uint32_t kPrefixes = 48;
constexpr int kSteps = 900;

net::Prefix nth_prefix(std::uint32_t i) {
  return net::Prefix(net::Ipv4Address((172u << 24) | (i << 8)), 24);
}

bgp::AsNumber peer_as(std::size_t peer) { return static_cast<bgp::AsNumber>(65100 + peer); }

std::unique_ptr<core::DbgpSpeaker> make_speaker() {
  core::DbgpConfig config;
  config.asn = kAs;
  config.next_hop = net::Ipv4Address(kAs);
  config.max_batch = 0;  // explicit flushes only
  auto speaker = std::make_unique<core::DbgpSpeaker>(config);
  speaker->add_module(std::make_unique<protocols::BgpModule>());
  // Two update groups: the last two peers share the speaker's island flag.
  for (std::size_t p = 0; p < kPeers; ++p) speaker->add_peer(peer_as(p), p >= kPeers - 2);
  return speaker;
}

std::vector<std::uint8_t> announce(std::size_t peer, std::uint32_t prefix, util::Rng& rng) {
  ia::IntegratedAdvertisement ia;
  ia.destination = nth_prefix(prefix);
  for (std::uint32_t hops = rng.next_below(4); hops > 0; --hops) {
    ia.path_vector.prepend_as(static_cast<bgp::AsNumber>(1000 + rng.next_below(50)));
  }
  ia.path_vector.prepend_as(peer_as(peer));
  ia.baseline.as_path = ia.path_vector.to_bgp_as_path();
  ia.baseline.next_hop = net::Ipv4Address(peer_as(peer));
  return core::DbgpSpeaker::encode_announce(ia, {});
}

net::Prefix announced_prefix(const core::DbgpOutgoing& o) {
  return ia::decode_ia(std::span<const std::uint8_t>(o.bytes()).subspan(1)).destination;
}

// Everything a run can observably produce.
struct TableRun {
  std::vector<std::pair<bgp::PeerId, std::vector<std::uint8_t>>> emitted;
  core::DbgpSpeaker::SpeakerState state;
  std::vector<net::Prefix> selected;
};

void expect_strictly_ascending(const std::vector<core::DbgpSpeaker::RouteRecord>& records,
                               bool peer_major, const char* table) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    const auto& a = records[i - 1];
    const auto& b = records[i];
    const bool ordered =
        peer_major ? std::pair(a.from_peer, a.prefix) < std::pair(b.from_peer, b.prefix)
                   : std::pair(a.prefix, a.from_peer) < std::pair(b.prefix, b.from_peer);
    EXPECT_TRUE(ordered) << table << " record " << i << " out of order";
  }
}

void expect_same_records(const std::vector<core::DbgpSpeaker::RouteRecord>& a,
                         const std::vector<core::DbgpSpeaker::RouteRecord>& b,
                         const char* table) {
  ASSERT_EQ(a.size(), b.size()) << table;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].prefix == b[i].prefix && a[i].from_peer == b[i].from_peer &&
                a[i].neighbor_as == b[i].neighbor_as && a[i].sequence == b[i].sequence &&
                a[i].eligible == b[i].eligible && a[i].bytes == b[i].bytes)
        << table << " record " << i;
  }
}

// Drives a fresh speaker through `kSteps` seeded random steps (announce,
// withdraw, peer_down, peer_up, originate, withdraw_origin, flush) on a
// `threads`-wide pool, checking the per-step invariants, then withdraws
// everything and checks the arena drain.
TableRun drive(std::uint64_t seed, std::size_t threads) {
  util::ThreadPool pool(threads);
  auto speaker = make_speaker();
  speaker->set_parallel(&pool);
  const std::size_t baseline = speaker->rib_arena().bytes_in_use();

  util::Rng rng(seed);
  TableRun run;
  std::vector<bool> up(kPeers, true);
  std::set<std::pair<std::size_t, std::uint32_t>> learned;  // (peer, prefix) in adj-in
  std::set<std::uint32_t> originated;
  const auto collect = [&run](const std::vector<core::DbgpOutgoing>& out) {
    for (const auto& o : out) run.emitted.emplace_back(o.peer, o.bytes());
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::size_t peer = rng.next_below(kPeers);
    const auto prefix = static_cast<std::uint32_t>(rng.next_below(kPrefixes));
    const std::uint32_t kind = rng.next_below(100);
    if (kind < 50) {
      if (!up[peer]) continue;
      collect(speaker->enqueue_frame(static_cast<bgp::PeerId>(peer),
                                     ia::make_shared_frame(announce(peer, prefix, rng))));
      learned.insert({peer, prefix});
    } else if (kind < 72) {
      if (!up[peer]) continue;
      collect(speaker->enqueue_frame(
          static_cast<bgp::PeerId>(peer),
          ia::make_shared_frame(core::DbgpSpeaker::encode_withdraw(nth_prefix(prefix)))));
      learned.erase({peer, prefix});
    } else if (kind < 82) {
      collect(speaker->flush());
    } else if (kind < 87) {
      collect(speaker->flush());
      if (up[peer]) {
        collect(speaker->peer_down(static_cast<bgp::PeerId>(peer)));
        up[peer] = false;
        std::erase_if(learned, [peer](const auto& e) { return e.first == peer; });
      } else {
        // A session open is a full-table sync: ascending prefix order.
        const auto out = speaker->peer_up(static_cast<bgp::PeerId>(peer));
        up[peer] = true;
        for (std::size_t i = 1; i < out.size(); ++i) {
          EXPECT_LT(announced_prefix(out[i - 1]), announced_prefix(out[i])) << "step " << step;
        }
        collect(out);
      }
    } else if (kind < 94) {
      collect(speaker->originate(nth_prefix(kPrefixes + prefix % 8)));
      originated.insert(kPrefixes + prefix % 8);
    } else {
      collect(speaker->withdraw_origin(nth_prefix(kPrefixes + prefix % 8)));
      originated.erase(kPrefixes + prefix % 8);
    }
  }
  collect(speaker->flush());

  run.state = speaker->export_state();
  run.selected = speaker->selected_prefixes();
  expect_strictly_ascending(run.state.adj_in, /*peer_major=*/false, "adj_in");
  expect_strictly_ascending(run.state.selected, /*peer_major=*/false, "selected");
  expect_strictly_ascending(run.state.adj_out, /*peer_major=*/true, "adj_out");
  EXPECT_TRUE(std::is_sorted(run.selected.begin(), run.selected.end()));
  EXPECT_EQ(run.selected.size(), run.state.selected.size());

  // Each peer's adj_out_depth gauge equals its adj-out records.
  if (telemetry::enabled()) {
    for (std::size_t p = 0; p < kPeers; ++p) {
      const auto records = std::count_if(
          run.state.adj_out.begin(), run.state.adj_out.end(),
          [p](const auto& r) { return r.from_peer == p; });
      const std::string gauge = "dbgp.peer.adj_out_depth|as=" + std::to_string(kAs) +
                                ",peer=" + std::to_string(peer_as(p));
      EXPECT_EQ(telemetry::MetricsRegistry::global().gauge(gauge).value(), records)
          << "peer " << p;
    }
  }

  // A re-sync of a live peer repeats what adj-out already holds: nothing.
  for (std::size_t p = 0; p < kPeers; ++p) {
    if (up[p]) {
      EXPECT_TRUE(speaker->sync_peer(static_cast<bgp::PeerId>(p)).empty());
    }
  }

  // Withdraw everything: the arena returns exactly to its pre-load bytes.
  for (const auto& [peer, prefix] : learned) {
    speaker->enqueue_frame(
        static_cast<bgp::PeerId>(peer),
        ia::make_shared_frame(core::DbgpSpeaker::encode_withdraw(nth_prefix(prefix))));
  }
  collect(speaker->flush());
  for (std::uint32_t prefix : originated) collect(speaker->withdraw_origin(nth_prefix(prefix)));
  EXPECT_TRUE(speaker->selected_prefixes().empty());
  EXPECT_EQ(speaker->ia_db().size(), 0u);
  EXPECT_TRUE(speaker->export_state().adj_out.empty());
  EXPECT_EQ(speaker->rib_arena().bytes_in_use(), baseline);
  return run;
}

class SpeakerTables : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpeakerTables, OrderedOutputsAndDrainAcrossThreadCounts) {
  const TableRun one = drive(GetParam(), 1);
  const TableRun four = drive(GetParam(), 4);
  // The run must exercise every table.
  EXPECT_FALSE(one.state.adj_in.empty());
  EXPECT_FALSE(one.state.adj_out.empty());
  expect_same_records(one.state.adj_in, four.state.adj_in, "adj_in");
  expect_same_records(one.state.selected, four.state.selected, "selected");
  expect_same_records(one.state.adj_out, four.state.adj_out, "adj_out");
  EXPECT_EQ(one.state.originated, four.state.originated);
  EXPECT_EQ(one.state.sequence, four.state.sequence);
  EXPECT_EQ(one.selected, four.selected);
  EXPECT_TRUE(one.emitted == four.emitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpeakerTables, ::testing::Values(11u, 29u, 47u));

}  // namespace
}  // namespace dbgp
