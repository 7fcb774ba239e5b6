// Sharded-pipeline tests: the DESIGN.md §13 determinism contract for the
// speaker's parallel batch path. The plan/commit split promises that emitted
// frames, RIB contents, stats, traces, and audits are bit-identical at every
// thread count and shard count — these tests compare the parallel pipeline
// against the sequential path output-for-output, byte-for-byte. Part of the
// `dbgp_concurrency_tests` binary (ctest -L concurrency) so the
// dbgp_tsan_check target re-runs exactly this surface under ThreadSanitizer
// and dbgp_asan_check under AddressSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/speaker.h"
#include "ia/frame_cache.h"
#include "protocols/bgp_module.h"
#include "simnet/chaos.h"
#include "simnet/network.h"
#include "telemetry/causal.h"
#include "telemetry/metrics.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "frame_spans.h"

namespace dbgp {
namespace {

core::DbgpConfig bgp_as(bgp::AsNumber asn, std::size_t max_batch = 256) {
  core::DbgpConfig config;
  config.asn = asn;
  config.next_hop = net::Ipv4Address(asn);
  config.max_batch = max_batch;
  return config;
}

net::Prefix nth_prefix(std::uint32_t i) {
  return net::Prefix(net::Ipv4Address((10u << 24) | (i << 8)), 24);
}

// A frame as fed to (or emitted by) a speaker, with the bytes flattened so
// equality is literal byte equality.
struct WireFrame {
  bgp::PeerId peer = bgp::kInvalidPeer;
  std::vector<std::uint8_t> bytes;

  bool operator==(const WireFrame&) const = default;
};

// Synthesizes a realistic update stream: every prefix announced by AS900,
// a third of them also announced by AS901 (route choice at the receiver),
// a third withdrawn, and a tail of re-announcements — enough churn that
// batching coalesces, decisions flip, and withdraw planning runs.
std::vector<WireFrame> make_stream(std::uint32_t prefixes) {
  core::DbgpSpeaker sender_a(bgp_as(900));
  core::DbgpSpeaker sender_b(bgp_as(901));
  sender_a.add_module(std::make_unique<protocols::BgpModule>());
  sender_b.add_module(std::make_unique<protocols::BgpModule>());
  sender_a.add_peer(1);
  sender_b.add_peer(1);

  // peer ids are assigned by the *receiver*; the stream records which
  // upstream session each frame arrives on.
  std::vector<WireFrame> stream;
  for (std::uint32_t i = 0; i < prefixes; ++i) {
    auto out = sender_a.originate(nth_prefix(i));
    stream.push_back({0, out.at(0).bytes()});
  }
  for (std::uint32_t i = 0; i < prefixes; i += 3) {
    auto out = sender_b.originate(nth_prefix(i));
    stream.push_back({1, out.at(0).bytes()});
  }
  for (std::uint32_t i = 1; i < prefixes; i += 3) {
    stream.push_back({0, core::DbgpSpeaker::encode_withdraw(nth_prefix(i))});
  }
  // Re-announce a slice of the withdrawn prefixes (fresh IA bytes, so the
  // receiver's adj-in flips back) — coalescing must land on the final state.
  for (std::uint32_t i = 1; i < prefixes; i += 6) {
    sender_a.withdraw_origin(nth_prefix(i));
    auto out = sender_a.originate(nth_prefix(i));
    stream.push_back({0, out.at(0).bytes()});
  }
  return stream;
}

// Everything the pipeline can observably produce, captured for comparison.
struct RunResult {
  std::vector<WireFrame> emitted;  // (peer, bytes) in emission order
  std::vector<net::Prefix> selected;
  std::vector<std::string> paths;  // best path per selected prefix
  core::DbgpStats stats;
  std::uint64_t deferred_rejects = 0;
  std::uint64_t eager_rejects = 0;
  // Out-of-band dissemination: every (key, IA bytes) record in the lookup
  // service, in key order.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> lookup;

  bool same_routes(const RunResult& other) const {
    return selected == other.selected && paths == other.paths;
  }
  bool same_stats(const RunResult& other) const {
    return stats.ias_received == other.stats.ias_received &&
           stats.ias_sent == other.stats.ias_sent &&
           stats.withdraws_received == other.stats.withdraws_received &&
           stats.withdraws_sent == other.stats.withdraws_sent &&
           stats.dropped_by_global_filter == other.stats.dropped_by_global_filter &&
           stats.rejected_by_module == other.stats.rejected_by_module &&
           stats.bytes_sent == other.stats.bytes_sent &&
           stats.bytes_received == other.stats.bytes_received;
  }
};

// Feeds `stream` into a fresh receiver attached to a `threads`-wide pool and
// captures everything it emits. `shared_frames` selects the refcounted
// enqueue overload (the deferred-decode path when max_batch == 0 and the
// pool is wide); undecodable frames are counted, never fatal. With
// out-of-band dissemination the receiver emits notices and publishes its
// IAs to a lookup service, whose contents are captured too.
RunResult run_receiver(const std::vector<WireFrame>& stream, std::size_t threads,
                       std::size_t shards = 0, std::size_t max_batch = 256,
                       bool shared_frames = false,
                       core::Dissemination dissemination = core::Dissemination::kInBand) {
  util::ThreadPool pool(threads);
  core::LookupService lookup;
  core::DbgpConfig config = bgp_as(1, max_batch);
  config.dissemination = dissemination;
  core::DbgpSpeaker rx(config, &lookup);
  rx.add_module(std::make_unique<protocols::BgpModule>());
  const bgp::PeerId from_a = rx.add_peer(900);
  const bgp::PeerId from_b = rx.add_peer(901);
  for (bgp::AsNumber down = 2; down <= 4; ++down) rx.add_peer(down);
  rx.set_parallel(&pool, shards);

  RunResult result;
  auto absorb = [&](std::vector<core::DbgpOutgoing> out) {
    for (auto& frame : out) result.emitted.push_back({frame.peer, frame.bytes()});
  };
  for (const WireFrame& frame : stream) {
    const bgp::PeerId from = frame.peer == 0 ? from_a : from_b;
    try {
      if (shared_frames) {
        absorb(rx.enqueue_frame(from, ia::make_shared_frame(frame.bytes)));
      } else {
        absorb(rx.enqueue_frame(from, frame.bytes));
      }
    } catch (const util::DecodeError&) {
      ++result.eager_rejects;
    }
  }
  absorb(rx.flush());
  result.deferred_rejects = rx.take_deferred_rejects();

  result.selected = rx.selected_prefixes();
  for (const auto& prefix : result.selected) {
    const auto* best = rx.best(prefix);
    result.paths.push_back(best == nullptr ? "?" : best->ia.path_vector.to_string());
  }
  result.stats = rx.stats();
  for (const auto& key : lookup.keys_with_prefix("")) {
    result.lookup.emplace_back(key, lookup.get(key).value());
  }
  return result;
}

// -- Speaker-level bit-identity ----------------------------------------------

// In-band and out-of-band receivers alike: out-of-band commits write the
// lookup service, so its contents must match too.
TEST(ShardPipeline, ThreadCountBitIdentity) {
  const auto stream = make_stream(300);
  for (const auto mode : {core::Dissemination::kInBand, core::Dissemination::kOutOfBand}) {
    const bool oob = mode == core::Dissemination::kOutOfBand;
    const RunResult baseline = run_receiver(stream, 1, 0, 256, false, mode);
    ASSERT_FALSE(baseline.emitted.empty());
    ASSERT_FALSE(baseline.selected.empty());
    ASSERT_EQ(baseline.lookup.empty(), !oob);
    for (const std::size_t threads : {2ul, 8ul}) {
      const RunResult parallel = run_receiver(stream, threads, 0, 256, false, mode);
      EXPECT_EQ(baseline.emitted, parallel.emitted) << threads << " threads, oob " << oob;
      EXPECT_TRUE(baseline.same_routes(parallel)) << threads << " threads, oob " << oob;
      EXPECT_TRUE(baseline.same_stats(parallel)) << threads << " threads, oob " << oob;
      EXPECT_EQ(baseline.lookup, parallel.lookup) << threads << " threads, oob " << oob;
    }
  }
}

// Shard-merge determinism: the commit stage walks the batch in global
// first-touch order, so the shard→prefix assignment must be invisible in
// every output no matter how the batch is partitioned.
TEST(ShardPipeline, ShardCountBitIdentity) {
  const auto stream = make_stream(200);
  const RunResult baseline = run_receiver(stream, 1, 1);
  for (const std::size_t shards : {1ul, 2ul, 3ul, 8ul, 64ul}) {
    const RunResult sharded = run_receiver(stream, 4, shards);
    EXPECT_EQ(baseline.emitted, sharded.emitted) << shards << " shards";
    EXPECT_TRUE(baseline.same_routes(sharded)) << shards << " shards";
    EXPECT_TRUE(baseline.same_stats(sharded)) << shards << " shards";
  }
}

TEST(ShardPipeline, ShardOfIsStableAndInRange) {
  for (std::uint32_t i = 0; i < 500; ++i) {
    const auto prefix = nth_prefix(i);
    for (const std::size_t shards : {1ul, 2ul, 7ul, 16ul}) {
      const std::size_t shard = core::DbgpSpeaker::shard_of(prefix, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, core::DbgpSpeaker::shard_of(prefix, shards));
    }
  }
}

// max_batch == 0 + a wide pool stages raw refcounted frames and decodes them
// in parallel at flush; the output must match eager per-frame staging.
TEST(ShardPipeline, DeferredDecodeMatchesEagerStaging) {
  const auto stream = make_stream(200);
  const RunResult eager = run_receiver(stream, 1, 0, /*max_batch=*/0);
  ASSERT_FALSE(eager.emitted.empty());
  for (const std::size_t threads : {2ul, 8ul}) {
    const RunResult deferred =
        run_receiver(stream, threads, 0, /*max_batch=*/0, /*shared_frames=*/true);
    EXPECT_EQ(eager.emitted, deferred.emitted) << threads << " threads";
    EXPECT_TRUE(eager.same_routes(deferred)) << threads << " threads";
    EXPECT_TRUE(eager.same_stats(deferred)) << threads << " threads";
  }
}

// Undecodable frames: the eager path throws util::DecodeError from
// enqueue_frame; the deferred path must reject the same frames at drain
// (take_deferred_rejects) with identical surviving state and byte counters.
TEST(ShardPipeline, CorruptFrameRejectionIdentity) {
  auto stream = make_stream(120);
  const std::vector<std::uint8_t> garbage = {1, 0xFF, 0xFF, 0x00, 0x07};
  for (std::size_t i = 5; i < stream.size(); i += 17) {
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(i), {0, garbage});
  }
  const RunResult eager = run_receiver(stream, 1, 0, /*max_batch=*/0);
  ASSERT_GT(eager.eager_rejects, 0u);
  EXPECT_EQ(eager.deferred_rejects, 0u);
  const RunResult deferred =
      run_receiver(stream, 8, 0, /*max_batch=*/0, /*shared_frames=*/true);
  EXPECT_EQ(deferred.eager_rejects, 0u);
  EXPECT_EQ(deferred.deferred_rejects, eager.eager_rejects);
  EXPECT_EQ(eager.emitted, deferred.emitted);
  EXPECT_TRUE(eager.same_routes(deferred));
  EXPECT_TRUE(eager.same_stats(deferred));  // includes bytes_received parity
}

// Property test: random interleavings of the two upstream sessions must stay
// bit-identical across thread counts — the ordering guarantee cannot depend
// on a particular arrival pattern.
TEST(ShardPipeline, PropertyRandomInterleavingsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto stream = make_stream(150);
    util::Rng rng(seed);
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.next_u32() % i]);
    }
    const RunResult baseline = run_receiver(stream, 1);
    const RunResult parallel = run_receiver(stream, 8);
    EXPECT_EQ(baseline.emitted, parallel.emitted) << "seed " << seed;
    EXPECT_TRUE(baseline.same_routes(parallel)) << "seed " << seed;
    EXPECT_TRUE(baseline.same_stats(parallel)) << "seed " << seed;
  }
}

// -- The parallel gate --------------------------------------------------------

// A one-prefix flush has nothing to share out: it plans and commits in place
// without waking the pool, so no shard flush is counted. A multi-prefix flush
// on the same pool still shards. Both match the 1-thread run.
TEST(ShardPipeline, SinglePrefixFlushStaysSequential) {
  const telemetry::Counter& flushes =
      telemetry::MetricsRegistry::global().counter("dbgp.shard.flushes");
  for (const std::uint32_t prefixes : {1u, 30u}) {
    const auto stream = make_stream(prefixes);
    const RunResult baseline = run_receiver(stream, 1, 0, /*max_batch=*/0);
    ASSERT_FALSE(baseline.selected.empty()) << prefixes << " prefixes";
    const std::uint64_t before = flushes.value();
    const RunResult pooled = run_receiver(stream, 4, 0, /*max_batch=*/0);
    EXPECT_EQ(flushes.value() - before, prefixes > 1 ? 1u : 0u) << prefixes << " prefixes";
    EXPECT_EQ(baseline.emitted, pooled.emitted) << prefixes << " prefixes";
    EXPECT_TRUE(baseline.same_routes(pooled)) << prefixes << " prefixes";
    EXPECT_TRUE(baseline.same_stats(pooled)) << prefixes << " prefixes";
  }
}

// The gate depends only on the pool width and the shard count: tracing and
// out-of-band dissemination happen at commit, so they shard too.
TEST(ShardPipeline, GateEngagesForCausalAndOutOfBand) {
  util::ThreadPool pool(4);

  core::DbgpSpeaker wide(bgp_as(1));
  wide.set_parallel(&pool);
  EXPECT_TRUE(wide.parallel_active());
  EXPECT_EQ(wide.shard_count(), pool.size());

  telemetry::CausalTracer tracer;
  wide.set_causal(&tracer);
  EXPECT_TRUE(wide.parallel_active());  // spans and audits mint at commit
  wide.set_parallel(&pool, 1);
  EXPECT_FALSE(wide.parallel_active());  // one shard leaves nothing to split

  util::ThreadPool narrow_pool(1);
  core::DbgpSpeaker narrow(bgp_as(2));
  narrow.set_parallel(&narrow_pool);
  EXPECT_FALSE(narrow.parallel_active());

  auto oob_config = bgp_as(3);
  oob_config.dissemination = core::Dissemination::kOutOfBand;
  core::LookupService lookup;
  core::DbgpSpeaker oob(oob_config, &lookup);
  oob.set_parallel(&pool);
  EXPECT_TRUE(oob.parallel_active());  // the lookup service is written at commit
}

// -- Network-level bit-identity ----------------------------------------------

simnet::DbgpNetwork make_line(std::size_t n, simnet::DbgpNetwork::Options options) {
  simnet::DbgpNetwork net(nullptr, options);
  for (bgp::AsNumber asn = 1; asn <= n; ++asn) {
    net.add_as(bgp_as(asn)).add_module(std::make_unique<protocols::BgpModule>());
  }
  for (bgp::AsNumber asn = 1; asn < n; ++asn) net.add_link(asn, asn + 1);
  return net;
}

bool same_churn(const simnet::RunStats& a, const simnet::RunStats& b) {
  return a.processed == b.processed && a.link_flaps == b.link_flaps &&
         a.crashes == b.crashes && a.restarts == b.restarts &&
         a.frames_lost == b.frames_lost && a.frames_duplicated == b.frames_duplicated &&
         a.frames_reordered == b.frames_reordered &&
         a.frames_corrupted == b.frames_corrupted &&
         a.frames_rejected == b.frames_rejected;
}

// Every AS's Loc-RIB flattened to one comparable string.
std::string dump_ribs(simnet::DbgpNetwork& net, std::size_t n) {
  std::string out;
  for (bgp::AsNumber asn = 1; asn <= n; ++asn) {
    for (const auto& prefix : net.speaker(asn).selected_prefixes()) {
      const auto* best = net.speaker(asn).best(prefix);
      out += std::to_string(asn) + " " + prefix.to_string() + " via " +
             (best == nullptr ? "?" : best->ia.path_vector.to_string()) + "\n";
    }
  }
  return out;
}

simnet::ChaosOptions stress_chaos() {
  simnet::ChaosOptions chaos;
  chaos.seed = 7;
  chaos.horizon = 2.0;
  chaos.flap_fraction = 0.5;
  chaos.mean_up = 0.3;
  chaos.mean_down = 0.05;
  chaos.faults.loss = 0.05;
  chaos.faults.duplicate = 0.03;
  chaos.faults.reorder = 0.05;
  chaos.faults.corrupt = 0.05;
  chaos.crash_fraction = 0.3;
  chaos.mean_downtime = 0.3;
  return chaos;
}

struct NetworkRun {
  simnet::RunStats stats;
  std::vector<telemetry::Span> trace;  // frame spans
  std::string ribs;
};

NetworkRun run_network(std::size_t speaker_threads, bool with_chaos) {
  telemetry::CausalTracer tracer;
  simnet::DbgpNetwork::Options options;
  options.delivery = simnet::DeliveryMode::kBatched;
  options.causal = &tracer;
  options.speaker_threads = speaker_threads;
  simnet::DbgpNetwork net = make_line(5, options);
  for (std::uint32_t i = 0; i < 20; ++i) net.originate(1 + i % 5, nth_prefix(i));
  if (with_chaos) {
    simnet::ChaosPolicy policy(stress_chaos());
    policy.inject(net);
  }
  NetworkRun result;
  result.stats = net.run_to_convergence();
  result.trace = tests::frame_spans(tracer);
  result.ribs = dump_ribs(net, 5);
  return result;
}

TEST(ShardPipelineNetwork, FaultFreeBitIdenticalAcrossSpeakerThreads) {
  const NetworkRun baseline = run_network(1, /*with_chaos=*/false);
  ASSERT_FALSE(baseline.ribs.empty());
  ASSERT_FALSE(baseline.trace.empty());
  for (const std::size_t threads : {2ul, 8ul}) {
    const NetworkRun parallel = run_network(threads, /*with_chaos=*/false);
    EXPECT_TRUE(same_churn(baseline.stats, parallel.stats)) << threads << " threads";
    EXPECT_TRUE(tests::same_frame_spans(baseline.trace, parallel.trace))
        << threads << " threads";
    EXPECT_EQ(baseline.ribs, parallel.ribs) << threads << " threads";
  }
}

TEST(ShardPipelineNetwork, ChaosBitIdenticalAcrossSpeakerThreads) {
  const NetworkRun baseline = run_network(1, /*with_chaos=*/true);
  EXPECT_GT(baseline.stats.link_flaps, 0u);  // the schedule actually fired
  for (const std::size_t threads : {2ul, 8ul}) {
    const NetworkRun parallel = run_network(threads, /*with_chaos=*/true);
    EXPECT_TRUE(same_churn(baseline.stats, parallel.stats)) << threads << " threads";
    EXPECT_TRUE(tests::same_frame_spans(baseline.trace, parallel.trace))
        << threads << " threads";
    EXPECT_EQ(baseline.ribs, parallel.ribs) << threads << " threads";
  }
}

// Every span and audit field, one string per record, so a mismatch names
// the first differing record.
std::vector<std::string> flatten_causal(const telemetry::CausalTracer& tracer) {
  std::vector<std::string> out;
  const auto num = [](double v) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
  };
  for (const auto& s : tracer.spans()) {
    out.push_back("span " + std::to_string(s.id) + " " + std::to_string(s.parent) + " " +
                  std::to_string(s.trace) + " " + telemetry::to_string(s.kind) + " " +
                  num(s.start) + " " + num(s.end) + " " + std::to_string(s.as) + " " +
                  std::to_string(s.peer_as) + " " + s.name + " " + s.prefix + " " +
                  std::to_string(s.bytes) + " " + s.detail);
  }
  for (const auto& a : tracer.audits()) {
    std::string line = "audit " + std::to_string(a.span) + " " + num(a.time) + " " +
                       std::to_string(a.as) + " " + a.prefix + " " +
                       std::to_string(a.origin) + " " + std::to_string(a.selected) + " " +
                       std::to_string(a.changed) + " [" + a.best_path + "] [" +
                       a.prev_path + "] " + std::to_string(a.best_via);
    for (const auto& c : a.candidates) {
      line += " | " + std::to_string(c.neighbor_as) + " [" + c.path + "] " +
              std::to_string(c.via_span) + " " + std::to_string(c.eligible) + " " +
              c.outcome;
    }
    out.push_back(std::move(line));
  }
  return out;
}

// Traced speakers shard too (spans and audits are minted at commit, in
// first-touch order), so the full span/audit content and the RIBs must come
// out identical at 1 and 8 threads — including under chaos, where link cuts
// drive peer_down/peer_up decisions through the same path.
TEST(ShardPipelineNetwork, CausalTracingBitIdenticalAcrossSpeakerThreads) {
  auto run_causal = [](std::size_t speaker_threads, bool with_chaos) {
    auto tracer = std::make_unique<telemetry::CausalTracer>();
    simnet::DbgpNetwork::Options options;
    options.delivery = simnet::DeliveryMode::kBatched;
    options.causal = tracer.get();
    options.speaker_threads = speaker_threads;
    simnet::DbgpNetwork net = make_line(4, options);
    for (bgp::AsNumber asn = 1; asn <= 4; ++asn) {
      EXPECT_EQ(net.speaker(asn).parallel_active(), speaker_threads > 1)
          << "AS" << asn << " with " << speaker_threads << " threads";
    }
    for (std::uint32_t i = 0; i < 8; ++i) net.originate(1 + i % 4, nth_prefix(i));
    if (with_chaos) {
      simnet::ChaosPolicy policy(stress_chaos());
      policy.inject(net);
    }
    net.run_to_convergence();
    return std::make_pair(flatten_causal(*tracer), dump_ribs(net, 4));
  };
  for (const bool with_chaos : {false, true}) {
    const auto baseline = run_causal(1, with_chaos);
    ASSERT_GT(baseline.first.size(), 0u);
    const auto parallel = run_causal(8, with_chaos);
    EXPECT_EQ(baseline.first, parallel.first) << "chaos " << with_chaos;
    EXPECT_EQ(baseline.second, parallel.second) << "chaos " << with_chaos;
  }
}

// Live reconfiguration: speaker-threads changes are refused while any
// speaker holds staged frames (the batch must drain first) and applied
// cleanly between drains.
TEST(ShardPipelineNetwork, SetSpeakerThreadsRejectedMidBatch) {
  simnet::DbgpNetwork::Options options;
  options.delivery = simnet::DeliveryMode::kBatched;
  simnet::DbgpNetwork net = make_line(3, options);
  const auto prefix = nth_prefix(0);
  net.originate(1, prefix);
  // Process exactly the first delivery: AS2 now holds a staged frame.
  const simnet::RunStats partial = net.run_to_convergence(1);
  ASSERT_TRUE(partial.capped);
  ASSERT_EQ(net.speaker(2).pending_batch(), 1u);
  EXPECT_THROW(net.set_speaker_threads(4), std::runtime_error);
  EXPECT_EQ(net.speaker_threads(), 1u);  // refused change left options alone

  net.run_to_convergence();
  EXPECT_EQ(net.speaker(2).pending_batch(), 0u);
  EXPECT_NO_THROW(net.set_speaker_threads(4));
  EXPECT_EQ(net.speaker_threads(), 4u);

  // The network still routes — and back to 1 detaches the pool entirely.
  net.withdraw(1, prefix);
  net.run_to_convergence();
  EXPECT_EQ(net.speaker(3).best(prefix), nullptr);
  EXPECT_NO_THROW(net.set_speaker_threads(1));
  EXPECT_EQ(net.speaker_threads(), 1u);
}

}  // namespace
}  // namespace dbgp
