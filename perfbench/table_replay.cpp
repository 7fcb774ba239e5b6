// table_replay: one BGP-module speaker, 6 feeding peers that all announce the
// same prefix set with their own paths, 2 receive-only peers, driven through
// the batched API (enqueue_frame + one flush per window).
//
// Why: the decision and table layers (IA DB, best path, adj-out, frame
// cache) do most of the work; the codec does little.
// Load (inserts) sits beside churn (implicit replaces, then withdraw drains
// that rescan and delete), so a change that speeds one and slows the other
// shows.
//
// The timed speaker runs without a thread pool. On the shared 4-vCPU host a
// min(4, nproc)-thread pool made load and churn rates swing by a third
// between runs of one seed, because every flush waits for its slowest
// worker; the sequential batched path varied by about a tenth. The sharded
// pipeline still runs on every invocation: an untimed pooled replay of the
// load must reach the same Loc-RIB, and in the traced run it gives the
// shard.* and util.pool.* readings.
#include <algorithm>
#include <optional>
#include <thread>

#include "probes.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "util/bytes.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace dbgp::perfbench {

namespace {

constexpr std::size_t kPrefixes = 10000;
constexpr std::size_t kFeeders = 6;
constexpr std::size_t kReceivers = 2;
// Frames each feeding peer contributes to one flush window. Withdraw drains
// flush every kDrainWindow frames of the draining peer. Both divide the
// stream lengths, so every window is full: a run's churn windows form two
// tight groups, 5 replace windows of 3000 frames and 24 drain windows of
// 2500, and the percentiles over them do not straddle partial windows.
constexpr std::size_t kWindow = 500;
constexpr std::size_t kDrainWindow = 2500;
static_assert(kPrefixes % kWindow == 0 && (kPrefixes / 4) % kWindow == 0 &&
              kPrefixes % kDrainWindow == 0);
constexpr std::size_t kLookups = 1000;
constexpr std::size_t kLookupBatch = 1024;

std::size_t pooled_replay_threads() {
  return std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
}

FeedShape shape() {
  FeedShape s;
  s.prefixes = kPrefixes;
  s.feeders = kFeeders;
  return s;
}

struct Rep {
  double setup_s = 0.0;
  double load_s = 0.0;
  double churn_s = 0.0;
  std::size_t load_frames = 0;
  std::size_t churn_frames = 0;
  double rib_bytes_per_route = 0.0;
  std::uint64_t hash = 0;
  std::vector<double> change_ms;  // churn windows
  std::vector<double> query_ms;
  // Traced repetitions only.
  std::vector<double> flush_ms;
  std::vector<double> enqueue_us;  // mean per window
};

// Feeds one window, flushes, and returns the window's wall time. Decode
// failures (eager throw or deferred reject) count as failed operations.
class Feeder {
 public:
  Feeder(core::DbgpSpeaker& speaker, Outcome& out, Rep& rep, bool traced)
      : speaker_(speaker), out_(out), rep_(rep), traced_(traced) {}

  void enqueue(bgp::PeerId peer, const ia::SharedFrame& frame) {
    trace::ScopedSpan span(enqueue_kind_);
    ++out_.attempted;
    try {
      speaker_.enqueue_frame(peer, frame);
    } catch (const util::DecodeError& e) {
      ++out_.failed;
      out_.problems.push_back(std::string("table_replay: frame rejected: ") + e.what());
    }
  }

  // Closes a window opened at `t0` with `frames` enqueued frames.
  double flush(Clock::time_point t0, std::size_t frames) {
    const auto t_flush = Clock::now();
    {
      trace::ScopedSpan span(flush_kind_);
      trace::set_ambient_parent(span.id());
      speaker_.flush();
      trace::set_ambient_parent(0);
    }
    const auto t_end = Clock::now();
    ++out_.attempted;
    const std::uint64_t rejects = speaker_.take_deferred_rejects();
    out_.failed += rejects;
    if (rejects != 0) {
      out_.problems.push_back("table_replay: " + std::to_string(rejects) +
                              " staged frames rejected at flush");
    }
    if (traced_) {
      rep_.flush_ms.push_back(std::chrono::duration<double, std::milli>(t_end - t_flush).count());
      rep_.enqueue_us.push_back(
          std::chrono::duration<double, std::micro>(t_flush - t0).count() /
          static_cast<double>(std::max<std::size_t>(frames, 1)));
    }
    return std::chrono::duration<double, std::milli>(t_end - t0).count();
  }

 private:
  core::DbgpSpeaker& speaker_;
  Outcome& out_;
  Rep& rep_;
  bool traced_;
  std::uint32_t enqueue_kind_ = trace::kind("core.speaker.enqueue");
  std::uint32_t flush_kind_ = trace::kind("core.speaker.flush");
};

// Announces every feeding peer's load stream, kWindow frames per peer per
// flush, the peers interleaved frame by frame.
void load(const Feed& feed, Feeder& feeder) {
  for (std::size_t base = 0; base < kPrefixes; base += kWindow) {
    trace::next_group();
    const auto t0 = Clock::now();
    const std::size_t end = std::min(kPrefixes, base + kWindow);
    for (std::size_t i = base; i < end; ++i) {
      for (std::size_t p = 0; p < feed.peers.size(); ++p) {
        feeder.enqueue(static_cast<bgp::PeerId>(p), feed.peers[p].load[i]);
      }
    }
    feeder.flush(t0, (end - base) * feed.peers.size());
  }
}

// Implicit replaces (all peers interleaved), then one withdraw drain per
// peer. Each flush window is one change; its wall time is a sample.
void churn(const Feed& feed, Feeder& feeder, Rep& rep) {
  const std::size_t replaces = feed.peers.front().replace.size();
  for (std::size_t base = 0; base < replaces; base += kWindow) {
    trace::next_group();
    const auto t0 = Clock::now();
    const std::size_t end = std::min(replaces, base + kWindow);
    for (std::size_t i = base; i < end; ++i) {
      for (std::size_t p = 0; p < feed.peers.size(); ++p) {
        feeder.enqueue(static_cast<bgp::PeerId>(p), feed.peers[p].replace[i]);
      }
    }
    rep.change_ms.push_back(feeder.flush(t0, (end - base) * feed.peers.size()));
  }
  for (std::size_t p = 0; p < feed.peers.size(); ++p) {
    const auto& withdraws = feed.peers[p].withdraw;
    for (std::size_t base = 0; base < withdraws.size(); base += kDrainWindow) {
      trace::next_group();
      const auto t0 = Clock::now();
      const std::size_t end = std::min(withdraws.size(), base + kDrainWindow);
      for (std::size_t i = base; i < end; ++i) {
        feeder.enqueue(static_cast<bgp::PeerId>(p), withdraws[i]);
      }
      rep.change_ms.push_back(feeder.flush(t0, end - base));
    }
  }
}

Rep run_rep(std::uint64_t seed, bool traced, Outcome& out) {
  Rep rep;
  auto& registry = telemetry::MetricsRegistry::global();
  const auto t_setup = Clock::now();
  const Feed feed = make_feed(shape(), seed);
  auto speaker = make_speaker(kFeeders, kReceivers, traced, /*max_batch=*/0);
  rep.setup_s = seconds_since(t_setup);

  const std::size_t base_bytes = speaker->rib_arena().bytes_in_use();
  registry.reset();
  reset_decision_counters();
  trace::set_enabled(traced);
  double cpu0 = cpu_seconds();
  Feeder feeder(*speaker, out, rep, traced);

  auto t0 = Clock::now();
  load(feed, feeder);
  rep.load_s = seconds_since(t0);
  double cpu_s = cpu_seconds() - cpu0;
  rep.load_frames = feed.load_frames();

  trace::set_enabled(false);
  out.check(speaker->selected_prefixes().size() == kPrefixes,
            "table_replay: not every prefix is selected after load");
  rep.rib_bytes_per_route = static_cast<double>(speaker->rib_arena().bytes_in_use()) /
                            static_cast<double>(speaker->ia_db().size());
  const double slack = ratio(static_cast<double>(speaker->rib_arena().bytes_reserved()),
                             static_cast<double>(speaker->rib_arena().bytes_in_use()));
  rep.hash = loc_rib_hash(*speaker);
  rep.query_ms = timed_lookups(*speaker, feed.prefixes, seed, kLookups, kLookupBatch, out);
  trace::set_enabled(traced);

  cpu0 = cpu_seconds();
  t0 = Clock::now();
  churn(feed, feeder, rep);
  rep.churn_s = seconds_since(t0);
  cpu_s += cpu_seconds() - cpu0;
  rep.churn_frames = feed.churn_frames();
  trace::set_enabled(false);

  out.check(speaker->selected_prefixes().empty(),
            "table_replay: Loc-RIB not empty after every peer withdrew");
  out.check(speaker->rib_arena().bytes_in_use() == base_bytes,
            "table_replay: RIB arena bytes_in_use not back to its pre-load value");

  if (traced) {
    const telemetry::MetricsSnapshot snap = registry.snapshot();
    speaker_layer_metrics(*speaker, snap, rep.load_frames + rep.churn_frames, out);
    out.set("rib.arena.slack_ratio", slack, "ratio");
    out.set("process.cpu_util", ratio(cpu_s, rep.load_s + rep.churn_s), "ratio");
  }
  return rep;
}

// The untimed pooled replay: the same load windows through the sharded
// pipeline on a min(4, nproc)-thread pool. Its Loc-RIB must hash like the
// timed sequential one. With `layers` it reports the pipeline's shard.* and
// util.pool.wait_ms readings.
std::uint64_t pooled_hash(std::uint64_t seed, bool layers, Outcome& out) {
  auto& registry = telemetry::MetricsRegistry::global();
  const Feed feed = make_feed(shape(), seed);
  util::ThreadPool pool(pooled_replay_threads());
  auto speaker = make_speaker(kFeeders, kReceivers, false, /*max_batch=*/0);
  speaker->set_parallel(&pool);
  registry.reset();
  pool.snapshot_and_reset();
  Rep rep;
  Feeder feeder(*speaker, out, rep, false);
  load(feed, feeder);
  if (layers) {
    const telemetry::MetricsSnapshot snap = registry.snapshot();
    const double decode = histogram_sum(snap, "dbgp.shard.stage_wall_s.decode");
    const double plan = histogram_sum(snap, "dbgp.shard.stage_wall_s.decision");
    const double commit = histogram_sum(snap, "dbgp.shard.stage_wall_s.commit");
    out.set("shard.decode_s", decode, "s");
    out.set("shard.plan_s", plan, "s");
    out.set("shard.commit_s", commit, "s");
    out.set("shard.commit_share", ratio(commit, decode + plan + commit), "fraction");
    const auto* imbalance = snap.find_gauge("dbgp.shard.imbalance_permille");
    out.set("shard.imbalance_permille",
            imbalance == nullptr ? 0.0 : static_cast<double>(imbalance->high_water), "permille");
    out.set("util.pool.wait_ms", static_cast<double>(pool.stats().wait_ns) * 1e-6, "ms");
  }
  return loc_rib_hash(*speaker);
}

}  // namespace

Outcome run_table_replay(const RunArgs& args) {
  Outcome out;
  Repetitions reps(args);
  std::vector<double> flush_ms, enqueue_us;
  std::optional<std::uint64_t> hash;
  while (reps.more()) {
    const bool traced = reps.traced();
    if (traced) trace::clear();
    Rep rep = run_rep(args.seed, traced, out);
    if (!hash) hash = rep.hash;
    out.check(rep.hash == *hash, "table_replay: Loc-RIB differs between repetitions");
    if (traced && reps.measured()) {
      flush_ms.insert(flush_ms.end(), rep.flush_ms.begin(), rep.flush_ms.end());
      enqueue_us.insert(enqueue_us.end(), rep.enqueue_us.begin(), rep.enqueue_us.end());
    }
    reps.done(rep.load_s + rep.churn_s,
              {rep.setup_s, static_cast<double>(rep.load_frames) / rep.load_s,
               static_cast<double>(rep.churn_frames) / rep.churn_s, rep.rib_bytes_per_route,
               std::move(rep.change_ms), std::move(rep.query_ms)});
  }
  out.check(pooled_hash(args.seed, args.trace, out) == *hash,
            "table_replay: pooled Loc-RIB differs from the sequential one");
  reps.report(out);
  if (!args.trace) return out;

  out.set("core.speaker.flush_ms_p50", percentile(flush_ms, 50), "ms");
  out.set("core.speaker.flush_ms_p99", percentile(flush_ms, 99), "ms");
  out.set("core.speaker.enqueue_us_mean", mean(enqueue_us), "us");
  // The codec probe runs on the workload's own frames: one window's worth.
  const Feed feed = make_feed(shape(), args.seed);
  std::vector<ia::SharedFrame> sample;
  for (const auto& peer : feed.peers) {
    sample.insert(sample.end(), peer.load.begin(),
                  peer.load.begin() + static_cast<std::ptrdiff_t>(kWindow));
  }
  trace::set_enabled(true);
  const CodecProbe codec = probe_codec(sample);
  trace::set_enabled(false);
  out.set("codec.decode_us_per_kb", codec.decode_us_per_kb, "us/KB");
  out.set("codec.encode_us_per_kb", codec.encode_us_per_kb, "us/KB");
  return out;
}

}  // namespace dbgp::perfbench
