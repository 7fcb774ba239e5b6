// large_ia: the table_replay peer shape (6 feeding + 2 receive-only peers)
// through the immediate handle_frame path of a BGP-only (gulf) speaker, with
// IAs carrying tens of KB of descriptors for protocols the speaker does not
// run.
//
// Why: this is the paper's pass-through (CF-R1) hot path. Lazy decode and
// spliced re-encode in the codec, the descriptor interner and frame-cache
// hashing dominate, and the tables are small. No thread pool is involved, so
// a parallel-commit change predicts no movement here.
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "ia/codec.h"
#include "probes.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "util/bytes.h"
#include "workload.h"

namespace dbgp::perfbench {

namespace {

constexpr std::size_t kPrefixes = 500;
constexpr std::size_t kFeeders = 6;
constexpr std::size_t kReceivers = 2;
constexpr std::size_t kLookups = 1000;
constexpr std::size_t kLookupBatch = 1024;

// Table 2 split: 4 critical fixes on the path (CFs/path 3-5) of 8 KB control
// information each (CI/CF 4-256 KB), 20% of it unique per fix (CFu 0.1-0.3).
FeedShape shape() {
  FeedShape s;
  s.prefixes = kPrefixes;
  s.feeders = kFeeders;
  s.fixes = 4;
  s.bytes_per_fix = 8 * 1024;
  s.unique_fraction = 0.2;
  return s;
}

struct Rep {
  Feed feed;  // generated in set-up; kept for the checks
  double setup_s = 0.0;
  double load_s = 0.0;
  double churn_s = 0.0;
  std::size_t load_frames = 0;
  std::size_t churn_frames = 0;
  double rib_bytes_per_route = 0.0;
  std::uint64_t hash = 0;
  std::vector<double> change_ms;  // one sample per churn frame
  std::vector<double> query_ms;
  std::vector<double> frame_us;   // traced: every handle_frame call
  std::vector<ia::SharedFrame> to_receivers;  // announces sent to receive-only peers
};

class Feeder {
 public:
  Feeder(core::DbgpSpeaker& speaker, Outcome& out, Rep& rep, bool traced)
      : speaker_(speaker), out_(out), rep_(rep), traced_(traced) {}

  // Hands one frame to the speaker; returns its wall time in ms.
  double handle(bgp::PeerId peer, const ia::SharedFrame& frame) {
    if (traced_) trace::next_group();
    const auto t0 = Clock::now();
    ++out_.attempted;
    std::vector<core::DbgpOutgoing> sent;
    try {
      trace::ScopedSpan span(handle_kind_);
      sent = speaker_.handle_frame(peer, *frame);
    } catch (const util::DecodeError& e) {
      ++out_.failed;
      out_.problems.push_back(std::string("large_ia: frame rejected: ") + e.what());
    }
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (traced_) rep_.frame_us.push_back(ms * 1e3);
    for (auto& o : sent) {
      if (o.peer >= kFeeders &&
          o.frame->front() == static_cast<std::uint8_t>(core::FrameType::kAnnounce)) {
        rep_.to_receivers.push_back(std::move(o.frame));
      }
    }
    return ms;
  }

 private:
  core::DbgpSpeaker& speaker_;
  Outcome& out_;
  Rep& rep_;
  bool traced_;
  std::uint32_t handle_kind_ = trace::kind("core.speaker.handle_frame");
};

// Unknown-protocol path descriptors of an encoded announce frame.
std::vector<ia::PathDescriptor> unknown_descriptors(const ia::IntegratedAdvertisement& ia) {
  std::vector<ia::PathDescriptor> out;
  for (const auto& d : ia.path_descriptors()) {
    if (d.protocol >= kFirstUnknownProtocol) out.push_back(d);
  }
  return out;
}

ia::IntegratedAdvertisement decode_frame(const ia::SharedFrame& frame) {
  return ia::decode_ia(std::span<const std::uint8_t>(frame->data() + 1, frame->size() - 1));
}

// Every announce re-advertised to a receive-only peer must decode, and its
// unknown-protocol descriptors must be byte-identical to those of an input
// frame the feeding peer named in its path sent for that prefix.
void check_pass_through(const Feed& feed, const std::vector<ia::SharedFrame>& sent,
                        Outcome& out) {
  std::unordered_map<bgp::AsNumber, std::size_t> peer_of;
  for (std::size_t p = 0; p < feed.peers.size(); ++p) peer_of[feed.peers[p].asn] = p;
  // (peer, prefix) -> unknown descriptors of each version that peer sent.
  std::unordered_map<std::uint64_t, std::vector<std::vector<ia::PathDescriptor>>> inputs;
  auto key = [](std::size_t peer, const net::Prefix& prefix) {
    return (static_cast<std::uint64_t>(peer) << 40) ^
           (static_cast<std::uint64_t>(prefix.address().value()) << 8) ^ prefix.length();
  };
  for (std::size_t p = 0; p < feed.peers.size(); ++p) {
    for (const auto* frames : {&feed.peers[p].load, &feed.peers[p].replace}) {
      for (const auto& frame : *frames) {
        const auto ia = decode_frame(frame);
        inputs[key(p, ia.destination)].push_back(unknown_descriptors(ia));
      }
    }
  }
  std::size_t bad = 0;
  for (const auto& frame : sent) {
    ++out.attempted;
    try {
      const auto ia = decode_frame(frame);
      const auto& segments = ia.baseline.as_path.segments();
      const auto via = segments.empty() || segments[0].asns.size() < 2
                           ? peer_of.end()
                           : peer_of.find(segments[0].asns[1]);
      const auto descriptors = unknown_descriptors(ia);
      const auto it = via == peer_of.end() ? inputs.end()
                                           : inputs.find(key(via->second, ia.destination));
      const bool ok = !descriptors.empty() && it != inputs.end() &&
                      std::find(it->second.begin(), it->second.end(), descriptors) !=
                          it->second.end();
      if (!ok) ++bad;
    } catch (const util::DecodeError&) {
      ++bad;
    }
  }
  out.failed += bad;
  if (bad != 0) {
    out.problems.push_back("large_ia: " + std::to_string(bad) +
                           " re-advertised frames lost or altered pass-through descriptors");
  }
}

Rep run_rep(std::uint64_t seed, bool traced, Outcome& out) {
  Rep rep;
  auto& registry = telemetry::MetricsRegistry::global();
  const auto t_setup = Clock::now();
  rep.feed = make_feed(shape(), seed);
  const Feed& feed = rep.feed;
  auto speaker = make_speaker(kFeeders, kReceivers, traced, /*max_batch=*/256);
  rep.setup_s = seconds_since(t_setup);

  const std::size_t base_bytes = speaker->rib_arena().bytes_in_use();
  registry.reset();
  reset_decision_counters();
  trace::set_enabled(traced);
  Feeder feeder(*speaker, out, rep, traced);

  auto t0 = Clock::now();
  for (std::size_t i = 0; i < kPrefixes; ++i) {
    for (std::size_t p = 0; p < kFeeders; ++p) {
      feeder.handle(static_cast<bgp::PeerId>(p), feed.peers[p].load[i]);
    }
  }
  rep.load_s = seconds_since(t0);
  rep.load_frames = feed.load_frames();

  trace::set_enabled(false);
  out.check(speaker->selected_prefixes().size() == kPrefixes,
            "large_ia: not every prefix is selected after load");
  rep.rib_bytes_per_route = static_cast<double>(speaker->rib_arena().bytes_in_use()) /
                            static_cast<double>(speaker->ia_db().size());
  const double slack = ratio(static_cast<double>(speaker->rib_arena().bytes_reserved()),
                             static_cast<double>(speaker->rib_arena().bytes_in_use()));
  rep.hash = loc_rib_hash(*speaker);
  rep.query_ms = timed_lookups(*speaker, feed.prefixes, seed, kLookups, kLookupBatch, out);
  trace::set_enabled(traced);

  t0 = Clock::now();
  const std::size_t replaces = feed.peers.front().replace.size();
  for (std::size_t i = 0; i < replaces; ++i) {
    for (std::size_t p = 0; p < kFeeders; ++p) {
      rep.change_ms.push_back(feeder.handle(static_cast<bgp::PeerId>(p), feed.peers[p].replace[i]));
    }
  }
  for (std::size_t p = 0; p < kFeeders; ++p) {
    for (const auto& frame : feed.peers[p].withdraw) {
      rep.change_ms.push_back(feeder.handle(static_cast<bgp::PeerId>(p), frame));
    }
  }
  rep.churn_s = seconds_since(t0);
  rep.churn_frames = feed.churn_frames();
  trace::set_enabled(false);

  out.check(speaker->selected_prefixes().empty(),
            "large_ia: Loc-RIB not empty after every peer withdrew");
  out.check(speaker->rib_arena().bytes_in_use() == base_bytes,
            "large_ia: RIB arena bytes_in_use not back to its pre-load value");
  if (traced) {
    const telemetry::MetricsSnapshot snap = registry.snapshot();
    speaker_layer_metrics(*speaker, snap, rep.load_frames + rep.churn_frames, out);
    out.set("rib.arena.slack_ratio", slack, "ratio");
  }
  return rep;
}

}  // namespace

Outcome run_large_ia(const RunArgs& args) {
  Outcome out;
  Repetitions reps(args);
  std::vector<double> frame_us;
  std::optional<std::uint64_t> hash;
  Feed feed;  // the last repetition's, for the codec probe
  while (reps.more()) {
    const bool traced = reps.traced();
    if (traced) trace::clear();
    Rep rep = run_rep(args.seed, traced, out);
    if (!hash) hash = rep.hash;
    out.check(rep.hash == *hash, "large_ia: Loc-RIB differs between repetitions");
    check_pass_through(rep.feed, rep.to_receivers, out);
    if (traced && reps.measured()) {
      frame_us.insert(frame_us.end(), rep.frame_us.begin(), rep.frame_us.end());
    }
    reps.done(rep.load_s + rep.churn_s,
              {rep.setup_s, static_cast<double>(rep.load_frames) / rep.load_s,
               static_cast<double>(rep.churn_frames) / rep.churn_s, rep.rib_bytes_per_route,
               std::move(rep.change_ms), std::move(rep.query_ms)});
    feed = std::move(rep.feed);
  }
  reps.report(out);
  if (!args.trace) return out;

  out.set("core.speaker.handle_frame_us_p50", percentile(frame_us, 50), "us");
  out.set("core.speaker.handle_frame_us_p99", percentile(frame_us, 99), "us");
  std::vector<ia::SharedFrame> sample;
  for (const auto& peer : feed.peers) sample.insert(sample.end(), peer.load.begin(), peer.load.end());
  trace::set_enabled(true);
  const CodecProbe codec = probe_codec(sample);
  trace::set_enabled(false);
  out.set("codec.decode_us_per_kb", codec.decode_us_per_kb, "us/KB");
  out.set("codec.encode_us_per_kb", codec.encode_us_per_kb, "us/KB");
  return out;
}

}  // namespace dbgp::perfbench
