#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <span>
#include <stdexcept>

#include "ia/codec.h"
#include "protocols/bgp_module.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace dbgp::perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool Repetitions::more() const {
  return index_ < 3 || seconds_since(start_) < args_.seconds;
}

void Repetitions::done(double busy_s, EndToEndSample sample) {
  const bool traced_rep = traced();
  if (index_++ == 0) return;
  (traced_rep ? traced_wall_ : untraced_wall_).push_back(busy_s);
  if (traced_rep) return;
  setup_.push_back(sample.setup_s);
  load_.push_back(sample.load_pfx_per_s);
  churn_.push_back(sample.churn_pfx_per_s);
  bytes_.push_back(sample.rib_bytes_per_route);
  change_p50_.push_back(percentile(sample.change_ms, 50));
  change_p90_.push_back(percentile(sample.change_ms, 90));
  query_p50_.push_back(percentile(sample.query_ms, 50));
  query_p99_.push_back(percentile(sample.query_ms, 99));
  // Peak RSS after a fixed amount of work (warm-up + first measured
  // repetition): later repetitions only add heap fragmentation, and how many
  // of them fit in --seconds depends on the machine's speed.
  if (rss_mb_ == 0.0) rss_mb_ = peak_rss_mb();
}

void Repetitions::report(Outcome& out) const {
  if (args_.trace) {
    out.set("trace.overhead", median(traced_wall_) / median(untraced_wall_) - 1.0, "ratio");
    return;
  }
  out.set("setup_s", median(setup_), "s");
  out.set("load_pfx_per_s", median(load_), "pfx/s");
  out.set("churn_pfx_per_s", median(churn_), "pfx/s");
  out.set("rib_bytes_per_route", median(bytes_), "B");
  out.set("reconverge_ms_p50", median(change_p50_), "ms");
  out.set("reconverge_ms_p90", median(change_p90_), "ms");
  out.set("query_ms_p50", median(query_p50_), "ms");
  out.set("query_ms_p99", median(query_p99_), "ms");
  out.set("peak_rss_mb", rss_mb_, "MB");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t counter_value(const telemetry::MetricsSnapshot& snap, const std::string& name) {
  const auto* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

double histogram_sum(const telemetry::MetricsSnapshot& snap, const std::string& name) {
  const auto* h = snap.find_histogram(name);
  return h == nullptr ? 0.0 : h->sum;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

namespace {
std::uint64_t fnv1a64(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

std::uint64_t loc_rib_hash(const core::DbgpSpeaker& speaker) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& prefix : speaker.selected_prefixes()) {
    const std::uint32_t addr = prefix.address().value();
    const std::uint8_t head[5] = {
        static_cast<std::uint8_t>(addr >> 24), static_cast<std::uint8_t>(addr >> 16),
        static_cast<std::uint8_t>(addr >> 8), static_cast<std::uint8_t>(addr), prefix.length()};
    h = fnv1a64(h, head);
    const core::IaRoute* best = speaker.best(prefix);
    if (best != nullptr) h = fnv1a64(h, ia::encode_ia(best->ia, speaker.config().codec));
  }
  return h;
}

// -- Decision-module probe ----------------------------------------------------

namespace {

struct Slot {
  std::atomic<std::uint64_t> better_calls{0};
  std::atomic<std::uint64_t> better_ns{0};
  std::atomic<std::uint64_t> export_calls{0};
  std::atomic<std::uint64_t> export_ns{0};
};

struct Slots {
  std::mutex mu;
  std::vector<std::unique_ptr<Slot>> all;  // guarded by mu; slots never move
};

Slots& slots() {
  static Slots s;
  return s;
}

Slot& my_slot() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    Slots& s = slots();
    std::lock_guard lock(s.mu);
    s.all.push_back(std::make_unique<Slot>());
    slot = s.all.back().get();
  }
  return *slot;
}

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

class ProbedBgpModule final : public core::DecisionModule {
 public:
  ia::ProtocolId protocol() const noexcept override { return inner_.protocol(); }
  std::string name() const override { return inner_.name(); }

  bool import_filter(core::IaRoute& route) override { return inner_.import_filter(route); }

  bool better(const core::IaRoute& a, const core::IaRoute& b) const override {
    trace::ScopedSpan span(better_kind_);
    const auto t0 = Clock::now();
    const bool result = inner_.better(a, b);
    Slot& slot = my_slot();
    slot.better_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
    slot.better_calls.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  std::string explain_better(const core::IaRoute& winner,
                             const core::IaRoute& loser) const override {
    return inner_.explain_better(winner, loser);
  }

  void annotate_export(const core::IaRoute& best, ia::IntegratedAdvertisement& out,
                       const core::ExportContext& ctx) override {
    trace::ScopedSpan span(export_kind_);
    const auto t0 = Clock::now();
    inner_.annotate_export(best, out, ctx);
    Slot& slot = my_slot();
    slot.export_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
    slot.export_calls.fetch_add(1, std::memory_order_relaxed);
  }

  void annotate_origin(ia::IntegratedAdvertisement& out, const core::ExportContext& ctx) override {
    inner_.annotate_origin(out, ctx);
  }

  void on_best_changed(const net::Prefix& prefix, const core::IaRoute* best) override {
    inner_.on_best_changed(prefix, best);
  }

 private:
  protocols::BgpModule inner_;
  std::uint32_t better_kind_ = trace::kind("decision.better");
  std::uint32_t export_kind_ = trace::kind("decision.export");
};

}  // namespace

DecisionCounters decision_counters() {
  Slots& s = slots();
  std::lock_guard lock(s.mu);
  DecisionCounters out;
  for (const auto& slot : s.all) {
    out.better_calls += slot->better_calls.load(std::memory_order_relaxed);
    out.better_ns += slot->better_ns.load(std::memory_order_relaxed);
    out.export_calls += slot->export_calls.load(std::memory_order_relaxed);
    out.export_ns += slot->export_ns.load(std::memory_order_relaxed);
  }
  return out;
}

void reset_decision_counters() {
  Slots& s = slots();
  std::lock_guard lock(s.mu);
  for (const auto& slot : s.all) {
    slot->better_calls.store(0, std::memory_order_relaxed);
    slot->better_ns.store(0, std::memory_order_relaxed);
    slot->export_calls.store(0, std::memory_order_relaxed);
    slot->export_ns.store(0, std::memory_order_relaxed);
  }
}

std::unique_ptr<core::DecisionModule> make_probed_bgp_module() {
  return std::make_unique<ProbedBgpModule>();
}

// -- Codec probe --------------------------------------------------------------

CodecProbe probe_codec(const std::vector<ia::SharedFrame>& frames) {
  static const std::uint32_t decode_kind = trace::kind("codec.decode");
  static const std::uint32_t encode_kind = trace::kind("codec.encode");
  double decode_s = 0.0, encode_s = 0.0, in_kb = 0.0, out_kb = 0.0;
  for (const auto& frame : frames) {
    if (frame->empty() || (*frame)[0] != static_cast<std::uint8_t>(core::FrameType::kAnnounce)) {
      continue;
    }
    const std::span<const std::uint8_t> body(frame->data() + 1, frame->size() - 1);
    trace::next_group();
    auto t0 = Clock::now();
    ia::IntegratedAdvertisement decoded;
    {
      trace::ScopedSpan span(decode_kind);
      decoded = ia::decode_ia(body);
    }
    decode_s += seconds_since(t0);
    in_kb += static_cast<double>(body.size()) / 1024.0;
    t0 = Clock::now();
    std::size_t encoded_size = 0;
    {
      trace::ScopedSpan span(encode_kind);
      encoded_size = ia::encode_ia(decoded).size();
    }
    encode_s += seconds_since(t0);
    out_kb += static_cast<double>(encoded_size) / 1024.0;
  }
  return {ratio(decode_s * 1e6, in_kb), ratio(encode_s * 1e6, out_kb)};
}

std::unique_ptr<core::DbgpSpeaker> make_speaker(std::size_t feeders, std::size_t receivers,
                                                bool probed, std::size_t max_batch) {
  core::DbgpConfig config;
  config.asn = kLocalAs;
  config.next_hop = net::Ipv4Address(10, 255, 0, 1);
  config.max_batch = max_batch;
  auto speaker = std::make_unique<core::DbgpSpeaker>(config);
  speaker->add_module(probed ? make_probed_bgp_module()
                             : std::make_unique<protocols::BgpModule>());
  for (std::size_t p = 0; p < feeders + receivers; ++p) {
    if (speaker->add_peer(feeder_as(p)) != static_cast<bgp::PeerId>(p)) {
      throw std::logic_error("peer ids are expected to be dense from 0");
    }
  }
  const net::Prefix warm(net::Ipv4Address(192, 0, 2, 0), 24);
  for (std::size_t p = 0; p < feeders; ++p) {
    ia::IntegratedAdvertisement ia;
    ia.destination = warm;
    ia.path_vector.prepend_as(64496);
    ia.path_vector.prepend_as(feeder_as(p));
    ia.baseline.as_path = bgp::AsPath({feeder_as(p), 64496});
    ia.baseline.next_hop = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(p), 1);
    speaker->handle_frame(static_cast<bgp::PeerId>(p), core::DbgpSpeaker::encode_announce(ia, {}));
  }
  for (std::size_t p = 0; p < feeders; ++p) {
    speaker->handle_frame(static_cast<bgp::PeerId>(p), core::DbgpSpeaker::encode_withdraw(warm));
  }
  return speaker;
}

std::vector<double> timed_lookups(const core::DbgpSpeaker& speaker,
                                  const std::vector<net::Prefix>& prefixes, std::uint64_t seed,
                                  std::size_t count, std::size_t batch, Outcome& out) {
  util::Rng rng(seed);
  std::vector<net::Prefix> keys(batch);
  std::vector<double> ms;
  ms.reserve(count);
  std::uint64_t misses = 0;
  for (std::size_t q = 0; q < count; ++q) {
    for (auto& k : keys) k = prefixes[rng.next_below(static_cast<std::uint32_t>(prefixes.size()))];
    const auto t0 = Clock::now();
    std::size_t found = 0;
    for (const auto& k : keys) found += speaker.best(k) != nullptr ? 1 : 0;
    ms.push_back(seconds_since(t0) * 1e3);
    ++out.attempted;
    if (found != batch) ++misses;
  }
  out.failed += misses;
  if (misses != 0) out.problems.push_back(std::to_string(misses) + " Loc-RIB reads missed a prefix");
  return ms;
}

void speaker_layer_metrics(const core::DbgpSpeaker& speaker, const telemetry::MetricsSnapshot& snap,
                           std::uint64_t frames_in, Outcome& out) {
  const double cache_hits = static_cast<double>(counter_value(snap, "dbgp.codec.frame_cache.hits"));
  const double cache_misses =
      static_cast<double>(counter_value(snap, "dbgp.codec.frame_cache.misses"));
  out.set("frame_cache.hit_ratio", ratio(cache_hits, cache_hits + cache_misses), "fraction");
  const double rib_hits = static_cast<double>(counter_value(snap, "dbgp.rib.interner.hits"));
  const double rib_misses = static_cast<double>(counter_value(snap, "dbgp.rib.interner.misses"));
  out.set("rib.interner.hit_ratio", ratio(rib_hits, rib_hits + rib_misses), "fraction");
  const double ia_hits = static_cast<double>(counter_value(snap, "dbgp.ia.interner.hits"));
  const double ia_misses = static_cast<double>(counter_value(snap, "dbgp.ia.interner.misses"));
  out.set("ia.interner.hit_ratio", ratio(ia_hits, ia_hits + ia_misses), "fraction");

  const auto* decodes = snap.find_histogram("dbgp.codec.decode_seconds");
  const auto* encodes = snap.find_histogram("dbgp.codec.encode_seconds");
  out.set("codec.lazy_share",
          ratio(static_cast<double>(counter_value(snap, "dbgp.codec.decode_lazy")),
                decodes == nullptr ? 0.0 : static_cast<double>(decodes->count)),
          "fraction");
  out.set("codec.spliced_share",
          ratio(static_cast<double>(counter_value(snap, "dbgp.codec.encode_spliced")),
                encodes == nullptr ? 0.0 : static_cast<double>(encodes->count)),
          "fraction");

  const core::DbgpStats& stats = speaker.stats();
  const double received = static_cast<double>(stats.ias_received + stats.withdraws_received);
  out.set("core.speaker.frames_out_per_prefix",
          ratio(static_cast<double>(stats.ias_sent + stats.withdraws_sent), received), "ratio");
  out.set("codec.bytes_out_per_prefix", ratio(static_cast<double>(stats.bytes_sent), received),
          "B");

  const DecisionCounters d = decision_counters();
  out.set("decision.better_calls_per_prefix",
          ratio(static_cast<double>(d.better_calls), static_cast<double>(frames_in)), "ratio");
  out.set("decision.better_ns_mean",
          ratio(static_cast<double>(d.better_ns), static_cast<double>(d.better_calls)), "ns");
  out.set("decision.export_ns_mean",
          ratio(static_cast<double>(d.export_ns), static_cast<double>(d.export_calls)), "ns");
}

}  // namespace dbgp::perfbench
