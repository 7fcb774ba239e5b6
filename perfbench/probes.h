// Shared pieces of the benchmark: the result record every workload fills,
// statistics helpers, process probes, and the two layer probes that live in
// benchmark code — a forwarding decision module around BgpModule and a codec
// probe that times ia::decode_ia / ia::encode_ia on a workload's own frames.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_module.h"
#include "core/speaker.h"
#include "ia/frame_cache.h"
#include "telemetry/metrics.h"

namespace dbgp::perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span file of the traced run
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one invocation reports. Every operation the benchmark issues is
// counted in `attempted`; a rejected frame, an `err` reply, a capped drain
// and a failed correctness check each count in `failed`. Nothing is
// retried or skipped.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed checks, for stderr
  std::map<std::string, Metric> metrics;

  bool correct() const { return problems.empty(); }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

Outcome run_table_replay(const RunArgs& args);
Outcome run_large_ia(const RunArgs& args);
Outcome run_daemon_mesh(const RunArgs& args);

// -- Statistics ---------------------------------------------------------------

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }
double mean(const std::vector<double>& values);

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- Repetitions --------------------------------------------------------------

// One measured, untraced repetition's end-to-end readings.
struct EndToEndSample {
  double setup_s = 0.0;
  double load_pfx_per_s = 0.0;
  double churn_pfx_per_s = 0.0;
  double rib_bytes_per_route = 0.0;
  std::vector<double> change_ms;  // one per change
  std::vector<double> query_ms;   // one per query
};

// The repetition schedule every workload shares. Repetition 0 warms the heap
// and caches and is checked but not measured; later ones are measured, at
// least two, until --seconds have passed. In the traced run measured
// repetitions alternate untraced and traced, so trace.overhead compares
// neighbours.
class Repetitions {
 public:
  explicit Repetitions(const RunArgs& args) : args_(args), start_(Clock::now()) {}

  bool more() const;
  bool traced() const { return args_.trace && index_ % 2 == 0; }
  bool measured() const { return index_ > 0; }
  // Closes the current repetition: `busy_s` is the wall of its timed phases;
  // `sample` is used when it was measured and untraced.
  void done(double busy_s, EndToEndSample sample);
  // The end-to-end metrics (untraced run) or trace.overhead (traced run).
  void report(Outcome& out) const;

 private:
  const RunArgs& args_;
  Clock::time_point start_;
  std::size_t index_ = 0;
  // Per measured repetition; the report takes their medians.
  std::vector<double> setup_, load_, churn_, bytes_, change_p50_, change_p90_, query_p50_,
      query_p99_;
  std::vector<double> traced_wall_, untraced_wall_;
  double rss_mb_ = 0.0;
};

// -- Process probes -----------------------------------------------------------

double peak_rss_mb();
double cpu_seconds();  // user + system CPU time of the whole process

// Counter / histogram-sum reads from the global telemetry registry (0 when
// the metric was never created).
std::uint64_t counter_value(const telemetry::MetricsSnapshot& snap, const std::string& name);
double histogram_sum(const telemetry::MetricsSnapshot& snap, const std::string& name);
double ratio(double num, double den);

// FNV-1a-64 over (prefix, encoded selected IA) for every Loc-RIB entry —
// the same digest RouteServer::loc_rib_hash takes, computed without the
// full-state export.
std::uint64_t loc_rib_hash(const core::DbgpSpeaker& speaker);

// -- Decision-module probe ----------------------------------------------------

// Totals over every thread since the last reset. better() runs concurrently
// during sharded planning, so each thread counts into its own slot.
struct DecisionCounters {
  std::uint64_t better_calls = 0;
  std::uint64_t better_ns = 0;
  std::uint64_t export_calls = 0;
  std::uint64_t export_ns = 0;
};
DecisionCounters decision_counters();
void reset_decision_counters();

// BgpModule behind a forwarding DecisionModule that times better() and
// annotate_export() and records a span around each call.
std::unique_ptr<core::DecisionModule> make_probed_bgp_module();

// -- Codec probe --------------------------------------------------------------

struct CodecProbe {
  double decode_us_per_kb = 0.0;
  double encode_us_per_kb = 0.0;
};
// Decodes then re-encodes every announce frame in `frames` (frame type byte
// stripped), timing each call and recording codec.decode / codec.encode spans.
CodecProbe probe_codec(const std::vector<ia::SharedFrame>& frames);

// -- The speaker under test ---------------------------------------------------

// A speaker at kLocalAs with `feeders` feeding peers, then `receivers`
// receive-only peers, and one BGP decision module, probed when traced.
// `max_batch` 0 stages until an explicit flush(). Set-up includes a warm-up:
// each feeding peer announces and withdraws one prefix, so the per-peer
// Adj-RIB-Out bookkeeping that lives as long as a session exists before the
// pre-load arena baseline is read (bench_memory primes it the same way).
std::unique_ptr<core::DbgpSpeaker> make_speaker(std::size_t feeders, std::size_t receivers,
                                                bool probed, std::size_t max_batch);

// Issues `count` Loc-RIB reads, each a best() lookup of `batch` random
// prefixes of `prefixes` (all expected selected), and returns each read's
// wall time in ms. A miss is a failed operation.
std::vector<double> timed_lookups(const core::DbgpSpeaker& speaker,
                                  const std::vector<net::Prefix>& prefixes, std::uint64_t seed,
                                  std::size_t count, std::size_t batch, Outcome& out);

// -- Metrics every speaker workload reports -----------------------------------

// Per-layer registry readings shared by table_replay and large_ia, taken
// after a traced repetition.
void speaker_layer_metrics(const core::DbgpSpeaker& speaker, const telemetry::MetricsSnapshot& snap,
                           std::uint64_t frames_in, Outcome& out);

}  // namespace dbgp::perfbench
