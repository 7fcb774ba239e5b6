// Time-series sampling of the process-wide metrics registry.
//
// The registry (metrics.h) only answers "what is the value now"; a live
// daemon and the convergence analysis both need "how did it get here". The
// sampler periodically snapshots MetricsRegistry::global() into bounded
// per-metric ring buffers of (time, value) points — sim-time driven inside
// scenarios (the network run loop ticks it at event granularity and the
// sampler enforces its own interval), wall-time driven in dbgp_server's
// serve loop. Deltas and rates are derived on read, not stored, so a sample
// costs one registry snapshot plus one append per live series.
//
// Series identity is the metric name: counters and gauges sample their
// value, histograms contribute "<name>.count" and "<name>.sum" (enough to
// derive interval rates and mean latency externally). Per-peer labeled
// metrics ("bgp.peer.updates_in|as=1,peer=2") sample like any other series;
// the exposition layer (prom_export.h) is what understands the label block.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "util/json.h"

namespace dbgp::telemetry {

class TimeSeriesSampler {
 public:
  struct Options {
    double interval = 0.5;       // minimum seconds between samples
    std::size_t capacity = 720;  // points retained per series (ring buffer)
  };

  struct Point {
    double time = 0.0;
    double value = 0.0;
  };

  TimeSeriesSampler() = default;
  explicit TimeSeriesSampler(Options options) : options_(options) {}

  // Snapshots the global registry if at least `interval` has elapsed since
  // the previous sample (the first call always samples; `force` bypasses the
  // interval). Returns whether a sample was actually taken.
  bool sample(double now, bool force = false);

  std::size_t sample_count() const;
  std::vector<std::string> series_names() const;

  // Raw points, oldest first (empty when the series is unknown).
  std::vector<Point> series(std::string_view name) const;
  // points[i] - points[i-1], stamped at the later time (size n-1). For
  // counters this is the per-interval increment; gauges yield level changes.
  std::vector<Point> deltas(std::string_view name) const;
  // Delta divided by the interval length — per-second rates.
  std::vector<Point> rates(std::string_view name) const;

  const Options& options() const noexcept { return options_; }
  void clear();

  // { "interval": i, "samples": n, "series": { "<name>": [[t,v], ...] } }.
  // `last_n` > 0 trims every series to its most recent points.
  util::json::Value to_json(std::size_t last_n = 0) const;

 private:
  void append(const std::string& name, double now, double value);

  Options options_;
  mutable std::mutex mu_;
  std::size_t samples_ = 0;
  double last_time_ = 0.0;
  bool have_sample_ = false;
  std::map<std::string, std::deque<Point>, std::less<>> series_;
};

}  // namespace dbgp::telemetry
