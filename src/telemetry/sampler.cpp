#include "telemetry/sampler.h"

#include <utility>

namespace dbgp::telemetry {

bool TimeSeriesSampler::sample(double now, bool force) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_sample_ && !force && now - last_time_ < options_.interval) return false;
  }
  // Snapshot outside the sampler lock: the registry has its own mutex and a
  // snapshot can be slow with many labeled series.
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();

  std::lock_guard<std::mutex> lock(mu_);
  if (have_sample_ && !force && now - last_time_ < options_.interval) return false;
  for (const auto& c : snap.counters) append(c.name, now, static_cast<double>(c.value));
  for (const auto& g : snap.gauges) append(g.name, now, static_cast<double>(g.value));
  for (const auto& h : snap.histograms) {
    append(h.name + ".count", now, static_cast<double>(h.count));
    append(h.name + ".sum", now, h.sum);
  }
  last_time_ = now;
  have_sample_ = true;
  ++samples_;
  return true;
}

void TimeSeriesSampler::append(const std::string& name, double now, double value) {
  auto& points = series_[name];
  points.push_back({now, value});
  while (points.size() > options_.capacity) points.pop_front();
}

std::size_t TimeSeriesSampler::sample_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

std::vector<std::string> TimeSeriesSampler::series_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, points] : series_) names.push_back(name);
  return names;
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::series(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  if (it == series_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::deltas(
    std::string_view name) const {
  const std::vector<Point> raw = series(name);
  std::vector<Point> out;
  if (raw.size() < 2) return out;
  out.reserve(raw.size() - 1);
  for (std::size_t i = 1; i < raw.size(); ++i) {
    out.push_back({raw[i].time, raw[i].value - raw[i - 1].value});
  }
  return out;
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::rates(
    std::string_view name) const {
  const std::vector<Point> raw = series(name);
  std::vector<Point> out;
  if (raw.size() < 2) return out;
  out.reserve(raw.size() - 1);
  for (std::size_t i = 1; i < raw.size(); ++i) {
    const double dt = raw[i].time - raw[i - 1].time;
    if (dt <= 0.0) continue;  // duplicate/forced samples at one instant
    out.push_back({raw[i].time, (raw[i].value - raw[i - 1].value) / dt});
  }
  return out;
}

void TimeSeriesSampler::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  samples_ = 0;
  last_time_ = 0.0;
  have_sample_ = false;
}

util::json::Value TimeSeriesSampler::to_json(std::size_t last_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  util::json::Value root{util::json::Object{}};
  root.set("interval", options_.interval);
  root.set("samples", static_cast<std::uint64_t>(samples_));
  util::json::Value series{util::json::Object{}};
  for (const auto& [name, points] : series_) {
    util::json::Array arr;
    std::size_t start = 0;
    if (last_n > 0 && points.size() > last_n) start = points.size() - last_n;
    arr.reserve(points.size() - start);
    for (std::size_t i = start; i < points.size(); ++i) {
      arr.push_back(util::json::Array{points[i].time, points[i].value});
    }
    series.set(name, std::move(arr));
  }
  root.set("series", std::move(series));
  return root;
}

}  // namespace dbgp::telemetry
