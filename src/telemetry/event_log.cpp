#include "telemetry/event_log.h"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace dbgp::telemetry {

void EventLog::record(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= limit_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Event> EventLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

util::json::Value EventLog::to_json(const Event& event) {
  util::json::Value v{util::json::Object{}};
  v.set("time", event.time);
  v.set("kind", event.kind);
  v.set("as", static_cast<std::uint64_t>(event.as));
  v.set("peer_as", static_cast<std::uint64_t>(event.peer_as));
  v.set("detail", event.detail);
  v.set("span", event.span);
  return v;
}

std::string EventLog::to_jsonl() const {
  std::vector<Event> copy = events();
  std::string out;
  for (const Event& e : copy) {
    out += to_json(e).dump(-1);
    out.push_back('\n');
  }
  return out;
}

void EventLog::write_jsonl(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("cannot open " + path + " for writing");
  file << to_jsonl();
  if (!file.good()) throw std::runtime_error("write failed: " + path);
}

}  // namespace dbgp::telemetry
