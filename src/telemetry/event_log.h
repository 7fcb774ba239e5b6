// Structured JSONL event log: the control-plane happenings a time-series
// sampler is too coarse for.
//
// Where the sampler (sampler.h) answers "how fast", this log answers "what
// happened when": session up/down transitions, chaos events, reconvergence
// windows, and convergence-oracle verdicts, each as one self-contained JSON
// object per line (JSONL) so a `tail -f | jq` pipeline works against a live
// daemon and trace_check can validate the shape offline. Events carry the
// causal span id when the producer has one, linking each line back into the
// PR 4 trace DAG.
//
// Storage is bounded like the tracers: past `limit`, events are counted as
// dropped but not stored (the newest events are the ones lost — the log is
// an append-only journal, not a ring, so line order matches write order and
// an external tailer never sees rewritten history).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/causal.h"
#include "util/json.h"

namespace dbgp::telemetry {

struct Event {
  double time = 0.0;
  std::string kind;  // "session_up","session_down","chaos","reconvergence","oracle"
  std::uint32_t as = 0;       // acting AS (0 = network-wide)
  std::uint32_t peer_as = 0;  // counterpart, for session events
  std::string detail;         // free-form ("link_down", "verdict=oscillating", ...)
  SpanId span = 0;            // causal backlink (0 = tracing off / not applicable)
};

class EventLog {
 public:
  explicit EventLog(std::size_t limit = kDefaultLimit) : limit_(limit) {}

  void record(Event event);
  void record(double time, std::string kind, std::uint32_t as, std::uint32_t peer_as,
              std::string detail, SpanId span = 0) {
    record(Event{time, std::move(kind), as, peer_as, std::move(detail), span});
  }

  std::size_t size() const;
  std::size_t dropped() const;
  std::vector<Event> events() const;
  void clear();

  // One compact JSON object per line:
  //   {"time":t,"kind":"...","as":n,"peer_as":n,"detail":"...","span":n}
  static util::json::Value to_json(const Event& event);
  std::string to_jsonl() const;
  // Writes to_jsonl() to `path`; throws std::runtime_error on IO failure.
  void write_jsonl(const std::string& path) const;

  static constexpr std::size_t kDefaultLimit = 262'144;

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
  std::size_t limit_;
};

}  // namespace dbgp::telemetry
