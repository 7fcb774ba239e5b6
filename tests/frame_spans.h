// Frame spans of a causal trace: one record per wire hop, carrying the
// sender and receiver, send and delivery time, frame type, prefix, wire size,
// and fault annotations. Replay tests compare runs by these records.
#pragma once

#include <vector>

#include "telemetry/causal.h"

namespace dbgp::tests {

inline std::vector<telemetry::Span> frame_spans(const telemetry::CausalTracer& tracer) {
  std::vector<telemetry::Span> out;
  for (telemetry::Span& s : tracer.spans()) {
    if (s.kind == telemetry::SpanKind::kFrame) out.push_back(std::move(s));
  }
  return out;
}

// Every field of every span, in order.
inline bool same_frame_spans(const std::vector<telemetry::Span>& a,
                             const std::vector<telemetry::Span>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].parent != b[i].parent || a[i].trace != b[i].trace ||
        a[i].start != b[i].start || a[i].end != b[i].end || a[i].as != b[i].as ||
        a[i].peer_as != b[i].peer_as || a[i].name != b[i].name ||
        a[i].prefix != b[i].prefix || a[i].bytes != b[i].bytes ||
        a[i].detail != b[i].detail) {
      return false;
    }
  }
  return true;
}

}  // namespace dbgp::tests
