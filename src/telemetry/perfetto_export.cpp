#include "telemetry/perfetto_export.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "util/json.h"

namespace dbgp::telemetry {

using util::json::Array;
using util::json::Object;
using util::json::Value;

namespace {

constexpr double kMicros = 1e6;  // sim seconds -> trace-event microseconds

Object base_event(const char* ph, const Span& s, double ts,
                  std::uint64_t tid) {
  Object e;
  e.emplace_back("name", Value(s.name.empty() ? to_string(s.kind) : s.name));
  e.emplace_back("cat", Value(to_string(s.kind)));
  e.emplace_back("ph", Value(ph));
  e.emplace_back("ts", Value(ts));
  e.emplace_back("pid", Value(std::uint64_t{1}));
  e.emplace_back("tid", Value(tid));
  return e;
}

Value span_args(const Span& s) {
  Object args;
  args.emplace_back("span", Value(s.id));
  if (s.parent != 0) args.emplace_back("parent", Value(s.parent));
  if (s.trace != 0) args.emplace_back("trace", Value(s.trace));
  if (!s.prefix.empty()) args.emplace_back("prefix", Value(s.prefix));
  if (s.peer_as != 0)
    args.emplace_back("peer_as", Value(static_cast<std::uint64_t>(s.peer_as)));
  if (!s.detail.empty()) args.emplace_back("detail", Value(s.detail));
  if (s.kind == SpanKind::kFrame)
    args.emplace_back("bytes", Value(static_cast<std::uint64_t>(s.bytes)));
  return Value(std::move(args));
}

void add_flow(Array& events, const Span& child, const Span& parent) {
  // Flow arrow parent -> child, drawn only when the link crosses tracks
  // (same-track links are visible as nesting already).
  Object s;
  s.emplace_back("name", Value("cause"));
  s.emplace_back("cat", Value("flow"));
  s.emplace_back("ph", Value("s"));
  s.emplace_back("id", Value(child.id));
  s.emplace_back("ts", Value(parent.start * kMicros));
  s.emplace_back("pid", Value(std::uint64_t{1}));
  s.emplace_back("tid", Value(static_cast<std::uint64_t>(parent.as)));
  events.push_back(Value(std::move(s)));

  Object f;
  f.emplace_back("name", Value("cause"));
  f.emplace_back("cat", Value("flow"));
  f.emplace_back("ph", Value("f"));
  f.emplace_back("bp", Value("e"));
  f.emplace_back("id", Value(child.id));
  f.emplace_back("ts", Value(child.start * kMicros));
  f.emplace_back("pid", Value(std::uint64_t{1}));
  f.emplace_back("tid", Value(static_cast<std::uint64_t>(child.as)));
  events.push_back(Value(std::move(f)));
}

}  // namespace

std::string to_perfetto_json(const CausalTracer& tracer) {
  const std::vector<Span> spans = tracer.spans();

  Array events;

  // Track naming: one thread per AS, plus track 0 for network-wide windows.
  std::set<std::uint64_t> tids;
  for (const Span& s : spans) {
    tids.insert(s.kind == SpanKind::kWindow ? 0
                                            : static_cast<std::uint64_t>(s.as));
  }
  {
    Object pm;
    pm.emplace_back("name", Value("process_name"));
    pm.emplace_back("ph", Value("M"));
    pm.emplace_back("pid", Value(std::uint64_t{1}));
    Object pargs;
    pargs.emplace_back("name", Value("dbgp simnet"));
    pm.emplace_back("args", Value(std::move(pargs)));
    events.push_back(Value(std::move(pm)));
  }
  for (std::uint64_t tid : tids) {
    Object tm;
    tm.emplace_back("name", Value("thread_name"));
    tm.emplace_back("ph", Value("M"));
    tm.emplace_back("pid", Value(std::uint64_t{1}));
    tm.emplace_back("tid", Value(tid));
    Object targs;
    targs.emplace_back("name",
                       Value(tid == 0 ? std::string("network")
                                      : "AS" + std::to_string(tid)));
    tm.emplace_back("args", Value(std::move(targs)));
    events.push_back(Value(std::move(tm)));
  }

  // Collect (ts, event) pairs so the output is stably ts-sorted — a
  // structural requirement dbgp_trace_check enforces.
  std::vector<std::pair<double, Value>> timed;
  timed.reserve(spans.size() * 2);
  Array flows;  // emitted after sorting, interleaved by ts

  for (const Span& s : spans) {
    const double ts = s.start * kMicros;
    const double end = (s.end >= s.start ? s.end : s.start) * kMicros;
    const std::uint64_t tid =
        s.kind == SpanKind::kWindow ? 0 : static_cast<std::uint64_t>(s.as);

    switch (s.kind) {
      case SpanKind::kDecision: {
        // B/E pair on the deciding AS's track — decisions are instantaneous
        // in sim time but the pair keeps per-candidate args attached and
        // nests under nothing (frames are X events, so no overlap issues).
        Object b = base_event("B", s, ts, tid);
        b.emplace_back("args", span_args(s));
        timed.emplace_back(ts, Value(std::move(b)));
        Object e = base_event("E", s, end, tid);
        timed.emplace_back(end, Value(std::move(e)));
        break;
      }
      case SpanKind::kFrame:
      case SpanKind::kWindow: {
        // Complete events: frames overlap freely on the sender track and
        // windows span the whole network, so X (which tolerates overlap in
        // both viewers) is the right phase.
        Object x = base_event("X", s, ts, tid);
        x.emplace_back("dur", Value(end - ts));
        x.emplace_back("args", span_args(s));
        timed.emplace_back(ts, Value(std::move(x)));
        break;
      }
      default: {
        Object i = base_event("i", s, ts, tid);
        i.emplace_back("s", Value("t"));  // thread-scoped instant
        i.emplace_back("args", span_args(s));
        timed.emplace_back(ts, Value(std::move(i)));
        break;
      }
    }

    if (s.parent != 0) {
      const Span* parent =
          s.parent <= spans.size() ? &spans[s.parent - 1] : nullptr;
      if (parent != nullptr && parent->as != s.as &&
          s.kind != SpanKind::kWindow) {
        add_flow(flows, s, *parent);
      }
    }
  }

  for (Value& f : flows) {
    timed.emplace_back(f.find("ts")->as_double(), std::move(f));
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [ts, v] : timed) {
    (void)ts;
    events.push_back(std::move(v));
  }

  Object root;
  root.emplace_back("traceEvents", Value(std::move(events)));
  root.emplace_back("displayTimeUnit", Value("ms"));
  Object meta;
  meta.emplace_back("tool", Value("dbgp"));
  meta.emplace_back("spans", Value(static_cast<std::uint64_t>(spans.size())));
  meta.emplace_back("audits", Value(static_cast<std::uint64_t>(tracer.audit_count())));
  meta.emplace_back("dropped", Value(static_cast<std::uint64_t>(tracer.dropped())));
  root.emplace_back("otherData", Value(std::move(meta)));
  return Value(std::move(root)).dump(-1);
}

bool write_perfetto_json(const CausalTracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_perfetto_json(tracer) << '\n';
  return out.good();
}

}  // namespace dbgp::telemetry
