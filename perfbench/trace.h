// The benchmark's own span store, for the traced (--trace 1) run.
//
// The benchmark wraps each call it makes into a layer's public function in a
// ScopedSpan: name, start, end, parent span, and a group id shared by every
// span of one round (a flush window, one frame, one control command). Spans
// are appended to per-thread buffers in memory — the decision-module probe
// records them from thread-pool workers — and written out once, when the run
// ends. Nothing is recorded while the store is disabled (the untraced run
// that produces the end-to-end numbers).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace dbgp::perfbench::trace {

using Clock = std::chrono::steady_clock;

// 32 bytes: a traced table_replay repetition records a few million spans.
struct Span {
  std::uint32_t id = 0;  // dense, from 1
  std::uint32_t parent = 0;  // 0 = root
  std::uint32_t group = 0;
  std::uint32_t kind = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

void set_enabled(bool on);
bool enabled() noexcept;

// Interns a span name; call once per name, outside hot loops.
std::uint32_t kind(std::string_view name);

// Starts a new group (round/command); spans opened after this on any thread
// carry its id.
void next_group();

// Spans opened on other threads while `span` is the ambient parent (a flush
// whose planning runs on pool workers) take it as their parent.
void set_ambient_parent(std::uint32_t span) noexcept;

class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint32_t kind) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return span_.id; }

 private:
  Span span_;
  std::uint32_t saved_current_ = 0;
};

// Per-kind self time in seconds: each span's duration minus the part of it
// its children cover (children on several threads count once).
std::map<std::string, double> self_seconds();

// Writes every recorded span to `path` as CSV: a `# kinds:` line naming kind
// ids in order, a header, then one `id,parent,group,kind,start_ns,end_ns`
// row per span (times relative to the earliest start). False on I/O error.
bool write(const std::string& path);

// Drops recorded spans (kinds stay interned).
void clear();

}  // namespace dbgp::perfbench::trace
