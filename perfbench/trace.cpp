#include "trace.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace dbgp::perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_group{0};
std::atomic<std::uint32_t> g_ambient{0};

struct Registry {
  std::mutex mu;
  std::vector<std::string> kinds;                      // guarded by mu
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;  // guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local std::uint32_t t_current = 0;
thread_local std::vector<Span>* t_buffer = nullptr;

std::vector<Span>& buffer() {
  if (t_buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<Span>>());
    t_buffer = r.buffers.back().get();
  }
  return *t_buffer;
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// Every span recorded so far. Callers run after the traced work has
// finished (pool tasks are joined by parallel_for), so the buffers are
// quiescent.
std::vector<Span> all_spans() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  std::vector<Span> out;
  for (const auto& b : r.buffers) out.insert(out.end(), b->begin(), b->end());
  return out;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint32_t kind(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (std::size_t i = 0; i < r.kinds.size(); ++i) {
    if (r.kinds[i] == name) return static_cast<std::uint32_t>(i);
  }
  r.kinds.emplace_back(name);
  return static_cast<std::uint32_t>(r.kinds.size() - 1);
}

void next_group() { g_group.fetch_add(1, std::memory_order_relaxed); }

void set_ambient_parent(std::uint32_t span) noexcept {
  g_ambient.store(span, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(std::uint32_t kind) noexcept {
  if (!enabled()) return;
  span_.kind = kind;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current != 0 ? t_current : g_ambient.load(std::memory_order_relaxed);
  span_.group = g_group.load(std::memory_order_relaxed);
  saved_current_ = t_current;
  t_current = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  t_current = saved_current_;
  buffer().push_back(span_);
}

std::map<std::string, double> self_seconds() {
  const std::vector<Span> spans = all_spans();
  // Ids are dense, so a flat id -> position table replaces a hash map.
  constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> index(g_next_id.load(std::memory_order_relaxed), kNone);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = static_cast<std::uint32_t>(i);
  }

  // Child intervals clipped to their parent, grouped by parent and merged,
  // so children running concurrently on several threads count once.
  struct Interval {
    std::uint32_t parent;
    std::int64_t lo, hi;
  };
  std::vector<Interval> children;
  for (const Span& s : spans) {
    if (s.parent == 0 || index[s.parent] == kNone) continue;
    const Span& p = spans[index[s.parent]];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children.push_back({index[s.parent], lo, hi});
  }
  std::sort(children.begin(), children.end(), [](const Interval& a, const Interval& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.lo < b.lo;
  });
  std::vector<std::int64_t> busy(spans.size(), 0);
  for (std::size_t i = 0; i < children.size();) {
    const std::uint32_t parent = children[i].parent;
    std::int64_t run_lo = children[i].lo, run_hi = children[i].hi;
    for (++i; i < children.size() && children[i].parent == parent; ++i) {
      if (children[i].lo > run_hi) {
        busy[parent] += run_hi - run_lo;
        run_lo = children[i].lo;
      }
      run_hi = std::max(run_hi, children[i].hi);
    }
    busy[parent] += run_hi - run_lo;
  }
  std::vector<std::string> names;
  {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    names = r.kinds;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t self = spans[i].end_ns - spans[i].start_ns - busy[i];
    out[names[spans[i].kind]] += static_cast<double>(std::max<std::int64_t>(self, 0)) * 1e-9;
  }
  return out;
}

bool write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<std::string> names;
  {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    names = r.kinds;
  }
  const std::vector<Span> spans = all_spans();
  std::int64_t origin = INT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "# kinds:");
  for (const auto& name : names) std::fprintf(f, " %s", name.c_str());
  std::fprintf(f, "\nid,parent,group,kind,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%u,%u,%u,%u,%lld,%lld\n", s.id, s.parent, s.group, s.kind,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

void clear() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (auto& b : r.buffers) b->clear();
}

}  // namespace dbgp::perfbench::trace
