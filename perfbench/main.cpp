// dbgp_perfbench: the repository benchmark (README.md in this directory).
//
//   dbgp_perfbench --workload table_replay|large_ia|daemon_mesh --seed <n>
//                  --seconds <s> --trace 0|1 [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is a
// separate run that reports the per-layer metrics, the self time of every
// span kind and trace.overhead, and writes its spans to --trace-out. The
// last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Exit 0 when every check passed, 1
// when a correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"
#include "trace.h"

using namespace dbgp::perfbench;

namespace {

// Every per-layer metric, reported by every traced run; a workload that does
// not reach a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"core.speaker.flush_ms_p50", "ms"},
    {"core.speaker.flush_ms_p99", "ms"},
    {"core.speaker.enqueue_us_mean", "us"},
    {"core.speaker.handle_frame_us_p50", "us"},
    {"core.speaker.handle_frame_us_p99", "us"},
    {"core.speaker.frames_out_per_prefix", "ratio"},
    {"decision.better_calls_per_prefix", "ratio"},
    {"decision.better_ns_mean", "ns"},
    {"decision.export_ns_mean", "ns"},
    {"shard.decode_s", "s"},
    {"shard.plan_s", "s"},
    {"shard.commit_s", "s"},
    {"shard.commit_share", "fraction"},
    {"shard.imbalance_permille", "permille"},
    {"util.pool.wait_ms", "ms"},
    {"process.cpu_util", "ratio"},
    {"frame_cache.hit_ratio", "fraction"},
    {"rib.interner.hit_ratio", "fraction"},
    {"rib.arena.slack_ratio", "ratio"},
    {"codec.decode_us_per_kb", "us/KB"},
    {"codec.encode_us_per_kb", "us/KB"},
    {"codec.lazy_share", "fraction"},
    {"codec.spliced_share", "fraction"},
    {"ia.interner.hit_ratio", "fraction"},
    {"codec.bytes_out_per_prefix", "B"},
    {"control.change_cmd_us", "us"},
    {"simnet.events_per_change", "count"},
    {"simnet.events_per_s", "1/s"},
    {"simnet.frames_per_change", "count"},
    {"causal.spans_per_change", "count"},
    {"causal.dropped", "count"},
    {"provenance.why_ms_p50", "ms"},
    {"trace.overhead", "ratio"},
};

// Span kinds whose self time is reported as trace.self_s.<kind>.
const std::vector<const char*> kSpanKinds = {
    "core.speaker.enqueue",     "core.speaker.flush",       "core.speaker.handle_frame",
    "decision.better",          "decision.export",          "codec.decode",
    "codec.encode",             "control.execute.add-as",   "control.execute.add-peer",
    "control.execute.originate", "control.execute.withdraw", "control.execute.run",
    "control.execute.rib",      "control.execute.why",
};

int usage(const char* why) {
  std::fprintf(stderr,
               "dbgp_perfbench: %s\nusage: dbgp_perfbench --workload "
               "table_replay|large_ia|daemon_mesh --seed <n> --seconds <s> --trace 0|1 "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

void print_result(const Outcome& out) {
  for (const auto& [name, metric] : out.metrics) {
    std::printf("%-40s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("%-40s %16.6g fraction (%llu failed / %llu attempted)\n", "error_rate",
              ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  Outcome out;
  try {
    if (args.workload == "table_replay") out = run_table_replay(args);
    else if (args.workload == "large_ia") out = run_large_ia(args);
    else if (args.workload == "daemon_mesh") out = run_daemon_mesh(args);
    else return usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dbgp_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      if (out.metrics.count(name) == 0) out.set(name, 0.0, unit);
    }
    const auto self = trace::self_seconds();
    for (const char* kind : kSpanKinds) {
      const auto it = self.find(kind);
      out.set(std::string("trace.self_s.") + kind, it == self.end() ? 0.0 : it->second, "s");
    }
    if (!args.trace_out.empty() && !trace::write(args.trace_out)) {
      out.problems.push_back("could not write spans to " + args.trace_out);
    }
  }
  for (const auto& problem : out.problems) {
    std::fprintf(stderr, "dbgp_perfbench: check failed: %s\n", problem.c_str());
  }
  print_result(out);
  return out.correct() ? 0 : 1;
}
