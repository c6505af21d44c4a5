// Session benchmark for ConsentDB.
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>] [--require-qvalue] [--corrupt-reference]
//
// Prints human-readable notes, then, as the last line, one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value,
// unit}}}. --trace 0 measures the end-to-end metrics with no tracing;
// --trace 1 is the separate traced run with the per-layer metrics. Exits 1
// when any session report differs from its reference, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "session_bench: %s\nusage: session_bench --workload "
               "<warm_qvalue|cold_join_writes|served_tcp> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--require-qvalue] "
               "[--corrupt-reference]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--require-qvalue") {
      opt.require_qvalue = true;
    } else if (arg == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        opt.workload = v;
      } else if (arg == "--seed") {
        opt.seed = std::strtoull(v, nullptr, 10);
      } else if (arg == "--seconds") {
        opt.seconds = std::atoi(v);
      } else if (arg == "--trace") {
        trace = std::atoi(v);
      } else if (arg == "--out") {
        opt.out_dir = v;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    }
  }
  if (!perfbench::IsWorkload(opt.workload)) return Usage("unknown workload");
  if (opt.seconds < 1) return Usage("--seconds must be at least 1");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");

  perfbench::RunResult r =
      trace == 1 ? perfbench::RunTraced(opt) : perfbench::RunSessions(opt);

  std::printf("workload %s, seed %llu, %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              trace == 1 ? "traced" : "untraced");
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::printf("  metric %s is not finite\n", m.name.c_str());
      r.correct = false;
      v = 0;
    }
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), v, m.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + JsonNumber(v) + ", \"unit\": \"" + m.unit +
               "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
