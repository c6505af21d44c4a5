// The benchmark's three closed-loop workloads (one client, an engine with
// one worker) and the runs that measure them:
//
//   warm_qvalue       cached R⋈S catalogue, fresh valuation per session;
//   cold_join_writes  recruitment 4-way join after a write per session,
//                     shared WAL-journaled ledger, faulty peers + retries;
//   served_tcp        warm_qvalue's script served over localhost TCP.
//
// RunSessions measures the end-to-end metrics with no tracing; RunTraced is
// the separate traced run that yields the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  std::string out_dir = ".";
  // Fail the run unless every warm_qvalue / served_tcp session used Q-value.
  bool require_qvalue = false;
  // Flip one reference digest: the correctness gate must then fail the run.
  bool corrupt_reference = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the final JSON object.
  std::vector<std::string> notes;
};

bool IsWorkload(const std::string& name);
RunResult RunSessions(const Options& options);
RunResult RunTraced(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
