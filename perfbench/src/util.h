// Small helpers shared by the session benchmark: clocks, order statistics,
// report digests, process CPU and memory readings, and seeded streams.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process (all threads), in nanoseconds.
inline int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Peak resident set size (VmHWM) in MiB; 0 when /proc is unavailable.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

// Percentile by linear interpolation between closest ranks; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// FNV-1a over a report's canonical JSON: what the correctness gate compares.
inline uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// SplitMix64: derives independent per-session seeds from (run seed, index),
// so any session of the script can be regenerated without replaying the
// ones before it.
inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// A tiny deterministic stream on top of Mix.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return state_ = Mix(state_, 0); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Index(size_t n) { return static_cast<size_t>(Next() % n); }
  bool Bernoulli(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
