// Golden session reports: a pinned digest per session over a fixed corpus,
// so a refactor of the session pipeline can be checked against what the
// pipeline produced before it, not only against another path that shares
// its code.
//
// Corpus: four recruitment-database queries x every Algorithm x 12 seeded
// hidden valuations, in three modes:
//   * plain  — an infallible oracle, no retry policy;
//   * faulty — a RetryPolicy (attempt cap, jitter, probe and session
//              deadlines) over a FaultyOracle on a VirtualClock with
//              transient faults, latency, one dead peer and one peer that
//              crashes after k answers;
//   * ledger — the faulty mode with a ConsentLedger shared by the
//              algorithms of one (query, seed), so later sessions hit it.
// Optimal runs in the plain mode only.
//
// Each session's digest covers the report's ToJson() (or the error), the
// ledger's hit/oracle/faulted tallies and the final virtual time. The table
// in golden_report_digests.inc is regenerated only for a change that is
// meant to alter reports:
//
//   CONSENTDB_GOLDEN_OUT=tests/golden_report_digests.inc golden_report_test

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/io.h"
#include "consentdb/util/rng.h"
#include "test_fixtures.h"

namespace consentdb {
namespace {

using consent::ConsentLedger;
using consent::FaultPlan;
using consent::FaultyOracle;
using consent::ValuationOracle;
using core::Algorithm;
using core::RetryPolicy;
using core::SessionOptions;
using core::SessionReport;
using provenance::PartialValuation;

struct GoldenDigest {
  const char* session;
  uint64_t digest;
};

constexpr GoldenDigest kGolden[] = {
#include "golden_report_digests.inc"
};

constexpr const char* kQueries[] = {
    // Q_ex of Fig. 1: a four-way join.
    "SELECT DISTINCT c.name "
    "FROM Companies c, JobSeekers s, Vacancies v, Assignment a "
    "WHERE c.cid = v.cid AND v.vid = a.vid AND a.status = 'hired' "
    "AND a.sid = s.sid AND s.education = 'Env. studies'",
    "SELECT DISTINCT s.name FROM JobSeekers s, Assignment a "
    "WHERE s.sid = a.sid AND a.status = 'hired'",
    "SELECT DISTINCT v.position "
    "FROM Vacancies v, Assignment a, JobSeekers s "
    "WHERE v.vid = a.vid AND a.sid = s.sid",
    "SELECT agency FROM JobSeekers UNION SELECT agency FROM Assignment",
};

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kAuto,    Algorithm::kRandom,  Algorithm::kFreq,
    Algorithm::kRo,      Algorithm::kQValue,  Algorithm::kGeneral,
    Algorithm::kHybrid,  Algorithm::kOptimal,
};

constexpr uint64_t kSeeds = 12;
constexpr const char* kPeers[] = {"Bob", "Alice", "platform"};

enum class Mode { kPlain, kFaulty, kLedger };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPlain:
      return "plain";
    case Mode::kFaulty:
      return "faulty";
    case Mode::kLedger:
      return "ledger";
  }
  return "?";
}

// FNV-1a: stable across platforms and runs.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Faults and retry budget for one seed: one dead peer, one peer crashing
// after k answers, transient faults with latency, and deadlines tight
// enough that some sessions lose probes to them or expire.
FaultPlan FaultsFor(uint64_t seed) {
  Rng rng(7'100 + seed);
  FaultPlan plan;
  plan.seed = 3'300 + seed;
  plan.defaults.transient_failure_prob = 0.15 + 0.35 * rng.UniformReal();
  plan.defaults.latency_nanos = rng.UniformInt(0, 1'500'000);
  const size_t dead = rng.UniformIndex(3);
  plan.per_peer[kPeers[dead]] = plan.defaults;
  plan.per_peer[kPeers[dead]].permanently_unavailable = true;
  const char* crashing = kPeers[(dead + 1 + rng.UniformIndex(2)) % 3];
  plan.per_peer[crashing] = plan.defaults;
  plan.per_peer[crashing].crash_after_answers = 1 + rng.UniformIndex(3);
  return plan;
}

RetryPolicy RetryFor(uint64_t seed) {
  Rng rng(8'200 + seed);
  RetryPolicy policy;
  policy.max_attempts = 2 + rng.UniformIndex(4);
  policy.initial_backoff_nanos = 500'000;
  policy.jitter = 0.3;
  policy.jitter_seed = seed;
  policy.probe_deadline_nanos = rng.UniformInt(2'000'000, 8'000'000);
  policy.session_deadline_nanos = rng.UniformInt(4'000'000, 30'000'000);
  return policy;
}

// The corpus run once, in a fixed order: one name and digest per session,
// plus coverage tallies over the resilient modes.
struct Corpus {
  std::vector<std::string> sessions;  // "mode/qN/Algorithm/seedK"
  std::vector<uint64_t> digests;
  core::FailureBreakdown failures;
  size_t unresolved = 0;
  uint64_t ledger_hits = 0;
};

Corpus RunCorpus() {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  Corpus corpus;
  for (Mode mode : {Mode::kPlain, Mode::kFaulty, Mode::kLedger}) {
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        Rng rng(seed);
        const PartialValuation hidden = sdb.pool().SampleValuation(rng);
        ConsentLedger ledger;
        for (Algorithm algorithm : kAlgorithms) {
          if (mode != Mode::kPlain && algorithm == Algorithm::kOptimal) {
            continue;
          }
          VirtualClock clock;
          ValuationOracle backing(hidden);
          FaultyOracle faulty(backing, sdb.pool(), FaultsFor(seed), &clock);
          SessionOptions options;
          options.algorithm = algorithm;
          options.random_seed = 100 + seed;
          if (mode != Mode::kPlain) {
            options.retry = RetryFor(seed);
            options.clock = &clock;
          }
          if (mode == Mode::kLedger) options.ledger = &ledger;
          consent::ProbeOracle& oracle =
              mode == Mode::kPlain ? static_cast<consent::ProbeOracle&>(backing)
                                   : faulty;
          Result<SessionReport> report =
              manager.DecideAll(kQueries[q], oracle, options);
          std::string bytes =
              report.ok() ? report->ToJson() : report.status().ToString();
          bytes += "|hits=" + std::to_string(ledger.hits());
          bytes += "|oracle=" + std::to_string(ledger.oracle_probes());
          bytes += "|faulted=" + std::to_string(ledger.faulted_probes());
          bytes += "|t=" + std::to_string(clock.NowNanos());
          corpus.sessions.push_back(std::string(ModeName(mode)) + "/q" +
                                    std::to_string(q) + "/" +
                                    core::AlgorithmToString(algorithm) +
                                    "/seed" + std::to_string(seed));
          corpus.digests.push_back(Fnv1a(bytes));
          if (report.ok() && mode != Mode::kPlain) {
            const core::FailureBreakdown& f = report->failures;
            corpus.failures.transient += f.transient;
            corpus.failures.unavailable += f.unavailable;
            corpus.failures.retries_exhausted += f.retries_exhausted;
            corpus.failures.probe_deadline += f.probe_deadline;
            corpus.failures.session_deadline += f.session_deadline;
            corpus.unresolved += report->num_unresolved;
          }
        }
        corpus.ledger_hits += ledger.hits();
      }
    }
  }
  return corpus;
}

const Corpus& TheCorpus() {
  static const Corpus corpus = RunCorpus();
  return corpus;
}

TEST(GoldenReportTest, EverySessionMatchesItsPinnedDigest) {
  const Corpus& corpus = TheCorpus();
  if (const char* path = std::getenv("CONSENTDB_GOLDEN_OUT")) {
    std::string table =
        "// Generated by golden_report_test (CONSENTDB_GOLDEN_OUT); see its "
        "header.\n";
    char digest[24];
    for (size_t i = 0; i < corpus.sessions.size(); ++i) {
      std::snprintf(digest, sizeof(digest), "0x%016llxull",
                    static_cast<unsigned long long>(corpus.digests[i]));
      table += "{\"" + corpus.sessions[i] + "\", " + digest + "},\n";
    }
    ASSERT_TRUE(Env::Default()->WriteStringToFile(path, table, /*sync=*/false).ok()) << path;
    GTEST_SKIP() << "wrote " << corpus.sessions.size() << " digests to "
                 << path;
  }

  std::map<std::string, uint64_t> golden;
  for (const GoldenDigest& d : kGolden) golden.emplace(d.session, d.digest);
  EXPECT_EQ(golden.size(), corpus.sessions.size());
  for (size_t i = 0; i < corpus.sessions.size(); ++i) {
    const std::string& session = corpus.sessions[i];
    auto it = golden.find(session);
    if (it == golden.end()) {
      ADD_FAILURE() << "session " << session << " has no pinned digest";
      continue;
    }
    EXPECT_EQ(it->second, corpus.digests[i])
        << "session " << session << " no longer matches its golden report";
  }
}

// The corpus exercises what it claims to: faults, every way of losing a
// probe, session expiry, unresolved tuples and ledger hits all occur.
TEST(GoldenReportTest, CorpusCoversTheResiliencePaths) {
  const Corpus& corpus = TheCorpus();
  EXPECT_GT(corpus.failures.transient, 0u);
  EXPECT_GT(corpus.failures.unavailable, 0u);
  EXPECT_GT(corpus.failures.retries_exhausted, 0u);
  EXPECT_GT(corpus.failures.probe_deadline, 0u);
  EXPECT_GT(corpus.failures.session_deadline, 0u);
  EXPECT_GT(corpus.unresolved, 0u);
  EXPECT_GT(corpus.ledger_hits, 0u);
}

}  // namespace
}  // namespace consentdb
