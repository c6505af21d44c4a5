// The benchmark's simulated data owners. The program only ever sees them
// through the ProbeOracle seam; what they record (question arrival times,
// the variables asked) is how the benchmark measures a session from the
// peers' side without touching program code.

#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/util/check.h"
#include "util.h"

namespace perfbench {

using consentdb::provenance::VarId;

// Answers every probe from a hidden 0/1 consent vector indexed by VarId.
class AnswerOracle : public consentdb::consent::ProbeOracle {
 public:
  explicit AnswerOracle(const std::vector<uint8_t>* answers)
      : answers_(answers) {}
  bool Probe(VarId x) override {
    CONSENTDB_CHECK(x < answers_->size(), "probe of a variable with no answer");
    ++count_;
    return (*answers_)[x] != 0;
  }
  size_t probe_count() const override { return count_; }

 private:
  const std::vector<uint8_t>* answers_;
  size_t count_ = 0;
};

// The peers of the timed sessions: answers like AnswerOracle and stamps the
// arrival of every question, which yields first-probe latency and the gaps
// between consecutive questions of one session.
class PeerOracle : public consentdb::consent::ProbeOracle {
 public:
  // Starts a session whose answers come from `answers`; gaps between its
  // questions are appended to `gaps_us` (may be null).
  void BeginSession(const std::vector<uint8_t>* answers,
                    std::vector<double>* gaps_us) {
    answers_ = answers;
    gaps_us_ = gaps_us;
    first_ns_ = 0;
    last_ns_ = 0;
    vars_.clear();
  }
  bool Probe(VarId x) override {
    const int64_t now = NowNanos();
    if (vars_.empty()) {
      first_ns_ = now;
    } else if (gaps_us_ != nullptr) {
      gaps_us_->push_back(static_cast<double>(now - last_ns_) / 1e3);
    }
    last_ns_ = now;
    vars_.push_back(x);
    CONSENTDB_CHECK(x < answers_->size(), "probe of a variable with no answer");
    return (*answers_)[x] != 0;
  }
  size_t probe_count() const override { return vars_.size(); }

  // Questions answered in the current session, in order.
  const std::vector<VarId>& session_vars() const { return vars_; }
  // Arrival of the session's first question (0 when none arrived).
  int64_t first_probe_ns() const { return first_ns_; }

 private:
  const std::vector<uint8_t>* answers_ = nullptr;
  std::vector<double>* gaps_us_ = nullptr;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
  std::vector<VarId> vars_;
};

// Re-asks the questions of one finished session for a replay: variables the
// session's peers answered go through a fresh FaultyOracle with the run's
// fault plan (so retries repeat exactly, as each such variable met its
// first attempt in that session), every other variable answers as the
// shared ledger did.
class ReplayOracle : public consentdb::consent::ProbeOracle {
 public:
  ReplayOracle(const std::vector<uint8_t>* answers,
               const std::vector<VarId>& peer_vars,
               const consentdb::consent::VariablePool& pool,
               const std::optional<consentdb::consent::FaultPlan>& plan)
      : backing_(answers), peer_vars_(peer_vars.begin(), peer_vars.end()) {
    if (plan.has_value()) {
      faulty_ = std::make_unique<consentdb::consent::FaultyOracle>(
          backing_, pool, *plan);
    }
  }
  consentdb::consent::ProbeAttempt TryProbe(VarId x) override {
    ++count_;
    if (faulty_ != nullptr && peer_vars_.count(x) > 0) {
      return faulty_->TryProbe(x);
    }
    return consentdb::consent::ProbeAttempt::Answered(backing_.Probe(x));
  }
  bool Probe(VarId x) override {
    consentdb::consent::ProbeAttempt a = TryProbe(x);
    CONSENTDB_CHECK(a.ok(), "infallible replay probe faulted");
    return a.answer;
  }
  size_t probe_count() const override { return count_; }

 private:
  AnswerOracle backing_;
  std::set<VarId> peer_vars_;
  std::unique_ptr<consentdb::consent::FaultyOracle> faulty_;
  size_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
