#include "consentdb/consent/oracle.h"

#include <algorithm>

#include "consentdb/consent/wal.h"
#include "consentdb/util/check.h"

namespace consentdb::consent {

using provenance::Truth;

const char* ProbeFaultToString(ProbeFault fault) {
  switch (fault) {
    case ProbeFault::kNone:
      return "none";
    case ProbeFault::kTransient:
      return "transient";
    case ProbeFault::kUnavailable:
      return "unavailable";
  }
  return "?";
}

bool FallibleOracle::Probe(VarId x) {
  ProbeAttempt attempt = TryProbe(x);
  CONSENTDB_CHECK(attempt.ok(), std::string(ProbeFaultToString(attempt.fault)) +
                                    " fault on the infallible probe path (x" +
                                    std::to_string(x) +
                                    "): callers that can see faults use "
                                    "TryProbe");
  return attempt.answer;
}

ValuationOracle::ValuationOracle(provenance::PartialValuation hidden)
    : hidden_(std::move(hidden)) {}

bool ValuationOracle::Probe(VarId x) {
  Truth t = hidden_.Get(x);
  CONSENTDB_CHECK(t != Truth::kUnknown,
                  "probed variable has no hidden value: x" + std::to_string(x));
  if (x >= seen_.size()) seen_.resize(x + 1, false);
  bool answer = t == Truth::kTrue;
  if (!seen_[x]) {
    seen_[x] = true;
    probed_.push_back(x);
    trace_.emplace_back(x, answer);
  }
  return answer;
}

ReplayOracle::ReplayOracle(std::vector<std::pair<VarId, bool>> trace)
    : trace_(std::move(trace)) {}

bool ReplayOracle::Probe(VarId x) {
  for (const auto& [var, answer] : trace_) {
    if (var == x) {
      ++asked_;
      return answer;
    }
  }
  CONSENTDB_CHECK(false, "replayed session never probed x" + std::to_string(x));
  return false;
}

bool CallbackOracle::Probe(VarId x) {
  for (const auto& [var, answer] : answers_) {
    if (var == x) return answer;
  }
  bool answer = callback_(x);
  answers_.emplace_back(x, answer);
  return answer;
}

ProbeAttempt ConsentLedger::TryProbeVia(ProbeOracle& oracle, VarId x,
                                        bool* answered_from_ledger) {
  MutexLock lock(mu_);
  auto it = answers_.find(x);
  if (it != answers_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (answered_from_ledger != nullptr) *answered_from_ledger = true;
    return ProbeAttempt::Answered(it->second);
  }
  if (answered_from_ledger != nullptr) *answered_from_ledger = false;
  // First touch: one attempt at the peer while still holding the lock —
  // this both serializes access to the (not necessarily thread-safe) oracle
  // and guarantees no variable is ever sent to a peer twice. Success is
  // recorded before the lock drops, so concurrent retries of the same
  // variable either hit the recorded answer or are the recording attempt —
  // two recorded answers for one variable are impossible.
  ProbeAttempt attempt = oracle.TryProbe(x);
  if (attempt.ok()) {
    oracle_probes_.fetch_add(1, std::memory_order_relaxed);
    answers_.emplace(x, attempt.answer);
    JournalLocked(x, attempt.answer);
  } else {
    faulted_probes_.fetch_add(1, std::memory_order_relaxed);
  }
  return attempt;
}

std::optional<bool> ConsentLedger::Lookup(VarId x) const {
  MutexLock lock(mu_);
  auto it = answers_.find(x);
  if (it == answers_.end()) return std::nullopt;
  return it->second;
}

size_t ConsentLedger::size() const {
  MutexLock lock(mu_);
  return answers_.size();
}

void ConsentLedger::AttachJournal(WalWriter* wal,
                                  uint64_t compact_every_records) {
  MutexLock lock(mu_);
  wal_ = wal;
  compact_every_ = compact_every_records;
  journaled_since_compact_ = 0;
}

Status ConsentLedger::journal_error() const {
  MutexLock lock(mu_);
  return journal_error_;
}

void ConsentLedger::JournalLocked(VarId x, bool answer) {
  if (wal_ == nullptr) return;
  Status s = wal_->AppendAnswer(x, answer);
  if (!s.ok()) {
    // The probe itself stays valid; latch the first failure for the owner.
    if (journal_error_.ok()) journal_error_ = std::move(s);
    return;
  }
  if (compact_every_ > 0 && ++journaled_since_compact_ >= compact_every_) {
    journaled_since_compact_ = 0;
    // det:order-insensitive sorted by VarId before CompactTo serializes it
    std::vector<std::pair<VarId, bool>> answers(answers_.begin(),
                                                answers_.end());
    std::sort(answers.begin(), answers.end());
    Status c = wal_->CompactTo(answers);
    if (!c.ok() && journal_error_.ok()) journal_error_ = std::move(c);
  }
}

Status ConsentLedger::RestoreAnswer(VarId x, bool answer) {
  MutexLock lock(mu_);
  auto [it, inserted] = answers_.emplace(x, answer);
  if (!inserted) {
    if (it->second != answer) {
      return Status::Internal("conflicting journaled answers for x" +
                              std::to_string(x));
    }
    return Status::OK();  // idempotent replay (snapshot + wal overlap)
  }
  restored_answers_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<std::pair<VarId, bool>> ConsentLedger::Answers() const {
  MutexLock lock(mu_);
  // det:order-insensitive sorted by VarId before any caller serializes it
  std::vector<std::pair<VarId, bool>> answers(answers_.begin(),
                                              answers_.end());
  std::sort(answers.begin(), answers.end());
  return answers;
}

void ConsentLedger::Clear() {
  // Deliberately leaves any attached journal and its file untouched: Clear
  // is a cache reset for tests/benches, not a consent revocation. Durable
  // deployments should recover or compact rather than Clear.
  MutexLock lock(mu_);
  answers_.clear();
  hits_.store(0, std::memory_order_relaxed);
  oracle_probes_.store(0, std::memory_order_relaxed);
  faulted_probes_.store(0, std::memory_order_relaxed);
  restored_answers_.store(0, std::memory_order_relaxed);
}

}  // namespace consentdb::consent
