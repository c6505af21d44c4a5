#include "consentdb/core/consent_manager.h"

#include <cmath>

#include "consentdb/core/async_session.h"
#include "consentdb/eval/targeted.h"
#include "consentdb/obs/names.h"
#include "consentdb/query/optimize.h"
#include "consentdb/strategy/expected_cost.h"
#include "consentdb/strategy/optimal.h"
#include "consentdb/util/check.h"
#include "consentdb/util/hash_mix.h"
#include "consentdb/util/json_writer.h"

namespace consentdb::core {

using consent::ProbeOracle;
using eval::AnnotatedRelation;
using eval::ProvenanceProfile;
using provenance::Dnf;
using provenance::Truth;
using provenance::VarId;
using query::PlanPtr;
using relational::Tuple;
using strategy::EvaluationState;

const char* AlgorithmToString(Algorithm a) {
  switch (a) {
    case Algorithm::kAuto:
      return "Auto";
    case Algorithm::kRandom:
      return "Random";
    case Algorithm::kFreq:
      return "Freq";
    case Algorithm::kRo:
      return "RO";
    case Algorithm::kQValue:
      return "Q-value";
    case Algorithm::kGeneral:
      return "General";
    case Algorithm::kHybrid:
      return "Hybrid";
    case Algorithm::kOptimal:
      return "Optimal";
  }
  return "?";
}

const char* VerdictToString(TupleConsent::Verdict v) {
  switch (v) {
    case TupleConsent::Verdict::kNotShareable:
      return "not_shareable";
    case TupleConsent::Verdict::kShareable:
      return "shareable";
    case TupleConsent::Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

int64_t RetryPolicy::BackoffNanos(size_t attempt, VarId x) const {
  CONSENTDB_CHECK(attempt >= 1, "backoff is computed for retries only");
  double base = static_cast<double>(initial_backoff_nanos) *
                std::pow(backoff_multiplier, static_cast<double>(attempt - 1));
  base = std::min(base, static_cast<double>(max_backoff_nanos));
  if (jitter > 0.0) {
    // Deterministic jitter: a pure function of (seed, variable, attempt),
    // independent of thread interleaving and of other probes.
    double u = UnitUniformHash(jitter_seed, x, attempt);
    base *= 1.0 + jitter * (2.0 * u - 1.0);
  }
  return base <= 0.0 ? 0 : static_cast<int64_t>(base);
}

namespace {

using internal::StrategySelection;

// Auto selection: the runtime checks of Sec. IV-D layered over the
// syntactic guarantees of Table I.
StrategySelection SelectAuto(const ProvenanceProfile& profile,
                             bool single_tuple, const SessionOptions& options,
                             EvaluationState* state) {
  StrategySelection sel;
  if (profile.overall_read_once ||
      (single_tuple && profile.per_tuple_read_once)) {
    sel.strategy = std::make_unique<strategy::RoStrategy>();
    sel.rationale = profile.overall_read_once
                        ? "provenance is overall read-once: RO is exact "
                          "(Prop. IV.4/IV.8)"
                        : "single-tuple provenance is read-once: RO is exact "
                          "(Prop. IV.5)";
    return sel;
  }
  if (profile.max_terms_per_tuple <= options.qvalue_max_terms &&
      state->TryAttachResidualCnfs(options.cnf_limits)) {
    sel.strategy = std::make_unique<strategy::QValueStrategy>();
    sel.rationale =
        "projection-limited provenance (max " +
        std::to_string(profile.max_terms_per_tuple) +
        " terms/tuple): Q-value approximation (Props. IV.11/IV.13)";
    return sel;
  }
  sel.strategy = std::make_unique<strategy::GeneralStrategy>();
  sel.rationale =
      "general provenance: Algorithm General (Thm. IV.16 approximation)";
  return sel;
}

}  // namespace

Result<StrategySelection> internal::SelectSessionStrategy(
    Algorithm algorithm, const ProvenanceProfile& profile, bool single_tuple,
    const SessionOptions& options, const std::vector<double>& pi,
    EvaluationState* state) {
  StrategySelection sel;
  switch (algorithm) {
    case Algorithm::kAuto:
      return SelectAuto(profile, single_tuple, options, state);
    case Algorithm::kRandom:
      sel.strategy =
          std::make_unique<strategy::RandomStrategy>(options.random_seed);
      break;
    case Algorithm::kFreq:
      sel.strategy = std::make_unique<strategy::FreqStrategy>();
      break;
    case Algorithm::kRo:
      sel.strategy = std::make_unique<strategy::RoStrategy>();
      break;
    case Algorithm::kQValue: {
      CONSENTDB_RETURN_IF_ERROR(state->AttachCnfs(options.cnf_limits));
      sel.strategy = std::make_unique<strategy::QValueStrategy>();
      break;
    }
    case Algorithm::kGeneral:
      sel.strategy = std::make_unique<strategy::GeneralStrategy>();
      break;
    case Algorithm::kHybrid:
      sel.strategy =
          std::make_unique<strategy::HybridStrategy>(options.cnf_limits);
      break;
    case Algorithm::kOptimal: {
      std::vector<Dnf> dnfs = profile.dnfs;
      sel.strategy = std::make_unique<strategy::OptimalStrategy>(
          std::move(dnfs), pi, options.optimal_max_vars);
      break;
    }
  }
  sel.rationale = "requested explicitly";
  return sel;
}

Result<PreparedSession> ConsentManager::Prepare(
    const PlanPtr& plan, std::optional<Tuple> single,
    const SessionOptions& options) const {
  PlanPtr effective = plan;
  if (options.optimize_plan) {
    obs::ScopedTimer timer(
        obs::MaybeHistogram(options.metrics, "query.optimize_ns"));
    CONSENTDB_ASSIGN_OR_RETURN(effective,
                               query::Optimize(plan, sdb_.database()));
  }
  return PrepareResolved(plan, effective, std::move(single), options);
}

Result<PreparedSession> ConsentManager::PrepareResolved(
    const PlanPtr& plan, const PlanPtr& effective, std::optional<Tuple> single,
    const SessionOptions& options) const {
  obs::MetricsRegistry* metrics = options.metrics;
  PreparedSession prepared;
  prepared.plan = plan;
  prepared.effective = effective;
  prepared.single = single.has_value();
  std::vector<provenance::BoolExprPtr> annotations;
  CONSENTDB_ASSIGN_OR_RETURN(relational::Schema schema,
                             effective->OutputSchema(sdb_.database()));
  if (single.has_value()) {
    // Targeted evaluation: the tuple's provenance is computed by pushing
    // its values down the plan, without materialising the whole result.
    obs::ScopedTimer timer(obs::MaybeHistogram(metrics, "eval.targeted_ns"));
    CONSENTDB_ASSIGN_OR_RETURN(
        provenance::BoolExprPtr annotation,
        eval::AnnotationForTuple(effective, sdb_, *single));
    prepared.tuples.push_back(*std::move(single));
    annotations.push_back(std::move(annotation));
  } else {
    CONSENTDB_ASSIGN_OR_RETURN(
        AnnotatedRelation annotated,
        eval::EvaluateAnnotated(effective, sdb_, metrics));
    prepared.tuples = annotated.tuples();
    annotations = annotated.annotations();
  }

  // Flatten to DNF and profile the provenance structure.
  {
    AnnotatedRelation subset(schema);
    for (size_t i = 0; i < prepared.tuples.size(); ++i) {
      subset.Insert(prepared.tuples[i], annotations[i]);
    }
    CONSENTDB_ASSIGN_OR_RETURN(
        prepared.provenance,
        eval::ProfileProvenance(subset, options.dnf_limits, metrics));
  }

  // Classify the plan the session actually relies on (the effective one);
  // the submitted plan's class is kept alongside for reporting, without
  // double-counting the query.class.* metrics.
  prepared.profile = query::Classify(*effective, metrics);
  prepared.submitted_profile =
      effective == plan ? prepared.profile : query::Classify(*plan);
  return prepared;
}

Result<SessionReport> ConsentManager::FinishSession(
    const PreparedSession& prepared, ProbeOracle& oracle,
    const SessionOptions& options, int64_t session_start) const {
  if (options.ledger != nullptr) {
    // Durability/resume: interpose the ledger between the probe loop and
    // the oracle. Journaled answers replay without peer traffic; the rest
    // of the session is oblivious (a ledger hit is a probe like any other).
    consent::LedgerOracle ledger_oracle(*options.ledger, oracle);
    SessionOptions inner = options;
    inner.ledger = nullptr;
    return FinishSession(prepared, ledger_oracle, inner, session_start);
  }
  CONSENTDB_ASSIGN_OR_RETURN(std::unique_ptr<AsyncConsentSession> session,
                             AsyncConsentSession::Create(sdb_, prepared,
                                                         options));
  // Drive the session inline: probes call the oracle directly (TryProbe
  // under a retry policy, whose faults degrade to kUnresolved verdicts
  // instead of aborting), and backoffs sleep on the session clock.
  Clock* clock = options.clock != nullptr ? options.clock : RealClock();
  for (AsyncConsentSession::Step step = session->Pump();
       step.kind != AsyncConsentSession::Step::Kind::kDone;
       step = session->Pump()) {
    const VarId x = step.variable;
    if (step.kind == AsyncConsentSession::Step::Kind::kWait) {
      // Backoff waits show up as retry.wait spans in the timeline (real
      // duration under RealClock, near-zero under a VirtualClock).
      obs::Span wait(options.spans, obs::names::kSpanRetryWait);
      wait.SetArg(obs::names::kArgAttempt, session->attempts());
      clock->SleepFor(step.wake_at_nanos - clock->NowNanos());
    } else if (!session->resilient()) {
      session->OnAnswer(x, oracle.Probe(x));
    } else {
      const consent::ProbeAttempt attempt = oracle.TryProbe(x);
      if (attempt.ok()) {
        session->OnAnswer(x, attempt.answer);
      } else {
        session->OnFault(x, attempt.fault);
      }
    }
  }
  if (options.tracer != nullptr) {
    options.tracer->set_session_nanos(obs::MonotonicNanos() - session_start);
  }
  return std::move(session->report());
}

SessionReport internal::AssembleReport(const consent::SharedDatabase& sdb,
                                       const PreparedSession& prepared,
                                       const StrategySelection& sel,
                                       ProbePhase phase,
                                       const SessionOptions& options) {
  obs::MetricsRegistry* metrics = options.metrics;
  const ProvenanceProfile& profile = prepared.provenance;
  SessionReport report;
  report.resilient = phase.resilient;
  report.num_retries = phase.num_retries;
  report.failures = phase.failures;
  report.num_probes = phase.num_probes;
  report.algorithm_used = sel.strategy->name();
  report.selection_rationale = sel.rationale;
  report.cnf_attach_failed = sel.strategy->cnf_attach_failed();
  report.query_profile = prepared.profile;
  report.query_profile_submitted = prepared.submitted_profile;
  report.provenance_tuples = profile.dnfs.size();
  report.provenance_max_terms = profile.max_terms_per_tuple;
  report.provenance_max_term_size = profile.max_term_size;
  report.provenance_overall_read_once = profile.overall_read_once;
  report.provenance_per_tuple_read_once = profile.per_tuple_read_once;
  report.tuples.reserve(prepared.tuples.size());
  for (size_t i = 0; i < prepared.tuples.size(); ++i) {
    if (phase.outcomes[i] == Truth::kUnknown) {
      // Only the resilient path may leave a tuple undecided (lost peers cut
      // every remaining path to it); possible-world semantics make this a
      // genuine third value, reported as kUnresolved / not shareable.
      CONSENTDB_CHECK(report.resilient,
                      "session ended with an undecided tuple");
      ++report.num_unresolved;
      report.tuples.push_back(TupleConsent{prepared.tuples[i], false,
                                           TupleConsent::Verdict::kUnresolved});
      continue;
    }
    const bool shareable = phase.outcomes[i] == Truth::kTrue;
    report.tuples.push_back(
        TupleConsent{prepared.tuples[i], shareable,
                     shareable ? TupleConsent::Verdict::kShareable
                               : TupleConsent::Verdict::kNotShareable});
  }
  report.trace.reserve(phase.trace.size());
  for (const auto& [x, answer] : phase.trace) {
    report.trace.push_back(SessionReport::ProbeRecord{
        x, sdb.pool().name(x), sdb.pool().owner(x), answer});
  }
  if (metrics != nullptr) {
    metrics->GetHistogram("session.probes", obs::SessionProbeBuckets())
        ->Observe(phase.num_probes);
    obs::SetGauge(metrics, "session.last_probes",
                  static_cast<double>(phase.num_probes));
    if (report.num_unresolved > 0) {
      obs::Increment(metrics, "session.unresolved_tuples",
                     report.num_unresolved);
    }
    if (report.cnf_attach_failed) {
      obs::Increment(metrics, "session.cnf_attach_failed");
    }
  }
  return report;
}

Result<SessionReport> ConsentManager::RunPrepared(
    const PreparedSession& prepared, ProbeOracle& oracle,
    const SessionOptions& options) const {
  const bool instrumented =
      options.metrics != nullptr || options.tracer != nullptr;
  const int64_t session_start = instrumented ? obs::MonotonicNanos() : 0;
  obs::ScopedTimer session_timer(
      obs::MaybeHistogram(options.metrics, "session.total_ns"));
  obs::Increment(options.metrics, "session.count");
  obs::Span span(options.spans, obs::names::kSpanSessionRun);
  if (options.tracer != nullptr) options.tracer->Clear();
  Result<SessionReport> report =
      FinishSession(prepared, oracle, options, session_start);
  if (report.ok()) span.SetArg(obs::names::kArgProbes, report->num_probes);
  return report;
}

Result<SessionReport> ConsentManager::RunSession(
    const PlanPtr& plan, std::optional<Tuple> single, ProbeOracle& oracle,
    const SessionOptions& options) const {
  const bool instrumented =
      options.metrics != nullptr || options.tracer != nullptr;
  const int64_t session_start = instrumented ? obs::MonotonicNanos() : 0;
  obs::ScopedTimer session_timer(
      obs::MaybeHistogram(options.metrics, "session.total_ns"));
  obs::Increment(options.metrics, "session.count");
  obs::Span span(options.spans, obs::names::kSpanSessionRun);
  if (options.tracer != nullptr) options.tracer->Clear();

  CONSENTDB_ASSIGN_OR_RETURN(PreparedSession prepared,
                             Prepare(plan, std::move(single), options));
  Result<SessionReport> report =
      FinishSession(prepared, oracle, options, session_start);
  if (report.ok()) span.SetArg(obs::names::kArgProbes, report->num_probes);
  return report;
}

Result<SessionReport> ConsentManager::DecideAll(
    const PlanPtr& plan, ProbeOracle& oracle,
    const SessionOptions& options) const {
  return RunSession(plan, std::nullopt, oracle, options);
}

Result<SessionReport> ConsentManager::DecideAll(
    std::string_view sql, ProbeOracle& oracle,
    const SessionOptions& options) const {
  CONSENTDB_ASSIGN_OR_RETURN(PlanPtr plan, query::ParseQuery(sql));
  return RunSession(plan, std::nullopt, oracle, options);
}

Result<SessionReport> ConsentManager::DecideSingle(
    const PlanPtr& plan, const Tuple& tuple, ProbeOracle& oracle,
    const SessionOptions& options) const {
  return RunSession(plan, tuple, oracle, options);
}

Result<SessionReport> ConsentManager::DecideSingle(
    std::string_view sql, const Tuple& tuple, ProbeOracle& oracle,
    const SessionOptions& options) const {
  CONSENTDB_ASSIGN_OR_RETURN(PlanPtr plan, query::ParseQuery(sql));
  return RunSession(plan, tuple, oracle, options);
}

Result<QueryAnalysis> ConsentManager::Analyze(
    const PlanPtr& plan, const SessionOptions& options) const {
  QueryAnalysis analysis;
  analysis.profile = query::Classify(*plan, options.metrics);
  analysis.guarantees = query::GuaranteesFor(analysis.profile);
  CONSENTDB_ASSIGN_OR_RETURN(
      AnnotatedRelation annotated,
      eval::EvaluateAnnotated(plan, sdb_, options.metrics));
  CONSENTDB_ASSIGN_OR_RETURN(
      analysis.provenance,
      eval::ProfileProvenance(annotated, options.dnf_limits, options.metrics));
  return analysis;
}

std::string SessionReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("algorithm");
  w.String(algorithm_used);
  w.Key("selection_rationale");
  w.String(selection_rationale);
  w.Key("query_class");
  w.String(query::QueryClassToString(query_profile.query_class));
  w.Key("query_class_submitted");
  w.String(query::QueryClassToString(query_profile_submitted.query_class));
  w.Key("num_probes");
  w.Uint(num_probes);
  if (cnf_attach_failed) {
    w.Key("cnf_attach_failed");
    w.Bool(true);
  }
  if (resilient) {
    w.Key("num_retries");
    w.Uint(num_retries);
    w.Key("num_unresolved");
    w.Uint(num_unresolved);
    w.Key("failures");
    w.BeginObject();
    w.Key("transient");
    w.Uint(failures.transient);
    w.Key("unavailable");
    w.Uint(failures.unavailable);
    w.Key("retries_exhausted");
    w.Uint(failures.retries_exhausted);
    w.Key("probe_deadline");
    w.Uint(failures.probe_deadline);
    w.Key("session_deadline");
    w.Uint(failures.session_deadline);
    w.EndObject();
  }
  w.Key("provenance");
  w.BeginObject();
  w.Key("tuples");
  w.Uint(provenance_tuples);
  w.Key("max_terms_per_tuple");
  w.Uint(provenance_max_terms);
  w.Key("max_term_size");
  w.Uint(provenance_max_term_size);
  w.Key("overall_read_once");
  w.Bool(provenance_overall_read_once);
  w.Key("per_tuple_read_once");
  w.Bool(provenance_per_tuple_read_once);
  w.EndObject();
  w.Key("tuples");
  w.BeginArray();
  for (const TupleConsent& tc : tuples) {
    w.BeginObject();
    w.Key("tuple");
    w.String(tc.tuple.ToString());
    w.Key("shareable");
    w.Bool(tc.shareable);
    if (resilient) {
      w.Key("verdict");
      w.String(VerdictToString(tc.verdict));
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("trace");
  w.BeginArray();
  for (const ProbeRecord& rec : trace) {
    w.BeginObject();
    w.Key("variable");
    w.String(rec.variable_name);
    w.Key("owner");
    w.String(rec.owner);
    w.Key("answer");
    w.Bool(rec.answer);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

std::string SessionReport::ToString() const {
  std::string out = "SessionReport{algorithm=" + algorithm_used;
  out += ", probes=" + std::to_string(num_probes);
  out += ", tuples=" + std::to_string(tuples.size());
  size_t shareable = 0;
  for (const TupleConsent& t : tuples) shareable += t.shareable ? 1 : 0;
  out += ", shareable=" + std::to_string(shareable);
  if (cnf_attach_failed) out += ", cnf_attach_failed";
  if (resilient) {
    out += ", unresolved=" + std::to_string(num_unresolved);
    out += ", retries=" + std::to_string(num_retries);
  }
  out += ", class=" + std::string(query::QueryClassToString(
                          query_profile.query_class));
  return out + "}";
}

}  // namespace consentdb::core
