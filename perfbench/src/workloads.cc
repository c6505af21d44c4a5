#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/wal.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/eval/evaluate.h"
#include "consentdb/eval/provenance_profile.h"
#include "consentdb/net/posix_transport.h"
#include "consentdb/net/probe_client.h"
#include "consentdb/net/probe_server.h"
#include "consentdb/net/protocol.h"
#include "consentdb/query/classify.h"
#include "consentdb/query/optimize.h"
#include "consentdb/query/parser.h"
#include "consentdb/strategy/evaluation_state.h"
#include "datasets.h"
#include "oracles.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

namespace cdb = consentdb;
using cdb::consent::FaultPlan;
using cdb::consent::SharedDatabase;
using cdb::core::PreparedSession;
using cdb::core::SessionEngine;
using cdb::core::SessionOptions;
using cdb::core::SessionReport;

namespace {

enum class Kind { kWarm, kCold, kServed };

struct Spec {
  const char* name;
  Kind kind;
  // Script length per second of --seconds: the script is a fixed number of
  // sessions, never a time budget, so per-session counts repeat exactly.
  double sessions_per_second;
  // Sessions of the traced run (at most; never more than the script).
  size_t traced_sessions;
  // Replay every n-th traced session.
  size_t replay_every;
};

constexpr Spec kSpecs[] = {
    {"warm_qvalue", Kind::kWarm, 1000, 1500, 8},
    {"cold_join_writes", Kind::kCold, 30, 40, 1},
    {"served_tcp", Kind::kServed, 20, 60, 1},
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// cold_join_writes runs its script in rounds, each on a fresh database
// sized for the round, so the writes of one round grow it by 10% however
// long the script is.
constexpr size_t kColdRoundSessions = 50;
// The traced run's self-time check: layer self-times plus engine overhead
// must account for the traced session time to within this share.
constexpr double kUnattributedTolerance = 0.25;

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

size_t ScriptLength(const Spec& spec, int seconds) {
  return std::max<size_t>(
      20, static_cast<size_t>(std::llround(spec.sessions_per_second * seconds)));
}

// Per-call samples and per-session totals of the traced run, by metric.
struct Layers {
  std::map<std::string, std::vector<double>> calls;
  std::map<std::string, double> totals;
  void Call(const std::string& name, double v) { calls[name].push_back(v); }
  void Add(const std::string& name, double v) { totals[name] += v; }
  double MedianOf(const std::string& name) const {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : Median(it->second);
  }
  double Total(const std::string& name) const {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  }
};

// What the driver needs to know about a finished session.
struct Outcome {
  bool ok = false;
  uint64_t digest = 0;
  bool qvalue = false;
  size_t num_probes = 0;
  size_t num_retries = 0;
  std::string json;  // kept only when a replay follows
  std::string error;
};

// Inputs of one session's replay.
struct ReplayInput {
  const SharedDatabase* sdb = nullptr;
  const std::string* sql = nullptr;
  bool reparsed = false;     // the engine's plan cache missed
  bool reevaluated = false;  // the engine's provenance cache missed
  const PreparedSession* cached = nullptr;
  const std::vector<uint8_t>* answers = nullptr;
  const std::vector<cdb::provenance::VarId>* peer_vars = nullptr;
  std::optional<FaultPlan> faults;
  const SessionOptions* options = nullptr;
  const std::string* expected_json = nullptr;
  uint64_t session = 0;
};

struct ReplayTimes {
  bool match = false;
  double prep_us = 0;      // parse + optimize + annotate + profile
  double strategy_us = 0;  // state build + CNF attach + select + probe loop
  double report_us = 0;    // report assembly
  std::string error;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Replays one session step by step through the layers' public functions,
// covering only the steps the engine ran, and rebuilds its report.
ReplayTimes ReplaySession(const ReplayInput& in, SpanLog* log, Layers* layers) {
  ReplayTimes out;
  const uint64_t sid = in.session;
  Span root(log, "replay", sid, 0);
  const SessionOptions& options = *in.options;
  const PreparedSession* prepared = in.cached;
  PreparedSession rebuilt;
  if (in.reparsed || in.reevaluated) {
    cdb::query::PlanPtr plan = in.cached->plan;
    cdb::query::PlanPtr effective = in.cached->effective;
    if (in.reparsed) {
      Span s(log, "query.parse", sid, root.id());
      cdb::Result<cdb::query::PlanPtr> parsed = cdb::query::ParseQuery(*in.sql);
      const double us = Us(s.End());
      CONSENTDB_CHECK(parsed.ok(), parsed.status().ToString());
      plan = *parsed;
      Span o(log, "query.optimize", sid, root.id());
      cdb::Result<cdb::query::PlanPtr> opt =
          cdb::query::Optimize(plan, in.sdb->database());
      const double us2 = Us(o.End());
      CONSENTDB_CHECK(opt.ok(), opt.status().ToString());
      effective = *opt;
      layers->Call("query.parse_us", us);
      layers->Call("query.optimize_us", us2);
      out.prep_us += us + us2;
    }
    Span a(log, "eval.annotate", sid, root.id());
    cdb::Result<cdb::eval::AnnotatedRelation> annotated =
        cdb::eval::EvaluateAnnotated(effective, *in.sdb);
    const double annotate_us = Us(a.End());
    CONSENTDB_CHECK(annotated.ok(), annotated.status().ToString());
    Span p(log, "eval.profile", sid, root.id());
    cdb::Result<cdb::eval::ProvenanceProfile> profile =
        cdb::eval::ProfileProvenance(*annotated, options.dnf_limits);
    const double profile_us = Us(p.End());
    CONSENTDB_CHECK(profile.ok(), profile.status().ToString());
    layers->Call("eval.annotate_ms", annotate_us / 1e3);
    layers->Call("eval.profile_ms", profile_us / 1e3);
    layers->Add("eval.output_tuples", static_cast<double>(annotated->size()));
    double terms = 0;
    for (const cdb::provenance::Dnf& d : profile->dnfs) terms += d.num_terms();
    layers->Add("eval.dnf_terms", terms);
    out.prep_us += annotate_us + profile_us;
    rebuilt.plan = plan;
    rebuilt.effective = effective;
    rebuilt.profile = cdb::query::Classify(*effective);
    rebuilt.submitted_profile = cdb::query::Classify(*plan);
    rebuilt.tuples = annotated->tuples();
    rebuilt.provenance = std::move(*profile);
    prepared = &rebuilt;
  }

  // Strategy: state, CNF attachment (when Auto would try Q-value), then the
  // probe loop with choose / assign timed apart from the peers.
  const cdb::eval::ProvenanceProfile& prov = prepared->provenance;
  Span sb(log, "strategy.state_build", sid, root.id());
  std::vector<double> pi = in.sdb->pool().Probabilities();
  cdb::strategy::EvaluationState state(prov.dnfs, pi);
  const double build_us = Us(sb.End());
  layers->Call("strategy.state_build_us", build_us);
  out.strategy_us += build_us;
  const bool auto_tries_qvalue =
      options.algorithm == cdb::core::Algorithm::kAuto &&
      !prov.overall_read_once &&
      !(prepared->single && prov.per_tuple_read_once) &&
      prov.max_terms_per_tuple <= options.qvalue_max_terms;
  if (auto_tries_qvalue) {
    Span ca(log, "strategy.cnf_attach", sid, root.id());
    const bool attached = state.TryAttachResidualCnfs(options.cnf_limits);
    const double attach_us = Us(ca.End());
    layers->Call("strategy.cnf_attach_us", attach_us);
    out.strategy_us += attach_us;
    if (attached) {
      double clauses = 0;
      for (size_t j = 0; j < state.num_formulas(); ++j) {
        clauses += static_cast<double>(state.live_clauses(j));
      }
      layers->Add("strategy.cnf_clauses", clauses);
    }
  }
  Span se(log, "strategy.select", sid, root.id());
  cdb::Result<cdb::core::internal::StrategySelection> sel =
      cdb::core::internal::SelectSessionStrategy(
          options.algorithm, prov, prepared->single, options, pi, &state);
  out.strategy_us += Us(se.End());
  CONSENTDB_CHECK(sel.ok(), sel.status().ToString());

  ReplayOracle oracle(in.answers, *in.peer_vars, in.sdb->pool(), in.faults);
  cdb::core::internal::ProbePhase phase;
  phase.resilient = options.retry.has_value();
  while (!state.AllDecided()) {
    Span c(log, "strategy.choose", sid, root.id());
    const cdb::provenance::VarId x = sel->strategy->ChooseNext(state);
    const double choose_us = Us(c.End());
    cdb::consent::ProbeAttempt attempt = oracle.TryProbe(x);
    while (!attempt.ok()) {
      // The run's retry policy has no attempt limit and no deadline, so a
      // transient fault is always retried.
      CONSENTDB_CHECK(phase.resilient, "fault on the infallible path");
      ++phase.failures.transient;
      ++phase.num_retries;
      attempt = oracle.TryProbe(x);
    }
    Span as(log, "strategy.assign", sid, root.id());
    state.Assign(x, attempt.answer);
    sel->strategy->OnAnswer(state, x, attempt.answer);
    const double assign_us = Us(as.End());
    layers->Call("strategy.choose_us", choose_us);
    layers->Call("strategy.assign_us", assign_us);
    out.strategy_us += choose_us + assign_us;
    ++phase.num_probes;
    phase.trace.emplace_back(x, attempt.answer);
  }
  phase.outcomes = state.FormulaValues();
  Span ra(log, "core.report_assemble", sid, root.id());
  SessionReport report = cdb::core::internal::AssembleReport(
      *in.sdb, *prepared, *sel, std::move(phase), options);
  out.report_us = Us(ra.End());
  layers->Call("core.report_assemble_us", out.report_us);
  Span j(log, "core.report_json", sid, root.id());
  const std::string json = report.ToJson();
  layers->Call("core.report_json_us", Us(j.End()));
  out.match = json == *in.expected_json;
  if (!out.match) out.error = "replayed report differs from the engine's";
  return out;
}

// Whether a report JSON (algorithm is its first key) used Q-value.
bool ReportUsedQValue(const std::string& json) {
  return json.rfind("{\"algorithm\":\"Q-value\"", 0) == 0;
}

Outcome FromReport(const cdb::Result<SessionReport>& r, bool keep_json) {
  Outcome out;
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.ok = true;
  std::string json = r->ToJson();
  out.digest = Digest(json);
  out.qvalue = r->algorithm_used == "Q-value";
  out.num_probes = r->num_probes;
  out.num_retries = r->num_retries;
  if (keep_json) out.json = std::move(json);
  return out;
}


// Reads "num_probes" out of a served report's JSON.
size_t JsonProbes(const std::string& json) {
  const std::string key = "\"num_probes\":";
  const size_t at = json.find(key);
  return at == std::string::npos
             ? 0
             : static_cast<size_t>(std::strtoull(json.c_str() + at + key.size(),
                                                 nullptr, 10));
}

cdb::core::RetryPolicy ColdRetryPolicy() {
  cdb::core::RetryPolicy policy;
  policy.max_attempts = 0;  // transient faults only: retry until answered
  return policy;
}

FaultPlan ColdFaults(uint64_t seed) {
  FaultPlan plan;
  plan.seed = Mix(seed, 0x4641554c54ull);
  plan.defaults.transient_failure_prob = 0.25;
  return plan;
}

// --- Workload instances -----------------------------------------------------

// One set-up workload, ready to run session i of its script.
class Instance {
 public:
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  virtual ~Instance() = default;
  // Benchmark-side preparation of session i (untimed).
  virtual void Prepare(size_t i) = 0;
  // The write before session i: timed, but not part of session latency.
  virtual void Write(size_t /*i*/, std::vector<double>* /*insert_us*/) {}
  // Runs session i (timed).
  virtual void Run() = 0;
  // Digests the session's outcome (untimed).
  virtual Outcome Collect(bool keep_json) = 0;
  // Replays session i after Collect (traced run only). Sets
  // `direct_us` to the time of a direct RunPrepared of the same prepared
  // session (0 when the session did not go through the engine's Submit).
  virtual ReplayTimes Replay(size_t i, const Outcome& outcome, bool plan_miss,
                             bool prov_miss, Layers* layers,
                             double* direct_us) = 0;
  virtual SessionEngine& engine() = 0;
  PeerOracle& peer() { return peer_; }
  std::vector<double>& gaps_us() { return gaps_us_; }

 protected:
  PeerOracle peer_;
  std::vector<double> gaps_us_;
};

// Shared by the in-process workloads: sessions are engine Submit -> get.
class EngineInstance : public Instance {
 public:
  void Run() override {
    cdb::core::SessionRequest req;
    req.sql = sql();
    req.oracle = oracle_;
    result_ = engine_->Submit(std::move(req)).get();
  }

  Outcome Collect(bool keep_json) override {
    return FromReport(result_, keep_json);
  }

  ReplayTimes Replay(size_t i, const Outcome& outcome, bool plan_miss,
                     bool prov_miss, Layers* layers,
                     double* direct_us) override {
    cdb::core::SessionRequest req;
    req.sql = sql();
    cdb::Result<std::shared_ptr<const PreparedSession>> cached =
        engine_->PrepareForServe(req);
    CONSENTDB_CHECK(cached.ok(), cached.status().ToString());
    const SessionOptions& options = engine_->base_session_options();
    const std::vector<cdb::provenance::VarId> peer_vars = peer_.session_vars();
    // The direct run and the replay each pay for touching the session's data
    // on this thread first; alternating their order splits that evenly.
    auto run_direct = [&]() -> bool {
      ReplayOracle oracle(&answers(), peer_vars, db().pool(), faults());
      Span span(log_, "core.run_prepared", i + 1, 0);
      cdb::Result<SessionReport> direct =
          engine_->manager().RunPrepared(**cached, oracle, options);
      *direct_us = Us(span.End());
      CONSENTDB_CHECK(direct.ok(), direct.status().ToString());
      return direct->ToJson() == outcome.json;
    };
    ReplayInput in;
    in.sdb = &db();
    in.sql = &sql();
    in.reparsed = plan_miss;
    in.reevaluated = prov_miss;
    in.cached = cached->get();
    in.answers = &answers();
    in.peer_vars = &peer_vars;
    in.faults = faults();
    in.options = &options;
    in.expected_json = &outcome.json;
    in.session = i + 1;
    const bool replay_first = (++replays_ % 2) == 0;
    ReplayTimes times;
    if (replay_first) times = ReplaySession(in, log_, layers);
    const bool direct_matches = run_direct();
    if (!replay_first) times = ReplaySession(in, log_, layers);
    if (!direct_matches) {
      times.match = false;
      times.error = "direct RunPrepared differs from the engine's report";
    }
    return times;
  }

  SessionEngine& engine() override { return *engine_; }

 protected:
  virtual const SharedDatabase& db() const = 0;
  virtual const std::string& sql() const = 0;
  virtual const std::vector<uint8_t>& answers() const = 0;
  virtual std::optional<FaultPlan> faults() const { return std::nullopt; }

  // Routes the peers through a TracedOracle when tracing.
  void WireOracle(cdb::consent::ProbeOracle* peers, Tracer* tracer) {
    oracle_ = peers;
    if (tracer != nullptr) {
      traced_ = std::make_unique<TracedOracle>(*peers, tracer);
      oracle_ = traced_.get();
      log_ = &tracer->spans();
    }
  }

  std::unique_ptr<SessionEngine> engine_;
  std::unique_ptr<TracedOracle> traced_;
  cdb::consent::ProbeOracle* oracle_ = nullptr;
  SpanLog* log_ = nullptr;
  cdb::Result<SessionReport> result_ = cdb::Status::Internal("not run");
  size_t replays_ = 0;
};

// Fills an engine's caches: one session per distinct catalogue query.
void WarmCaches(SessionEngine& engine, const SharedDatabase& sdb,
                const std::vector<std::string>& catalogue, uint64_t seed) {
  std::vector<uint8_t> answers;
  for (size_t q = 0; q < catalogue.size(); ++q) {
    SessionAnswers(sdb.pool(), seed ^ 0x5345545550ull, q, &answers);
    AnswerOracle oracle(&answers);
    cdb::core::SessionRequest req;
    req.sql = catalogue[q];
    req.oracle = &oracle;
    cdb::Result<SessionReport> r = engine.Submit(std::move(req)).get();
    CONSENTDB_CHECK(r.ok(), r.status().ToString());
  }
}

// warm_qvalue: cached plans and provenance, an unshared ledger (every probe
// reaches a peer), and a fresh hidden valuation per session.
class WarmInstance : public EngineInstance {
 public:
  // `tracer` is null for untraced runs.
  WarmInstance(uint64_t seed, Tracer* tracer)
      : seed_(seed), sdb_(BuildRs()), catalogue_(RsCatalogue()) {
    cdb::core::EngineOptions eopts;
    eopts.num_threads = 1;
    eopts.share_consent_ledger = false;
    engine_ = std::make_unique<SessionEngine>(*sdb_, eopts);
    WireOracle(&peer_, tracer);
    WarmCaches(*engine_, *sdb_, catalogue_, seed_);
  }
  ~WarmInstance() override { engine_.reset(); }

  void Prepare(size_t i) override {
    query_ = SessionQuery(seed_, i, catalogue_.size());
    SessionAnswers(sdb_->pool(), seed_, i, &answers_);
    peer_.BeginSession(&answers_, &gaps_us_);
  }

 protected:
  const SharedDatabase& db() const override { return *sdb_; }
  const std::string& sql() const override { return catalogue_[query_]; }
  const std::vector<uint8_t>& answers() const override { return answers_; }

 private:
  uint64_t seed_;
  std::unique_ptr<SharedDatabase> sdb_;
  std::vector<std::string> catalogue_;
  size_t query_ = 0;
  std::vector<uint8_t> answers_;
};

// cold_join_writes: a write before every session (so both caches miss), a
// shared ledger journaled to a WAL with an fsync per answer, and faulty
// peers behind a RetryPolicy on a virtual clock.
class ColdInstance : public EngineInstance {
 public:
  ColdInstance(uint64_t seed, std::string wal_path, Tracer* tracer)
      : seed_(seed), sql_(RecruitmentQuery()), wal_path_(std::move(wal_path)),
        tracer_(tracer) {
    if (tracer_ != nullptr) {
      env_ = std::make_unique<TimedEnv>(cdb::Env::Default(), tracer_);
    }
    StartRound();
  }

  ~ColdInstance() override { EndRound(); }

  void Prepare(size_t i) override {
    if (i > 0 && i % kColdRoundSessions == 0) {
      EndRound();
      StartRound();
    }
    peer_.BeginSession(&db_->answers, &gaps_us_);
  }

  void Write(size_t i, std::vector<double>* insert_us) override {
    ApplyWrite(seed_, i, db_.get(), insert_us);
  }

 protected:
  const SharedDatabase& db() const override { return db_->sdb; }
  const std::string& sql() const override { return sql_; }
  const std::vector<uint8_t>& answers() const override {
    return db_->answers;
  }
  std::optional<FaultPlan> faults() const override {
    return ColdFaults(seed_);
  }

 private:
  // A round: a fresh base database, WAL, engine and peers, then the
  // warm-up session (the one distinct query, answered by the ledger).
  void StartRound() {
    db_ = BuildRecruitment(kColdRoundSessions);
    cdb::Env* env = env_ != nullptr ? env_.get() : cdb::Env::Default();
    if (env->FileExists(wal_path_)) {
      CONSENTDB_CHECK(env->RemoveFile(wal_path_).ok(), "stale WAL");
    }
    cdb::Result<std::unique_ptr<cdb::consent::WalWriter>> wal =
        cdb::consent::WalWriter::Open(env, wal_path_);
    CONSENTDB_CHECK(wal.ok(), wal.status().ToString());
    wal_ = std::move(*wal);
    clock_ = std::make_unique<cdb::VirtualClock>();

    cdb::core::EngineOptions eopts;
    eopts.num_threads = 1;
    eopts.wal = wal_.get();  // group-commit window 0: an fsync per answer
    eopts.session.retry = ColdRetryPolicy();
    eopts.session.clock = clock_.get();
    engine_ = std::make_unique<SessionEngine>(db_->sdb, eopts);
    // The ledger already holds every base tuple's consent (as recovered
    // from an earlier WAL); only the writes' companies are new questions.
    std::vector<std::pair<cdb::provenance::VarId, bool>> known;
    for (cdb::provenance::VarId x = 0; x < db_->base_vars; ++x) {
      known.emplace_back(x, db_->answers[x] != 0);
    }
    CONSENTDB_CHECK(engine_->RestoreLedger(known).ok(), "ledger restore");
    faulty_ = std::make_unique<cdb::consent::FaultyOracle>(
        peer_, db_->sdb.pool(), ColdFaults(seed_), clock_.get());
    WireOracle(faulty_.get(), tracer_);
    peer_.BeginSession(&db_->answers, nullptr);
    Run();
    CONSENTDB_CHECK(result_.ok(), result_.status().ToString());
    CONSENTDB_CHECK(peer_.session_vars().empty(), "warm-up reached a peer");
  }

  void EndRound() {
    engine_.reset();  // joins the worker while the WAL is still open
    CONSENTDB_CHECK(wal_->Close().ok(), "WAL close");
    wal_.reset();
    CONSENTDB_CHECK(cdb::Env::Default()->RemoveFile(wal_path_).ok(),
                    "WAL removal");
  }

  uint64_t seed_;
  std::string sql_;
  std::string wal_path_;
  Tracer* tracer_;
  std::unique_ptr<TimedEnv> env_;
  std::unique_ptr<Recruitment> db_;
  std::unique_ptr<cdb::consent::WalWriter> wal_;
  std::unique_ptr<cdb::VirtualClock> clock_;
  std::unique_ptr<cdb::consent::FaultyOracle> faulty_;
};

// served_tcp: warm_qvalue's script through ProbeServer::Start()'s reactor
// thread on localhost TCP, answered by one ProbeClient.
class ServedInstance : public Instance {
 public:
  ServedInstance(uint64_t seed, Tracer* tracer)
      : seed_(seed), sdb_(BuildRs()), catalogue_(RsCatalogue()),
        tracer_(tracer) {
    cdb::core::EngineOptions eopts;
    eopts.num_threads = 1;
    eopts.share_consent_ledger = false;
    engine_ = std::make_unique<SessionEngine>(*sdb_, eopts);
    WarmCaches(*engine_, *sdb_, catalogue_, seed_);

    cdb::Transport* server_transport = &posix_;
    cdb::Transport* client_transport = &posix_;
    cdb::Clock* server_clock = cdb::RealClock();
    cdb::Clock* client_clock = nullptr;
    cdb::consent::ProbeOracle* oracle = &peer_;
    if (tracer_ != nullptr) {
      server_transport_ =
          std::make_unique<CountingTransport>(posix_, tracer_, false);
      client_transport_ =
          std::make_unique<CountingTransport>(posix_, tracer_, true);
      server_transport = server_transport_.get();
      client_transport = client_transport_.get();
      server_clock_ =
          std::make_unique<TimedClock>(cdb::RealClock(), tracer_, false);
      client_clock_ =
          std::make_unique<TimedClock>(cdb::RealClock(), tracer_, true);
      server_clock = server_clock_.get();
      client_clock = client_clock_.get();
      traced_ = std::make_unique<TracedOracle>(peer_, tracer_);
      oracle = traced_.get();
    }
    cdb::net::ServerOptions sopts;
    sopts.clock = server_clock;
    server_ = std::make_unique<cdb::net::ProbeServer>(*engine_,
                                                       *server_transport, sopts);
    cdb::Status s = server_->Listen("127.0.0.1:0");
    CONSENTDB_CHECK(s.ok(), s.ToString());
    server_->Start();
    // Connect once so a dead listener fails set-up, not the first session.
    cdb::Result<std::unique_ptr<cdb::Connection>> conn =
        client_transport->Connect(server_->address());
    CONSENTDB_CHECK(conn.ok(), conn.status().ToString());
    (*conn)->Close();
    cdb::net::ProbeClientOptions copts;
    copts.client_id = 1;
    copts.clock = client_clock;
    client_ = std::make_unique<cdb::net::ProbeClient>(
        *client_transport, server_->address(), oracle, copts);
  }

  ~ServedInstance() override {
    client_.reset();
    server_->Shutdown(1'000'000'000);
    server_.reset();
    engine_.reset();
  }

  void Prepare(size_t i) override {
    query_ = SessionQuery(seed_, i, catalogue_.size());
    SessionAnswers(sdb_->pool(), seed_, i, &answers_);
    peer_.BeginSession(&answers_, &gaps_us_);
    if (tracer_ != nullptr) {
      std::lock_guard<std::mutex> lock(tracer_->samples_mu);
      tracer_->frames_seen.clear();
    }
  }

  void Run() override { result_ = client_->Decide(catalogue_[query_]); }

  Outcome Collect(bool keep_json) override {
    Outcome out;
    if (!result_.ok()) {
      out.error = result_.status().ToString();
      return out;
    }
    out.ok = true;
    out.digest = Digest(*result_);
    out.qvalue = ReportUsedQValue(*result_);
    out.num_probes = JsonProbes(*result_);
    if (keep_json) out.json = *result_;
    return out;
  }

  ReplayTimes Replay(size_t i, const Outcome& outcome, bool plan_miss,
                     bool prov_miss, Layers* layers,
                     double* direct_us) override {
    *direct_us = 0;
    cdb::core::SessionRequest req;
    req.sql = catalogue_[query_];
    cdb::Result<std::shared_ptr<const PreparedSession>> cached =
        engine_->PrepareForServe(req);
    CONSENTDB_CHECK(cached.ok(), cached.status().ToString());
    const std::vector<cdb::provenance::VarId> peer_vars = peer_.session_vars();
    ReplayInput in;
    in.sdb = sdb_.get();
    in.sql = &catalogue_[query_];
    in.reparsed = plan_miss;
    in.reevaluated = prov_miss;
    in.cached = cached->get();
    in.answers = &answers_;
    in.peer_vars = &peer_vars;
    in.options = &engine_->base_session_options();
    in.expected_json = &outcome.json;
    in.session = i + 1;
    SpanLog* log = tracer_ != nullptr ? &tracer_->spans() : nullptr;
    ReplayTimes times = ReplaySession(in, log, layers);
    // Frame codec: decode and re-encode every frame the session sent or
    // received; the re-encoding must reproduce the wire bytes.
    std::vector<WireFrame> frames;
    if (tracer_ != nullptr) {
      std::lock_guard<std::mutex> lock(tracer_->samples_mu);
      frames = tracer_->frames_seen;
    }
    for (const WireFrame& f : frames) {
      Span span(log, "net.codec", i + 1, 0);
      cdb::Result<cdb::net::Message> msg =
          cdb::net::DecodeMessage(f.type, f.body);
      CONSENTDB_CHECK(msg.ok(), msg.status().ToString());
      const std::string wire = cdb::net::EncodeMessage(*msg);
      layers->Call("net.codec_us_per_frame", Us(span.End()));
      if (wire != cdb::net::EncodeFrame(f.type, f.body)) {
        times.match = false;
        times.error = "frame codec round trip changed the bytes";
      }
    }
    return times;
  }

  SessionEngine& engine() override { return *engine_; }

 private:
  uint64_t seed_;
  std::unique_ptr<SharedDatabase> sdb_;
  std::vector<std::string> catalogue_;
  Tracer* tracer_;
  std::unique_ptr<SessionEngine> engine_;
  cdb::net::PosixTransport posix_;
  std::unique_ptr<CountingTransport> server_transport_;
  std::unique_ptr<CountingTransport> client_transport_;
  std::unique_ptr<TimedClock> server_clock_;
  std::unique_ptr<TimedClock> client_clock_;
  std::unique_ptr<TracedOracle> traced_;
  std::unique_ptr<cdb::net::ProbeServer> server_;
  std::unique_ptr<cdb::net::ProbeClient> client_;
  size_t query_ = 0;
  std::vector<uint8_t> answers_;
  cdb::Result<std::string> result_ = cdb::Status::Internal("not run");
};

std::unique_ptr<Instance> MakeInstance(const Spec& spec, const Options& opt,
                                       Tracer* tracer) {
  switch (spec.kind) {
    case Kind::kWarm:
      return std::make_unique<WarmInstance>(opt.seed, tracer);
    case Kind::kCold:
      return std::make_unique<ColdInstance>(
          opt.seed, opt.out_dir + "/ledger-" + std::to_string(getpid()) + ".wal",
          tracer);
    case Kind::kServed:
      return std::make_unique<ServedInstance>(opt.seed, tracer);
  }
  return nullptr;
}

// --- Reference ----------------------------------------------------------------

// Digests of sessions [0, count) of the script, from an in-process
// ConsentManager over a database rebuilt from scratch: same query, same
// database state (the same writes replayed in order), same valuation.
std::vector<uint64_t> ReferenceDigests(const Spec& spec, uint64_t seed,
                                       size_t count) {
  std::vector<uint64_t> digests;
  digests.reserve(count);
  if (spec.kind == Kind::kCold) {
    std::unique_ptr<Recruitment> db;
    std::unique_ptr<cdb::consent::ConsentLedger> ledger;
    std::unique_ptr<cdb::VirtualClock> clock;
    std::unique_ptr<AnswerOracle> peers;
    std::unique_ptr<cdb::consent::FaultyOracle> faulty;
    for (size_t i = 0; i < count; ++i) {
      if (i % kColdRoundSessions == 0) {
        faulty.reset();
        db = BuildRecruitment(kColdRoundSessions);
        ledger = std::make_unique<cdb::consent::ConsentLedger>();
        for (cdb::provenance::VarId x = 0; x < db->base_vars; ++x) {
          CONSENTDB_CHECK(ledger->RestoreAnswer(x, db->answers[x] != 0).ok(),
                          "ledger restore");
        }
        clock = std::make_unique<cdb::VirtualClock>();
        peers = std::make_unique<AnswerOracle>(&db->answers);
        faulty = std::make_unique<cdb::consent::FaultyOracle>(
            *peers, db->sdb.pool(), ColdFaults(seed), clock.get());
      }
      ApplyWrite(seed, i, db.get(), nullptr);
      SessionOptions options;
      options.retry = ColdRetryPolicy();
      options.clock = clock.get();
      options.ledger = ledger.get();
      cdb::core::ConsentManager manager(db->sdb);
      cdb::Result<SessionReport> r =
          manager.DecideAll(RecruitmentQuery(), *faulty, options);
      digests.push_back(r.ok() ? Digest(r->ToJson()) : 0);
    }
    return digests;
  }
  std::unique_ptr<SharedDatabase> sdb = BuildRs();
  const std::vector<std::string> catalogue = RsCatalogue();
  cdb::core::ConsentManager manager(*sdb);
  std::vector<std::optional<PreparedSession>> prepared(catalogue.size());
  std::vector<uint8_t> answers;
  for (size_t i = 0; i < count; ++i) {
    const size_t q = SessionQuery(seed, i, catalogue.size());
    if (!prepared[q].has_value()) {
      cdb::Result<cdb::query::PlanPtr> plan =
          cdb::query::ParseQuery(catalogue[q]);
      CONSENTDB_CHECK(plan.ok(), plan.status().ToString());
      cdb::Result<PreparedSession> p = manager.Prepare(*plan, std::nullopt);
      CONSENTDB_CHECK(p.ok(), p.status().ToString());
      prepared[q] = std::move(*p);
    }
    SessionAnswers(sdb->pool(), seed, i, &answers);
    AnswerOracle oracle(&answers);
    cdb::Result<SessionReport> r = manager.RunPrepared(*prepared[q], oracle);
    digests.push_back(r.ok() ? Digest(r->ToJson()) : 0);
  }
  return digests;
}

// --- The closed loop ----------------------------------------------------------

// What one session of a pass cost.
struct SessionTimes {
  double latency_ms = 0;      // submit -> report
  double first_probe_ms = -1; // submit -> first peer question; -1 = none
  double busy_ms = 0;         // the write before it + the session
  double cpu_ms = 0;          // process CPU over the same intervals
  size_t gaps_end = 0;        // its next-probe gaps end here in gaps_us()
};

// Per-session figures of one pass over the script.
struct Pass {
  std::vector<SessionTimes> times;
  std::vector<Outcome> outcomes;
  size_t peer_probes = 0;
  uint64_t prov_hits = 0;
  uint64_t prov_misses = 0;

  // Latencies of the completed sessions in [first, last).
  std::vector<double> Latencies(size_t first, size_t last) const {
    std::vector<double> out;
    for (size_t i = first; i < last; ++i) {
      if (outcomes[i].ok) out.push_back(times[i].latency_ms);
    }
    return out;
  }
};

// Called after each traced session with its index, outcome, whether the
// engine's plan / provenance caches missed, and its traced duration.
using AfterSession = std::function<void(size_t, const Outcome&, bool, bool,
                                        double)>;

Pass RunScript(Instance& inst, size_t count, Tracer* tracer,
               std::vector<double>* insert_us, const AfterSession& after) {
  Pass pass;
  pass.outcomes.reserve(count);
  pass.times.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    inst.Prepare(i);
    const int64_t w0 = NowNanos();
    const int64_t wc0 = ProcessCpuNanos();
    inst.Write(i, insert_us);
    const int64_t wc1 = ProcessCpuNanos();
    const int64_t w1 = NowNanos();
    const SessionEngine::CacheStats before = inst.engine().cache_stats();
    if (tracer != nullptr) tracer->Begin(i);
    const int64_t c0 = ProcessCpuNanos();
    const int64_t t0 = NowNanos();
    inst.Run();
    const int64_t t1 = NowNanos();
    const int64_t c1 = ProcessCpuNanos();
    const int64_t traced_ns = tracer != nullptr ? tracer->End() : 0;
    const SessionEngine::CacheStats after_stats = inst.engine().cache_stats();
    SessionTimes st;
    st.latency_ms = static_cast<double>(t1 - t0) / 1e6;
    st.busy_ms = static_cast<double>((w1 - w0) + (t1 - t0)) / 1e6;
    st.cpu_ms = static_cast<double>((wc1 - wc0) + (c1 - c0)) / 1e6;
    st.gaps_end = inst.gaps_us().size();
    const bool plan_miss = after_stats.plan_misses > before.plan_misses;
    const bool prov_miss =
        after_stats.provenance_misses > before.provenance_misses;
    pass.prov_hits += after_stats.provenance_hits - before.provenance_hits;
    pass.prov_misses += after_stats.provenance_misses - before.provenance_misses;

    Outcome out = inst.Collect(/*keep_json=*/static_cast<bool>(after));
    const int64_t first = inst.peer().first_probe_ns();
    if (first != 0) st.first_probe_ms = static_cast<double>(first - t0) / 1e6;
    pass.times.push_back(st);
    pass.peer_probes += inst.peer().session_vars().size();
    if (after) after(i, out, plan_miss, prov_miss, Us(traced_ns));
    out.json.clear();
    pass.outcomes.push_back(std::move(out));
  }
  return pass;
}

// Compares a pass against the reference; returns the mismatching sessions.
size_t CheckAgainstReference(const Spec& spec, const Options& opt,
                             const Pass& pass, RunResult* result) {
  std::vector<uint64_t> ref =
      ReferenceDigests(spec, opt.seed, pass.outcomes.size());
  if (opt.corrupt_reference && !ref.empty()) ref[0] ^= 1;
  size_t mismatches = 0;
  for (size_t i = 0; i < pass.outcomes.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    if (o.ok && o.digest != ref[i]) ++mismatches;
  }
  if (mismatches > 0) {
    result->correct = false;
    result->notes.push_back("correctness gate: " + std::to_string(mismatches) +
                            " session report(s) differ from the reference");
  } else {
    result->notes.push_back("correctness gate: all " +
                            std::to_string(pass.outcomes.size()) +
                            " reports match the in-process reference");
  }
  return mismatches;
}

// Errors count as failed; a session whose report differs from the reference
// counts as failed too (and makes the run incorrect).
void CountOutcomes(const Spec& spec, const Options& opt, const Pass& pass,
                   size_t mismatches, RunResult* result) {
  result->attempted = pass.outcomes.size();
  size_t errors = 0;
  size_t not_qvalue = 0;
  for (const Outcome& o : pass.outcomes) {
    if (!o.ok) {
      ++errors;
      if (result->notes.size() < 20) {
        result->notes.push_back("session error: " + o.error);
      }
    } else if (!o.qvalue) {
      ++not_qvalue;
    }
  }
  result->failed = errors + mismatches;
  if (spec.kind != Kind::kCold) {
    result->notes.push_back("algorithm: " +
                            std::to_string(pass.outcomes.size() - errors -
                                           not_qvalue) +
                            " of " + std::to_string(pass.outcomes.size()) +
                            " sessions used Q-value");
    if (opt.require_qvalue && not_qvalue > 0) {
      result->correct = false;
      result->notes.push_back("smoke: a session did not use Q-value");
    }
  }
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// The timing metrics of an untraced run, over every completed session.
struct Timings {
  double sessions_per_s = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double first_probe_p50_ms = 0;
  double next_probe_p50_us = 0;
  double cpu_ms_per_session = 0;
};

Timings SummarizeTimings(const Pass& pass, const std::vector<double>& gaps,
                         RunResult* result) {
  std::vector<double> first_probe;
  double busy_ms = 0;
  double cpu_ms = 0;
  for (size_t i = 0; i < pass.times.size(); ++i) {
    busy_ms += pass.times[i].busy_ms;
    cpu_ms += pass.times[i].cpu_ms;
    if (pass.outcomes[i].ok && pass.times[i].first_probe_ms >= 0) {
      first_probe.push_back(pass.times[i].first_probe_ms);
    }
  }
  const std::vector<double> latency = pass.Latencies(0, pass.times.size());
  Timings t;
  t.sessions_per_s =
      busy_ms > 0 ? static_cast<double>(latency.size()) / (busy_ms / 1e3) : 0;
  t.p50_ms = Percentile(latency, 50);
  t.p90_ms = Percentile(latency, 90);
  t.first_probe_p50_ms = Median(first_probe);
  t.next_probe_p50_us = Median(gaps);
  t.cpu_ms_per_session =
      cpu_ms / static_cast<double>(std::max<size_t>(1, pass.times.size()));
  result->notes.push_back(
      "samples: session p50 over " + std::to_string(latency.size()) +
      " sessions, p90 with " + std::to_string(latency.size() / 10) +
      " beyond; first probe p50 over " + std::to_string(first_probe.size()) +
      ", next probe p50 over " + std::to_string(gaps.size()) + " gaps");
  return t;
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

RunResult RunSessions(const Options& opt) {
  const Spec& spec = *FindSpec(opt.workload);
  const size_t n = ScriptLength(spec, opt.seconds);
  RunResult result;

  std::vector<double> setups;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < kSetups; ++k) {
    inst.reset();
    const int64_t t0 = NowNanos();
    inst = MakeInstance(spec, opt, nullptr);
    setups.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  inst->gaps_us().reserve(n * 64);
  Pass pass = RunScript(*inst, n, nullptr, nullptr, nullptr);
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> gaps = std::move(inst->gaps_us());
  inst.reset();

  const size_t mismatches = CheckAgainstReference(spec, opt, pass, &result);
  CountOutcomes(spec, opt, pass, mismatches, &result);

  const double attempted = static_cast<double>(pass.outcomes.size());
  double probes = 0;
  double completed = 0;
  for (const Outcome& o : pass.outcomes) {
    probes += o.ok ? o.num_probes : 0;
    completed += o.ok ? 1 : 0;
  }
  const Timings t = SummarizeTimings(pass, gaps, &result);
  result.metrics = {
      {"sessions_per_s", t.sessions_per_s, "1/s"},
      {"session_p50_ms", t.p50_ms, "ms"},
      {"session_p90_ms", t.p90_ms, "ms"},
      {"first_probe_p50_ms", t.first_probe_p50_ms, "ms"},
      {"next_probe_p50_us", t.next_probe_p50_us, "us"},
      {"probes_per_session", completed > 0 ? probes / completed : 0, "probes"},
      {"peer_probes_per_session",
       static_cast<double>(pass.peer_probes) / attempted, "probes"},
      {"cpu_ms_per_session", t.cpu_ms_per_session, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setups), "s"},
      {"completed_share",
       (attempted - static_cast<double>(result.failed)) / attempted, "share"},
  };
  const size_t half = pass.times.size() / 2;
  result.notes.push_back(
      "drift: second-half / first-half session p50 = " +
      Fixed(Median(pass.Latencies(half, pass.times.size())) /
                std::max(Median(pass.Latencies(0, half)), 1e-12),
            3));
  std::string s = "set-ups (s):";
  for (double v : setups) s += " " + Fixed(v, 4);
  result.notes.push_back(s);
  return result;
}

RunResult RunTraced(const Options& opt) {
  const Spec& spec = *FindSpec(opt.workload);
  const size_t n = ScriptLength(spec, opt.seconds);
  const size_t m = std::min(n, spec.traced_sessions);
  const bool in_process = spec.kind != Kind::kServed;
  // The ledger tallies below are read from one engine: the traced cold
  // sessions must stay within its first round.
  CONSENTDB_CHECK(spec.kind != Kind::kCold || m <= kColdRoundSessions,
                  "traced cold sessions span more than one round");
  RunResult result;

  // Pass A, untraced: the baseline for the tracing overhead.
  double p50_untraced = 0;
  {
    std::unique_ptr<Instance> inst = MakeInstance(spec, opt, nullptr);
    Pass a = RunScript(*inst, m, nullptr, nullptr, nullptr);
    p50_untraced = Percentile(a.Latencies(0, a.times.size()), 50);
  }

  // Pass B, traced: decorated seams, spans, and replays.
  Tracer tracer;
  tracer.capture_frames = spec.kind == Kind::kServed;
  std::unique_ptr<Instance> inst = MakeInstance(spec, opt, &tracer);
  const cdb::consent::ConsentLedger& ledger = inst->engine().ledger();
  const uint64_t hits0 = ledger.hits();
  const uint64_t oracle0 = ledger.oracle_probes();
  Layers layers;
  std::vector<double> insert_us;
  std::vector<double> overhead_us;
  double traced_total_us = 0;
  double attributed_total_us = 0;  // without the engine overhead
  double obs_total_us = 0;  // the decorators' own bookkeeping
  size_t replayed = 0;
  size_t replay_failures = 0;
  // Seam time per session, from counter deltas around each session.
  struct SeamTimes {
    uint64_t peer = 0, wal = 0, obs = 0, client_sleep = 0;
  };
  auto read_seams = [&tracer] {
    return SeamTimes{tracer.peer_ns.load(), tracer.wal_ns.load(),
                     tracer.obs_ns.load(), tracer.client_sleep_ns.load()};
  };
  SeamTimes before = read_seams();
  auto after = [&](size_t i, const Outcome& out, bool plan_miss,
                   bool prov_miss, double traced_us) {
    const SeamTimes now = read_seams();
    const double peer_us = Us(static_cast<int64_t>(now.peer - before.peer));
    const double wal_us = Us(static_cast<int64_t>(now.wal - before.wal));
    const double obs_us = Us(static_cast<int64_t>(now.obs - before.obs));
    const double sleep_us =
        Us(static_cast<int64_t>(now.client_sleep - before.client_sleep));
    if (out.ok && i % spec.replay_every == 0) {
      double direct_us = 0;
      ReplayTimes t =
          inst->Replay(i, out, plan_miss, prov_miss, &layers, &direct_us);
      ++replayed;
      if (!t.match) {
        ++replay_failures;
        if (result.notes.size() < 20) result.notes.push_back(t.error);
      }
      if (in_process) {
        overhead_us.push_back(traced_us - t.prep_us - direct_us - wal_us);
      }
      traced_total_us += traced_us;
      attributed_total_us += t.prep_us + t.strategy_us + t.report_us +
                             peer_us + wal_us + obs_us + sleep_us;
      obs_total_us += obs_us;
    }
    before = read_seams();
  };
  Pass b = RunScript(*inst, m, &tracer, &insert_us, after);
  const uint64_t ledger_hits = ledger.hits() - hits0;
  const uint64_t ledger_oracle = ledger.oracle_probes() - oracle0;
  inst.reset();

  const size_t mismatches = CheckAgainstReference(spec, opt, b, &result);
  CountOutcomes(spec, opt, b, mismatches, &result);
  if (replay_failures > 0) result.correct = false;
  result.notes.push_back("replay: " + std::to_string(replayed - replay_failures) +
                         " of " + std::to_string(replayed) +
                         " replayed reports equal the engine's");

  const double sessions = static_cast<double>(m);
  const double per_replay = std::max<double>(1, static_cast<double>(replayed));
  const double overhead = in_process ? Median(overhead_us) : 0.0;
  const double attributed =
      attributed_total_us + overhead * static_cast<double>(replayed);
  const double unattributed =
      traced_total_us > 0 ? 1.0 - attributed / traced_total_us : 0.0;
  result.notes.push_back(
      "obs self time (decorator bookkeeping): " +
      Fixed(traced_total_us > 0 ? 100 * obs_total_us / traced_total_us : 0, 1) +
      "% of traced session time");
  if (in_process) {
    const bool pass_check = std::fabs(unattributed) <= kUnattributedTolerance;
    result.notes.push_back(
        std::string("self-time check: layers + engine overhead account for ") +
        Fixed(100 * (1 - unattributed), 1) + "% of traced session time (" +
        (pass_check ? "pass" : "FAIL") + ", tolerance +-" +
        Fixed(100 * kUnattributedTolerance, 0) + "%)");
    if (!pass_check) result.correct = false;
  }
  const double p50_traced = Percentile(b.Latencies(0, b.times.size()), 50);
  double fsyncs = static_cast<double>(tracer.fsyncs.load());
  std::vector<double> fsync_us;
  std::vector<double> rtt_us;
  {
    std::lock_guard<std::mutex> lock(tracer.samples_mu);
    fsync_us = tracer.fsync_us;
    rtt_us = tracer.rtt_us;
  }
  double retries = 0;
  for (const Outcome& o : b.outcomes) retries += static_cast<double>(o.num_retries);
  const double reads = static_cast<double>(tracer.reads.load());
  const double prov_lookups = static_cast<double>(b.prov_hits + b.prov_misses);
  const double ledger_lookups = static_cast<double>(ledger_hits + ledger_oracle);

  result.metrics = {
      {"query.parse_us", layers.MedianOf("query.parse_us"), "us"},
      {"query.optimize_us", layers.MedianOf("query.optimize_us"), "us"},
      {"eval.annotate_ms", layers.MedianOf("eval.annotate_ms"), "ms"},
      {"eval.profile_ms", layers.MedianOf("eval.profile_ms"), "ms"},
      {"eval.output_tuples", layers.Total("eval.output_tuples") / per_replay,
       "tuples"},
      {"eval.dnf_terms", layers.Total("eval.dnf_terms") / per_replay, "terms"},
      {"strategy.state_build_us", layers.MedianOf("strategy.state_build_us"),
       "us"},
      {"strategy.cnf_attach_us", layers.MedianOf("strategy.cnf_attach_us"),
       "us"},
      {"strategy.choose_us", layers.MedianOf("strategy.choose_us"), "us"},
      {"strategy.assign_us", layers.MedianOf("strategy.assign_us"), "us"},
      {"strategy.cnf_clauses", layers.Total("strategy.cnf_clauses") / per_replay,
       "clauses"},
      {"core.engine_overhead_us", overhead, "us"},
      {"core.report_assemble_us", layers.MedianOf("core.report_assemble_us"),
       "us"},
      {"core.report_json_us", layers.MedianOf("core.report_json_us"), "us"},
      {"core.prov_cache_hit_rate",
       prov_lookups > 0 ? static_cast<double>(b.prov_hits) / prov_lookups : 0,
       "ratio"},
      {"consent.insert_us", Median(insert_us), "us"},
      {"consent.fsync_us", Median(fsync_us), "us"},
      {"consent.wal_appends_per_session",
       static_cast<double>(tracer.wal_appends.load()) / sessions, "appends"},
      {"consent.fsyncs_per_session", fsyncs / sessions, "fsyncs"},
      {"consent.retries_per_session", retries / sessions, "retries"},
      {"consent.ledger_hit_rate",
       ledger_lookups > 0 ? static_cast<double>(ledger_hits) / ledger_lookups
                          : 0,
       "ratio"},
      {"net.sleep_ms_per_session",
       static_cast<double>(tracer.client_sleep_ns.load()) / 1e6 / sessions,
       "ms"},
      {"net.sleeps_per_session",
       static_cast<double>(tracer.client_sleeps.load() +
                           tracer.server_sleeps.load()) /
           sessions,
       "sleeps"},
      {"net.probe_rtt_us", Median(rtt_us), "us"},
      {"net.empty_read_share",
       reads > 0 ? static_cast<double>(tracer.empty_reads.load()) / reads : 0,
       "share"},
      {"net.connects_per_session",
       static_cast<double>(tracer.connects.load()) / sessions, "connects"},
      {"net.codec_us_per_frame", layers.MedianOf("net.codec_us_per_frame"),
       "us"},
      {"net.frames_per_session",
       static_cast<double>(tracer.frames.load()) / sessions, "frames"},
      {"net.bytes_per_session",
       static_cast<double>(tracer.bytes.load()) / sessions, "bytes"},
      {"obs.trace_overhead_pct",
       p50_untraced > 0 ? 100.0 * (p50_traced - p50_untraced) / p50_untraced
                        : 0,
       "%"},
      {"obs.unattributed_share", unattributed, "share"},
  };

  const std::string path = opt.out_dir + "/" + spec.name + "-seed" +
                           std::to_string(opt.seed) + ".trace.json";
  if (tracer.spans().WriteChromeTrace(path)) {
    result.notes.push_back("span trace: " + path + " (" +
                           std::to_string(tracer.spans().size()) + " spans)");
  } else {
    result.correct = false;
    result.notes.push_back("could not write the span trace to " + path);
  }
  result.notes.push_back("traced sessions: " + std::to_string(m) +
                         ", replayed: " + std::to_string(replayed) +
                         ", session p50 untraced " + Fixed(p50_untraced, 4) +
                         " ms, traced " + Fixed(p50_traced, 4) + " ms");
  return result;
}

}  // namespace perfbench
