// Tests for the probe-session telemetry subsystem (obs/): counter, gauge and
// histogram semantics, ScopedTimer monotonicity, tracer event ordering, JSON
// export through json_writer, null-sink no-ops, and the end-to-end guarantee
// that instrumentation never changes which probes a session issues.

#include <gtest/gtest.h>

#include <thread>

#include "consentdb/core/consent_manager.h"
#include "consentdb/obs/metrics.h"
#include "consentdb/obs/tracer.h"
#include "consentdb/strategy/batch_runner.h"
#include "consentdb/strategy/bdd.h"
#include "consentdb/strategy/expected_cost.h"
#include "consentdb/strategy/runner.h"
#include "consentdb/util/json_writer.h"
#include "test_fixtures.h"

namespace consentdb {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::ProbeEvent;
using obs::ScopedTimer;
using obs::SessionTracer;
using provenance::Dnf;
using provenance::Truth;
using provenance::VarId;
using provenance::VarSet;

// Minimal structural validation: balanced braces/brackets outside strings.
// The writer itself CHECKs nesting, so this guards the export call sites.
bool JsonBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(MetricsTest, CounterAddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket i counts samples <= bounds[i]; the overflow bucket the rest.
  Histogram h({10, 100, 1000});
  h.Observe(0);
  h.Observe(10);    // on the boundary: bucket 0
  h.Observe(11);    // bucket 1
  h.Observe(100);   // bucket 1
  h.Observe(1000);  // bucket 2
  h.Observe(1001);  // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 1000 + 1001);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1001u);
}

TEST(MetricsTest, HistogramPercentileUpperBounds) {
  Histogram h({10, 100, 1000});
  for (int i = 0; i < 98; ++i) h.Observe(5);  // bucket 0
  h.Observe(50);                              // bucket 1
  h.Observe(5000);                            // overflow
  EXPECT_EQ(h.Percentile(0.5), 10u);    // median inside bucket 0 (le=10)
  EXPECT_EQ(h.Percentile(0.99), 100u);  // 99th sample sits in bucket 1
  EXPECT_EQ(h.Percentile(1.0), 5000u);  // overflow reports the true max
}

TEST(MetricsTest, HistogramMergeAndReset) {
  Histogram a({10, 100});
  Histogram b({10, 100});
  a.Observe(5);
  b.Observe(50);
  b.Observe(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 555u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(2), 1u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_EQ(a.bucket_count(2), 0u);
}

TEST(MetricsTest, MergeIntoEmptyKeepsMinMax) {
  Histogram a({10});
  Histogram b({10});
  b.Observe(7);
  a.Merge(b);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 7u);
  // Merging an empty histogram must not disturb min/max.
  Histogram empty({10});
  a.Merge(empty);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 7u);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("a.count");
  Counter* c2 = registry.GetCounter("a.count");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  EXPECT_EQ(registry.GetCounter("a.count")->value(), 3u);
  EXPECT_EQ(registry.num_metrics(), 1u);
  registry.GetGauge("a.gauge");
  registry.GetHistogram("a.hist");
  EXPECT_EQ(registry.num_metrics(), 3u);
  // Reset zeroes values but keeps registrations and pointers.
  registry.Reset();
  EXPECT_EQ(c1->value(), 0u);
  EXPECT_EQ(registry.num_metrics(), 3u);
  EXPECT_EQ(registry.GetCounter("a.count"), c1);
}

TEST(MetricsTest, ScopedTimerObservesMonotonicElapsed) {
  Histogram h({1, 1000000000});
  {
    ScopedTimer timer(&h);
    int64_t first = timer.ElapsedNanos();
    // The timer measures real monotonic time, so this test must genuinely
    // wait; everything else runs on the injected Clock.
    // lint:allow sleep-outside-clock
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int64_t second = timer.ElapsedNanos();
    EXPECT_GE(first, 0);
    EXPECT_GE(second, first);
  }
  EXPECT_EQ(h.count(), 1u);
  // At least the 1ms sleep must have been observed.
  EXPECT_GE(h.sum(), 1000000u);
}

TEST(MetricsTest, ScopedTimerNullSinkIsNoOp) {
  ScopedTimer timer(nullptr);
  EXPECT_EQ(timer.ElapsedNanos(), 0);
}

TEST(MetricsTest, NullSinkHelpersAreNoOps) {
  obs::Increment(nullptr, "x");
  obs::SetGauge(nullptr, "x", 1.0);
  obs::Observe(nullptr, "x", 1);
  EXPECT_EQ(obs::MaybeHistogram(nullptr, "x"), nullptr);
}

TEST(MetricsTest, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* c = registry.GetCounter("mt.count");
      Histogram* h = registry.GetHistogram("mt.hist", {100});
      for (int i = 0; i < kIters; ++i) {
        c->Add();
        h->Observe(static_cast<uint64_t>(i % 200));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("mt.count")->value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.GetHistogram("mt.hist")->count(),
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MetricsTest, ExportJsonThroughJsonWriter) {
  MetricsRegistry registry;
  registry.GetCounter("probe.count")->Add(7);
  registry.GetGauge("session.last_probes")->Set(7.0);
  Histogram* h = registry.GetHistogram("decision_ns", {10, 100});
  h->Observe(5);
  h->Observe(500);
  std::string json = registry.ExportJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"probe.count\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"session.last_probes\":7"), std::string::npos);
  EXPECT_NE(json.find("\"decision_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  // Sparse buckets: the empty (10,100] bucket is omitted, the overflow
  // bucket is exported with le == "inf".
  EXPECT_NE(json.find("{\"le\":10,\"count\":1}"), std::string::npos) << json;
  EXPECT_EQ(json.find("{\"le\":100,"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\":\"inf\",\"count\":1}"), std::string::npos);
  // The writer round-trips into a larger document too.
  JsonWriter w;
  w.BeginObject();
  w.Key("metrics");
  registry.WriteJson(w);
  w.EndObject();
  EXPECT_TRUE(JsonBalanced(w.TakeString()));
}

TEST(MetricsTest, ExportTextListsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Add(2);
  registry.GetGauge("a.gauge")->Set(1.5);
  registry.GetHistogram("c.hist")->Observe(3);
  std::string text = registry.ExportText();
  EXPECT_NE(text.find("b.count 2"), std::string::npos) << text;
  EXPECT_NE(text.find("a.gauge 1.5"), std::string::npos) << text;
  EXPECT_NE(text.find("c.hist count=1"), std::string::npos) << text;
}

TEST(TracerTest, EventsKeepArrivalOrder) {
  SessionTracer tracer;
  for (size_t i = 0; i < 5; ++i) {
    ProbeEvent ev;
    ev.probe_index = i;
    ev.variable = static_cast<VarId>(10 + i);
    ev.answer = i % 2 == 0;
    tracer.OnProbe(std::move(ev));
  }
  ASSERT_EQ(tracer.num_probes(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tracer.events()[i].probe_index, i);
    EXPECT_EQ(tracer.events()[i].variable, 10 + i);
  }
  tracer.Clear();
  EXPECT_EQ(tracer.num_probes(), 0u);
}

TEST(TracerTest, JsonExportCarriesEnrichment) {
  SessionTracer tracer;
  tracer.set_algorithm("RO");
  tracer.set_session_nanos(12345);
  ProbeEvent ev;
  ev.probe_index = 0;
  ev.variable = 3;
  ev.variable_name = "x3";
  ev.owner = "Alice \"A\"";  // exercises escaping
  ev.answer = true;
  ev.decision_nanos = 42;
  ev.formulas_decided = 1;
  ev.formulas_remaining = 2;
  ev.residual_terms = 4;
  tracer.OnProbe(std::move(ev));
  std::string json = tracer.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"algorithm\":\"RO\""), std::string::npos);
  EXPECT_NE(json.find("\"session_nanos\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"variable_name\":\"x3\""), std::string::npos);
  EXPECT_NE(json.find("\"owner\":\"Alice \\\"A\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"residual_terms\":4"), std::string::npos);
}

TEST(TracerTest, CombinedObservabilityExport) {
  MetricsRegistry registry;
  registry.GetCounter("probe.count")->Add(1);
  SessionTracer tracer;
  std::string both = obs::ExportObservabilityJson(&registry, &tracer);
  EXPECT_TRUE(JsonBalanced(both)) << both;
  EXPECT_NE(both.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(both.find("\"session\":{"), std::string::npos);
  std::string metrics_only = obs::ExportObservabilityJson(&registry, nullptr);
  EXPECT_NE(metrics_only.find("\"session\":null"), std::string::npos);
}

// --- Runner integration ------------------------------------------------------

std::vector<Dnf> TwoFormulaSystem() {
  // f0 = x0 x1 + x2, f1 = x1 x3 — not read-once overall (x1 repeats).
  return {Dnf({VarSet{0, 1}, VarSet{2}}), Dnf({VarSet{1, 3}})};
}

TEST(RunnerInstrumentationTest, TraceMatchesTracerAndNullSinkBehavior) {
  std::vector<double> pi(4, 0.5);
  provenance::PartialValuation hidden(4);
  hidden.Set(0, true);
  hidden.Set(1, false);
  hidden.Set(2, true);
  hidden.Set(3, true);

  strategy::ProbeRun plain;
  {
    strategy::EvaluationState state(TwoFormulaSystem(), pi);
    strategy::GeneralStrategy strat;
    plain = strategy::RunToCompletion(state, strat, hidden);
  }
  MetricsRegistry registry;
  SessionTracer tracer;
  strategy::ProbeRun instrumented;
  {
    strategy::EvaluationState state(TwoFormulaSystem(), pi);
    strategy::GeneralStrategy strat;
    strategy::RunInstrumentation instr;
    instr.metrics = &registry;
    instr.tracer = &tracer;
    instrumented = strategy::RunToCompletion(state, strat, hidden, instr);
  }
  // The null sink must not change the probe sequence.
  EXPECT_EQ(plain.num_probes, instrumented.num_probes);
  EXPECT_EQ(plain.trace, instrumented.trace);
  EXPECT_EQ(plain.outcomes, instrumented.outcomes);
  // One tracer event per probe, mirroring ProbeRun::trace exactly.
  ASSERT_EQ(tracer.num_probes(), instrumented.num_probes);
  for (size_t i = 0; i < tracer.num_probes(); ++i) {
    EXPECT_EQ(tracer.events()[i].probe_index, i);
    EXPECT_EQ(tracer.events()[i].variable, instrumented.trace[i].first);
    EXPECT_EQ(tracer.events()[i].answer, instrumented.trace[i].second);
    EXPECT_GE(tracer.events()[i].decision_nanos, 0);
  }
  // The last event sees a fully decided system.
  EXPECT_EQ(tracer.events().back().formulas_remaining, 0u);
  EXPECT_EQ(tracer.events().back().formulas_decided, 2u);
  EXPECT_EQ(tracer.events().back().residual_terms, 0u);
  // Metrics agree with the run.
  EXPECT_EQ(registry.GetCounter("probe.count")->value(),
            instrumented.num_probes);
  EXPECT_EQ(registry.GetHistogram("strategy.decision_ns")->count(),
            instrumented.num_probes);
  EXPECT_EQ(registry.GetCounter("probe.answer_true")->value() +
                registry.GetCounter("probe.answer_false")->value(),
            instrumented.num_probes);
}

TEST(RunnerInstrumentationTest, BudgetAndBatchRunnersRecord) {
  std::vector<double> pi(4, 0.5);
  provenance::PartialValuation hidden(4);
  for (VarId x = 0; x < 4; ++x) hidden.Set(x, true);
  auto probe = [&hidden](VarId x) { return hidden.Get(x) == Truth::kTrue; };

  MetricsRegistry registry;
  SessionTracer tracer;
  strategy::RunInstrumentation instr;
  instr.metrics = &registry;
  instr.tracer = &tracer;
  {
    strategy::EvaluationState state(TwoFormulaSystem(), pi);
    strategy::FreqStrategy strat;
    strategy::BudgetedProbeRun run =
        strategy::RunWithBudget(state, strat, probe, 2, instr);
    EXPECT_EQ(run.num_probes, 2u);
    EXPECT_EQ(registry.GetCounter("probe.count")->value(), 2u);
    // The budgeted loop records exactly what the unbudgeted one does.
    EXPECT_EQ(registry.GetCounter("probe.answer_true")->value() +
                  registry.GetCounter("probe.answer_false")->value(),
              registry.GetCounter("probe.count")->value());
    EXPECT_EQ(tracer.num_probes(), 2u);
  }
  tracer.Clear();
  {
    strategy::EvaluationState state(TwoFormulaSystem(), pi);
    strategy::BatchProbeRun run = strategy::RunToCompletionBatched(
        state, strategy::MakeFreqFactory(), probe, 2, instr);
    EXPECT_EQ(registry.GetCounter("batch.probes")->value(), run.num_probes);
    EXPECT_EQ(registry.GetCounter("batch.rounds")->value(), run.num_rounds);
    EXPECT_EQ(registry.GetHistogram("batch.plan_ns")->count(),
              run.num_rounds);
    EXPECT_EQ(tracer.num_probes(), run.num_probes);
  }
}

TEST(RunnerInstrumentationTest, EstimateExpectedCostThreadsMetrics) {
  std::vector<double> pi(4, 0.5);
  MetricsRegistry registry;
  strategy::EstimateOptions options;
  options.reps = 8;
  options.seed = 11;
  options.metrics = &registry;
  strategy::CostEstimate est = strategy::EstimateExpectedCost(
      TwoFormulaSystem(), pi, strategy::MakeFreqFactory(), options);
  EXPECT_GT(est.mean, 0.0);
  // Total probes across repetitions = mean * reps.
  EXPECT_EQ(registry.GetCounter("probe.count")->value(),
            static_cast<uint64_t>(est.mean * 8 + 0.5));
}

TEST(BddInstrumentationTest, InternAndBuildMetrics) {
  MetricsRegistry registry;
  std::vector<Dnf> dnfs = {Dnf({VarSet{0}, VarSet{1}})};
  std::vector<double> pi(2, 0.5);
  strategy::Bdd bdd = strategy::Bdd::Materialize(
      dnfs, pi, strategy::MakeRoFactory(), /*attach_cnfs=*/false,
      /*max_vars=*/20, &registry);
  EXPECT_EQ(registry.GetCounter("bdd.intern_miss")->value(), bdd.num_nodes());
  EXPECT_GT(registry.GetCounter("bdd.replays")->value(), 0u);
  EXPECT_EQ(registry.GetGauge("bdd.nodes")->value(),
            static_cast<double>(bdd.num_nodes()));
  EXPECT_EQ(registry.GetGauge("bdd.max_depth")->value(),
            static_cast<double>(bdd.MaxDepth()));
  EXPECT_EQ(registry.GetHistogram("bdd.build_ns")->count(), 1u);
}

// --- End-to-end: ConsentManager session telemetry ----------------------------

TEST(SessionTelemetryTest, EndToEndReportAndNullSinkEquivalence) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase(0.5);
  core::ConsentManager manager(sdb);
  const std::string sql =
      "SELECT DISTINCT c.name FROM Companies c, Vacancies v "
      "WHERE c.cid = v.cid";

  Rng rng(77);
  provenance::PartialValuation hidden = sdb.pool().SampleValuation(rng);

  MetricsRegistry registry;
  SessionTracer tracer;
  core::SessionOptions instrumented_options;
  instrumented_options.metrics = &registry;
  instrumented_options.tracer = &tracer;
  consent::ValuationOracle oracle1(hidden);
  Result<core::SessionReport> instrumented =
      manager.DecideAll(sql, oracle1, instrumented_options);
  ASSERT_TRUE(instrumented.ok()) << instrumented.status().ToString();

  // Null sink: same hidden valuation, default options.
  consent::ValuationOracle oracle2(hidden);
  Result<core::SessionReport> plain = manager.DecideAll(sql, oracle2);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  // Identical observable behavior.
  EXPECT_EQ(plain->num_probes, instrumented->num_probes);
  EXPECT_EQ(plain->algorithm_used, instrumented->algorithm_used);
  ASSERT_EQ(plain->trace.size(), instrumented->trace.size());
  for (size_t i = 0; i < plain->trace.size(); ++i) {
    EXPECT_EQ(plain->trace[i].variable, instrumented->trace[i].variable);
    EXPECT_EQ(plain->trace[i].answer, instrumented->trace[i].answer);
  }
  for (size_t i = 0; i < plain->tuples.size(); ++i) {
    EXPECT_EQ(plain->tuples[i].shareable, instrumented->tuples[i].shareable);
  }

  // One tracer event per probe, enriched with names/owners.
  ASSERT_EQ(tracer.num_probes(), instrumented->num_probes);
  EXPECT_GT(tracer.num_probes(), 0u);
  for (size_t i = 0; i < tracer.num_probes(); ++i) {
    const ProbeEvent& ev = tracer.events()[i];
    EXPECT_EQ(ev.variable, instrumented->trace[i].variable);
    EXPECT_EQ(ev.variable_name, instrumented->trace[i].variable_name);
    EXPECT_EQ(ev.owner, instrumented->trace[i].owner);
  }
  EXPECT_EQ(tracer.algorithm(), instrumented->algorithm_used);
  EXPECT_GT(tracer.session_nanos(), 0);

  // The metrics JSON report carries at least 6 distinct metric names and
  // the probe counter agrees with the session.
  EXPECT_GE(registry.num_metrics(), 6u);
  EXPECT_EQ(registry.GetCounter("probe.count")->value(),
            instrumented->num_probes);
  EXPECT_EQ(registry.GetCounter("session.count")->value(), 1u);
  EXPECT_EQ(registry.GetHistogram("session.total_ns")->count(), 1u);
  std::string json = obs::ExportObservabilityJson(&registry, &tracer);
  EXPECT_TRUE(JsonBalanced(json)) << json;
  for (const char* name :
       {"probe.count", "session.total_ns", "strategy.decision_ns",
        "eval.annotate_ns", "eval.profile_ns", "query.classify_ns",
        "session.probes"}) {
    EXPECT_NE(json.find("\"" + std::string(name) + "\""), std::string::npos)
        << "missing metric " << name << " in " << json;
  }
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
}

TEST(SessionTelemetryTest, SessionProbeBucketLadderHasNoSkippedRungs) {
  // The shared ladder is a complete power-of-two ramp; the inline copy it
  // replaced skipped 512 and 2048, folding those probe counts into the
  // next-larger bucket.
  const std::vector<uint64_t>& buckets = obs::SessionProbeBuckets();
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_EQ(buckets.front(), 1u);
  EXPECT_EQ(buckets.back(), 4096u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i], buckets[i - 1] * 2) << "rung " << i;
  }

  // A session registers session.probes with exactly this ladder.
  consent::SharedDatabase sdb = testing::RecruitmentDatabase(0.5);
  core::ConsentManager manager(sdb);
  MetricsRegistry registry;
  core::SessionOptions options;
  options.metrics = &registry;
  provenance::PartialValuation hidden(sdb.pool().size());
  for (VarId x = 0; x < sdb.pool().size(); ++x) hidden.Set(x, true);
  consent::ValuationOracle oracle(hidden);
  ASSERT_TRUE(
      manager.DecideAll(testing::RecruitmentQuerySql(), oracle, options).ok());
  EXPECT_EQ(registry.GetHistogram("session.probes")->bounds(), buckets);
}

TEST(SessionTelemetryTest, TracerClearedBetweenSessions) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase(0.5);
  core::ConsentManager manager(sdb);
  const std::string sql = "SELECT name FROM JobSeekers";
  SessionTracer tracer;
  core::SessionOptions options;
  options.tracer = &tracer;
  Rng rng(5);
  provenance::PartialValuation hidden = sdb.pool().SampleValuation(rng);
  consent::ValuationOracle oracle1(hidden);
  Result<core::SessionReport> first = manager.DecideAll(sql, oracle1, options);
  ASSERT_TRUE(first.ok());
  size_t first_probes = tracer.num_probes();
  EXPECT_EQ(first_probes, first->num_probes);
  consent::ValuationOracle oracle2(hidden);
  Result<core::SessionReport> second =
      manager.DecideAll(sql, oracle2, options);
  ASSERT_TRUE(second.ok());
  // The tracer holds only the latest session, not an accumulation.
  EXPECT_EQ(tracer.num_probes(), second->num_probes);
}

TEST(SessionTelemetryTest, AnalyzeRecordsQueryAndEvalMetrics) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase(0.5);
  core::ConsentManager manager(sdb);
  MetricsRegistry registry;
  core::SessionOptions options;
  options.metrics = &registry;
  Result<query::PlanPtr> plan =
      query::ParseQuery("SELECT DISTINCT name FROM JobSeekers");
  ASSERT_TRUE(plan.ok());
  Result<core::QueryAnalysis> analysis = manager.Analyze(*plan, options);
  ASSERT_TRUE(analysis.ok());
  // The query-class family predates the naming rule; its suffix is the
  // uppercase class mnemonic (SP/SPJ/...).
  // lint:allow obs-name-literal
  EXPECT_EQ(registry.GetCounter("query.class.SP")->value(), 1u);
  EXPECT_EQ(registry.GetHistogram("query.classify_ns")->count(), 1u);
  EXPECT_EQ(registry.GetHistogram("eval.annotate_ns")->count(), 1u);
  EXPECT_GT(registry.GetHistogram("eval.dnf_terms")->count(), 0u);
}

}  // namespace
}  // namespace consentdb
