// Observability-layer tests: span tracer (nesting, Chrome-trace export,
// thread-pool concurrency), flight recorder (wraparound, concurrent
// writers, crash/checkpoint dumps) and their engine integration. Run with
// `ctest -L observability`; the concurrency cases are TSAN targets.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "consentdb/consent/faulty_oracle.h"
#include "consentdb/consent/oracle.h"
#include "consentdb/consent/wal.h"
#include "consentdb/core/consent_manager.h"
#include "consentdb/core/session_engine.h"
#include "consentdb/obs/flight_recorder.h"
#include "consentdb/obs/names.h"
#include "consentdb/obs/span.h"
#include "consentdb/strategy/runner.h"
#include "consentdb/util/clock.h"
#include "consentdb/util/io.h"
#include "consentdb/util/rng.h"
#include "consentdb/util/thread_pool.h"
#include "test_fixtures.h"

namespace consentdb::obs {
namespace {

using consent::ValuationOracle;
using provenance::PartialValuation;
using provenance::VarId;

// --- A minimal JSON parser, just enough to schema-validate exports ----------

struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string str;
  double number = 0;
  bool boolean = false;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  // Returns false (and sets error()) on malformed input or trailing bytes.
  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipWs();
    if (i_ != s_.size()) return Fail("trailing characters");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(i_);
    return false;
  }

  void SkipWs() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (i_ >= s_.size() || s_[i_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++i_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (i_ >= s_.size()) return Fail("unexpected end");
    switch (s_[i_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        return ParseLiteral(s_[i_] == 't' ? "true" : "false",
                            &out->boolean);
      case 'n': {
        out->kind = JsonValue::Kind::kNull;
        bool ignored;
        return ParseLiteral("null", &ignored);
      }
      default:
        out->kind = JsonValue::Kind::kNumber;
        return ParseNumber(&out->number);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      std::string key;
      SkipWs();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return Fail("expected string");
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return Fail("dangling escape");
        switch (s_[i_]) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u':
            if (i_ + 4 >= s_.size()) return Fail("short \\u escape");
            i_ += 4;  // validated length only; tests never need the glyph
            break;
          default:
            return Fail("bad escape");
        }
        ++i_;
      } else {
        out->push_back(s_[i_]);
        ++i_;
      }
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;
    return true;
  }

  bool ParseLiteral(const std::string& lit, bool* value) {
    if (s_.compare(i_, lit.size(), lit) != 0) return Fail("bad literal");
    i_ += lit.size();
    *value = (lit == "true");
    return true;
  }

  bool ParseNumber(double* out) {
    const size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == start) return Fail("expected number");
    char* end = nullptr;
    const std::string token = s_.substr(start, i_ - start);
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("bad number");
    return true;
  }

  const std::string& s_;
  size_t i_ = 0;
  std::string error_;
};

JsonValue ParseOrDie(const std::string& text) {
  JsonValue doc;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&doc)) << parser.error() << "\nin: " << text;
  return doc;
}

std::map<uint64_t, SpanRecord> ById(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, SpanRecord> out;
  for (const SpanRecord& s : spans) out.emplace(s.id, s);
  return out;
}

// Walks parent links from `id`; true if an ancestor is named `name`.
bool HasAncestorNamed(const std::map<uint64_t, SpanRecord>& by_id,
                      uint64_t id, const char* name) {
  auto it = by_id.find(id);
  while (it != by_id.end() && it->second.parent_id != 0) {
    it = by_id.find(it->second.parent_id);
    if (it != by_id.end() && std::string(it->second.name) == name) {
      return true;
    }
  }
  return false;
}

// --- Span tracer -------------------------------------------------------------

TEST(SpanTest, NullCollectorIsANoOp) {
  Span span(nullptr, names::kSpanSessionRun);
  span.SetArg(names::kArgProbes, 3);
  EXPECT_EQ(span.id(), 0u);
}

TEST(SpanTest, NestingLinksParentIds) {
  SpanCollector collector;
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  uint64_t sibling_id = 0;
  {
    Span outer(&collector, names::kSpanSessionRun);
    outer_id = outer.id();
    {
      Span inner(&collector, names::kSpanSessionProbe);
      inner_id = inner.id();
    }
    {
      Span sibling(&collector, names::kSpanSessionSelect);
      sibling_id = sibling.id();
    }
  }
  Span root(&collector, names::kSpanWalAppend);
  const uint64_t root2_id = root.id();
  // Destructor has not run; only the three finished spans are recorded.
  std::map<uint64_t, SpanRecord> by_id = ById(collector.Snapshot());
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id.at(inner_id).parent_id, outer_id);
  EXPECT_EQ(by_id.at(sibling_id).parent_id, outer_id);
  EXPECT_EQ(by_id.at(outer_id).parent_id, 0u);
  EXPECT_NE(root2_id, 0u);
  EXPECT_LE(by_id.at(inner_id).start_nanos, by_id.at(inner_id).end_nanos);
}

TEST(SpanTest, BufferOverflowCountsDroppedSpans) {
  SpanCollector collector(/*max_spans_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    Span span(&collector, names::kSpanSessionProbe);
  }
  EXPECT_EQ(collector.num_spans(), 4u);
  EXPECT_EQ(collector.dropped(), 6u);
}

TEST(SpanTest, ChromeTraceExportIsSchemaValid) {
  SpanCollector collector;
  {
    Span outer(&collector, names::kSpanSessionRun);
    outer.SetArg(names::kArgProbes, 7);
    Span inner(&collector, names::kSpanSessionProbe);
    inner.SetArg(names::kArgVariable, 42);
  }
  JsonValue doc = ParseOrDie(collector.ExportChromeTrace());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(doc.Has("displayTimeUnit"));
  EXPECT_EQ(doc.At("displayTimeUnit").str, "ns");
  ASSERT_TRUE(doc.Has("traceEvents"));
  const JsonValue& events = doc.At("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events.array.size(), 2u);
  std::set<std::string> seen;
  for (const JsonValue& ev : events.array) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    // The Chrome trace-event required fields for a complete ("X") event.
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      ASSERT_TRUE(ev.Has(key)) << "missing " << key;
    }
    seen.insert(ev.At("name").str);
    EXPECT_EQ(ev.At("cat").str, "consentdb");
    EXPECT_EQ(ev.At("ph").str, "X");
    EXPECT_EQ(ev.At("pid").number, 1.0);
    EXPECT_GE(ev.At("dur").number, 0.0);
    EXPECT_GE(ev.At("ts").number, 0.0);
    ASSERT_TRUE(ev.Has("args"));
    ASSERT_EQ(ev.At("args").kind, JsonValue::Kind::kObject);
    EXPECT_TRUE(ev.At("args").Has("id"));
  }
  EXPECT_TRUE(seen.count(names::kSpanSessionRun));
  EXPECT_TRUE(seen.count(names::kSpanSessionProbe));
  // The probe span carries its variable as a numeric arg.
  for (const JsonValue& ev : events.array) {
    if (ev.At("name").str == names::kSpanSessionProbe) {
      ASSERT_TRUE(ev.At("args").Has(names::kArgVariable));
      EXPECT_EQ(ev.At("args").At(names::kArgVariable).number, 42.0);
    }
  }
}

TEST(SpanTest, SessionRunProducesCausalTimeline) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  PartialValuation hidden(sdb.pool().size());
  for (VarId x = 0; x < sdb.pool().size(); ++x) hidden.Set(x, true);
  ValuationOracle oracle(hidden);
  core::ConsentManager manager(sdb);
  SpanCollector collector;
  core::SessionOptions options;
  options.spans = &collector;
  Result<core::SessionReport> report =
      manager.DecideAll(testing::RecruitmentQuerySql(), oracle, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report.value().num_probes, 0u);

  std::vector<SpanRecord> spans = collector.Snapshot();
  std::map<uint64_t, SpanRecord> by_id = ById(spans);
  size_t run_spans = 0;
  size_t probe_spans = 0;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == names::kSpanSessionRun) {
      ++run_spans;
      EXPECT_EQ(s.parent_id, 0u);
      ASSERT_NE(s.arg_name, nullptr);
      EXPECT_EQ(std::string(s.arg_name), names::kArgProbes);
      EXPECT_EQ(s.arg_value, report.value().num_probes);
    }
    if (name == names::kSpanSessionProbe) {
      ++probe_spans;
      // Every probe is causally under the session.run span.
      EXPECT_TRUE(HasAncestorNamed(by_id, s.id, names::kSpanSessionRun));
    }
  }
  EXPECT_EQ(run_spans, 1u);
  EXPECT_EQ(probe_spans, report.value().num_probes);
}

TEST(SpanTest, SpanOnlyInstrumentationEnablesTheProbeClock) {
  // Regression: RunInstrumentation::enabled() ignored `spans`, so a
  // span-only session skipped the per-probe deliberation clock and its
  // probe events carried zero decision_nanos and residual_terms. Each sink
  // alone must count as instrumented.
  strategy::RunInstrumentation instr;
  EXPECT_FALSE(instr.enabled());
  SpanCollector collector;
  instr.spans = &collector;
  EXPECT_TRUE(instr.enabled());
  instr.spans = nullptr;
  MetricsRegistry metrics;
  instr.metrics = &metrics;
  EXPECT_TRUE(instr.enabled());
  instr.metrics = nullptr;
  SessionTracer tracer;
  instr.tracer = &tracer;
  EXPECT_TRUE(instr.enabled());
}

// The span contract of a resilient in-process session: one selection, one
// probe span per probe that resolved (answered or lost), and one retry wait
// per retry, each nested in the probe it delays.
TEST(SpanTest, ResilientSessionSpansMatchItsReport) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::ConsentManager manager(sdb);
  size_t sessions_with_retries = 0;
  size_t sessions_with_losses = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    Rng rng(seed);
    PartialValuation hidden = sdb.pool().SampleValuation(rng);
    consent::FaultPlan plan;
    plan.seed = 600 + seed;
    plan.defaults.transient_failure_prob = 0.4;
    plan.defaults.latency_nanos = 100'000;
    plan.per_peer[seed % 2 == 0 ? "Alice" : "Bob"].permanently_unavailable =
        true;
    VirtualClock clock;
    ValuationOracle backing(hidden);
    consent::FaultyOracle faulty(backing, sdb.pool(), plan, &clock);
    SpanCollector collector;
    core::SessionOptions options;
    options.retry = core::RetryPolicy{};
    options.retry->max_attempts = 3;
    options.clock = &clock;
    options.spans = &collector;
    Result<core::SessionReport> report =
        manager.DecideAll(testing::RecruitmentQuerySql(), faulty, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    std::vector<SpanRecord> spans = collector.Snapshot();
    std::map<uint64_t, SpanRecord> by_id = ById(spans);
    size_t select_spans = 0;
    size_t probe_spans = 0;
    size_t wait_spans = 0;
    for (const SpanRecord& s : spans) {
      const std::string name = s.name;
      if (name == names::kSpanSessionSelect) ++select_spans;
      if (name == names::kSpanSessionProbe) ++probe_spans;
      if (name == names::kSpanRetryWait) {
        ++wait_spans;
        ASSERT_TRUE(by_id.count(s.parent_id)) << "orphaned retry.wait";
        EXPECT_EQ(std::string(by_id.at(s.parent_id).name),
                  names::kSpanSessionProbe);
      }
    }
    EXPECT_EQ(select_spans, 1u);
    EXPECT_EQ(probe_spans,
              report->num_probes + report->failures.lost_probes());
    EXPECT_EQ(wait_spans, report->num_retries);
    if (report->num_retries > 0) ++sessions_with_retries;
    if (report->failures.lost_probes() > 0) ++sessions_with_losses;
  }
  EXPECT_GT(sessions_with_retries, 0u);
  EXPECT_GT(sessions_with_losses, 0u);
}

// TSAN target: many threads record nested spans while a reader exports.
TEST(SpanTest, ThreadPoolNestingStaysConsistentUnderConcurrency) {
  constexpr size_t kTasks = 64;
  SpanCollector collector;
  std::atomic<bool> stop{false};
  std::thread exporter([&collector, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string json = collector.ExportChromeTrace();
      EXPECT_FALSE(json.empty());
    }
  });
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < kTasks; ++i) {
      pool.Submit([&collector] {
        Span outer(&collector, names::kSpanEngineSession);
        {
          Span inner(&collector, names::kSpanSessionProbe);
          Span innermost(&collector, names::kSpanRetryWait);
        }
      });
    }
  }  // pool drains and joins
  stop.store(true, std::memory_order_relaxed);
  exporter.join();

  std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 3 * kTasks);
  std::map<uint64_t, SpanRecord> by_id = ById(spans);
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == names::kSpanEngineSession) {
      EXPECT_EQ(s.parent_id, 0u);
    } else {
      // Nesting never crosses threads: the parent lives on the same tid.
      ASSERT_NE(s.parent_id, 0u) << name;
      auto parent = by_id.find(s.parent_id);
      ASSERT_NE(parent, by_id.end());
      EXPECT_EQ(parent->second.tid, s.tid);
      const char* expected_parent = name == names::kSpanSessionProbe
                                        ? names::kSpanEngineSession
                                        : names::kSpanSessionProbe;
      EXPECT_EQ(std::string(parent->second.name), expected_parent);
    }
  }
  // The final export parses cleanly too.
  ParseOrDie(collector.ExportChromeTrace());
}

// --- Flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RoundsCapacityToAPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(10).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
}

TEST(FlightRecorderTest, RingWrapsKeepingTheNewestRecords) {
  FlightRecorder flight(8);
  ASSERT_EQ(flight.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    flight.RecordEvent(names::kEventCheckpoint, names::kArgRecords, i);
  }
  EXPECT_EQ(flight.num_recorded(), 20u);
  std::vector<SpanRecord> snapshot = flight.Snapshot();
  ASSERT_EQ(snapshot.size(), 8u);
  // Oldest first, and only the last capacity() records survive.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].arg_value, 12 + i);
    EXPECT_EQ(std::string(snapshot[i].name), names::kEventCheckpoint);
    EXPECT_EQ(snapshot[i].start_nanos, snapshot[i].end_nanos);
  }
  ParseOrDie(flight.DumpJson());
  EXPECT_FALSE(flight.DumpText().empty());
}

// TSAN target: concurrent writers and a concurrent reader; every snapshot
// record must be intact (a known name, a sane arg).
TEST(FlightRecorderTest, ConcurrentWritersYieldOnlyIntactRecords) {
  FlightRecorder flight(64);
  constexpr int kThreads = 4;
  static constexpr uint64_t kPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&flight, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const SpanRecord& rec : flight.Snapshot()) {
        const std::string name = rec.name;
        EXPECT_TRUE(name == names::kEventCheckpoint ||
                    name == names::kEventCrashInjected)
            << name;
        EXPECT_LT(rec.arg_value, kPerThread);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&flight, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        flight.RecordEvent(t % 2 == 0 ? names::kEventCheckpoint
                                      : names::kEventCrashInjected,
                           names::kArgRecords, i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(flight.num_recorded(), kThreads * kPerThread);
  EXPECT_EQ(flight.Snapshot().size(), flight.capacity());
}

TEST(FlightRecorderTest, MirrorsSpansFromACollector) {
  SpanCollector collector;
  FlightRecorder flight(16);
  collector.set_flight_recorder(&flight);
  {
    Span span(&collector, names::kSpanWalFsync);
    span.SetArg(names::kArgRecords, 5);
  }
  std::vector<SpanRecord> snapshot = flight.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(std::string(snapshot[0].name), names::kSpanWalFsync);
  EXPECT_EQ(snapshot[0].arg_value, 5u);
}

// --- Engine integration ------------------------------------------------------

TEST(EngineFlightTest, InjectedCrashStashesAFlightDump) {
  CrashingEnv env;
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  PartialValuation hidden(sdb.pool().size());
  for (VarId x = 0; x < sdb.pool().size(); ++x) hidden.Set(x, true);

  Result<std::unique_ptr<consent::WalWriter>> wal =
      consent::WalWriter::Open(&env, "ledger.wal");
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  core::EngineOptions options;
  options.num_threads = 1;
  options.wal = wal.value().get();
  SpanCollector collector;
  options.session.spans = &collector;
  core::SessionEngine engine(sdb, options);
  ASSERT_NE(engine.flight_recorder(), nullptr);
  EXPECT_TRUE(engine.last_flight_dump().empty());

  // The first journal append of the session hits the injected crash.
  CrashPlan plan;
  plan.crash_at_append = 1;
  env.set_plan(plan);

  ValuationOracle oracle(hidden);
  core::SessionRequest request;
  request.sql = testing::RecruitmentQuerySql();
  request.oracle = &oracle;
  std::future<Result<core::SessionReport>> future =
      engine.Submit(std::move(request));
  EXPECT_THROW(future.get(), CrashInjected);

  const std::string dump = engine.last_flight_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find(names::kEventCrashInjected), std::string::npos);
  JsonValue doc = ParseOrDie(dump);
  ASSERT_TRUE(doc.Has("flight"));
  EXPECT_GT(doc.At("flight").At("recorded").number, 0.0);
}

TEST(EngineFlightTest, CheckpointWritesAFlightSidecar) {
  CrashingEnv env;
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  PartialValuation hidden(sdb.pool().size());
  for (VarId x = 0; x < sdb.pool().size(); ++x) hidden.Set(x, true);

  core::EngineOptions options;
  options.num_threads = 1;
  SpanCollector collector;
  options.session.spans = &collector;
  core::SessionEngine engine(sdb, options);

  ValuationOracle oracle(hidden);
  core::SessionRequest request;
  request.sql = testing::RecruitmentQuerySql();
  request.oracle = &oracle;
  Result<core::SessionReport> report = engine.Submit(std::move(request)).get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_TRUE(engine.SaveCheckpoint(&env, "state.ckpt").ok());
  ASSERT_TRUE(env.FileExists("state.ckpt.flight.json"));
  Result<std::string> sidecar = env.ReadFileToString("state.ckpt.flight.json");
  ASSERT_TRUE(sidecar.ok());
  JsonValue doc = ParseOrDie(sidecar.value());
  ASSERT_TRUE(doc.Has("flight"));
  // The engine mirrored the session's spans into the ring, then stamped the
  // checkpoint event itself.
  EXPECT_NE(sidecar.value().find(names::kEventCheckpoint), std::string::npos);
  EXPECT_NE(sidecar.value().find(names::kSpanEngineSession),
            std::string::npos);
}

// A thread alternating between two live collectors must reuse its buffer in
// each (one buffer per thread per collector), not register a fresh one on
// every switch.
TEST(SpanTest, AlternatingCollectorsReuseOneBufferPerThread) {
  SpanCollector a;
  SpanCollector b;
  for (int i = 0; i < 5; ++i) {
    { Span span(&a, names::kSpanWalFsync); }
    { Span span(&b, names::kSpanWalAppend); }
  }
  for (SpanCollector* collector : {&a, &b}) {
    std::vector<SpanRecord> snapshot = collector->Snapshot();
    ASSERT_EQ(snapshot.size(), 5u);
    for (const SpanRecord& rec : snapshot) {
      EXPECT_EQ(rec.tid, 0u);  // one registered buffer, not one per switch
    }
    EXPECT_EQ(collector->dropped(), 0u);
  }
}

// The engine must detach its flight recorder from the caller-owned collector
// on destruction: the collector outlives the engine, and a span recorded
// afterwards must not chase a dangling pointer.
TEST(EngineFlightTest, DestructionDetachesTheCollectorMirror) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  SpanCollector collector;
  core::EngineOptions options;
  options.num_threads = 1;
  options.session.spans = &collector;
  {
    core::SessionEngine engine(sdb, options);
    EXPECT_EQ(collector.flight_recorder(), engine.flight_recorder());
  }
  EXPECT_EQ(collector.flight_recorder(), nullptr);
  { Span span(&collector, names::kSpanWalFsync); }  // must not crash
  EXPECT_EQ(collector.num_spans(), 1u);
}

// With two engines sharing one collector, the last attach wins and each
// engine detaches only its own recorder: destroying the first engine must
// not sever the survivor's mirror.
TEST(EngineFlightTest, SharedCollectorKeepsTheSurvivingEnginesRecorder) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  SpanCollector collector;
  core::EngineOptions options;
  options.num_threads = 1;
  options.session.spans = &collector;
  auto first = std::make_unique<core::SessionEngine>(sdb, options);
  core::SessionEngine second(sdb, options);
  EXPECT_EQ(collector.flight_recorder(), second.flight_recorder());
  first.reset();
  EXPECT_EQ(collector.flight_recorder(), second.flight_recorder());
}

TEST(EngineFlightTest, ZeroCapacityDisablesTheRecorder) {
  consent::SharedDatabase sdb = testing::RecruitmentDatabase();
  core::EngineOptions options;
  options.num_threads = 1;
  options.flight_recorder_capacity = 0;
  core::SessionEngine engine(sdb, options);
  EXPECT_EQ(engine.flight_recorder(), nullptr);
}

}  // namespace
}  // namespace consentdb::obs
