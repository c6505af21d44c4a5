#include "datasets.h"

#include <utility>

#include "consentdb/util/check.h"
#include "util.h"

namespace perfbench {

using consentdb::Status;
using consentdb::consent::SharedDatabase;
using consentdb::provenance::VarId;
using consentdb::relational::Column;
using consentdb::relational::Schema;
using consentdb::relational::Tuple;
using consentdb::relational::Value;
using consentdb::relational::ValueType;

namespace {

// Fixes the databases' shape and base consent; independent of --seed.
constexpr uint64_t kBaseSeed = 20210419;

constexpr int64_t kRsRows = 200;
constexpr int64_t kADomain = 20;
constexpr int64_t kBDomain = 20;
constexpr int64_t kCDomain = 12;
constexpr int64_t kThresholds = 8;

void Check(const Status& s) { CONSENTDB_CHECK(s.ok(), s.ToString()); }

VarId Insert(SharedDatabase* sdb, const char* relation, Tuple t,
             const std::string& owner, double prior) {
  consentdb::Result<VarId> x = sdb->InsertTuple(relation, std::move(t), owner,
                                                prior);
  CONSENTDB_CHECK(x.ok(), x.status().ToString());
  return *x;
}

}  // namespace

std::unique_ptr<SharedDatabase> BuildRs() {
  auto sdb = std::make_unique<SharedDatabase>();
  Check(sdb->CreateRelation("R", Schema({Column{"a", ValueType::kInt64},
                                         Column{"b", ValueType::kInt64}})));
  Check(sdb->CreateRelation("S", Schema({Column{"b", ValueType::kInt64},
                                         Column{"c", ValueType::kInt64}})));
  Stream rng(kBaseSeed);
  for (int64_t i = 0; i < kRsRows; ++i) {
    const auto a = static_cast<int64_t>(rng.Index(kADomain));
    const auto b = static_cast<int64_t>(rng.Index(kBDomain));
    // Set semantics: a repeated row keeps its first annotation.
    (void)sdb->InsertTuple("R", Tuple{Value(a), Value(b)},
                           "peer" + std::to_string(i % 16),
                           0.3 + 0.4 * rng.Unit());
  }
  for (int64_t i = 0; i < kRsRows; ++i) {
    const auto b = static_cast<int64_t>(rng.Index(kBDomain));
    const auto c = static_cast<int64_t>(rng.Index(kCDomain));
    (void)sdb->InsertTuple("S", Tuple{Value(b), Value(c)},
                           "peer" + std::to_string(i % 16),
                           0.3 + 0.4 * rng.Unit());
  }
  return sdb;
}

std::vector<std::string> RsCatalogue() {
  std::vector<std::string> sqls;
  for (int64_t c = 0; c < kCDomain; ++c) {
    for (int64_t t = 0; t < kThresholds; ++t) {
      sqls.push_back(
          "SELECT DISTINCT r.a FROM R r, S s WHERE r.b = s.b AND s.c = " +
          std::to_string(c) +
          " AND r.a >= " + std::to_string(t * kADomain / (2 * kThresholds)));
    }
  }
  return sqls;
}

void SessionAnswers(const consentdb::consent::VariablePool& pool,
                    uint64_t seed, size_t session, std::vector<uint8_t>* out) {
  Stream rng(Mix(seed, 2 * session + 1));
  out->resize(pool.size());
  for (VarId x = 0; x < pool.size(); ++x) {
    (*out)[x] = rng.Unit() < pool.probability(x) ? 1 : 0;
  }
}

size_t SessionQuery(uint64_t seed, size_t session, size_t catalogue_size) {
  // Each block of catalogue_size sessions asks every query once, in a
  // seeded order: the query mix is the same for every seed.
  const size_t block = session / catalogue_size;
  std::vector<size_t> order(catalogue_size);
  for (size_t q = 0; q < catalogue_size; ++q) order[q] = q;
  Stream rng(Mix(seed, block) ^ 0x51554552ull);
  for (size_t q = catalogue_size - 1; q > 0; --q) {
    std::swap(order[q], order[rng.Index(q + 1)]);
  }
  return order[session % catalogue_size];
}

const char* RecruitmentQuery() {
  return "SELECT DISTINCT c.name "
         "FROM Companies c, Vacancies v, Assignment a, JobSeekers s "
         "WHERE c.cid = v.cid AND v.vid = a.vid AND a.status = 'hired' "
         "AND a.sid = s.sid AND s.education = 'Env. studies'";
}

std::unique_ptr<Recruitment> BuildRecruitment(size_t sessions) {
  auto db = std::make_unique<Recruitment>();
  SharedDatabase& sdb = db->sdb;
  Check(sdb.CreateRelation("Companies",
                           Schema({Column{"cid", ValueType::kInt64},
                                   Column{"name", ValueType::kString}})));
  Check(sdb.CreateRelation("Vacancies",
                           Schema({Column{"vid", ValueType::kInt64},
                                   Column{"cid", ValueType::kInt64},
                                   Column{"position", ValueType::kString}})));
  Check(sdb.CreateRelation("Assignment",
                           Schema({Column{"sid", ValueType::kInt64},
                                   Column{"vid", ValueType::kInt64},
                                   Column{"status", ValueType::kString}})));
  Check(sdb.CreateRelation("JobSeekers",
                           Schema({Column{"sid", ValueType::kInt64},
                                   Column{"name", ValueType::kString},
                                   Column{"education", ValueType::kString}})));
  Stream rng(kBaseSeed);
  auto add = [&](const char* rel, Tuple t, const std::string& owner,
                 double prior, bool answer) {
    const VarId x = Insert(&sdb, rel, std::move(t), owner, prior);
    CONSENTDB_CHECK(x == db->answers.size(), "variables must be dense");
    db->answers.push_back(answer ? 1 : 0);
  };
  // Two job chains. Chain 0 (vacancy 0 <- hire of Env. studies seeker 0) is
  // consented throughout; chain 1's seeker declined, so companies on cid 1
  // are decided by one shared answer while every cid-0 company must be
  // asked itself.
  add("Vacancies", Tuple{Value(0), Value(0), Value("analyst")}, "platform",
      0.95, true);
  add("Vacancies", Tuple{Value(1), Value(1), Value("supervisor")}, "platform",
      0.95, true);
  add("JobSeekers", Tuple{Value(0), Value("David"), Value("Env. studies")},
      "Bob", 0.5, true);
  add("JobSeekers", Tuple{Value(1), Value("Ellen"), Value("Env. studies")},
      "Bob", 0.5, false);
  add("JobSeekers", Tuple{Value(2), Value("Frank"), Value("History")}, "Alice",
      0.5, rng.Bernoulli(0.5));
  add("JobSeekers", Tuple{Value(3), Value("Georgia"), Value("History")},
      "Alice", 0.5, rng.Bernoulli(0.5));
  add("Assignment", Tuple{Value(0), Value(0), Value("hired")}, "Bob", 0.5,
      true);
  add("Assignment", Tuple{Value(1), Value(1), Value("hired")}, "Bob", 0.5,
      true);
  add("Assignment", Tuple{Value(2), Value(1), Value("hired")}, "Alice", 0.5,
      rng.Bernoulli(0.5));
  add("Assignment", Tuple{Value(3), Value(0), Value("rejected")}, "Alice", 0.5,
      rng.Bernoulli(0.5));
  add("Assignment", Tuple{Value(1), Value(0), Value("rejected")}, "Bob", 0.5,
      rng.Bernoulli(0.5));
  db->base_companies = kCompaniesPerSession * sessions;
  for (size_t i = 0; i < db->base_companies; ++i) {
    add("Companies",
        Tuple{Value(static_cast<int64_t>(i % 4 == 0 ? 0 : 1)),
              Value("company" + std::to_string(i))},
        "agency" + std::to_string(i % 5), 0.7, rng.Bernoulli(0.7));
  }
  db->base_vars = db->answers.size();
  return db;
}

void ApplyWrite(uint64_t seed, size_t session, Recruitment* db,
                std::vector<double>* insert_us) {
  Stream rng(Mix(seed ^ 0x5752495445ull, session));
  for (size_t w = 0; w < kWritesPerSession; ++w) {
    const size_t k = db->base_companies + session * kWritesPerSession + w;
    const int64_t t0 = NowNanos();
    const VarId x = Insert(&db->sdb, "Companies",
                           Tuple{Value(0), Value("company" + std::to_string(k))},
                           "agency" + std::to_string(rng.Index(5)), 0.7);
    if (insert_us != nullptr) {
      insert_us->push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    }
    CONSENTDB_CHECK(x == db->answers.size(), "variables must be dense");
    db->answers.push_back(rng.Bernoulli(0.7) ? 1 : 0);
  }
}

}  // namespace perfbench
