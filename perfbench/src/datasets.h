// The benchmark's inputs. Each database has a fixed shape so that figures
// from different seeds are comparable; --seed drives what varies between
// runs: which query each session asks, the hidden consent valuations, and
// the writes.

#ifndef PERFBENCH_DATASETS_H_
#define PERFBENCH_DATASETS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "consentdb/consent/shared_database.h"

namespace perfbench {

// --- warm_qvalue / served_tcp: R(a, b) ⋈ S(b, c) -----------------------------

// The R⋈S database; ~300 consent variables, owned by 16 peers.
std::unique_ptr<consentdb::consent::SharedDatabase> BuildRs();
// A few dozen distinct join queries — fewer than the provenance cache's 128
// entries, so set-up caches every plan and provenance. Every query has
// shared, projection-limited provenance, the case where Auto picks Q-value.
std::vector<std::string> RsCatalogue();
// Session i's hidden consent: each variable drawn from its prior.
void SessionAnswers(const consentdb::consent::VariablePool& pool,
                    uint64_t seed, size_t session, std::vector<uint8_t>* out);
// Which catalogue query session i asks; every block of catalogue_size
// sessions asks each query once.
size_t SessionQuery(uint64_t seed, size_t session, size_t catalogue_size);

// --- cold_join_writes: the recruitment-agency schema of Fig. 1 -------------

// Company tuples each write inserts; every new company joins into the
// result, so its consent variable is a fresh question for the peers.
inline constexpr size_t kWritesPerSession = 2;
// Base companies per session: the writes of the sessions a database is
// built for grow it by 1 / kCompaniesPerSession (10%).
inline constexpr size_t kCompaniesPerSession = 10 * kWritesPerSession;

struct Recruitment {
  consentdb::consent::SharedDatabase sdb;
  // Hidden consent of every variable, indexed by VarId.
  std::vector<uint8_t> answers;
  size_t base_companies = 0;
  size_t base_vars = 0;
};

// A recruitment database for `sessions` sessions of writes.
std::unique_ptr<Recruitment> BuildRecruitment(size_t sessions);
// The paper's 4-way join (Q_ex). The evaluator joins in FROM order, so the
// order is chosen to keep the nested loops small enough for hundreds of
// cold sessions a run.
const char* RecruitmentQuery();
// The write before session i: kWritesPerSession new companies on the one
// job chain whose consent is all granted, so each new company must be
// asked. Appends their hidden consent to db->answers; the time of each
// insert goes to `insert_us` when given.
void ApplyWrite(uint64_t seed, size_t session, Recruitment* db,
                std::vector<double>* insert_us);

}  // namespace perfbench

#endif  // PERFBENCH_DATASETS_H_
