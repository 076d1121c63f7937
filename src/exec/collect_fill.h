// Crowd-powered collection semantics (Section 3, Appendix A.1; evaluated in
// Section 6.3.2).
//
// COLLECT gathers new tuples for a CROWD table under the open-world
// assumption. CDB's autocompletion interface shows workers the values other
// workers already contributed, which (a) canonicalizes surface forms and (b)
// steers workers away from duplicates — the Deco baseline lacks both, so its
// workers frequently resubmit already-collected entities and waste budget.
//
// FILL asks the crowd for missing attribute values. CDB stops early when the
// first kFillAgreeNeeded answers already agree (high pairwise similarity); the
// baseline always collects the full redundancy.
#ifndef CDB_EXEC_COLLECT_FILL_H_
#define CDB_EXEC_COLLECT_FILL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "similarity/similarity.h"
#include "storage/table.h"

namespace cdb {

// The open world a COLLECT query draws from: entities with canonical names,
// alternative surface forms, and a popularity skew (workers contribute
// popular entities more often).
struct CollectUniverse {
  struct Entity {
    std::string canonical;
    std::vector<std::string> variants;  // Non-canonical surface forms.
  };
  std::vector<Entity> entities;
  double zipf_exponent = 0.8;  // Popularity skew of worker contributions.
};

// Probability a worker notices the autocomplete suggestion and picks a new
// entity instead of re-submitting a collected one.
inline constexpr double kAvoidDuplicateProb = 0.9;

struct CollectOptions {
  int64_t target_distinct = 100;    // Stop once this many entities collected.
  bool autocomplete = true;         // CDB on, Deco-style baseline off.
  int64_t max_questions = 1000000;  // Safety valve (open world!).
  uint64_t seed = 11;
};

struct CollectResult {
  int64_t questions_asked = 0;
  int64_t distinct_collected = 0;
  int64_t duplicates = 0;
  std::vector<std::string> collected;  // Canonical forms (autocomplete) or
                                       // raw submissions (baseline, deduped
                                       // by post-hoc entity resolution).
  // questions_asked recorded each time a new distinct entity arrived;
  // index k = questions needed for k+1 distinct. Powers Figure 17(a).
  std::vector<int64_t> questions_at_distinct;
};

CollectResult RunCollect(const CollectUniverse& universe,
                         const CollectOptions& options);

// One FILL work item: the missing cell, its true value, and plausible wrong
// values a confused worker might enter.
struct FillTaskSpec {
  std::string question;
  std::string truth;
  std::vector<std::string> wrong_pool;
};

// FILL's early stop: a cell stops once kFillAgreeNeeded of its answers agree
// at pairwise similarity of at least kFillAgreeSimilarity.
inline constexpr int kFillAgreeNeeded = 3;
inline constexpr double kFillAgreeSimilarity = 0.8;

struct FillOptions {
  int redundancy = 5;
  bool early_stop = true;      // CDB on, Deco-style baseline off.
  SimilarityFunction sim_fn = SimilarityFunction::kQGramJaccard;
  double worker_quality_mean = 0.8;
  double worker_quality_stddev = 0.1;
  int num_workers = 50;
  uint64_t seed = 13;
};

struct FillResult {
  int64_t answers_collected = 0;  // Total fill tasks paid for.
  int64_t cells_filled = 0;
  int64_t cells_correct = 0;      // Inferred value == truth.
  std::vector<std::string> values;
};

FillResult RunFill(const std::vector<FillTaskSpec>& specs,
                   const FillOptions& options);

}  // namespace cdb

#endif  // CDB_EXEC_COLLECT_FILL_H_
