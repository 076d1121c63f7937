// Online task assignment (Section 5.3.2).
//
// When a worker requests tasks, CDB+ assigns the k tasks whose answers are
// expected to improve quality the most: for single-choice tasks the expected
// entropy decrease of the task's truth distribution (Equation 3); for
// fill-in-blank tasks the least-consistent tasks (Equation 4); for collection
// tasks the lowest completeness score.
#ifndef CDB_QUALITY_TASK_ASSIGNMENT_H_
#define CDB_QUALITY_TASK_ASSIGNMENT_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crowd/platform.h"
#include "crowd/task.h"
#include "similarity/similarity.h"

namespace cdb {

// Shannon entropy of a distribution (natural log); 0 for degenerate input.
double Entropy(const std::vector<double>& p);

// The posterior after worker (quality q) answers choice i (Bayes update used
// inside Eq. 3). Exposed for tests.
std::vector<double> PosteriorAfterAnswer(const std::vector<double>& prior,
                                         double worker_quality, int answer);

// Eq. 3: expected decrease in entropy if a worker of quality q answers a
// task whose current truth distribution is `prior`. Allocation-free: each
// PosteriorAfterAnswer is evaluated in place, with the same products,
// normalizer and summation order, so the result is the same double.
double ExpectedQualityImprovement(const std::vector<double>& prior,
                                  double worker_quality);

// Eq. 4: consistency of a fill-in-blank task's answers — mean pairwise
// similarity (1.0 when fewer than two answers).
double FillConsistency(const std::vector<Answer>& answers,
                       SimilarityFunction sim_fn);

// Completeness score (N - M) / N for a collection task with M distinct
// collected tuples out of an estimated cardinality N.
double CompletenessScore(int64_t distinct_collected, int64_t estimated_total);

// The AssignmentPolicy for single-choice tasks: assigns the top-k available
// tasks by Eq. 3 using the current posteriors and the worker's estimated
// quality. The maps are borrowed; the quality map is read at call time, and
// the posteriors are written only by Observe().
//
// Per-round score memo. A task's Eq.-3 score is a pure function of its
// posterior and the worker's clamped quality, and within a round most
// arrivals rescore tasks whose posterior has not moved since that worker
// last saw them. BeginRound() gives each round task a slot (a flat table
// indexed by TaskId) with a posterior version; Observe() bumps the version
// of the slot it writes. Each worker has a row of (version, score) entries
// and remembers the quality it was filled with: an entry is reused only
// while its version matches the slot's, and the whole row is refilled when
// the worker's quality changes. Picks are therefore exactly those of a
// freshly built assigner over the same posteriors, provided that between
// BeginRound() and the next one the round tasks' posteriors change only
// through Observe(). Ids outside the table (golden warm-up ids, or calls
// before any BeginRound) are scored without the memo.
class EntropyAssigner {
 public:
  EntropyAssigner(std::map<TaskId, std::vector<double>>* posteriors,
                  const std::map<int, double>* worker_quality,
                  int num_choices, double default_quality = 0.7);

  // Opens a round over `tasks`, whose posteriors must already be set:
  // slots are reassigned, versions reset, and every worker row goes stale.
  void BeginRound(const std::vector<Task>& tasks);

  // Folds one answer into its task's posterior (the Bayes update of Eq. 3,
  // with the answering worker's current quality) and invalidates the task's
  // memo entries. Answers for tasks without a posterior are ignored.
  void Observe(const Answer& answer);

  std::vector<size_t> operator()(const SimulatedWorker& worker,
                                 const std::vector<TaskId>& available,
                                 int count);

 private:
  // One worker's memo: scores[s] is valid iff versions[s] equals the slot's
  // current version (versions start at 0, slot versions at 1). 12 bytes per
  // round task.
  struct WorkerRow {
    uint64_t round = 0;   // The BeginRound() this row was filled in.
    double quality = 0.0;
    std::vector<uint32_t> versions;
    std::vector<double> scores;
  };

  double QualityOf(int worker) const;
  // The round slot of `task`, or -1 when the task is not in the table.
  int32_t SlotOf(TaskId task) const {
    return task >= 0 && static_cast<uint64_t>(task) < slot_of_.size()
               ? slot_of_[static_cast<size_t>(task)]
               : -1;
  }
  std::vector<double>* FindPosterior(TaskId task) const;
  // What a task is scored against: its posterior, or uniform when it has
  // none (null or empty).
  const std::vector<double>& ScoredPrior(
      const std::vector<double>* posterior) const;

  std::map<TaskId, std::vector<double>>* posteriors_;
  const std::map<int, double>* worker_quality_;
  int num_choices_;
  double default_quality_;
  std::vector<double> uniform_;

  uint64_t round_ = 0;  // BeginRound() calls so far.
  std::vector<int32_t> slot_of_;  // TaskId -> slot, -1 outside the round.
  std::vector<TaskId> round_ids_;  // Slot -> TaskId.
  // Slot -> the round task's posterior (null = scored against uniform).
  // Map nodes are stable, so the pointers hold for the round.
  std::vector<std::vector<double>*> slot_posterior_;
  std::vector<uint32_t> slot_version_;
  std::unordered_map<int, WorkerRow> rows_;  // Keyed by worker id.
  std::vector<std::pair<double, size_t>> scored_;  // Reused per arrival.
};

}  // namespace cdb

#endif  // CDB_QUALITY_TASK_ASSIGNMENT_H_
