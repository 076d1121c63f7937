// Truth inference (Section 5.3.1).
//
// Single-choice tasks: worker qualities q_w are estimated with EM, and the
// per-task truth distribution follows Bayesian voting (Equation 2).
// Multi-choice tasks decompose into per-choice yes/no tasks. Fill-in-blank
// tasks take the "pivot" answer — the one with the highest aggregated string
// similarity to the others. Majority voting is provided as the baseline the
// existing systems (CrowdDB / Qurk / Deco / CrowdOP) use; YesNoCrowd wraps
// it with a market for the comparators and GROUP BY / ORDER BY.
#ifndef CDB_QUALITY_TRUTH_INFERENCE_H_
#define CDB_QUALITY_TRUTH_INFERENCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "crowd/platform.h"
#include "crowd/task.h"
#include "similarity/similarity.h"

namespace cdb {

class MetricsRegistry;

// One single-choice observation.
struct ChoiceObservation {
  TaskId task = -1;
  int worker = -1;
  int choice = -1;
};

struct InferenceResult {
  // Posterior distribution over choices per task (Eq. 2).
  std::map<TaskId, std::vector<double>> posteriors;
  // Estimated quality per worker id.
  std::map<int, double> worker_quality;

  // argmax choice for a task (ties to the lowest index); -1 if unknown task.
  int Truth(TaskId task) const;
  // max posterior probability for a task; 0 if unknown.
  double Confidence(TaskId task) const;
};

// EM's fixed settings. A worker without a prior starts at kEmInitialQuality,
// the paper's default prior for new workers. Iteration stops once no quality
// moves by kEmTolerance. kEmPriorStrength is the Beta-prior pseudo-count
// regularizing the M-step: a worker's quality is
// (kEmPriorStrength * prior + expected_correct) / (kEmPriorStrength + n).
// It keeps early rounds (few answers per worker) from over-fitting, where
// unregularized EM can fall below majority voting.
inline constexpr double kEmInitialQuality = 0.7;
inline constexpr double kEmTolerance = 1e-6;
inline constexpr double kEmPriorStrength = 8.0;

struct EmOptions {
  int num_choices = 2;
  int max_iterations = 50;
  // Optional fixed priors per worker (e.g. qualities carried over from
  // earlier rounds); missing workers start at kEmInitialQuality.
  std::map<int, double> quality_priors;
  // Threads for the E-step (per-task posteriors are independent) and the
  // M-step per-worker sums: <= 0 uses all hardware threads, 1 runs serially.
  // Posteriors and qualities are bit-identical at every thread count — each
  // task/worker is a unit of work whose floating-point accumulation order
  // never changes, and cross-unit reductions happen serially.
  int num_threads = 0;
  // Observability sink (borrowed, may be null = disabled): EM mirrors runs,
  // iterations, and the final convergence delta (in micro-units, since the
  // registry is integer-only) under `quality.em.*`.
  MetricsRegistry* metrics = nullptr;
};

// Observations in arrival order, grouped as they arrive: each task's
// (worker, choice) row and each worker's (task, choice) row, both in
// observation order, so inference reads rows instead of regrouping the
// history on every call. Append() does not dedup: a repeated (task, worker)
// pair is two observations.
class ObservationLog {
 public:
  ObservationLog() = default;
  explicit ObservationLog(const std::vector<ChoiceObservation>& obs);

  void Append(const ChoiceObservation& o);
  // True if `worker` has an observation for `task` (a scan of its row).
  [[nodiscard]] bool Contains(TaskId task, int worker) const;
  const std::vector<ChoiceObservation>& observations() const { return obs_; }
  bool empty() const { return obs_.empty(); }

  // InferSingleChoiceMajority(observations(), n).Truth(task), read from the
  // task's row alone.
  [[nodiscard]] int MajorityTruth(TaskId task, int num_choices) const;
  // Brings `result` from majority voting over the log as of the previous
  // call (empty before the first) to majority voting over the whole log:
  // rewrites the rows of the tasks appended to since, and adds quality 0.5
  // for the workers first seen since.
  void UpdateMajority(int num_choices, InferenceResult* result);

 private:
  friend InferenceResult InferSingleChoiceEm(const ObservationLog& log,
                                             const EmOptions& options);
  using Row = std::vector<std::pair<int, int>>;  // (other side's row, choice)
  // The vote shares of task row `t`.
  std::vector<double> MajorityRow(size_t t, int num_choices) const;

  std::vector<ChoiceObservation> obs_;
  std::unordered_map<TaskId, int> task_row_;  // Rows in first-seen order.
  std::unordered_map<int, int> worker_row_;
  std::vector<TaskId> task_ids_;
  std::vector<int> worker_ids_;
  std::vector<Row> task_answers_;
  std::vector<Row> worker_answers_;
  // UpdateMajority's cursor: task rows grown since it last ran (each once,
  // flagged in task_grown_) and the worker rows it has seen.
  std::vector<int> grown_;
  std::vector<uint8_t> task_grown_;
  size_t majority_workers_ = 0;
};

// Expectation-Maximization over worker qualities + Bayesian voting truths.
// The E-step sums each task's row and the M-step each worker's row in
// observation order, so the result depends on the order of `obs` only
// within each row.
InferenceResult InferSingleChoiceEm(const ObservationLog& log,
                                    const EmOptions& options);
InferenceResult InferSingleChoiceEm(const std::vector<ChoiceObservation>& obs,
                                    const EmOptions& options);

// Majority voting (the baseline): posterior mass split by vote counts,
// worker quality not modeled.
InferenceResult InferSingleChoiceMajority(
    const std::vector<ChoiceObservation>& obs, int num_choices);

// One YesNoCrowd question: the truth reads `payload`, a worker `text`.
struct YesNoQuestion {
  int64_t payload = -1;
  std::string text;
};

// A one-market crowd deciding yes/no questions by majority vote: the
// inference of every comparator and of GROUP BY / ORDER BY. `truth` is a
// perfect worker's answer to the question with that payload.
class YesNoCrowd {
 public:
  YesNoCrowd(const PlatformOptions& market,
             std::function<bool(int64_t payload)> truth);

  // Publishes `questions` as one round of MakeYesNoTask tasks (ids run on
  // across rounds) and decides each by the majority of this round's on-time
  // answers, one vote per (task, worker) and ties to "yes". A question
  // without an on-time answer (a faulty market dead-lettered it) is a "no".
  // The round's late answers and dead letters are dropped. An empty list
  // publishes nothing. A publish error is returned.
  Result<std::vector<bool>> Ask(const std::vector<YesNoQuestion>& questions);

  int64_t tasks() const { return tasks_; }    // Questions asked so far.
  int64_t rounds() const { return rounds_; }  // Rounds published so far.
  PlatformStats stats() const { return publisher_.stats(); }

 private:
  PlatformPublisher publisher_;
  int64_t tasks_ = 0;
  int64_t rounds_ = 0;
};

// Eq. 2 applied directly with known worker qualities; exposed for tests and
// used inside EM's E-step.
std::vector<double> BayesianVote(const std::vector<std::pair<double, int>>&
                                     quality_and_choice,
                                 int num_choices);

// Multi-choice truth: decompose into per-choice yes/no and return the set of
// choices inferred true. `obs` holds the full choice sets.
std::vector<int> InferMultiChoice(const std::vector<Answer>& answers,
                                  int num_choices,
                                  const std::map<int, double>& worker_quality,
                                  double default_quality = 0.7);

// Fill-in-blank pivot: the answer maximizing aggregated similarity to the
// other answers.
std::string InferFillInBlank(const std::vector<Answer>& answers,
                             SimilarityFunction sim_fn);

// Golden-task initialization (Appendix E): workers answer tasks with known
// truth on first contact, and their initial quality is their smoothed
// accuracy on them — (prior_strength * default + correct) /
// (prior_strength + answered). Feed the result into EmOptions::quality_priors.
std::map<int, double> QualityFromGoldenTasks(
    const std::vector<ChoiceObservation>& golden_answers,
    const std::map<TaskId, int>& golden_truths, double default_quality = 0.7,
    double prior_strength = 2.0);

}  // namespace cdb

#endif  // CDB_QUALITY_TRUTH_INFERENCE_H_
