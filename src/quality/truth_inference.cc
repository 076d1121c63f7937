#include "quality/truth_inference.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace cdb {

int InferenceResult::Truth(TaskId task) const {
  auto it = posteriors.find(task);
  if (it == posteriors.end() || it->second.empty()) return -1;
  return static_cast<int>(std::max_element(it->second.begin(), it->second.end()) -
                          it->second.begin());
}

double InferenceResult::Confidence(TaskId task) const {
  auto it = posteriors.find(task);
  if (it == posteriors.end() || it->second.empty()) return 0.0;
  return *std::max_element(it->second.begin(), it->second.end());
}

namespace {

// Eq. 2 over one task's answers, in log space for numeric stability on many
// answers: answer k is (row, choice), and rows index the log(q) and
// log(wrong) tables. Writes the normalized distribution to
// out[0, num_choices).
void BayesianVoteKernel(const std::pair<int, int>* answers, size_t count,
                        const double* log_q, const double* log_wrong,
                        int num_choices, double* out) {
  std::fill(out, out + num_choices, 0.0);
  for (size_t k = 0; k < count; ++k) {
    const auto [row, choice] = answers[k];
    for (int i = 0; i < num_choices; ++i) {
      out[i] += i == choice ? log_q[row] : log_wrong[row];
    }
  }
  double max_log = *std::max_element(out, out + num_choices);
  double norm = 0.0;
  for (int i = 0; i < num_choices; ++i) {
    out[i] = std::exp(out[i] - max_log);
    norm += out[i];
  }
  for (int i = 0; i < num_choices; ++i) out[i] /= norm;
}

// Eq. 2's per-answer log-likelihoods for a worker of quality `quality`.
void FillLogTables(double quality, int num_choices, double* log_q,
                   double* log_wrong) {
  double q = std::clamp(quality, 1e-3, 1.0 - 1e-3);
  *log_q = std::log(q);
  *log_wrong = std::log((1.0 - q) / static_cast<double>(num_choices - 1));
}

}  // namespace

ObservationLog::ObservationLog(const std::vector<ChoiceObservation>& obs) {
  for (const ChoiceObservation& o : obs) Append(o);
}

void ObservationLog::Append(const ChoiceObservation& o) {
  auto [task, new_task] =
      task_row_.try_emplace(o.task, static_cast<int>(task_ids_.size()));
  if (new_task) {
    task_ids_.push_back(o.task);
    task_answers_.emplace_back();
    task_grown_.push_back(0);
  }
  auto [worker, new_worker] =
      worker_row_.try_emplace(o.worker, static_cast<int>(worker_ids_.size()));
  if (new_worker) {
    worker_ids_.push_back(o.worker);
    worker_answers_.emplace_back();
  }
  const int t = task->second;
  const int w = worker->second;
  task_answers_[static_cast<size_t>(t)].emplace_back(w, o.choice);
  worker_answers_[static_cast<size_t>(w)].emplace_back(t, o.choice);
  if (!task_grown_[static_cast<size_t>(t)]) {
    task_grown_[static_cast<size_t>(t)] = 1;
    grown_.push_back(t);
  }
  obs_.push_back(o);
}

bool ObservationLog::Contains(TaskId task, int worker) const {
  auto it = task_row_.find(task);
  if (it == task_row_.end()) return false;
  const Row& row = task_answers_[static_cast<size_t>(it->second)];
  for (const auto& [w, choice] : row) {
    if (worker_ids_[static_cast<size_t>(w)] == worker) return true;
  }
  return false;
}

std::vector<double> ObservationLog::MajorityRow(size_t t,
                                                int num_choices) const {
  std::vector<double> votes(static_cast<size_t>(num_choices), 0.0);
  for (const auto& [w, choice] : task_answers_[t]) {
    if (choice >= 0 && choice < num_choices) {
      votes[static_cast<size_t>(choice)] += 1.0;
    }
  }
  double total = 0.0;
  for (double v : votes) total += v;
  if (total > 0) {
    for (double& v : votes) v /= total;
  }
  return votes;
}

int ObservationLog::MajorityTruth(TaskId task, int num_choices) const {
  auto it = task_row_.find(task);
  if (it == task_row_.end() || num_choices <= 0) return -1;
  const std::vector<double> votes =
      MajorityRow(static_cast<size_t>(it->second), num_choices);
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

void ObservationLog::UpdateMajority(int num_choices, InferenceResult* result) {
  for (int t : grown_) {
    result->posteriors[task_ids_[static_cast<size_t>(t)]] =
        MajorityRow(static_cast<size_t>(t), num_choices);
    task_grown_[static_cast<size_t>(t)] = 0;
  }
  grown_.clear();
  // Not modeled by majority voting.
  for (; majority_workers_ < worker_ids_.size(); ++majority_workers_) {
    result->worker_quality[worker_ids_[majority_workers_]] = 0.5;
  }
}

std::vector<double> BayesianVote(
    const std::vector<std::pair<double, int>>& quality_and_choice,
    int num_choices) {
  CDB_CHECK(num_choices >= 2);
  const size_t n = quality_and_choice.size();
  std::vector<double> log_q(n);
  std::vector<double> log_wrong(n);
  std::vector<std::pair<int, int>> answers(n);
  for (size_t k = 0; k < n; ++k) {
    FillLogTables(quality_and_choice[k].first, num_choices, &log_q[k],
                  &log_wrong[k]);
    answers[k] = {static_cast<int>(k), quality_and_choice[k].second};
  }
  std::vector<double> p(static_cast<size_t>(num_choices));
  BayesianVoteKernel(answers.data(), n, log_q.data(), log_wrong.data(),
                     num_choices, p.data());
  return p;
}

InferenceResult InferSingleChoiceEm(const std::vector<ChoiceObservation>& obs,
                                    const EmOptions& options) {
  return InferSingleChoiceEm(ObservationLog(obs), options);
}

InferenceResult InferSingleChoiceEm(const ObservationLog& log,
                                    const EmOptions& options) {
  InferenceResult result;
  if (log.empty()) return result;
  CDB_CHECK(options.num_choices >= 2);
  const size_t num_tasks = log.task_ids_.size();
  const size_t num_workers = log.worker_ids_.size();
  const size_t n = static_cast<size_t>(options.num_choices);

  // Initialize qualities from the priors (or the default), indexed like
  // the log's worker rows.
  std::vector<double> quality(num_workers);
  std::vector<double> prior(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    auto it = options.quality_priors.find(log.worker_ids_[w]);
    double q = kEmInitialQuality;
    if (it != options.quality_priors.end()) q = it->second;
    quality[w] = q;
    prior[w] = q;
  }

  // Task t's posterior over choices is posteriors[t * n, (t + 1) * n).
  std::vector<double> posteriors(num_tasks * n);
  std::vector<double> log_q(num_workers);
  std::vector<double> log_wrong(num_workers);
  std::vector<double> updated_quality(num_workers);
  int iterations_run = 0;
  double last_max_delta = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t w = 0; w < num_workers; ++w) {
      FillLogTables(quality[w], options.num_choices, &log_q[w], &log_wrong[w]);
    }
    // E-step: task posteriors from current qualities (Eq. 2). Tasks are
    // independent given the qualities, so they fan out across the pool.
    ParallelFor(
        0, static_cast<int64_t>(num_tasks), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (size_t t = static_cast<size_t>(begin);
               t < static_cast<size_t>(end); ++t) {
            BayesianVoteKernel(log.task_answers_[t].data(),
                               log.task_answers_[t].size(),
                               log_q.data(), log_wrong.data(),
                               options.num_choices, posteriors.data() + t * n);
          }
        },
        options.num_threads);
    // M-step: worker quality = expected fraction of correct answers. The
    // per-worker sums run in parallel (each walks only its own answers, in
    // observation order); the max_delta reduction stays serial so the
    // convergence test is exactly the single-thread one.
    ParallelFor(
        0, static_cast<int64_t>(num_workers), /*grain=*/64,
        [&](int64_t begin, int64_t end, int /*chunk*/) {
          for (size_t w = static_cast<size_t>(begin);
               w < static_cast<size_t>(end); ++w) {
            double expected_correct = 0.0;
            for (const auto& [row, choice] : log.worker_answers_[w]) {
              expected_correct += posteriors[static_cast<size_t>(row) * n +
                                             static_cast<size_t>(choice)];
            }
            // MAP estimate with a Beta pseudo-count prior centered on the
            // worker's incoming quality.
            const size_t answered = log.worker_answers_[w].size();
            double updated = (kEmPriorStrength * prior[w] + expected_correct) /
                             (kEmPriorStrength + static_cast<double>(answered));
            // Keep qualities interior so Eq. 2 stays well defined.
            updated_quality[w] = std::clamp(updated, 0.05, 0.99);
          }
        },
        options.num_threads);
    double max_delta = 0.0;
    for (size_t w = 0; w < num_workers; ++w) {
      max_delta =
          std::max(max_delta, std::abs(updated_quality[w] - quality[w]));
      quality[w] = updated_quality[w];
    }
    ++iterations_run;
    last_max_delta = max_delta;
    if (max_delta < kEmTolerance) break;
  }
  if (options.metrics != nullptr) {
    MetricsRegistry& reg = *options.metrics;
    reg.counter("quality.em.runs").Increment();
    reg.counter("quality.em.iterations").Increment(iterations_run);
    // Convergence delta in integer micro-units; deterministic because EM is
    // bit-identical across thread counts.
    reg.gauge("quality.em.last_delta_micro")
        .Set(static_cast<int64_t>(std::llround(last_max_delta * 1e6)));
    reg.histogram("quality.em.iterations_per_run").Observe(iterations_run);
  }

  // With no iteration run there is no E-step, so no posterior either.
  for (size_t t = 0; t < num_tasks; ++t) {
    const double* first = posteriors.data() + t * n;
    result.posteriors.emplace(
        log.task_ids_[t], iterations_run > 0
                              ? std::vector<double>(first, first + n)
                              : std::vector<double>());
  }
  for (size_t w = 0; w < num_workers; ++w) {
    result.worker_quality.emplace(log.worker_ids_[w], quality[w]);
  }
  return result;
}

InferenceResult InferSingleChoiceMajority(
    const std::vector<ChoiceObservation>& obs, int num_choices) {
  InferenceResult result;
  ObservationLog(obs).UpdateMajority(num_choices, &result);
  return result;
}

YesNoCrowd::YesNoCrowd(const PlatformOptions& market,
                       std::function<bool(int64_t payload)> truth)
    : publisher_({market}, [truth = std::move(truth)](const Task& task) {
        TaskTruth t;
        t.correct_choice = truth(task.payload) ? 0 : 1;
        return t;
      }) {}

Result<std::vector<bool>> YesNoCrowd::Ask(
    const std::vector<YesNoQuestion>& questions) {
  if (questions.empty()) return std::vector<bool>();
  std::vector<Task> tasks;
  tasks.reserve(questions.size());
  for (const YesNoQuestion& question : questions) {
    tasks.push_back(MakeYesNoTask(tasks_ + static_cast<int64_t>(tasks.size()),
                                  question.payload, question.text));
  }
  CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                       publisher_.Publish(tasks, nullptr, nullptr));
  // Nothing reads the round's late answers or dead letters.
  publisher_.DropDeadLetters();
  (void)publisher_.TakeLateAnswers();
  std::vector<ChoiceObservation> observations;
  observations.reserve(answers.size());
  std::set<std::pair<TaskId, int>> voted;
  for (const Answer& answer : answers) {
    // A duplicated delivery is one vote: dedupe by (task, worker).
    if (!voted.insert({answer.task, answer.worker}).second) continue;
    observations.push_back({answer.task, answer.worker, answer.choice});
  }
  const InferenceResult majority = InferSingleChoiceMajority(observations, 2);
  std::vector<bool> yes;
  yes.reserve(tasks.size());
  for (const Task& task : tasks) yes.push_back(majority.Truth(task.id) == 0);
  tasks_ += static_cast<int64_t>(tasks.size());
  ++rounds_;
  return yes;
}

std::vector<int> InferMultiChoice(const std::vector<Answer>& answers,
                                  int num_choices,
                                  const std::map<int, double>& worker_quality,
                                  double default_quality) {
  // Decompose: choice i is its own yes/no question; worker w voted "yes" iff
  // i is in w's choice set.
  std::vector<int> truth_set;
  for (int i = 0; i < num_choices; ++i) {
    std::vector<std::pair<double, int>> qc;
    for (const Answer& a : answers) {
      auto it = worker_quality.find(a.worker);
      double q = it != worker_quality.end() ? it->second : default_quality;
      bool yes = std::find(a.choice_set.begin(), a.choice_set.end(), i) !=
                 a.choice_set.end();
      qc.emplace_back(q, yes ? 0 : 1);
    }
    std::vector<double> p = BayesianVote(qc, 2);
    if (p[0] > p[1]) truth_set.push_back(i);
  }
  return truth_set;
}

std::map<int, double> QualityFromGoldenTasks(
    const std::vector<ChoiceObservation>& golden_answers,
    const std::map<TaskId, int>& golden_truths, double default_quality,
    double prior_strength) {
  std::map<int, std::pair<double, double>> correct_and_total;
  for (const ChoiceObservation& obs : golden_answers) {
    auto it = golden_truths.find(obs.task);
    if (it == golden_truths.end()) continue;
    auto& [correct, total] = correct_and_total[obs.worker];
    total += 1.0;
    if (obs.choice == it->second) correct += 1.0;
  }
  std::map<int, double> quality;
  for (const auto& [worker, counts] : correct_and_total) {
    double q = (prior_strength * default_quality + counts.first) /
               (prior_strength + counts.second);
    quality[worker] = std::clamp(q, 0.05, 0.99);
  }
  return quality;
}

std::string InferFillInBlank(const std::vector<Answer>& answers,
                             SimilarityFunction sim_fn) {
  if (answers.empty()) return "";
  double best_score = -1.0;
  const std::string* best = nullptr;
  for (const Answer& a : answers) {
    double score = 0.0;
    for (const Answer& b : answers) {
      if (&a == &b) continue;
      score += ComputeSimilarity(sim_fn, a.text, b.text);
    }
    if (score > best_score) {
      best_score = score;
      best = &a.text;
    }
  }
  return *best;
}

}  // namespace cdb
