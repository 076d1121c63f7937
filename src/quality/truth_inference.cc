#include "quality/truth_inference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
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

// Observations grouped once per inference call: the distinct task and worker
// ids in ascending order, and each task's (worker row, choice) and each
// worker's (task row, choice) answers as CSR rows, in observation order.
struct DenseAnswers {
  std::vector<TaskId> task_ids;
  std::vector<int> worker_ids;
  std::vector<size_t> task_begin;    // Task t: [task_begin[t], [t + 1]).
  std::vector<std::pair<int, int>> task_answers;
  std::vector<size_t> worker_begin;  // Worker w: [worker_begin[w], [w + 1]).
  std::vector<std::pair<int, int>> worker_answers;
};

// Returns the distinct ids of `obs` (read through `id_of`) in ascending
// order and sets rows[k] to the position of observation k's id among them.
// A hash pass numbers the ids in first-seen order, so only the distinct ids
// are sorted.
template <typename Id, typename IdOf>
std::vector<Id> AssignRows(const std::vector<ChoiceObservation>& obs,
                           IdOf id_of, std::vector<int>* rows) {
  std::unordered_map<Id, int> first_seen;
  std::vector<Id> seen;
  rows->resize(obs.size());
  for (size_t k = 0; k < obs.size(); ++k) {
    const Id id = id_of(obs[k]);
    auto [it, inserted] =
        first_seen.try_emplace(id, static_cast<int>(seen.size()));
    if (inserted) seen.push_back(id);
    (*rows)[k] = it->second;
  }
  std::vector<int> order(seen.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&seen](int a, int b) {
    return seen[static_cast<size_t>(a)] < seen[static_cast<size_t>(b)];
  });
  std::vector<Id> sorted(seen.size());
  std::vector<int> rank(seen.size());
  for (size_t r = 0; r < order.size(); ++r) {
    sorted[r] = seen[static_cast<size_t>(order[r])];
    rank[static_cast<size_t>(order[r])] = static_cast<int>(r);
  }
  for (int& row : *rows) row = rank[static_cast<size_t>(row)];
  return sorted;
}

DenseAnswers GroupDense(const std::vector<ChoiceObservation>& obs) {
  DenseAnswers d;
  std::vector<int> task_row;
  std::vector<int> worker_row;
  d.task_ids = AssignRows<TaskId>(
      obs, [](const ChoiceObservation& o) { return o.task; }, &task_row);
  d.worker_ids = AssignRows<int>(
      obs, [](const ChoiceObservation& o) { return o.worker; }, &worker_row);

  // Count per row, then place each observation at its row's cursor (a
  // stable counting sort).
  d.task_begin.assign(d.task_ids.size() + 1, 0);
  d.worker_begin.assign(d.worker_ids.size() + 1, 0);
  for (size_t k = 0; k < obs.size(); ++k) {
    ++d.task_begin[static_cast<size_t>(task_row[k]) + 1];
    ++d.worker_begin[static_cast<size_t>(worker_row[k]) + 1];
  }
  for (size_t t = 0; t < d.task_ids.size(); ++t) {
    d.task_begin[t + 1] += d.task_begin[t];
  }
  for (size_t w = 0; w < d.worker_ids.size(); ++w) {
    d.worker_begin[w + 1] += d.worker_begin[w];
  }
  d.task_answers.resize(obs.size());
  d.worker_answers.resize(obs.size());
  std::vector<size_t> task_cursor(d.task_begin.begin(), d.task_begin.end() - 1);
  std::vector<size_t> worker_cursor(d.worker_begin.begin(),
                                    d.worker_begin.end() - 1);
  for (size_t k = 0; k < obs.size(); ++k) {
    const int t = task_row[k];
    const int w = worker_row[k];
    const int choice = obs[k].choice;
    d.task_answers[task_cursor[static_cast<size_t>(t)]++] = {w, choice};
    d.worker_answers[worker_cursor[static_cast<size_t>(w)]++] = {t, choice};
  }
  return d;
}

}  // namespace

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
  InferenceResult result;
  if (obs.empty()) return result;
  CDB_CHECK(options.num_choices >= 2);
  const DenseAnswers d = GroupDense(obs);
  const size_t num_tasks = d.task_ids.size();
  const size_t num_workers = d.worker_ids.size();
  const size_t n = static_cast<size_t>(options.num_choices);

  // Initialize qualities from the priors (or the default), indexed like
  // worker_ids.
  std::vector<double> quality(num_workers);
  std::vector<double> prior(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    auto it = options.quality_priors.find(d.worker_ids[w]);
    double q = it != options.quality_priors.end() ? it->second
                                                  : options.initial_quality;
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
            BayesianVoteKernel(d.task_answers.data() + d.task_begin[t],
                               d.task_begin[t + 1] - d.task_begin[t],
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
            for (size_t k = d.worker_begin[w]; k < d.worker_begin[w + 1]; ++k) {
              const auto [row, choice] = d.worker_answers[k];
              expected_correct += posteriors[static_cast<size_t>(row) * n +
                                             static_cast<size_t>(choice)];
            }
            // MAP estimate with a Beta pseudo-count prior centered on the
            // worker's incoming quality.
            double updated =
                (options.prior_strength * prior[w] + expected_correct) /
                (options.prior_strength +
                 static_cast<double>(d.worker_begin[w + 1] -
                                     d.worker_begin[w]));
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
    if (max_delta < options.tolerance) break;
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
    result.posteriors.emplace_hint(
        result.posteriors.end(), d.task_ids[t],
        iterations_run > 0 ? std::vector<double>(first, first + n)
                           : std::vector<double>());
  }
  for (size_t w = 0; w < num_workers; ++w) {
    result.worker_quality.emplace_hint(result.worker_quality.end(),
                                       d.worker_ids[w], quality[w]);
  }
  return result;
}

InferenceResult InferSingleChoiceMajority(
    const std::vector<ChoiceObservation>& obs, int num_choices) {
  InferenceResult result;
  const DenseAnswers d = GroupDense(obs);
  for (size_t t = 0; t < d.task_ids.size(); ++t) {
    std::vector<double> votes(static_cast<size_t>(num_choices), 0.0);
    for (size_t k = d.task_begin[t]; k < d.task_begin[t + 1]; ++k) {
      const int choice = d.task_answers[k].second;
      if (choice >= 0 && choice < num_choices) {
        votes[static_cast<size_t>(choice)] += 1.0;
      }
    }
    double total = 0.0;
    for (double v : votes) total += v;
    if (total > 0) {
      for (double& v : votes) v /= total;
    }
    result.posteriors.emplace_hint(result.posteriors.end(), d.task_ids[t],
                                   std::move(votes));
  }
  for (int worker : d.worker_ids) {
    // Not modeled by majority voting.
    result.worker_quality.emplace_hint(result.worker_quality.end(), worker,
                                       0.5);
  }
  return result;
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
