#include "quality/task_assignment.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cdb {

double Entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

std::vector<double> PosteriorAfterAnswer(const std::vector<double>& prior,
                                         double worker_quality, int answer) {
  const int num_choices = static_cast<int>(prior.size());
  CDB_CHECK(num_choices >= 2);
  CDB_CHECK(answer >= 0 && answer < num_choices);
  double q = std::clamp(worker_quality, 1e-3, 1.0 - 1e-3);
  double wrong = (1.0 - q) / static_cast<double>(num_choices - 1);
  std::vector<double> post(prior.size());
  double norm = 0.0;
  for (int i = 0; i < num_choices; ++i) {
    post[i] = prior[i] * (i == answer ? q : wrong);
    norm += post[i];
  }
  if (norm <= 0.0) return prior;
  for (double& v : post) v /= norm;
  return post;
}

double ExpectedQualityImprovement(const std::vector<double>& prior,
                                  double worker_quality) {
  const int num_choices = static_cast<int>(prior.size());
  CDB_CHECK(num_choices == 0 || num_choices >= 2);
  double q = std::clamp(worker_quality, 1e-3, 1.0 - 1e-3);
  double wrong = (1.0 - q) / static_cast<double>(num_choices - 1);
  double expected_entropy = 0.0;
  for (int i = 0; i < num_choices; ++i) {
    // Probability the worker answers choice i (Eq. 3's mixture term).
    double p_answer = prior[i] * q + (1.0 - prior[i]) * wrong;
    if (p_answer <= 0.0) continue;
    // Entropy(PosteriorAfterAnswer(prior, q, i)) without materializing the
    // posterior: the same products, normalizer and summation order.
    double norm = 0.0;
    for (int j = 0; j < num_choices; ++j) {
      norm += prior[j] * (j == i ? q : wrong);
    }
    double h = 0.0;
    if (norm <= 0.0) {
      h = Entropy(prior);
    } else {
      for (int j = 0; j < num_choices; ++j) {
        double v = prior[j] * (j == i ? q : wrong) / norm;
        if (v > 0.0) h -= v * std::log(v);
      }
    }
    expected_entropy += p_answer * h;
  }
  return Entropy(prior) - expected_entropy;
}

double FillConsistency(const std::vector<Answer>& answers,
                       SimilarityFunction sim_fn) {
  if (answers.size() < 2) return 1.0;
  double total = 0.0;
  int64_t pairs = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    for (size_t j = i + 1; j < answers.size(); ++j) {
      total += ComputeSimilarity(sim_fn, answers[i].text, answers[j].text);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

double CompletenessScore(int64_t distinct_collected, int64_t estimated_total) {
  if (estimated_total <= 0) return 0.0;
  double score = static_cast<double>(estimated_total - distinct_collected) /
                 static_cast<double>(estimated_total);
  return std::clamp(score, 0.0, 1.0);
}

namespace {

// TaskIds at or above this bound are scored without the memo, which keeps
// the flat slot table (4 bytes per id below the largest round id) bounded.
constexpr TaskId kMaxMemoTaskId = TaskId{1} << 24;

}  // namespace

EntropyAssigner::EntropyAssigner(
    std::map<TaskId, std::vector<double>>* posteriors,
    const std::map<int, double>* worker_quality, int num_choices,
    double default_quality)
    : posteriors_(posteriors),
      worker_quality_(worker_quality),
      num_choices_(num_choices),
      default_quality_(default_quality),
      uniform_(static_cast<size_t>(num_choices), 1.0 / num_choices) {}

void EntropyAssigner::BeginRound(const std::vector<Task>& tasks) {
  ++round_;
  for (TaskId id : round_ids_) slot_of_[static_cast<size_t>(id)] = -1;
  round_ids_.clear();
  slot_posterior_.clear();
  for (const Task& task : tasks) {
    if (task.id < 0 || task.id >= kMaxMemoTaskId || SlotOf(task.id) >= 0) {
      continue;
    }
    const size_t id = static_cast<size_t>(task.id);
    if (id >= slot_of_.size()) slot_of_.resize(id + 1, -1);
    slot_of_[id] = static_cast<int32_t>(round_ids_.size());
    round_ids_.push_back(task.id);
    slot_posterior_.push_back(FindPosterior(task.id));
  }
  slot_version_.assign(round_ids_.size(), 1);
}

void EntropyAssigner::Observe(const Answer& answer) {
  std::vector<double>* posterior = nullptr;
  const int32_t slot = SlotOf(answer.task);
  if (slot >= 0) {
    ++slot_version_[static_cast<size_t>(slot)];
    posterior = slot_posterior_[static_cast<size_t>(slot)];
  } else {
    posterior = FindPosterior(answer.task);
  }
  if (posterior == nullptr) return;
  *posterior =
      PosteriorAfterAnswer(*posterior, QualityOf(answer.worker), answer.choice);
}

double EntropyAssigner::QualityOf(int worker) const {
  auto it = worker_quality_->find(worker);
  return it != worker_quality_->end() ? it->second : default_quality_;
}

std::vector<double>* EntropyAssigner::FindPosterior(TaskId task) const {
  auto it = posteriors_->find(task);
  return it != posteriors_->end() ? &it->second : nullptr;
}

const std::vector<double>& EntropyAssigner::ScoredPrior(
    const std::vector<double>* posterior) const {
  return posterior != nullptr && !posterior->empty() ? *posterior : uniform_;
}

std::vector<size_t> EntropyAssigner::operator()(
    const SimulatedWorker& worker, const std::vector<TaskId>& available,
    int count) {
  const double q = QualityOf(worker.id());
  WorkerRow* row = nullptr;
  if (!round_ids_.empty()) {
    row = &rows_[worker.id()];
    if (row->round != round_ || row->quality != q) {
      row->round = round_;
      row->quality = q;
      row->versions.assign(round_ids_.size(), 0);
      row->scores.resize(round_ids_.size());
    }
  }

  scored_.clear();
  scored_.reserve(available.size());
  for (size_t i = 0; i < available.size(); ++i) {
    const int32_t slot = SlotOf(available[i]);
    if (slot < 0) {
      scored_.emplace_back(
          ExpectedQualityImprovement(
              ScoredPrior(FindPosterior(available[i])), q),
          i);
      continue;
    }
    const size_t s = static_cast<size_t>(slot);
    if (row->versions[s] != slot_version_[s]) {
      row->scores[s] =
          ExpectedQualityImprovement(ScoredPrior(slot_posterior_[s]), q);
      row->versions[s] = slot_version_[s];
    }
    scored_.emplace_back(row->scores[s], i);
  }
  size_t k = std::min<size_t>(static_cast<size_t>(count), scored_.size());
  std::partial_sort(scored_.begin(), scored_.begin() + static_cast<int64_t>(k),
                    scored_.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<size_t> picks;
  picks.reserve(k);
  for (size_t i = 0; i < k; ++i) picks.push_back(scored_[i].second);
  return picks;
}

}  // namespace cdb
