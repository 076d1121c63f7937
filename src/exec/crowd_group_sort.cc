#include "exec/crowd_group_sort.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_set>

#include "graph/propagation.h"
#include "quality/truth_inference.h"
#include "similarity/sim_join.h"

namespace cdb {
namespace {

// Majority truth per task from one round of answers, via the shared
// truth-inference module (ties resolve to choice 0, "yes"/"first").
InferenceResult MajorityPerRound(const std::vector<Answer>& answers) {
  std::vector<ChoiceObservation> obs;
  obs.reserve(answers.size());
  for (const Answer& answer : answers) {
    obs.push_back({answer.task, answer.worker, answer.choice});
  }
  return InferSingleChoiceMajority(obs, 2);
}

}  // namespace

Result<CrowdGroupResult> CrowdGroupBy(const std::vector<std::string>& values,
                                      const CrowdGroupOptions& options,
                                      const GroupTruthFn& truth) {
  CrowdGroupResult result;
  result.group_of.assign(values.size(), -1);
  if (values.empty()) return result;

  // Candidate pairs above epsilon, most-similar first (likely matches merge
  // clusters early, which saves the most downstream questions).
  std::vector<SimPair> raw =
      SimilarityJoin(values, values, options.sim_fn, options.epsilon);
  std::vector<SimPair> pairs;
  for (const SimPair& pair : raw) {
    if (pair.left < pair.right) pairs.push_back(pair);
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const SimPair& a, const SimPair& b) { return a.sim > b.sim; });

  // A task's payload is its pair's index in `pairs`.
  PlatformPublisher publisher({options.platform}, [&](const Task& task) {
    const SimPair& pair = pairs[static_cast<size_t>(task.payload)];
    TaskTruth t;
    t.correct_choice = truth(static_cast<size_t>(pair.left),
                             static_cast<size_t>(pair.right))
                           ? 0
                           : 1;
    return t;
  });

  // A yes merges two clusters; a no records that they differ. Within a
  // round each cluster is in at most one asked pair, so no merge ever meets
  // a recorded non-match.
  MatchClusters clusters(static_cast<int>(values.size()));
  std::vector<size_t> remaining(pairs.size());
  std::iota(remaining.begin(), remaining.end(), size_t{0});
  while (!remaining.empty()) {
    // One round: skip inferable pairs; batch at most one open question per
    // cluster so this round's merges can infer the deferred pairs.
    std::vector<Task> tasks;
    std::vector<size_t> deferred;
    std::unordered_set<int> clusters_in_batch;
    for (size_t p : remaining) {
      const SimPair& pair = pairs[p];
      // Inferred by transitivity, or by anti-transitivity.
      if (clusters.SameCluster(pair.left, pair.right) ||
          clusters.KnownNonMatch(pair.left, pair.right)) {
        continue;
      }
      const int ra = clusters.Find(pair.left);
      const int rb = clusters.Find(pair.right);
      if (clusters_in_batch.count(ra) > 0 || clusters_in_batch.count(rb) > 0) {
        deferred.push_back(p);
        continue;
      }
      clusters_in_batch.insert({ra, rb});
      Task task;
      task.id = static_cast<TaskId>(result.tasks_asked +
                                    static_cast<int64_t>(tasks.size()));
      task.type = TaskType::kSingleChoice;
      task.question = "Do \"" + values[static_cast<size_t>(pair.left)] +
                      "\" and \"" + values[static_cast<size_t>(pair.right)] +
                      "\" belong to the same group?";
      task.choices = {"yes", "no"};
      task.payload = static_cast<int64_t>(p);
      tasks.push_back(std::move(task));
    }
    if (tasks.empty()) break;

    CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                         publisher.Publish(tasks, nullptr, nullptr));
    InferenceResult majority = MajorityPerRound(answers);
    for (const Task& task : tasks) {
      const SimPair& pair = pairs[static_cast<size_t>(task.payload)];
      if (majority.Truth(task.id) == 0) {
        clusters.Union(pair.left, pair.right);
      } else {
        clusters.AddNonMatch(pair.left, pair.right);
      }
    }
    result.tasks_asked += static_cast<int64_t>(tasks.size());
    ++result.rounds;
    remaining = std::move(deferred);
  }

  // Densify cluster ids.
  std::map<int, int> dense;
  for (size_t i = 0; i < values.size(); ++i) {
    int root = clusters.Find(static_cast<int>(i));
    auto [it, inserted] = dense.try_emplace(root, result.num_groups);
    if (inserted) ++result.num_groups;
    result.group_of[i] = it->second;
  }
  return result;
}

Result<CrowdSortResult> CrowdOrderBy(size_t n, const CrowdSortOptions& options,
                                     const OrderTruthFn& truth) {
  CrowdSortResult result;
  if (n == 0) return result;

  // Merge state: two runs plus cursors; comparisons are asked one per merge
  // per round (within a merge they are inherently sequential), all merges in
  // parallel.
  struct Merge {
    std::vector<size_t> a;
    std::vector<size_t> b;
    size_t ia = 0;
    size_t ib = 0;
    std::vector<size_t> out;
    bool Done() const { return ia >= a.size() && ib >= b.size(); }
  };

  // Tasks carry (a_element, b_element) encoded in the payload.
  struct PendingComparison {
    size_t merge_index;
    size_t left;
    size_t right;
  };
  std::vector<PendingComparison> pending;
  PlatformPublisher publisher({options.platform}, [&](const Task& task) {
    const PendingComparison& cmp = pending[static_cast<size_t>(task.payload)];
    TaskTruth t;
    t.correct_choice = truth(cmp.left, cmp.right) ? 0 : 1;
    return t;
  });

  std::vector<std::vector<size_t>> runs(n);
  for (size_t i = 0; i < n; ++i) runs[i] = {i};

  while (runs.size() > 1) {
    std::vector<Merge> merges;
    std::vector<std::vector<size_t>> carry;
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      Merge merge;
      merge.a = std::move(runs[i]);
      merge.b = std::move(runs[i + 1]);
      merges.push_back(std::move(merge));
    }
    if (runs.size() % 2 == 1) carry.push_back(std::move(runs.back()));

    while (true) {
      pending.clear();
      std::vector<Task> tasks;
      for (size_t m = 0; m < merges.size(); ++m) {
        Merge& merge = merges[m];
        // Drain exhausted sides without crowd help.
        while (merge.ia < merge.a.size() && merge.ib >= merge.b.size()) {
          merge.out.push_back(merge.a[merge.ia++]);
        }
        while (merge.ib < merge.b.size() && merge.ia >= merge.a.size()) {
          merge.out.push_back(merge.b[merge.ib++]);
        }
        if (merge.Done()) continue;
        Task task;
        task.id = static_cast<TaskId>(result.tasks_asked +
                                      static_cast<int64_t>(tasks.size()));
        task.type = TaskType::kSingleChoice;
        task.question = "Which item comes first?";
        task.choices = {"first", "second"};
        task.payload = static_cast<int64_t>(pending.size());
        pending.push_back({m, merge.a[merge.ia], merge.b[merge.ib]});
        tasks.push_back(std::move(task));
      }
      if (tasks.empty()) break;
      CDB_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                           publisher.Publish(tasks, nullptr, nullptr));
      InferenceResult majority = MajorityPerRound(answers);
      for (size_t t = 0; t < tasks.size(); ++t) {
        const PendingComparison& cmp = pending[static_cast<size_t>(tasks[t].payload)];
        Merge& merge = merges[cmp.merge_index];
        if (majority.Truth(tasks[t].id) == 0) {
          merge.out.push_back(merge.a[merge.ia++]);
        } else {
          merge.out.push_back(merge.b[merge.ib++]);
        }
      }
      result.tasks_asked += static_cast<int64_t>(tasks.size());
      ++result.rounds;
    }

    runs.clear();
    for (Merge& merge : merges) runs.push_back(std::move(merge.out));
    for (auto& run : carry) runs.push_back(std::move(run));
  }
  result.order = std::move(runs.front());
  return result;
}

}  // namespace cdb
