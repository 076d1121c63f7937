#include "exec/crowd_group_sort.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "common/logging.h"
#include "exec/session.h"
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

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int Find(int x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

CrowdGroupResult CrowdGroupBy(const std::vector<std::string>& values,
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

  // Tasks are identified by their index in `pairs`. All rounds go through
  // the session publish path.
  PlatformPublisher publisher({options.platform}, [&](const Task& task) {
    const SimPair& pair = pairs[static_cast<size_t>(task.payload)];
    TaskTruth t;
    t.correct_choice = truth(static_cast<size_t>(pair.left),
                             static_cast<size_t>(pair.right))
                           ? 0
                           : 1;
    return t;
  });

  UnionFind clusters(values.size());
  std::vector<std::pair<int, int>> non_matches;
  size_t next = 0;
  std::vector<SimPair> remaining = pairs;
  while (next < remaining.size()) {
    // One round: skip inferable pairs; batch at most one open question per
    // cluster so this round's merges can infer the deferred pairs.
    std::vector<size_t> batch;           // Indexes into `pairs`.
    std::vector<SimPair> deferred;
    std::unordered_set<int> clusters_in_batch;
    for (size_t i = next; i < remaining.size(); ++i) {
      const SimPair& pair = remaining[i];
      int ra = clusters.Find(pair.left);
      int rb = clusters.Find(pair.right);
      if (ra == rb) continue;  // Inferred match (transitivity).
      bool known_non_match = false;
      for (const auto& [x, y] : non_matches) {
        int rx = clusters.Find(x);
        int ry = clusters.Find(y);
        if ((rx == ra && ry == rb) || (rx == rb && ry == ra)) {
          known_non_match = true;
          break;
        }
      }
      if (known_non_match) continue;
      if (clusters_in_batch.count(ra) > 0 || clusters_in_batch.count(rb) > 0) {
        deferred.push_back(pair);
        continue;
      }
      clusters_in_batch.insert(ra);
      clusters_in_batch.insert(rb);
      // Recover the original index for the truth callback.
      batch.push_back(static_cast<size_t>(&pair - remaining.data()));
    }
    if (batch.empty()) break;

    std::vector<Task> tasks;
    std::vector<SimPair> batch_pairs;
    tasks.reserve(batch.size());
    for (size_t bi : batch) {
      const SimPair& pair = remaining[bi];
      // Find the pair's index in the original vector for stable task ids.
      Task task;
      task.id = static_cast<TaskId>(result.tasks_asked + static_cast<int64_t>(tasks.size()));
      task.type = TaskType::kSingleChoice;
      task.question = "Do \"" + values[static_cast<size_t>(pair.left)] +
                      "\" and \"" + values[static_cast<size_t>(pair.right)] +
                      "\" belong to the same group?";
      task.choices = {"yes", "no"};
      // payload must index into `pairs` for the truth provider: locate it.
      task.payload = -1;
      for (size_t pi = 0; pi < pairs.size(); ++pi) {
        if (pairs[pi].left == pair.left && pairs[pi].right == pair.right) {
          task.payload = static_cast<int64_t>(pi);
          break;
        }
      }
      CDB_CHECK(task.payload >= 0);
      batch_pairs.push_back(pair);
      tasks.push_back(std::move(task));
    }
    InferenceResult majority =
        MajorityPerRound(publisher.Publish(tasks, nullptr, nullptr).value());
    for (size_t t = 0; t < tasks.size(); ++t) {
      const SimPair& pair = batch_pairs[t];
      if (majority.Truth(tasks[t].id) == 0) {
        clusters.Union(pair.left, pair.right);
      } else {
        non_matches.push_back({pair.left, pair.right});
      }
    }
    result.tasks_asked += static_cast<int64_t>(tasks.size());
    ++result.rounds;
    remaining = deferred;
    next = 0;
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

CrowdSortResult CrowdOrderBy(size_t n, const CrowdSortOptions& options,
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
      InferenceResult majority =
          MajorityPerRound(publisher.Publish(tasks, nullptr, nullptr).value());
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
