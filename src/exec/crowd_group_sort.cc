#include "exec/crowd_group_sort.h"

#include <algorithm>
#include <map>

#include "graph/propagation.h"
#include "quality/truth_inference.h"
#include "similarity/sim_join.h"

namespace cdb {

Result<CrowdGroupResult> CrowdGroupBy(const std::vector<std::string>& values,
                                      const CrowdGroupOptions& options,
                                      const GroupTruthFn& truth) {
  CrowdGroupResult result;
  result.group_of.assign(values.size(), -1);
  if (values.empty()) return result;

  // Candidate pairs above epsilon, most-similar first (likely matches merge
  // clusters early, which saves the most downstream questions).
  std::vector<SimPair> similar =
      SimilarityJoin(values, values, options.sim_fn, options.epsilon);
  std::erase_if(similar,
                [](const SimPair& pair) { return pair.left >= pair.right; });
  std::stable_sort(similar.begin(), similar.end(),
                   [](const SimPair& a, const SimPair& b) { return a.sim > b.sim; });
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(similar.size());
  for (const SimPair& pair : similar) pairs.emplace_back(pair.left, pair.right);

  // A question's payload is its pair's index in `pairs`.
  YesNoCrowd crowd(options.platform, [&](int64_t p) {
    const auto [a, b] = pairs[static_cast<size_t>(p)];
    return truth(static_cast<size_t>(a), static_cast<size_t>(b));
  });
  auto ask = [&](const std::vector<size_t>& round) {
    std::vector<YesNoQuestion> questions;
    questions.reserve(round.size());
    for (size_t p : round) {
      questions.push_back(
          {static_cast<int64_t>(p),
           "Do \"" + values[static_cast<size_t>(pairs[p].first)] + "\" and \"" +
               values[static_cast<size_t>(pairs[p].second)] +
               "\" belong to the same group?"});
    }
    return crowd.Ask(questions);
  };
  // A yes merges two clusters; a no records that they differ.
  MatchClusters clusters(static_cast<int>(values.size()));
  CDB_RETURN_IF_ERROR(ResolveByTransitivity(
      &clusters, pairs, /*record_nonmatches=*/true, ask, nullptr));
  result.tasks_asked = crowd.tasks();
  result.rounds = crowd.rounds();

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

  // A question's payload is its merge's index: "does the head of run a come
  // before the head of run b?"
  std::vector<Merge> merges;
  YesNoCrowd crowd(options.platform, [&](int64_t m) {
    const Merge& merge = merges[static_cast<size_t>(m)];
    return truth(merge.a[merge.ia], merge.b[merge.ib]);
  });

  std::vector<std::vector<size_t>> runs(n);
  for (size_t i = 0; i < n; ++i) runs[i] = {i};

  while (runs.size() > 1) {
    merges.clear();
    std::vector<std::vector<size_t>> carry;
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      Merge merge;
      merge.a = std::move(runs[i]);
      merge.b = std::move(runs[i + 1]);
      merges.push_back(std::move(merge));
    }
    if (runs.size() % 2 == 1) carry.push_back(std::move(runs.back()));

    while (true) {
      std::vector<YesNoQuestion> questions;
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
        questions.push_back(
            {static_cast<int64_t>(m), "Does the first item come first?"});
      }
      if (questions.empty()) break;
      CDB_ASSIGN_OR_RETURN(const std::vector<bool> first, crowd.Ask(questions));
      for (size_t q = 0; q < questions.size(); ++q) {
        Merge& merge = merges[static_cast<size_t>(questions[q].payload)];
        if (first[q]) {
          merge.out.push_back(merge.a[merge.ia++]);
        } else {
          merge.out.push_back(merge.b[merge.ib++]);
        }
      }
    }

    runs.clear();
    for (Merge& merge : merges) runs.push_back(std::move(merge.out));
    for (auto& run : carry) runs.push_back(std::move(run));
  }
  result.order = std::move(runs.front());
  result.tasks_asked = crowd.tasks();
  result.rounds = crowd.rounds();
  return result;
}

}  // namespace cdb
