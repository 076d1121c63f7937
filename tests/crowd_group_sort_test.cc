#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "datagen/perturb.h"
#include "exec/crowd_group_sort.h"
#include "tests/test_util.h"

namespace cdb {
namespace {

PlatformOptions Perfect(uint64_t seed = 3) {
  PlatformOptions platform;
  platform.worker_quality_mean = 1.0;
  platform.worker_quality_stddev = 0.0;
  platform.redundancy = 1;
  platform.seed = seed;
  return platform;
}

// Values in the same "entity" (same prefix) truly group together.
std::vector<std::string> GroupValues() {
  return {"University of Chicago", "Univ. of Chicago", "U. of Chicago",
          "Stanford University",   "Stanford Univ.",
          "MIT"};
}

GroupTruthFn PrefixGroupTruth() {
  // Truth by index ranges of GroupValues(): {0,1,2}, {3,4}, {5}.
  return [](size_t a, size_t b) {
    auto group = [](size_t i) { return i <= 2 ? 0 : i <= 4 ? 1 : 2; };
    return group(a) == group(b);
  };
}

TEST(CrowdGroupByTest, RecoversTrueGroups) {
  CrowdGroupOptions options;
  options.platform = Perfect();
  CrowdGroupResult result =
      CrowdGroupBy(GroupValues(), options, PrefixGroupTruth()).value();
  EXPECT_EQ(result.num_groups, 3);
  EXPECT_EQ(result.group_of[0], result.group_of[1]);
  EXPECT_EQ(result.group_of[0], result.group_of[2]);
  EXPECT_EQ(result.group_of[3], result.group_of[4]);
  EXPECT_NE(result.group_of[0], result.group_of[3]);
  EXPECT_NE(result.group_of[0], result.group_of[5]);
  EXPECT_GT(result.tasks_asked, 0);
}

TEST(CrowdGroupByTest, TransitivitySavesTasks) {
  // Three exact duplicates: two matches imply the third by transitivity, so
  // at most C(3,2) - 1 = 2 tasks are asked for that cluster.
  std::vector<std::string> values = {"alpha beta", "alpha beta", "alpha beta"};
  CrowdGroupOptions options;
  options.platform = Perfect();
  CrowdGroupResult result =
      CrowdGroupBy(values, options, [](size_t, size_t) { return true; })
          .value();
  EXPECT_EQ(result.num_groups, 1);
  EXPECT_LE(result.tasks_asked, 2);
}

TEST(CrowdGroupByTest, EpsilonPrunesWithoutAsking) {
  // Dissimilar strings never reach the crowd.
  std::vector<std::string> values = {"aaaaaa", "zzzzzz"};
  CrowdGroupOptions options;
  options.platform = Perfect();
  CrowdGroupResult result =
      CrowdGroupBy(values, options, [](size_t, size_t) { return true; })
          .value();
  EXPECT_EQ(result.tasks_asked, 0);
  EXPECT_EQ(result.num_groups, 2);
}

TEST(CrowdGroupByTest, EmptyInput) {
  CrowdGroupOptions options;
  options.platform = Perfect();
  CrowdGroupResult result =
      CrowdGroupBy({}, options, [](size_t, size_t) { return false; }).value();
  EXPECT_EQ(result.num_groups, 0);
  EXPECT_TRUE(result.group_of.empty());
}

// Forty seeded inputs of 20-60 perturbed variants of six organization
// names, grouped by a 0.75-quality crowd (redundancy 3, epsilon 0.2): wrong
// answers record non-matches inside true groups and defer pairs across
// rounds. One digest covers every result's groups, task count and rounds.
TEST(CrowdGroupByTest, NoisyGroupingDigestHolds) {
  const uint64_t kWant = 0x16698ca5831052aeULL;
  const std::vector<std::string> stems = {
      "University of Chicago",
      "Stanford University",
      "Institute of Computing Technology",
      "Department of Computer Science",
      "University of California Berkeley",
      "National University of Singapore"};
  testing_util::BitDigest digest;
  int64_t tasks = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<std::string> values;
    std::vector<int64_t> stem_of;
    for (int64_t i = rng.UniformInt(20, 60); i > 0; --i) {
      stem_of.push_back(rng.UniformInt(0, 5));
      values.push_back(
          PerturbOrgName(stems[static_cast<size_t>(stem_of.back())], rng));
    }
    CrowdGroupOptions options;
    options.platform.worker_quality_mean = 0.75;
    options.platform.redundancy = 3;
    options.platform.seed = seed;
    options.epsilon = 0.2;
    Result<CrowdGroupResult> result =
        CrowdGroupBy(values, options, [&](size_t a, size_t b) {
          return stem_of[a] == stem_of[b];
        });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int group : result.value().group_of) {
      digest.Add(static_cast<int64_t>(group));
    }
    digest.Add(static_cast<int64_t>(result.value().num_groups));
    digest.Add(result.value().tasks_asked);
    digest.Add(result.value().rounds);
    tasks += result.value().tasks_asked;
  }
  EXPECT_GT(tasks, 0);
  EXPECT_EQ(digest.value(), kWant);
}

// A fault profile the platform refuses (abandons without a task deadline)
// fails the first publish; both operators return its error instead of
// aborting.
TEST(CrowdGroupSortTest, PublishErrorIsReturned) {
  PlatformOptions refused = Perfect();
  refused.fault.abandon_prob = 0.1;
  refused.fault.task_deadline_ticks = 0;
  CrowdGroupOptions group_options;
  group_options.platform = refused;
  EXPECT_EQ(CrowdGroupBy(GroupValues(), group_options, PrefixGroupTruth())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  CrowdSortOptions sort_options;
  sort_options.platform = refused;
  EXPECT_EQ(CrowdOrderBy(4, sort_options, [](size_t a, size_t b) {
              return a < b;
            }).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CrowdOrderByTest, SortsPerfectly) {
  // True order: by the hidden key i*7 % 11.
  std::vector<int> key = {0, 7, 3, 10, 6, 2, 9, 5, 1, 8};
  CrowdSortOptions options;
  options.platform = Perfect();
  CrowdSortResult result =
      CrowdOrderBy(key.size(), options,
                   [&](size_t a, size_t b) { return key[a] < key[b]; })
          .value();
  ASSERT_EQ(result.order.size(), key.size());
  for (size_t i = 1; i < result.order.size(); ++i) {
    EXPECT_LT(key[result.order[i - 1]], key[result.order[i]]);
  }
  EXPECT_GT(result.tasks_asked, 0);
}

TEST(CrowdOrderByTest, TaskCountIsMergeSortLike) {
  const size_t n = 16;
  CrowdSortOptions options;
  options.platform = Perfect();
  CrowdSortResult result =
      CrowdOrderBy(n, options, [](size_t a, size_t b) { return a < b; })
          .value();
  // Merge sort asks at most n*log2(n) comparisons and at least n-1.
  EXPECT_GE(result.tasks_asked, static_cast<int64_t>(n - 1));
  EXPECT_LE(result.tasks_asked, static_cast<int64_t>(n) * 4);
}

TEST(CrowdOrderByTest, BatchesComparisonsAcrossMerges) {
  // With many parallel merges, rounds grow ~linearly in n (merge cursors are
  // sequential) but stay well below the total comparison count.
  const size_t n = 32;
  CrowdSortOptions options;
  options.platform = Perfect();
  CrowdSortResult result =
      CrowdOrderBy(n, options, [](size_t a, size_t b) { return a < b; })
          .value();
  EXPECT_LT(result.rounds, result.tasks_asked);
}

TEST(CrowdOrderByTest, SmallInputs) {
  CrowdSortOptions options;
  options.platform = Perfect();
  EXPECT_TRUE(CrowdOrderBy(0, options, [](size_t, size_t) { return true; })
                  .value()
                  .order.empty());
  CrowdSortResult one =
      CrowdOrderBy(1, options, [](size_t, size_t) { return true; }).value();
  ASSERT_EQ(one.order.size(), 1u);
  EXPECT_EQ(one.tasks_asked, 0);
}

TEST(CrowdOrderByTest, NoisyCrowdStillPermutation) {
  std::vector<int> key(20);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<int>(i * 13 % 20);
  CrowdSortOptions options;
  options.platform.worker_quality_mean = 0.7;
  options.platform.redundancy = 3;
  CrowdSortResult result =
      CrowdOrderBy(key.size(), options,
                   [&](size_t a, size_t b) { return key[a] < key[b]; })
          .value();
  std::set<size_t> seen(result.order.begin(), result.order.end());
  EXPECT_EQ(seen.size(), key.size());  // A permutation even with errors.
}

// Forty seeded inputs of 2-60 random keys, sorted by a 0.75-quality crowd
// (redundancy 3): wrong answers misplace items and every merge level takes
// several rounds. One digest covers every result's order, task count and
// rounds.
TEST(CrowdOrderByTest, NoisyOrderDigestHolds) {
  const uint64_t kWant = 0xdbef4935b17b080fULL;
  testing_util::BitDigest digest;
  int64_t tasks = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<int64_t> key;
    for (int64_t i = rng.UniformInt(2, 60); i > 0; --i) {
      key.push_back(rng.UniformInt(0, 999));
    }
    CrowdSortOptions options;
    options.platform.worker_quality_mean = 0.75;
    options.platform.redundancy = 3;
    options.platform.seed = seed;
    Result<CrowdSortResult> result =
        CrowdOrderBy(key.size(), options,
                     [&](size_t a, size_t b) { return key[a] < key[b]; });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    digest.Add(static_cast<int64_t>(result.value().order.size()));
    for (size_t i : result.value().order) {
      digest.Add(static_cast<int64_t>(i));
    }
    digest.Add(result.value().tasks_asked);
    digest.Add(result.value().rounds);
    tasks += result.value().tasks_asked;
  }
  EXPECT_GT(tasks, 0);
  EXPECT_EQ(digest.value(), kWant);
}

}  // namespace
}  // namespace cdb
