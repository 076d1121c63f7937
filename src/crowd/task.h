// Crowd task model. CDB's Crowd UI Designer supports four task types
// (Section 2.1): single-choice, multiple-choice, fill-in-the-blank and
// collection. Query edges (join/selection checks) become single-choice
// yes/no tasks; FILL becomes fill-in-the-blank; COLLECT becomes collection.
#ifndef CDB_CROWD_TASK_H_
#define CDB_CROWD_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cdb {

enum class TaskType : uint8_t {
  kSingleChoice,
  kMultiChoice,
  kFillInBlank,
  kCollection,
};

const char* TaskTypeName(TaskType type);

using TaskId = int64_t;

struct Task {
  TaskId id = -1;
  TaskType type = TaskType::kSingleChoice;
  std::string question;
  std::vector<std::string> choices;  // Choice tasks only.
  int64_t payload = -1;  // Caller-defined link (e.g. the EdgeId of a query edge).
  // Per-task redundancy override for requester-side reposts: when > 0 the
  // platform collects this many answers instead of PlatformOptions.redundancy
  // (still capped by the worker-pool size). 0 keeps the platform default.
  int redundancy_override = 0;
  // Which session/batch the task came from when rounds are merged across
  // queries (MultiQueryScheduler): a HIT whose tasks carry more than one tag
  // is a shared HIT (counted in PlatformStats::shared_hits). -1 = untagged.
  int batch_tag = -1;
};

// One worker's answer to one task. Only the field matching the task type is
// meaningful.
struct Answer {
  TaskId task = -1;
  int worker = -1;
  int choice = -1;                 // Single-choice.
  std::vector<int> choice_set;     // Multi-choice.
  std::string text;                // Fill-in-blank / collection.
  // Simulated-platform delivery metadata (fault layer): the virtual tick the
  // answer arrived at, and whether it arrived after its lease expired or its
  // task was already resolved (a "late" answer, delivered out of band via
  // CrowdPlatform::TakeLateAnswers instead of the round result).
  int64_t tick = 0;
  bool late = false;
};

// The simulator's ground truth for one task: what a perfectly accurate
// worker would answer.
struct TaskTruth {
  int correct_choice = -1;
  std::vector<int> correct_choice_set;
  std::string correct_text;
  // Plausible wrong answers for open tasks; a failing worker picks one.
  std::vector<std::string> wrong_text_pool;
};

// Builds a single-choice yes/no task (choice 0 "yes", 1 "no"): the shape of
// every question the system asks the crowd about an edge, golden or pair.
Task MakeYesNoTask(TaskId id, int64_t payload, std::string question);

// Builds the yes/no task for a query edge.
Task MakeEdgeTask(TaskId id, int64_t edge, const std::string& left_value,
                  const std::string& right_value);

}  // namespace cdb

#endif  // CDB_CROWD_TASK_H_
