#include "crowd/task.h"

#include <utility>

namespace cdb {

const char* TaskTypeName(TaskType type) {
  switch (type) {
    case TaskType::kSingleChoice:
      return "single-choice";
    case TaskType::kMultiChoice:
      return "multi-choice";
    case TaskType::kFillInBlank:
      return "fill-in-blank";
    case TaskType::kCollection:
      return "collection";
  }
  return "?";
}

Task MakeYesNoTask(TaskId id, int64_t payload, std::string question) {
  Task task;
  task.id = id;
  task.type = TaskType::kSingleChoice;
  task.question = std::move(question);
  task.choices = {"yes", "no"};
  task.payload = payload;
  return task;
}

Task MakeEdgeTask(TaskId id, int64_t edge, const std::string& left_value,
                  const std::string& right_value) {
  return MakeYesNoTask(id, edge,
                       "Do \"" + left_value + "\" and \"" + right_value +
                           "\" refer to the same thing?");
}

}  // namespace cdb
