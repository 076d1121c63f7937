#include "bench_util/metrics.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"

namespace cdb {
namespace {

// Entity vector for the column a resolved predicate side references, or null
// when the dataset records no entities for it.
const std::vector<int64_t>* ColumnEntities(const GeneratedDataset& dataset,
                                           const ResolvedQuery& query, int rel,
                                           size_t col) {
  const Table* table = query.tables[rel];
  auto it = dataset.entity_of.find(GeneratedDataset::ColumnKey(
      table->name(), table->schema().column(col).name));
  return it == dataset.entity_of.end() ? nullptr : &it->second;
}

// As above, but the column must have entities.
const std::vector<int64_t>& RequireEntities(const GeneratedDataset& dataset,
                                            const ResolvedQuery& query,
                                            int rel, size_t col) {
  const std::vector<int64_t>* entities =
      ColumnEntities(dataset, query, rel, col);
  CDB_CHECK_MSG(entities != nullptr, "unknown entity column");
  return *entities;
}

}  // namespace

PrecisionRecall ComputeF1(const std::vector<QueryAnswer>& returned,
                          const std::vector<QueryAnswer>& truth) {
  PrecisionRecall out;
  out.returned = static_cast<int64_t>(returned.size());
  out.truth = static_cast<int64_t>(truth.size());
  // Both inputs are sorted-unique by construction; intersect.
  size_t i = 0;
  size_t j = 0;
  while (i < returned.size() && j < truth.size()) {
    if (returned[i] < truth[j]) {
      ++i;
    } else if (truth[j] < returned[i]) {
      ++j;
    } else {
      ++out.correct;
      ++i;
      ++j;
    }
  }
  out.precision = out.returned > 0
                      ? static_cast<double>(out.correct) / static_cast<double>(out.returned)
                      : 0.0;
  out.recall = out.truth > 0
                   ? static_cast<double>(out.correct) / static_cast<double>(out.truth)
                   : 0.0;
  out.f1 = (out.precision + out.recall) > 0
               ? 2.0 * out.precision * out.recall / (out.precision + out.recall)
               : 0.0;
  return out;
}

std::vector<QueryAnswer> TrueAnswers(const GeneratedDataset& dataset,
                                     const ResolvedQuery& query) {
  const int num_tables = static_cast<int>(query.tables.size());

  // Row candidates per relation after selection predicates.
  std::vector<std::vector<int64_t>> rows(num_tables);
  for (int rel = 0; rel < num_tables; ++rel) {
    size_t n = query.tables[rel]->num_rows();
    rows[rel].reserve(n);
    for (size_t r = 0; r < n; ++r) rows[rel].push_back(static_cast<int64_t>(r));
  }
  for (const ResolvedSelection& sel : query.selections) {
    const std::vector<int64_t>& entities =
        RequireEntities(dataset, query, sel.rel, sel.col);
    const Table* table = query.tables[sel.rel];
    int64_t target =
        dataset.ConstantEntity(table->name(),
                               table->schema().column(sel.col).name, sel.value);
    std::vector<int64_t> filtered;
    for (int64_t r : rows[sel.rel]) {
      if (target != kNoEntity && entities[static_cast<size_t>(r)] == target) {
        filtered.push_back(r);
      }
    }
    rows[sel.rel] = std::move(filtered);
  }

  // BFS relation order over join predicates.
  std::vector<int> order = {0};
  std::vector<bool> placed(num_tables, false);
  placed[0] = true;
  std::vector<std::vector<int>> back_joins(num_tables);
  for (size_t head = 0; head < order.size(); ++head) {
    for (size_t j = 0; j < query.joins.size(); ++j) {
      const ResolvedJoin& join = query.joins[j];
      int a = join.left_rel;
      int b = join.right_rel;
      if (placed[a] && !placed[b]) {
        placed[b] = true;
        order.push_back(b);
      } else if (placed[b] && !placed[a]) {
        placed[a] = true;
        order.push_back(a);
      }
    }
    if (order.size() == static_cast<size_t>(num_tables)) break;
  }
  std::vector<int> position(num_tables, -1);
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
  // The joins checked at each depth, with the entity vectors of the side
  // placed there (`mine`) and of the side placed earlier (`theirs`).
  struct JoinCheck {
    int other = 0;
    const std::vector<int64_t>* mine = nullptr;
    const std::vector<int64_t>* theirs = nullptr;
  };
  std::vector<std::vector<JoinCheck>> joins_at(order.size());
  for (const ResolvedJoin& join : query.joins) {
    int later = std::max(position[join.left_rel], position[join.right_rel]);
    const int rel = order[static_cast<size_t>(later)];
    const bool left_is_rel = join.left_rel == rel;
    JoinCheck check;
    check.other = left_is_rel ? join.right_rel : join.left_rel;
    check.mine = &RequireEntities(dataset, query, rel,
                                  left_is_rel ? join.left_col : join.right_col);
    check.theirs =
        &RequireEntities(dataset, query, check.other,
                         left_is_rel ? join.right_col : join.left_col);
    joins_at[static_cast<size_t>(later)].push_back(check);
  }

  // Backtracking with entity hash indexes per (relation, column).
  std::vector<QueryAnswer> answers;
  std::vector<int64_t> assignment(num_tables, -1);
  std::function<void(size_t)> recurse = [&](size_t depth) {
    if (depth == order.size()) {
      QueryAnswer answer;
      answer.rows.assign(assignment.begin(), assignment.end());
      answers.push_back(std::move(answer));
      return;
    }
    int rel = order[depth];
    for (int64_t r : rows[rel]) {
      bool ok = true;
      for (const JoinCheck& join : joins_at[depth]) {
        int64_t mine = (*join.mine)[static_cast<size_t>(r)];
        int64_t theirs =
            (*join.theirs)[static_cast<size_t>(assignment[join.other])];
        if (mine == kNoEntity || mine != theirs) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      assignment[rel] = r;
      recurse(depth + 1);
      assignment[rel] = -1;
    }
  };
  recurse(0);
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

EdgeTruthFn MakeEdgeTruth(const GeneratedDataset* dataset,
                          const ResolvedQuery* query) {
  // Resolved here once rather than on every lease: per predicate, the entity
  // vector of each side and a selection's constant entity. A side without
  // entities stays null and aborts only if an edge of its predicate is asked.
  struct PredicateTruth {
    const std::vector<int64_t>* left = nullptr;
    const std::vector<int64_t>* right = nullptr;  // Joins only.
    int64_t constant = kNoEntity;                 // Selections only.
  };
  std::vector<PredicateTruth> preds;
  for (const ResolvedJoin& join : query->joins) {
    PredicateTruth pred;
    pred.left = ColumnEntities(*dataset, *query, join.left_rel, join.left_col);
    pred.right =
        ColumnEntities(*dataset, *query, join.right_rel, join.right_col);
    preds.push_back(pred);
  }
  for (const ResolvedSelection& sel : query->selections) {
    const Table* table = query->tables[sel.rel];
    PredicateTruth pred;
    pred.left = ColumnEntities(*dataset, *query, sel.rel, sel.col);
    pred.constant = dataset->ConstantEntity(
        table->name(), table->schema().column(sel.col).name, sel.value);
    preds.push_back(pred);
  }
  const size_t num_joins = query->joins.size();
  return [preds = std::move(preds), num_joins](const QueryGraph& graph,
                                               EdgeId e) -> bool {
    const GraphEdge& edge = graph.edge(e);
    const size_t p = static_cast<size_t>(edge.pred);
    const PredicateTruth& pred = preds[p];
    const bool is_join = p < num_joins;
    CDB_CHECK_MSG(pred.left != nullptr && (!is_join || pred.right != nullptr),
                  "unknown entity column");
    int64_t a = (*pred.left)[static_cast<size_t>(graph.vertex(edge.u).row)];
    if (is_join) {
      int64_t b = (*pred.right)[static_cast<size_t>(graph.vertex(edge.v).row)];
      return a != kNoEntity && a == b;
    }
    return pred.constant != kNoEntity && a == pred.constant;
  };
}

}  // namespace cdb
