#include "exec/database.h"

#include <algorithm>

#include "common/string_util.h"
#include "cql/parser.h"

namespace cdb {
namespace {

// Adapts a CrowdOracle to the executor's edge-truth callback for one query.
EdgeTruthFn OracleEdgeTruth(const CrowdOracle* oracle,
                            const ResolvedQuery* query) {
  return [oracle, query](const QueryGraph& graph, EdgeId e) -> bool {
    const GraphEdge& edge = graph.edge(e);
    const int p = edge.pred;
    if (p < static_cast<int>(query->joins.size())) {
      const ResolvedJoin& join = query->joins[static_cast<size_t>(p)];
      const Table* lt = query->tables[join.left_rel];
      const Table* rt = query->tables[join.right_rel];
      return oracle->JoinMatches(
          lt->name(), lt->schema().column(join.left_col).name,
          graph.vertex(edge.u).row, rt->name(),
          rt->schema().column(join.right_col).name, graph.vertex(edge.v).row);
    }
    const ResolvedSelection& sel =
        query->selections[static_cast<size_t>(p) - query->joins.size()];
    const Table* table = query->tables[sel.rel];
    return oracle->SelectionMatches(table->name(),
                                    table->schema().column(sel.col).name,
                                    graph.vertex(edge.u).row, sel.value);
  };
}

// Matches a row against FILL/COLLECT WHERE predicates (constant selections
// on already-present values; crowd selections are not supported there).
Result<bool> RowMatches(const Table& table, size_t row,
                        const std::vector<AstPredicate>& predicates) {
  for (const AstPredicate& pred : predicates) {
    if (pred.kind != PredicateKind::kEqualConst) {
      return Status::Unimplemented(
          "FILL/COLLECT WHERE supports only '=' constant predicates");
    }
    CDB_ASSIGN_OR_RETURN(size_t col, table.schema().FindColumn(pred.left.column));
    const Value& cell = table.row(row)[col];
    if (!cell.SqlEquals(Value::Str(pred.constant))) return false;
  }
  return true;
}

}  // namespace

Result<StatementResult> Database::Execute(const std::string& cql) {
  CDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(cql));
  if (const auto* create = std::get_if<CreateTableStatement>(&stmt)) {
    CDB_RETURN_IF_ERROR(ApplyCreateTable(*create, catalog_));
    return StatementResult{};
  }
  if (const auto* select = std::get_if<SelectStatement>(&stmt)) {
    return RunSelect(*select);
  }
  if (const auto* fill = std::get_if<FillStatement>(&stmt)) {
    return RunFillStatement(*fill);
  }
  return RunCollectStatement(std::get<CollectStatement>(stmt));
}

Result<StatementResult> Database::ExecuteScript(const std::string& cql) {
  CDB_ASSIGN_OR_RETURN(std::vector<Statement> script, ParseScript(cql));
  if (script.empty()) return Status::InvalidArgument("empty script");
  StatementResult last;
  for (const Statement& stmt : script) {
    // Re-dispatch through Execute-like logic without reparsing.
    if (const auto* create = std::get_if<CreateTableStatement>(&stmt)) {
      CDB_RETURN_IF_ERROR(ApplyCreateTable(*create, catalog_));
      last = StatementResult{};
    } else if (const auto* select = std::get_if<SelectStatement>(&stmt)) {
      CDB_ASSIGN_OR_RETURN(last, RunSelect(*select));
    } else if (const auto* fill = std::get_if<FillStatement>(&stmt)) {
      CDB_ASSIGN_OR_RETURN(last, RunFillStatement(*fill));
    } else {
      CDB_ASSIGN_OR_RETURN(last,
                           RunCollectStatement(std::get<CollectStatement>(stmt)));
    }
  }
  return last;
}

Result<StatementResult> Database::RunSelect(const SelectStatement& stmt) {
  CDB_ASSIGN_OR_RETURN(ResolvedQuery query, AnalyzeSelect(stmt, catalog_));
  ExecutorOptions executor_options = options_.executor;
  if (query.budget) executor_options.budget = query.budget;
  EdgeTruthFn truth = OracleEdgeTruth(oracle_, &query);
  QuerySession session(&query, executor_options, truth);
  CDB_ASSIGN_OR_RETURN(ExecutionResult run, session.RunToCompletion());

  StatementResult result;
  result.stats = run.stats;
  for (const QueryAnswer& answer : run.answers) {
    ResultRow row;
    if (query.select_star) {
      for (size_t rel = 0; rel < query.tables.size(); ++rel) {
        const Row& source =
            query.tables[rel]->row(static_cast<size_t>(answer.rows[rel]));
        row.values.insert(row.values.end(), source.begin(), source.end());
      }
    } else {
      for (const ResolvedProjection& proj : query.projections) {
        row.values.push_back(
            query.tables[proj.rel]->row(static_cast<size_t>(answer.rows[proj.rel]))
                [proj.col]);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

Result<StatementResult> Database::RunFillStatement(const FillStatement& stmt) {
  CDB_ASSIGN_OR_RETURN(Table* table, catalog_.GetMutableTable(stmt.target.table));
  CDB_ASSIGN_OR_RETURN(size_t col, table->schema().FindColumn(stmt.target.column));
  if (!table->schema().column(col).is_crowd) {
    return Status::FailedPrecondition("column '" + stmt.target.column +
                                      "' is not a CROWD column");
  }
  // Work list: CNULL cells passing the WHERE filter, capped by BUDGET.
  std::vector<size_t> rows;
  std::vector<FillTaskSpec> specs;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (!table->row(r)[col].is_cnull()) continue;
    CDB_ASSIGN_OR_RETURN(bool matches, RowMatches(*table, r, stmt.predicates));
    if (!matches) continue;
    rows.push_back(r);
    specs.push_back(
        oracle_->FillTruth(table->name(), stmt.target.column,
                           static_cast<int64_t>(r)));
    if (stmt.budget && static_cast<int64_t>(specs.size() * options_.fill.redundancy) >=
                           *stmt.budget) {
      break;
    }
  }
  FillResult filled = RunFill(specs, options_.fill);
  for (size_t i = 0; i < rows.size(); ++i) {
    CDB_RETURN_IF_ERROR(table->SetCell(rows[i], stmt.target.column,
                                       Value::Str(filled.values[i])));
  }
  StatementResult result;
  result.affected = filled.cells_filled;
  result.stats.worker_answers = filled.answers_collected;
  return result;
}

Result<StatementResult> Database::RunCollectStatement(
    const CollectStatement& stmt) {
  const std::string& table_name = stmt.targets[0].table;
  CDB_ASSIGN_OR_RETURN(Table* table, catalog_.GetMutableTable(table_name));
  if (!table->is_crowd_table()) {
    return Status::FailedPrecondition("table '" + table_name +
                                      "' is not a CROWD table");
  }
  CollectOptions collect_options = options_.collect;
  if (stmt.budget) collect_options.max_questions = *stmt.budget;
  CollectResult collected =
      RunCollect(oracle_->CollectWorld(table_name), collect_options);

  // Materialize: the first COLLECT target column takes the collected value,
  // CROWD columns become CNULL (awaiting FILL), others NULL.
  CDB_ASSIGN_OR_RETURN(size_t value_col,
                       table->schema().FindColumn(stmt.targets[0].column));
  for (const std::string& value : collected.collected) {
    Row row;
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      if (c == value_col) {
        row.push_back(Value::Str(value));
      } else if (table->schema().column(c).is_crowd) {
        row.push_back(Value::CNull());
      } else {
        row.push_back(Value::Null());
      }
    }
    CDB_RETURN_IF_ERROR(table->AppendRow(std::move(row)));
  }
  StatementResult result;
  result.affected = collected.distinct_collected;
  result.stats.tasks_asked = collected.questions_asked;
  return result;
}

}  // namespace cdb
