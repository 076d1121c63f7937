// The top-level CDB embedding API: a Database owns a catalog and executes
// any CQL statement — CREATE [CROWD] TABLE, SELECT with CROWDJOIN /
// CROWDEQUAL (optionally BUDGET), FILL and COLLECT — against a configured
// crowd. This is the "CDB framework" entry point of Section 2.1 in library
// form: parser -> graph model -> optimizers -> crowd -> result collection.
//
// Because the crowd is simulated, the embedder supplies a CrowdOracle that
// knows the ground truth a perfect worker would give; simulated workers then
// err according to their sampled accuracies. Deployments against a real
// platform would replace the simulator behind the same seam.
#ifndef CDB_EXEC_DATABASE_H_
#define CDB_EXEC_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/collect_fill.h"
#include "exec/session.h"
#include "storage/catalog.h"

namespace cdb {

// Ground truth for the simulated crowd, keyed by catalog coordinates.
class CrowdOracle {
 public:
  virtual ~CrowdOracle() = default;

  // Would a perfect worker say these two cells refer to the same thing?
  [[nodiscard]] virtual bool JoinMatches(const std::string& left_table,
                                         const std::string& left_column,
                                         int64_t left_row,
                                         const std::string& right_table,
                                         const std::string& right_column,
                                         int64_t right_row) const = 0;

  // Would a perfect worker say this cell satisfies `CROWDEQUAL constant`?
  [[nodiscard]] virtual bool SelectionMatches(
      const std::string& table, const std::string& column, int64_t row,
      const std::string& constant) const = 0;

  // The true value of a CNULL cell, plus plausible wrong answers.
  virtual FillTaskSpec FillTruth(const std::string& table,
                                 const std::string& column,
                                 int64_t row) const = 0;

  // The open world a COLLECT on `table` draws from.
  virtual CollectUniverse CollectWorld(const std::string& table) const = 0;
};

// A GeneratedDataset-backed implementation lives in datagen/entity_oracle.h.

// One result row of a SELECT: the projected cell values.
struct ResultRow {
  std::vector<Value> values;
};

struct StatementResult {
  std::vector<ResultRow> rows;   // SELECT only.
  int64_t affected = 0;          // FILL: cells filled; COLLECT: tuples added.
  ExecutionStats stats;          // Crowd statistics where applicable.
};

class Database {
 public:
  struct Options {
    ExecutorOptions executor;
    FillOptions fill;
    CollectOptions collect;
  };

  // `oracle` is borrowed and must outlive the Database.
  Database(Options options, const CrowdOracle* oracle)
      : options_(std::move(options)), oracle_(oracle) {}

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // Parses and executes one CQL statement.
  Result<StatementResult> Execute(const std::string& cql);

  // Executes a ';'-separated script, stopping at the first error; returns
  // the last statement's result.
  Result<StatementResult> ExecuteScript(const std::string& cql);

 private:
  Result<StatementResult> RunSelect(const SelectStatement& stmt);
  Result<StatementResult> RunFillStatement(const FillStatement& stmt);
  Result<StatementResult> RunCollectStatement(const CollectStatement& stmt);

  Options options_;
  const CrowdOracle* oracle_;
  Catalog catalog_;
};

}  // namespace cdb

#endif  // CDB_EXEC_DATABASE_H_
