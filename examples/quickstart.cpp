// Quickstart: define tables with CQL DDL, load the paper's Table-1 data,
// run the Figure-4 CROWDJOIN query through the full CDB pipeline (graph
// model, expectation-based cost control, round scheduling, simulated crowd),
// and print the answers.
#include <cstdio>

#include "common/logging.h"
#include "bench_util/metrics.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "exec/session.h"

using namespace cdb;

int main() {
  // 1. CQL DDL also works from scratch — shown here for flavor; the data
  //    itself comes from the built-in Table-1 miniature.
  Catalog scratch;
  Statement ddl = ParseStatement(
                      "CREATE TABLE Researcher (affiliation varchar(64), "
                      "name varchar(64), gender CROWD varchar(16));")
                      .value();
  CDB_CHECK(ApplyCreateTable(std::get<CreateTableStatement>(ddl), scratch).ok());
  std::printf("created table via CQL DDL: %s\n\n",
              scratch.GetTable("Researcher").value()->schema().ToString().c_str());

  // 2. The miniature dataset of the paper's Table 1 (with ground truth).
  GeneratedDataset dataset = MakeMiniPaperExample();

  // 3. Parse + analyze the Figure-4 query.
  Statement stmt = ParseStatement(kMiniExampleQuery).value();
  ResolvedQuery query =
      AnalyzeSelect(std::get<SelectStatement>(stmt), dataset.catalog).value();
  std::printf("query: %s\n\n", kMiniExampleQuery);

  // 4. Execute with a simulated crowd (workers ~ N(0.95, 0.01), 5 answers
  //    per task, majority voting).
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.95;
  EdgeTruthFn truth = MakeEdgeTruth(&dataset, &query);
  QuerySession session(&query, options, truth);
  ExecutionResult result = session.RunToCompletion().value();

  // 5. Report.
  std::printf("crowd statistics: %lld tasks, %lld rounds, %lld worker answers, $%.2f\n\n",
              static_cast<long long>(result.stats.tasks_asked),
              static_cast<long long>(result.stats.rounds),
              static_cast<long long>(result.stats.worker_answers),
              result.stats.dollars_spent);
  const Table* paper = dataset.catalog.GetTable("Paper").value();
  const Table* researcher = dataset.catalog.GetTable("Researcher").value();
  const Table* university = dataset.catalog.GetTable("University").value();
  std::printf("answers (%zu):\n", result.answers.size());
  for (const QueryAnswer& answer : result.answers) {
    std::printf("  %-24s | %-20s | %s\n",
                paper->row(static_cast<size_t>(answer.rows[0]))[0].AsString().c_str(),
                researcher->row(static_cast<size_t>(answer.rows[1]))[1].AsString().c_str(),
                university->row(static_cast<size_t>(answer.rows[3]))[0].AsString().c_str());
  }
  PrecisionRecall pr = ComputeF1(result.answers, TrueAnswers(dataset, query));
  std::printf("\nprecision %.2f, recall %.2f, F-measure %.2f\n", pr.precision,
              pr.recall, pr.f1);
  return 0;
}
