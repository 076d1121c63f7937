// End-to-end coverage of cyclic join structures (Section 5.1.1 "Graph Join
// Structure"): three tables joined in a triangle. The pruner's group graph
// is cyclic (arc consistency is a safe over-approximation), the chain
// transform breaks the cycle through a duplicated occurrence, and the
// executor must still return exactly the true triangles.
#include <gtest/gtest.h>

#include "bench_util/metrics.h"
#include "common/logging.h"
#include "cql/parser.h"
#include "exec/session.h"
#include "graph/pruning.h"
#include "graph/structure.h"

namespace cdb {
namespace {

// Three tables A(x, y), B(x, z), C(y, z) with a triangle query:
//   A.x CROWDJOIN B.x AND A.y CROWDJOIN C.y AND B.z CROWDJOIN C.z.
// Entities: rows 0 of all tables form a true triangle; rows 1 form another;
// row 2 of A pairs with row 0 of B on x but its y matches nothing -> broken.
GeneratedDataset MakeTriangleDataset() {
  GeneratedDataset ds;
  auto add = [&](Table table) { CDB_CHECK(ds.catalog.AddTable(std::move(table)).ok()); };

  Table a("A", Schema({{"x", ValueType::kString, false},
                       {"y", ValueType::kString, false}}));
  CDB_CHECK(a.AppendRow({Value::Str("alpha key"), Value::Str("north gate")}).ok());
  CDB_CHECK(a.AppendRow({Value::Str("bravo key"), Value::Str("south gate")}).ok());
  CDB_CHECK(a.AppendRow({Value::Str("alpha keys"), Value::Str("lonely gate")}).ok());
  add(std::move(a));
  ds.entity_of[GeneratedDataset::ColumnKey("A", "x")] = {0, 1, 0};
  ds.entity_of[GeneratedDataset::ColumnKey("A", "y")] = {10, 11, kNoEntity};

  Table b("B", Schema({{"x", ValueType::kString, false},
                       {"z", ValueType::kString, false}}));
  CDB_CHECK(b.AppendRow({Value::Str("alpha key!"), Value::Str("red door")}).ok());
  CDB_CHECK(b.AppendRow({Value::Str("bravo key"), Value::Str("blue door")}).ok());
  add(std::move(b));
  ds.entity_of[GeneratedDataset::ColumnKey("B", "x")] = {0, 1};
  ds.entity_of[GeneratedDataset::ColumnKey("B", "z")] = {20, 21};

  Table c("C", Schema({{"y", ValueType::kString, false},
                       {"z", ValueType::kString, false}}));
  CDB_CHECK(c.AppendRow({Value::Str("north gates"), Value::Str("red doors")}).ok());
  CDB_CHECK(c.AppendRow({Value::Str("south gate"), Value::Str("blue door!")}).ok());
  add(std::move(c));
  ds.entity_of[GeneratedDataset::ColumnKey("C", "y")] = {10, 11};
  ds.entity_of[GeneratedDataset::ColumnKey("C", "z")] = {20, 21};
  return ds;
}

const char kTriangleQuery[] =
    "SELECT A.x FROM A, B, C "
    "WHERE A.x CROWDJOIN B.x AND A.y CROWDJOIN C.y AND B.z CROWDJOIN C.z";

class CyclicQueryTest : public ::testing::Test {
 protected:
  CyclicQueryTest() : dataset_(MakeTriangleDataset()) {
    Statement stmt = ParseStatement(kTriangleQuery).value();
    query_ = AnalyzeSelect(std::get<SelectStatement>(stmt), dataset_.catalog).value();
    truth_ = MakeEdgeTruth(&dataset_, &query_);
  }

  GeneratedDataset dataset_;
  ResolvedQuery query_;
  EdgeTruthFn truth_;
};

TEST_F(CyclicQueryTest, StructureIsCyclic) {
  QueryGraph graph = QueryGraph::Build(query_, GraphOptions{}).value();
  RelGraph rel_graph = BuildRelGraph(graph);
  EXPECT_EQ(Classify(rel_graph), JoinStructure::kCyclic);
  // The chain transform still covers every group.
  ChainPlan plan = BuildChainPlan(graph);
  EXPECT_EQ(plan.occ_group.size(), plan.occ_rel.size() - 1);
  Pruner pruner(&graph);
  EXPECT_FALSE(pruner.group_graph_acyclic());
}

TEST_F(CyclicQueryTest, TrueAnswersAreTheTwoTriangles) {
  std::vector<QueryAnswer> reference = TrueAnswers(dataset_, query_);
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0].rows, (std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(reference[1].rows, (std::vector<int64_t>{1, 1, 1}));
}

TEST_F(CyclicQueryTest, ExecutorFindsExactlyTheTriangles) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 1.0;
  options.platform.worker_quality_stddev = 0.0;
  options.platform.redundancy = 1;
  QuerySession session(&query_, options, truth_);
  ExecutionResult result = session.RunToCompletion().value();
  PrecisionRecall pr = ComputeF1(result.answers, TrueAnswers(dataset_, query_));
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  // The broken A row 2 never completes a triangle.
  for (const QueryAnswer& answer : result.answers) {
    EXPECT_NE(answer.rows[0], 2);
  }
}

TEST_F(CyclicQueryTest, ExactValidityTighterThanArcConsistency) {
  // A.2's x-edge to B row 0 survives arc consistency only while its other
  // predicates hold; the exact check must agree or be stricter.
  QueryGraph graph = QueryGraph::Build(query_, GraphOptions{}).value();
  Pruner pruner(&graph);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (EdgeValidExact(graph, e)) {
      EXPECT_TRUE(pruner.EdgeValid(e)) << "AC must over-approximate, edge " << e;
    }
  }
}

}  // namespace
}  // namespace cdb
