// An interactive CQL shell over the paper's Table-1 miniature database with
// a simulated crowd. Reads ';'-terminated statements from stdin:
//
//   $ ./build/examples/cdb_shell
//   cdb> SELECT * FROM Paper, Researcher
//        WHERE Paper.author CROWDJOIN Researcher.name;
//   ... 4 answers, 12 tasks, 2 rounds, $0.20 ...
//
// Also supports CREATE [CROWD] TABLE, .tables / .schema meta commands, and a
// stepped-session mode for exercising the durable checkpoint format:
//
//   \session <CQL>    open a stepped QuerySession instead of running one-shot
//   \step [n]         advance the open session n phases (default 1)
//   \snapshot <file>  write the session's checkpoint blob to <file>
//   \restore <file>   rehydrate a fresh session (same query) from <file>
//   \finish           run the open session to completion and print results
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "bench_util/metrics.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "cql/parser.h"
#include "datagen/mini_example.h"
#include "exec/session.h"

using namespace cdb;

namespace {

void PrintTables(const GeneratedDataset& db) {
  for (const std::string& name : db.catalog.TableNames()) {
    const Table* table = db.catalog.GetTable(name).value();
    std::printf("  %-12s %4zu rows  %s\n", name.c_str(), table->num_rows(),
                table->schema().ToString().c_str());
  }
}

void PrintAnswers(const ResolvedQuery& query, const ExecutionResult& result) {
  // Print projected columns (all columns of each base table for '*').
  for (const QueryAnswer& answer : result.answers) {
    std::string line;
    if (query.select_star) {
      for (size_t rel = 0; rel < query.tables.size(); ++rel) {
        const Row& row =
            query.tables[rel]->row(static_cast<size_t>(answer.rows[rel]));
        for (const Value& cell : row) {
          if (!line.empty()) line += " | ";
          line += cell.ToString();
        }
      }
    } else {
      for (const ResolvedProjection& proj : query.projections) {
        const Row& row =
            query.tables[proj.rel]->row(static_cast<size_t>(answer.rows[proj.rel]));
        if (!line.empty()) line += " | ";
        line += row[proj.col].ToString();
      }
    }
    std::printf("  %s\n", line.c_str());
  }
  std::printf("-- %zu answers; %lld tasks, %lld rounds, %lld worker answers, $%.2f\n",
              result.answers.size(),
              static_cast<long long>(result.stats.tasks_asked),
              static_cast<long long>(result.stats.rounds),
              static_cast<long long>(result.stats.worker_answers),
              result.stats.dollars_spent);
}

ExecutorOptions ShellOptions(const ResolvedQuery& query) {
  ExecutorOptions options;
  options.platform.worker_quality_mean = 0.95;
  if (query.budget) options.budget = query.budget;
  return options;
}

void RunSelect(GeneratedDataset& db, const SelectStatement& stmt) {
  Result<ResolvedQuery> analyzed = AnalyzeSelect(stmt, db.catalog);
  if (!analyzed.ok()) {
    std::printf("error: %s\n", analyzed.status().ToString().c_str());
    return;
  }
  ResolvedQuery query = std::move(analyzed).value();
  ExecutorOptions options = ShellOptions(query);
  EdgeTruthFn truth = MakeEdgeTruth(&db, &query);
  QuerySession session(&query, options, truth);
  Result<ExecutionResult> run = session.RunToCompletion();
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  PrintAnswers(query, run.value());
}

// The stepped session opened by \session. The query must outlive the
// session, so both live here on the heap until \finish (or a new \session)
// tears them down together.
struct OpenSession {
  std::unique_ptr<ResolvedQuery> query;
  std::string cql;
  std::unique_ptr<QuerySession> session;
};

bool OpenShellSession(GeneratedDataset& db, OpenSession& open,
                      const std::string& cql_in) {
  std::string cql = Trim(cql_in);
  if (cql.empty()) {
    std::printf("usage: \\session SELECT ... ;\n");
    return false;
  }
  if (cql.back() != ';') cql += ';';
  Result<Statement> parsed = ParseStatement(cql);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  const auto* select = std::get_if<SelectStatement>(&parsed.value());
  if (select == nullptr) {
    std::printf("\\session takes a SELECT statement\n");
    return false;
  }
  Result<ResolvedQuery> analyzed = AnalyzeSelect(*select, db.catalog);
  if (!analyzed.ok()) {
    std::printf("error: %s\n", analyzed.status().ToString().c_str());
    return false;
  }
  open.query =
      std::make_unique<ResolvedQuery>(std::move(analyzed).value());
  open.cql = cql;
  open.session = std::make_unique<QuerySession>(
      open.query.get(), ShellOptions(*open.query),
      MakeEdgeTruth(&db, open.query.get()));
  return true;
}

void HandleMeta(GeneratedDataset& db, OpenSession& open,
                const std::string& trimmed) {
  const size_t space = trimmed.find(' ');
  const std::string cmd = trimmed.substr(0, space);
  const std::string rest =
      space == std::string::npos ? "" : Trim(trimmed.substr(space + 1));

  if (cmd == "\\session") {
    if (OpenShellSession(db, open, rest)) {
      std::printf("session open at %s; \\step to advance, \\snapshot <file> "
                  "to checkpoint\n",
                  SessionPhaseName(open.session->phase()));
    }
    return;
  }
  if (open.session == nullptr) {
    std::printf("no open session; start one with \\session <CQL>\n");
    return;
  }
  if (cmd == "\\step") {
    int n = rest.empty() ? 1 : std::atoi(rest.c_str());
    int stepped = 0;
    while (stepped < n && !open.session->done()) {
      Result<bool> more = open.session->Step();
      if (!more.ok()) {
        std::printf("error: %s\n", more.status().ToString().c_str());
        open = OpenSession{};
        return;
      }
      ++stepped;
    }
    std::printf("stepped %d phase(s); now at %s%s\n", stepped,
                SessionPhaseName(open.session->phase()),
                open.session->done() ? " — \\finish to print results" : "");
  } else if (cmd == "\\snapshot") {
    if (rest.empty()) {
      std::printf("usage: \\snapshot <file>\n");
      return;
    }
    const std::string blob = open.session->Snapshot();
    FILE* f = std::fopen(rest.c_str(), "wb");
    if (f == nullptr) {
      std::printf("error: cannot open %s for writing\n", rest.c_str());
      return;
    }
    std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
    std::printf("wrote %zu-byte checkpoint (format v%u) at phase %s to %s\n",
                blob.size(), QuerySession::kSnapshotVersion,
                SessionPhaseName(open.session->phase()), rest.c_str());
  } else if (cmd == "\\restore") {
    if (rest.empty()) {
      std::printf("usage: \\restore <file>\n");
      return;
    }
    FILE* f = std::fopen(rest.c_str(), "rb");
    if (f == nullptr) {
      std::printf("error: cannot open %s\n", rest.c_str());
      return;
    }
    std::string blob;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
      blob.append(chunk, got);
    std::fclose(f);
    // Restore() requires a freshly-constructed session over the same query,
    // so rebuild one from the open session's statement before rehydrating.
    if (!OpenShellSession(db, open, open.cql)) return;
    Status status = open.session->Restore(blob);
    if (!status.ok()) {
      std::printf("restore failed (%s); session reset to %s\n",
                  status.ToString().c_str(),
                  SessionPhaseName(open.session->phase()));
      open = OpenSession{};
      return;
    }
    std::printf("restored %zu bytes; session resumes at %s\n", blob.size(),
                SessionPhaseName(open.session->phase()));
  } else if (cmd == "\\finish") {
    while (!open.session->done()) {
      Result<bool> more = open.session->Step();
      if (!more.ok()) {
        std::printf("error: %s\n", more.status().ToString().c_str());
        open = OpenSession{};
        return;
      }
    }
    PrintAnswers(*open.query, open.session->TakeResult());
    open = OpenSession{};
  } else {
    std::printf("unknown command %s; meta: \\session \\step \\snapshot "
                "\\restore \\finish\n",
                cmd.c_str());
  }
}

}  // namespace

int main() {
  GeneratedDataset db = MakeMiniPaperExample();
  std::printf("CDB shell — crowd-powered CQL over the Table-1 miniature.\n");
  std::printf("Statements end with ';'. Meta: .tables  .schema  .quit\n");
  std::printf("Stepped sessions: \\session <CQL>  \\step [n]  "
              "\\snapshot <file>  \\restore <file>  \\finish\n\n");
  PrintTables(db);

  OpenSession open;
  std::string buffer;
  std::string line;
  std::printf("cdb> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed = Trim(line);
    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (trimmed == ".tables" || trimmed == ".schema") {
      PrintTables(db);
      std::printf("cdb> ");
      std::fflush(stdout);
      continue;
    }
    if (!trimmed.empty() && trimmed[0] == '\\' && buffer.empty()) {
      HandleMeta(db, open, trimmed);
      std::printf("cdb> ");
      std::fflush(stdout);
      continue;
    }
    buffer += line;
    buffer += '\n';
    if (trimmed.empty() || trimmed.back() != ';') {
      std::printf("...> ");
      std::fflush(stdout);
      continue;
    }
    Result<Statement> parsed = ParseStatement(buffer);
    buffer.clear();
    if (!parsed.ok()) {
      std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    } else if (const auto* select = std::get_if<SelectStatement>(&parsed.value())) {
      RunSelect(db, *select);
    } else if (const auto* create = std::get_if<CreateTableStatement>(&parsed.value())) {
      Status status = ApplyCreateTable(*create, db.catalog);
      std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
    } else {
      std::printf("FILL/COLLECT need an open-world source; see "
                  "examples/data_collection.cpp\n");
    }
    std::printf("cdb> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}
