// An interactive shell over the library: load relations from CSV files,
// type calculus queries, inspect canonical forms and algebra plans.
//
//   ./build/examples/query_shell [name=file.csv ...]
//
// Commands:
//   { x | p(x) & ... }        run an open query
//   exists x: p(x) & ...      run a closed query
//   .load <name> <file.csv>   register a relation from CSV
//   .rel <name> a,b\n c,d ;   define a relation inline (rows until ';')
//   .relations                list relations
//   .explain <query>          show canonical form + plan without running
//   .explain physical <query> show the lowered physical operator tree
//   .cost <query>             plan annotated with cost-model estimates
//   .view <name> <query>      define a view, e.g. .view v { x | p(x) }
//   .index <name> <column>    build a hash index (0-based column)
//   .save <dir> / .open <dir> persist / load the whole database
//   .domclose                 toggle Domain Closure mode (§2.1)
//   .strategy <name>          bry | bry-division | bry-union-filters |
//                             quel-counting | classical | nested-loop
//   .threads <n>              morsel-parallel execution with n workers
//                             (0 = serial, the default)
//   .columnar on              build zone maps on every relation, now
//                             and for relations defined later, so
//                             every scan with a selection prunes by
//                             them; plans are unchanged (answers
//                             never change; there is no way back)
//   .service                  toggle the fault-tolerant front door
//                             (DESIGN.md §9): admission, retries,
//                             degradation; pairs with BRYQL_FAILPOINTS
//   .quit
//
// With failpoints compiled in (-DBRYQL_FAILPOINTS=ON), the environment
// variable BRYQL_FAILPOINTS arms fault injection at startup, e.g.
//   BRYQL_FAILPOINTS='exec.scan.open=p0.2@seed7' ./query_shell
// and `.service` shows the retry machinery riding out the faults.

#include <iostream>
#include <sstream>
#include <string>

#include "algebra/cost_model.h"
#include "common/failpoints.h"
#include "core/query_processor.h"
#include "service/service.h"
#include "storage/csv.h"

using namespace bryql;

namespace {

Strategy ParseStrategy(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "bry") return Strategy::kBry;
  if (name == "bry-division") return Strategy::kBryDivision;
  if (name == "bry-union-filters") return Strategy::kBryUnionFilters;
  if (name == "quel-counting") return Strategy::kQuelCounting;
  if (name == "classical") return Strategy::kClassical;
  if (name == "nested-loop") return Strategy::kNestedLoop;
  *ok = false;
  return Strategy::kBry;
}

}  // namespace

int main(int argc, char** argv) {
  Database db;
  ViewSet views;
  Strategy strategy = Strategy::kBry;
  bool domain_closure = false;
  size_t num_threads = 0;
  bool use_service = false;
  bool use_columnar = false;

  // Arms any faults requested via the BRYQL_FAILPOINTS environment
  // variable (no-op when unset or when failpoints are compiled out).
  Status fp = failpoints::InitFromEnv();
  if (!fp.ok()) std::cerr << "BRYQL_FAILPOINTS: " << fp << "\n";

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::cerr << "ignoring argument '" << arg << "' (want name=file.csv)\n";
      continue;
    }
    auto rel = RelationFromCsvFile(arg.substr(eq + 1));
    if (!rel.ok()) {
      std::cerr << rel.status() << "\n";
      return 1;
    }
    db.Put(arg.substr(0, eq), std::move(*rel));
    std::cout << "loaded " << arg.substr(0, eq) << "\n";
  }

  std::cout << "bryql shell — type a query, or .help\n";
  std::string line;
  while (std::cout << "bryql> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      std::cout << "queries: { x | p(x) & ... } or a closed formula\n"
                << "commands: .load name file.csv | .rel name rows... ; |\n"
                << "          .relations | .explain <query> | "
                   ".explain physical <query> |\n"
                << "          .strategy <name> | .threads <n> | "
                   ".columnar on | .service | .quit\n";
      continue;
    }
    if (line == ".relations") {
      for (const std::string& name : db.Names()) {
        auto rel = db.Get(name);
        std::cout << "  " << name << "/" << (*rel)->arity() << " ("
                  << (*rel)->size() << " tuples)\n";
      }
      continue;
    }
    if (line.rfind(".strategy ", 0) == 0) {
      bool ok = false;
      Strategy s = ParseStrategy(line.substr(10), &ok);
      if (ok) {
        strategy = s;
        std::cout << "strategy = " << StrategyName(strategy) << "\n";
      } else {
        std::cout << "unknown strategy\n";
      }
      continue;
    }
    if (line.rfind(".threads ", 0) == 0) {
      std::istringstream in(line.substr(9));
      size_t n = 0;
      if (in >> n) {
        num_threads = n;
        std::cout << "threads = " << num_threads
                  << (num_threads == 0 ? " (serial)" : "") << "\n";
      } else {
        std::cout << "usage: .threads <n>\n";
      }
      continue;
    }
    if (line == ".columnar on") {
      use_columnar = true;
      db.EnableColumnarAll();
      std::cout << "columnar on (zone maps built, selections prune by them)\n";
      continue;
    }
    if (line == ".service") {
      use_service = !use_service;
      std::cout << "service " << (use_service ? "on" : "off")
                << (use_service ? " (admission + retries + degradation)"
                                : "")
                << "\n";
      continue;
    }
    if (line.rfind(".view ", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::string name;
      in >> name;
      std::string body;
      std::getline(in, body);
      Status st = views.DefineFromText(name, body);
      std::cout << (st.ok() ? "view defined" : st.ToString()) << "\n";
      continue;
    }
    if (line.rfind(".index ", 0) == 0) {
      std::istringstream in(line.substr(7));
      std::string name;
      size_t column = 0;
      in >> name >> column;
      Status st = db.BuildIndex(name, column);
      std::cout << (st.ok() ? "index built" : st.ToString()) << "\n";
      continue;
    }
    if (line.rfind(".save ", 0) == 0) {
      Status st = SaveDatabase(db, line.substr(6));
      std::cout << (st.ok() ? "saved" : st.ToString()) << "\n";
      continue;
    }
    if (line.rfind(".open ", 0) == 0) {
      auto loaded = LoadDatabase(line.substr(6));
      if (!loaded.ok()) {
        std::cout << loaded.status() << "\n";
        continue;
      }
      db = std::move(*loaded);
      std::cout << "opened (" << db.Names().size() << " relations)\n";
      continue;
    }
    if (line == ".domclose") {
      domain_closure = !domain_closure;
      std::cout << "domain closure "
                << (domain_closure ? "on" : "off") << "\n";
      continue;
    }
    if (line.rfind(".load ", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::string name, file;
      in >> name >> file;
      auto rel = RelationFromCsvFile(file);
      if (!rel.ok()) {
        std::cout << rel.status() << "\n";
        continue;
      }
      db.Put(name, std::move(*rel));
      std::cout << "loaded " << name << "\n";
      continue;
    }
    if (line.rfind(".rel ", 0) == 0) {
      std::istringstream in(line.substr(5));
      std::string name;
      in >> name;
      std::string rows, row_line;
      std::getline(in, row_line);
      rows = row_line;
      while (rows.find(';') == std::string::npos &&
             std::getline(std::cin, row_line)) {
        rows += "\n" + row_line;
      }
      size_t semi = rows.find(';');
      if (semi != std::string::npos) rows.resize(semi);
      auto rel = RelationFromCsv(rows);
      if (!rel.ok()) {
        std::cout << rel.status() << "\n";
        continue;
      }
      db.Put(name, std::move(*rel));
      std::cout << "defined " << name << "\n";
      continue;
    }
    // Relations loaded after `.columnar on` get their zone maps here;
    // EnableColumnarAll only builds what is missing, so this is cheap.
    if (use_columnar) db.EnableColumnarAll();
    QueryProcessor qp(&db);
    qp.SetViews(&views);
    qp.EnableDomainClosure(domain_closure);
    if (line.rfind(".cost ", 0) == 0) {
      auto exec = qp.Explain(line.substr(6), strategy);
      if (!exec.ok() || exec->plan == nullptr) {
        std::cout << (exec.ok() ? Status::Unsupported(
                                      "no algebraic plan for this strategy")
                                : exec.status())
                  << "\n";
        continue;
      }
      CostModel model(&db);
      auto annotated = model.Annotate(exec->plan);
      std::cout << (annotated.ok() ? *annotated
                                   : annotated.status().ToString());
      continue;
    }
    if (line.rfind(".explain physical ", 0) == 0) {
      auto exec = qp.Explain(line.substr(18), strategy);
      if (!exec.ok()) {
        std::cout << exec.status() << "\n";
        continue;
      }
      if (exec->physical != nullptr) {
        std::cout << exec->physical->ToString();
      } else {
        std::cout << "no physical plan for this strategy\n";
      }
      continue;
    }
    if (line.rfind(".explain ", 0) == 0) {
      auto exec = qp.Explain(line.substr(9), strategy);
      if (!exec.ok()) {
        std::cout << exec.status() << "\n";
        continue;
      }
      if (exec->canonical != nullptr) {
        std::cout << "canonical: " << exec->canonical->ToString() << "\n";
      }
      if (exec->plan != nullptr) {
        std::cout << exec->plan->ToString();
      }
      continue;
    }
    QueryOptions run_options;
    run_options.num_threads = num_threads;
    Execution execution;
    if (use_service) {
      QueryService service(&qp);
      auto reply = service.Run(line, strategy, run_options);
      if (!reply.ok()) {
        std::cout << reply.status() << "\n";
        continue;
      }
      if (reply->attempts > 1 || reply->degradation_level > 0) {
        std::cout << "-- service: " << reply->attempts << " attempt(s), "
                  << "degradation level " << reply->degradation_level
                  << "\n";
      }
      execution = std::move(reply->execution);
    } else {
      auto exec = qp.Run(line, strategy, run_options);
      if (!exec.ok()) {
        std::cout << exec.status() << "\n";
        continue;
      }
      execution = std::move(*exec);
    }
    if (execution.answer.closed) {
      std::cout << (execution.answer.truth ? "true" : "false") << "\n";
    } else {
      std::cout << execution.answer.relation.ToString();
    }
    std::cout << "-- " << execution.stats.ToString() << "\n";
  }
  return 0;
}
