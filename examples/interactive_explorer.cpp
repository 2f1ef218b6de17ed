// The GUI workflow of Appendix A.3 as a terminal REPL: load a dataset, run
// an aggregate query, then iterate on (k, L, D) — summarize, expand
// clusters, consult the Figure-2 parameter grid, compare consecutive
// solutions (Figure 13), and persist/reload precomputed guidance.
//
// Run interactively (binary name is example_interactive_explorer):
//   ./build/example_interactive_explorer
// Run a scripted session:
//   printf "load movielens\nshow\n" | ./build/example_interactive_explorer
// With no input, a canned demo session runs.

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/explore.h"
#include "core/session.h"
#include "datagen/movielens.h"
#include "datagen/store_sales.h"
#include "sql/executor.h"
#include "viz/param_grid.h"
#include "viz/sankey.h"

namespace {

using namespace qagview;

constexpr const char* kHelp = R"(commands:
  load movielens [ratings]   generate MovieLens-like data + Example 1.1 query
  load tpcds [rows]          generate store_sales data + the A.8 query
  sql <SELECT ...>           run your own aggregate query on the loaded table
  params <k> <L> <D>         set the summarization parameters
  show                       summarize under the current parameters (Fig 1b)
  expand                     show clusters with their member tuples (Fig 1c)
  top [n]                    show the top/bottom n original answers (Fig 1a)
  grid [kmin kmax D...]      parameter-selection chart + knee points (Fig 2)
  compare <k> <L> <D>        diff current vs new parameters (Fig 13)
  save <path>                persist the precomputed guidance grid
  loadgrid <path>            reload a persisted guidance grid
  stats                      session cache statistics
  help                       this text
  quit                       exit
)";

class Explorer {
 public:
  int RunScript(std::istream& in, bool echo) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      ++commands_;
      if (echo) std::cout << "qagview> " << line << "\n";
      if (!Dispatch(line)) return 0;  // quit
    }
    return 0;
  }

  int commands() const { return commands_; }

 private:
  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      std::cout << kHelp;
    } else if (command == "load") {
      Load(in);
    } else if (command == "sql") {
      std::string query;
      std::getline(in, query);
      Sql(query);
    } else if (command == "params") {
      int k, l, d;
      if (in >> k >> l >> d) {
        params_ = core::Params{k, l, d};
        std::cout << "params set: " << params_.ToString() << "\n";
      } else {
        std::cout << "usage: params <k> <L> <D>\n";
      }
    } else if (command == "show") {
      Show(/*expanded=*/false);
    } else if (command == "expand") {
      Show(/*expanded=*/true);
    } else if (command == "top") {
      int n = 8;
      in >> n;
      if (RequireSession()) std::cout << session_->answers()->ToString(n);
    } else if (command == "grid") {
      Grid(in);
    } else if (command == "compare") {
      Compare(in);
    } else if (command == "save") {
      std::string path;
      if (in >> path && RequireSession()) {
        if (session_->Guidance(params_.L).ok()) {
          ReportStatus(session_->SaveGuidance(params_.L, path),
                       StrCat("guidance for L=", params_.L, " saved to ",
                              path));
        }
      }
    } else if (command == "loadgrid") {
      std::string path;
      if (in >> path && RequireSession()) {
        ReportStatus(session_->LoadGuidance(params_.L, path),
                     StrCat("guidance for L=", params_.L, " loaded from ",
                            path));
      }
    } else if (command == "stats") {
      if (RequireSession()) {
        core::Session::CacheStats stats = session_->cache_stats();
        std::cout << "universes cached: " << stats.universes
                  << "  stores cached: " << stats.stores
                  << "  universe hits/misses: " << stats.universe_hits << "/"
                  << stats.universe_misses << "\n";
      }
    } else {
      std::cout << "unknown command '" << command << "' (try 'help')\n";
    }
    return true;
  }

  void Load(std::istream& in) {
    std::string which;
    in >> which;
    if (which == "movielens") {
      datagen::MovieLensOptions options;
      options.num_ratings = 100000;
      int64_t ratings = 0;
      if (in >> ratings && ratings > 0) options.num_ratings = ratings;
      table_ = datagen::MovieLensGenerator(options).GenerateRatingTable();
      std::cout << "generated " << table_->num_rows()
                << " MovieLens-like ratings\n";
      Sql("SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
          "FROM t WHERE genres_adventure = 1 "
          "GROUP BY hdec, agegrp, gender, occupation "
          "HAVING count(*) > 10 ORDER BY val DESC");
    } else if (which == "tpcds") {
      datagen::StoreSalesOptions options;
      options.num_rows = 100000;
      int64_t rows = 0;
      if (in >> rows && rows > 0) options.num_rows = rows;
      table_ = datagen::StoreSalesGenerator(options).Generate();
      std::cout << "generated " << table_->num_rows()
                << " store_sales rows\n";
      Sql("SELECT sold_year, sold_month, store_state, item_category, "
          "customer_income_band, channel, avg(net_profit) AS val FROM t "
          "GROUP BY sold_year, sold_month, store_state, item_category, "
          "customer_income_band, channel HAVING count(*) > 2 "
          "ORDER BY val DESC");
    } else {
      std::cout << "usage: load movielens|tpcds [size]\n";
    }
  }

  void Sql(const std::string& query) {
    if (!table_.has_value()) {
      std::cout << "load a dataset first\n";
      return;
    }
    sql::Catalog catalog;
    catalog.Register("t", &*table_);
    auto result = sql::ExecuteSql(query, catalog);
    if (!result.ok()) {
      std::cout << "SQL error: " << result.status().ToString() << "\n";
      return;
    }
    auto session = core::Session::FromTable(*result, "val");
    if (!session.ok()) {
      std::cout << session.status().ToString() << "\n";
      return;
    }
    session_ = std::move(session).value();
    std::cout << "answer set: n=" << session_->answers()->size() << " over m="
              << session_->answers()->num_attrs() << " attributes\n";
  }

  bool RequireSession() {
    if (session_ == nullptr) {
      std::cout << "no query loaded (use 'load' or 'sql')\n";
      return false;
    }
    return true;
  }

  void Show(bool expanded) {
    if (!RequireSession()) return;
    auto solution = session_->Summarize(params_);
    if (!solution.ok()) {
      std::cout << solution.status().ToString() << "\n";
      return;
    }
    auto universe = session_->UniverseFor(params_.L);
    if (!universe.ok()) {
      std::cout << universe.status().ToString() << "\n";
      return;
    }
    std::cout << "summary at " << params_.ToString() << ":\n"
              << (expanded
                      ? core::RenderExpanded(**universe, *solution, 10)
                      : core::RenderSummary(**universe, *solution));
  }

  void Grid(std::istream& in) {
    if (!RequireSession()) return;
    core::PrecomputeOptions options;
    options.k_min = 2;
    options.k_max = std::max(params_.k * 2, 10);
    int k_min, k_max;
    if (in >> k_min >> k_max) {
      options.k_min = k_min;
      options.k_max = k_max;
      int d;
      while (in >> d) options.d_values.push_back(d);
    }
    if (options.d_values.empty()) options.d_values = {1, 2, 3};
    auto store = session_->Guidance(params_.L, options);
    if (!store.ok()) {
      std::cout << store.status().ToString() << "\n";
      return;
    }
    auto grid = viz::BuildParamGrid(**store, options.k_min, options.k_max);
    if (!grid.ok()) {
      std::cout << grid.status().ToString() << "\n";
      return;
    }
    std::cout << grid->ToTextChart();
    for (size_t di = 0; di < grid->d_values.size(); ++di) {
      std::vector<int> knees = grid->KneePoints(static_cast<int>(di));
      if (!knees.empty()) {
        std::cout << "knee points at D=" << grid->d_values[di] << ": ";
        for (size_t i = 0; i < knees.size(); ++i) {
          std::cout << (i ? ", " : "") << "k=" << knees[i];
        }
        std::cout << "\n";
      }
    }
    std::vector<int> redundant = grid->RedundantDValues();
    if (!redundant.empty()) {
      std::cout << "D values bundled with an earlier series:";
      for (int d : redundant) std::cout << " " << d;
      std::cout << "\n";
    }
  }

  void Compare(std::istream& in) {
    if (!RequireSession()) return;
    core::Params next;
    if (!(in >> next.k >> next.L >> next.D)) {
      std::cout << "usage: compare <k> <L> <D>\n";
      return;
    }
    auto old_solution = session_->Summarize(params_);
    auto new_solution = session_->Summarize(next);
    if (!old_solution.ok() || !new_solution.ok()) {
      std::cout << "summarize failed\n";
      return;
    }
    int widest = std::max(params_.L, next.L);
    auto universe = session_->UniverseFor(widest);
    if (!universe.ok()) {
      std::cout << universe.status().ToString() << "\n";
      return;
    }
    viz::SankeyDiagram diagram =
        viz::BuildSankey(**universe, *old_solution, *new_solution, widest);
    std::vector<int> left = viz::IdentityPositions(diagram.num_left());
    auto right = viz::OptimizeRightPositions(diagram, left);
    if (!right.ok()) {
      std::cout << right.status().ToString() << "\n";
      return;
    }
    std::cout << "old " << params_.ToString() << "  ->  new "
              << next.ToString() << "\n"
              << viz::RenderSankey(diagram, left, *right)
              << "crossings: "
              << viz::CountCrossings(diagram, left, *right) << " (default "
              << viz::CountCrossings(diagram, left,
                                     viz::IdentityPositions(
                                         diagram.num_right()))
              << ")\n";
    params_ = next;
    std::cout << "params set: " << params_.ToString() << "\n";
  }

  void ReportStatus(const Status& status, const std::string& success) {
    std::cout << (status.ok() ? success : status.ToString()) << "\n";
  }

  std::optional<storage::Table> table_;
  std::unique_ptr<core::Session> session_;
  core::Params params_{4, 8, 2};
  int commands_ = 0;
};

constexpr const char* kDemoScript = R"(load movielens
top 4
params 4 8 2
show
expand
grid 2 10 1 2 3
compare 3 8 2
stats
quit
)";

}  // namespace

int main() {
  Explorer explorer;
  std::cout << "QAGView interactive explorer (type 'help' for commands)\n";
  int code = explorer.RunScript(std::cin, /*echo=*/true);
  if (explorer.commands() == 0) {
    std::cout << "\nno input — running the demo session:\n\n";
    std::istringstream demo(kDemoScript);
    code = explorer.RunScript(demo, /*echo=*/true);
  }
  return code;
}
