// SQL executor driver: single-threaded sql::ExecuteSql on the three query
// shapes the end-to-end benchmark (perfbench/) serves, timed in isolation
// from the service and the summarization core.
//
//   * movielens_avg4: the MovieLens ratings table, 4-column group-by (two
//     int64, two string columns) with avg(rating) and a HAVING count;
//   * store_sales_avg6 / store_sales_sum6: the TPC-DS-like store_sales
//     table, 6-column group-by with avg/sum(net_profit) and HAVING — the
//     high-cardinality shapes (~12k-14k groups at 100k rows);
//   * events_avg5: the ingest table (five Zipf-skewed string columns,
//     domains 7/6/5/4/3) with avg(rating).
//
// Each shape runs at 100k and 1M rows (20k and 100k in smoke mode); the
// table is built once per scale, outside the clock. One rep is one cold
// ExecuteSql call: parse, group, aggregate, HAVING, ORDER BY, and result
// materialization.
//
// Emits BENCH_executor.json (schema in bench/README.md); the CI smoke run
// gates it against bench/baselines/.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/movielens.h"
#include "datagen/store_sales.h"
#include "sql/executor.h"
#include "test_util.h"

namespace {

using namespace qagview;

struct Shape {
  const char* name;
  const char* table;
  const char* sql;
};

constexpr Shape kShapes[] = {
    {"movielens_avg4", "ratings",
     "SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
     "FROM ratings GROUP BY hdec, agegrp, gender, occupation "
     "HAVING count(*) > 20 ORDER BY val DESC"},
    {"store_sales_avg6", "store_sales",
     "SELECT sold_year, sold_month, store_state, item_category, "
     "customer_income_band, channel, avg(net_profit) AS val "
     "FROM store_sales GROUP BY sold_year, sold_month, store_state, "
     "item_category, customer_income_band, channel "
     "HAVING count(*) > 2 ORDER BY val DESC"},
    {"store_sales_sum6", "store_sales",
     "SELECT sold_month, sold_weekday, store_state, customer_agegrp, "
     "customer_income_band, channel, sum(net_profit) AS val "
     "FROM store_sales GROUP BY sold_month, sold_weekday, store_state, "
     "customer_agegrp, customer_income_band, channel "
     "HAVING count(*) > 2 ORDER BY val DESC"},
    {"events_avg5", "events",
     "SELECT g0, g1, g2, g3, g4, avg(rating) AS val FROM events "
     "GROUP BY g0, g1, g2, g3, g4 ORDER BY val DESC"},
};

storage::Table BuildTable(const std::string& name, int64_t rows) {
  if (name == "ratings") {
    datagen::MovieLensOptions options;
    options.num_ratings = static_cast<int>(rows);
    return datagen::MovieLensGenerator(options).GenerateRatingTable();
  }
  if (name == "store_sales") {
    datagen::StoreSalesOptions options;
    options.num_rows = rows;
    return datagen::StoreSalesGenerator(options).Generate();
  }
  testutil::RandomTableSpec spec;
  spec.domains = {7, 6, 5, 4, 3};
  storage::Table table(spec.MakeSchema());
  constexpr int64_t kChunk = 100000;
  uint64_t seed = 97;
  for (int64_t done = 0; done < rows; done += kChunk) {
    const int n = static_cast<int>(std::min(kChunk, rows - done));
    QAG_CHECK_OK(table.AppendRows(testutil::MakeRandomRows(spec, seed++, n)));
  }
  return table;
}

}  // namespace

int main() {
  const bool smoke = benchutil::SmokeMode();
  const int reps = smoke ? 7 : 5;
  const std::vector<int64_t> scales =
      smoke ? std::vector<int64_t>{20000, 100000}
            : std::vector<int64_t>{100000, 1000000};

  benchutil::PrintHeader(
      "SQL executor: grouped aggregates over the served query shapes",
      "the top-answer query behind every summary must stay interactive "
      "(§2): cost linear in rows, flat per row across group counts");
  benchutil::JsonReporter json("executor");

  std::printf("\n%-18s %9s %8s %12s %12s %10s\n", "shape", "rows", "result",
              "median", "min", "ns/row");
  for (const int64_t rows : scales) {
    std::string built;
    storage::Table table(storage::Schema{});
    for (const Shape& shape : kShapes) {
      if (built != shape.table) {
        table = BuildTable(shape.table, rows);
        built = shape.table;
      }
      sql::Catalog catalog;
      catalog.Register(shape.table, &table);
      int64_t groups = 0;
      const benchutil::TimingStats stats = benchutil::TimeStats(
          [&] {
            Result<storage::Table> result = sql::ExecuteSql(shape.sql, catalog);
            QAG_CHECK(result.ok()) << result.status().ToString();
            groups = result->num_rows();
          },
          reps);
      const double ns_per_row =
          stats.median_ms * 1e6 / static_cast<double>(rows);
      std::printf("%-18s %9lld %8lld %9.2f ms %9.2f ms %10.1f\n", shape.name,
                  static_cast<long long>(rows), static_cast<long long>(groups),
                  stats.median_ms, stats.min_ms, ns_per_row);
      json.Add(shape.name, {{"N", static_cast<double>(rows)}}, stats,
               {{"result_rows", static_cast<double>(groups)}});
    }
  }
  json.WriteFile();
  return 0;
}
