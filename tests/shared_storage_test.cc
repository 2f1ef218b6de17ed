// Appends over shared column storage: a catalog append writes past the rows
// the previous snapshot reads instead of copying them, readers of pinned
// snapshots racing a writer see exactly the rows they pinned, and writers
// racing each other lose no append.

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "service/catalog.h"
#include "sql/executor.h"
#include "test_util.h"

namespace qagview::service {
namespace {

using storage::Table;
using storage::Value;

// The cells of every column of `table`, as data pointers.
std::vector<const void*> ArrayPointers(const Table& table) {
  std::vector<const void*> out;
  for (int c = 0; c < table.num_columns(); ++c) {
    const storage::Column& column = table.column(c);
    out.push_back(column.validity().data());
    out.push_back(column.ints().data());
    out.push_back(column.doubles().data());
    out.push_back(column.codes().data());
  }
  return out;
}

TEST(SharedStorageTest, AppendRowsAliasesThePreviousSnapshot) {
  testutil::RandomTableSpec spec;
  DatasetCatalog catalog;
  QAG_CHECK_OK(catalog.Register("t", testutil::MakeRandomTable(spec, 1, 100)));
  int aliased = 0;
  int moved = 0;
  for (int b = 0; b < 40; ++b) {
    const TableSnapshot before = catalog.Find("t");
    const Table reference = testutil::RowByRowCopy(*before.table);
    const auto batch = testutil::MakeRandomRows(spec, 100 + b, 7 + b);
    const int64_t rows = before.table->num_rows() +
                         static_cast<int64_t>(batch.size());
    ASSERT_TRUE(catalog.AppendRows("t", batch).ok());
    const TableSnapshot after = catalog.Find("t");
    ASSERT_EQ(after.table->num_rows(), rows);
    EXPECT_EQ(after.lineage, before.lineage);
    bool fits = true;
    for (int c = 0; c < before.table->num_columns(); ++c) {
      fits = fits && rows <= before.table->column(c).capacity();
    }
    if (fits) {
      ++aliased;
      EXPECT_EQ(ArrayPointers(*after.table), ArrayPointers(*before.table))
          << "batch " << b << " copied storage that had room";
    } else {
      ++moved;
    }
    // The previous snapshot still reads exactly its own rows.
    ASSERT_EQ(testutil::TableDiff(reference, *before.table), "")
        << "batch " << b;
    for (int64_t r = 0; r < before.table->num_rows(); ++r) {
      for (int c = 0; c < before.table->num_columns(); ++c) {
        ASSERT_EQ(after.table->Get(r, c), before.table->Get(r, c));
      }
    }
  }
  EXPECT_GT(aliased, 0);
  EXPECT_GT(moved, 0);
  // A replacement starts a new lineage.
  const uint64_t lineage = catalog.Find("t").lineage;
  ASSERT_TRUE(
      catalog.ReplaceTable("t", testutil::MakeRandomTable(spec, 2, 10)).ok());
  EXPECT_NE(catalog.Find("t").lineage, lineage);
}

// Four readers execute the grouped query of an ingest session and a
// min/max over string columns on pinned catalog snapshots while a writer
// appends 200-row batches, some carrying strings new to a dictionary (which
// the append then copies). Every result equals a cold run over a row-by-row
// copy of the snapshot made when its reader pinned it.
TEST(SharedStorageTest, ReadersRacingAppendsSeeExactlyTheirSnapshot) {
  testutil::RandomTableSpec spec;
  spec.domains = {7, 6, 5, 4, 3};
  DatasetCatalog catalog;
  QAG_CHECK_OK(
      catalog.Register("events", testutil::MakeRandomTable(spec, 5, 2000)));
  const std::vector<std::string> queries = {
      "SELECT g0, g1, g2, g3, g4, avg(rating) AS val FROM events "
      "GROUP BY g0, g1, g2, g3, g4 ORDER BY val DESC",
      "SELECT g0, min(g3) AS lo, max(g4) AS hi, count(*) AS n FROM events "
      "GROUP BY g0",
  };
  constexpr int kBatches = 24;
  std::atomic<bool> done{false};
  std::atomic<int> checked{0};
  std::atomic<int> failed{0};
  testutil::StartLatch start(5);
  std::vector<std::string> failures(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      start.ArriveAndWait();
      do {
        CatalogSnapshot snapshot = catalog.Snapshot();
        const Table* pinned = snapshot.sql.Find("events");
        const Table copy = testutil::RowByRowCopy(*pinned);
        sql::Catalog cold;
        cold.Register("events", &copy);
        for (const std::string& sql : queries) {
          Result<Table> got = sql::ExecuteSql(sql, snapshot.sql);
          Result<Table> want = sql::ExecuteSql(sql, cold);
          const std::string diff =
              got.ok() && want.ok() ? testutil::TableDiff(*want, *got)
                                    : "query failed";
          if (!diff.empty()) {
            failures[static_cast<size_t>(t)] = sql + ": " + diff;
            failed.fetch_add(1);
            return;
          }
        }
        checked.fetch_add(1);
      } while (!done.load());
    });
  }
  start.ArriveAndWait();
  for (int b = 0; b < kBatches; ++b) {
    auto batch = testutil::MakeRandomRows(spec, 1000 + b, 200);
    if (b % 3 == 1) {
      batch[17][3] = Value::Str(StrCat("g3new", b));
      batch[80][4] = Value::Str(StrCat("g4new", b));
    }
    EXPECT_TRUE(catalog.AppendRows("events", batch).ok());
    // Keep the readers racing the writer for the whole run.
    while (checked.load() < b && failed.load() < 4) std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_GE(checked.load(), kBatches - 1);
  EXPECT_EQ(catalog.Find("events").table->num_rows(), 2000 + 200 * kBatches);
}

// Four writers append 25 batches of 20 rows each to one dataset at once.
// Writers serialize on the catalog's lock, so no append is lost: the
// versions they get back are exactly 2..101, the table holds every row, and
// the reservoir was fed every row exactly once.
TEST(SharedStorageTest, ConcurrentWritersLoseNoAppend) {
  constexpr int kWriters = 4;
  constexpr int kBatches = 25;
  constexpr int kRows = 20;
  testutil::RandomTableSpec spec;
  DatasetCatalogOptions options;
  options.sample_capacity = 64;
  DatasetCatalog catalog(options);
  QAG_CHECK_OK(
      catalog.Register("events", testutil::MakeRandomTable(spec, 3, 500)));
  testutil::StartLatch start(kWriters);
  std::vector<std::vector<uint64_t>> versions(kWriters);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      start.ArriveAndWait();
      for (int b = 0; b < kBatches; ++b) {
        Result<uint64_t> version = catalog.AppendRows(
            "events", testutil::MakeRandomRows(spec, 100 * t + b, kRows));
        ASSERT_TRUE(version.ok()) << version.status().ToString();
        versions[static_cast<size_t>(t)].push_back(*version);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  std::vector<uint64_t> got;
  for (const std::vector<uint64_t>& v : versions) {
    got.insert(got.end(), v.begin(), v.end());
  }
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> want(kWriters * kBatches);
  std::iota(want.begin(), want.end(), uint64_t{2});
  EXPECT_EQ(got, want);
  const uint64_t last = want.back();
  EXPECT_EQ(catalog.version(), last);
  const CatalogSnapshot snapshot = catalog.Snapshot();
  EXPECT_EQ(snapshot.catalog_version, last);
  const TableSnapshot& events = snapshot.tables.at("events");
  EXPECT_EQ(events.version, last);
  ASSERT_EQ(events.table->num_rows(), 500 + kWriters * kBatches * kRows);
  ASSERT_NE(events.sample, nullptr);
  EXPECT_EQ(events.sample->rows.num_rows(), 64);
  EXPECT_EQ(events.sample->population_rows, events.table->num_rows());
  // A reservoir's ids depend only on its seed (the dataset name) and how
  // many rows it was fed, so registering the final table in one step draws
  // the same sample.
  DatasetCatalog serial(options);
  QAG_CHECK_OK(
      serial.Register("events", testutil::RowByRowCopy(*events.table)));
  EXPECT_EQ(testutil::TableDiff(serial.Find("events").sample->rows,
                                events.sample->rows),
            "");
}

}  // namespace
}  // namespace qagview::service
