#ifndef QAGVIEW_SERVICE_CATALOG_H_
#define QAGVIEW_SERVICE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/executor.h"
#include "storage/sample.h"
#include "storage/table.h"

namespace qagview::service {

/// One immutable table snapshot plus the catalog version it was published
/// at. `table == nullptr` means the dataset is absent. `sample` is the
/// table's uniform reservoir sample, published in the same snapshot as the
/// table version it was drawn from (nullptr when sampling is disabled).
/// `lineage` names the run of appends the table belongs to: Register and
/// ReplaceTable start a new lineage, AppendRows keeps it, so two snapshots
/// of one lineage agree on every row the older one has.
struct TableSnapshot {
  std::shared_ptr<const storage::Table> table;
  std::shared_ptr<const storage::TableSample> sample;
  uint64_t version = 0;
  uint64_t lineage = 0;
};

/// Point-in-time view of the whole catalog for one SQL execution: a
/// sql::Catalog of raw pointers, and the table snapshots (by lower-cased
/// name) that keep what it points to alive while the query runs and hold
/// the versions the refresh layer records as the query's dependencies.
struct CatalogSnapshot {
  sql::Catalog sql;
  uint64_t catalog_version = 0;
  std::map<std::string, TableSnapshot> tables;
};

struct DatasetCatalogOptions {
  /// Reservoir capacity (rows) of the per-dataset uniform sample each
  /// snapshot carries. <= 0 disables sampling: snapshots publish no
  /// samples and approximate execution falls back to exact.
  int sample_capacity = 4096;
};

/// \brief Thread-safe, versioned catalog of the named datasets a
/// QueryService can query — the service-layer analogue of the paper
/// prototype's database schema, extended with live updates.
///
/// Every dataset is an **immutable snapshot**: AppendRows and ReplaceTable
/// never mutate a published table, they publish a new snapshot under the
/// next monotonically increasing catalog version, and readers holding the
/// previous snapshot (in-flight queries, pinned CatalogSnapshots) keep it
/// alive for as long as they need it. Names are case-insensitive, matching
/// `sql::Catalog`.
///
/// An append costs O(batch), not O(table): the next snapshot is a
/// storage::Table::Clone of the current one, whose columns share the
/// current one's append-only buffers, and the batch is written past the
/// rows the current snapshot reads. The sample of the new version is
/// Column::Take over the row ids one RowReservoir per lineage holds.
///
/// Readers take one atomic load of the published State and no lock.
/// Writers serialize on one mutex across their read-clone-publish window,
/// so no update is lost, and publish the successor State in one step.
class DatasetCatalog {
 public:
  explicit DatasetCatalog(DatasetCatalogOptions options = {})
      : options_(options) {}

  /// Takes ownership of `table` under `name` as version snapshot 1 of the
  /// dataset. AlreadyExists if the name is taken (use ReplaceTable to
  /// swap a dataset wholesale).
  Status Register(const std::string& name, storage::Table table);

  /// Loads a CSV file (type-inferred, see storage::ReadCsvFile) and
  /// registers it under `name`.
  Status RegisterCsvFile(const std::string& name, const std::string& path);

  /// Publishes a new snapshot of `name` with `rows` appended (atomic:
  /// either every row is appended or the dataset is unchanged), in the
  /// current snapshot's lineage. Existing readers keep their old snapshot.
  /// Returns the new version. NotFound if the dataset does not exist.
  Result<uint64_t> AppendRows(
      const std::string& name,
      const std::vector<std::vector<storage::Value>>& rows);

  /// Publishes `table` as the new snapshot of `name` (the schema may
  /// change) in a new lineage, creating the dataset if absent. Existing
  /// readers keep their old snapshot. Returns the new version.
  Result<uint64_t> ReplaceTable(const std::string& name,
                                storage::Table table);

  /// The current snapshot of `name`; `.table == nullptr` if absent. The
  /// returned shared_ptr keeps the snapshot alive across later updates.
  TableSnapshot Find(const std::string& name) const;

  /// The current version of `name`, or 0 if absent.
  uint64_t TableVersion(const std::string& name) const;

  /// Catalog-wide version: bumps on every Register / AppendRows /
  /// ReplaceTable. 0 = empty, never mutated. One atomic load: the
  /// staleness fast path every warm QueryService request takes.
  uint64_t version() const;

  /// Registered names (lower-cased), sorted.
  std::vector<std::string> names() const;

  int size() const;

  /// A pinned point-in-time view of all current tables for one query
  /// execution (see CatalogSnapshot).
  CatalogSnapshot Snapshot() const;

 private:
  struct Entry {
    TableSnapshot snapshot;
    /// The reservoir over the row ids of the snapshot's lineage. Only
    /// writers feed it, under mu_. Nullptr when sampling is disabled.
    std::shared_ptr<storage::RowReservoir> reservoir;
  };

  /// The published catalog. Immutable once published.
  struct State {
    uint64_t version = 0;
    std::map<std::string, Entry> tables;  // by lower-cased name
  };

  /// Deterministic per-dataset reservoir seed (FNV-1a of the lower-cased
  /// name): the sample depends only on (name, row stream), so rebuilding a
  /// catalog from the same inputs reproduces every sample.
  static uint64_t SampleSeed(const std::string& key);

  /// A new lineage holding `table`, with a fresh reservoir fed with its
  /// rows and the sample it holds (none when sampling is disabled).
  Entry NewEntry(const std::string& key, storage::Table table) const;

  std::shared_ptr<const State> CurrentState() const {
    return std::atomic_load_explicit(&state_, std::memory_order_acquire);
  }

  /// Publishes the successor of the current state: `entry` under `key` at
  /// the next version, which it returns. An entry with lineage 0 starts
  /// its lineage at that version. Caller holds mu_.
  uint64_t Publish(std::string key, Entry entry);

  const DatasetCatalogOptions options_;
  /// Serializes writers. Readers never take it.
  std::mutex mu_;
  /// Read through CurrentState, written through Publish.
  std::shared_ptr<const State> state_ = std::make_shared<const State>();
  /// state_->version, stored (release) after state_: version() never runs
  /// ahead of the state a reader loads after it.
  std::atomic<uint64_t> version_{0};
};

}  // namespace qagview::service

#endif  // QAGVIEW_SERVICE_CATALOG_H_
