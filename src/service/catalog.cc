#include "service/catalog.h"

#include <tuple>
#include <utility>

#include "common/string_util.h"
#include "storage/csv.h"

namespace qagview::service {

uint64_t DatasetCatalog::SampleSeed(const std::string& key) {
  // FNV-1a over the lower-cased dataset name.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::pair<std::shared_ptr<storage::RowReservoir>,
          std::shared_ptr<const storage::TableSample>>
DatasetCatalog::StartSample(const std::string& key,
                            const storage::Table& table) const {
  if (options_.sample_capacity <= 0) return {};
  auto reservoir = std::make_shared<storage::RowReservoir>(
      options_.sample_capacity, SampleSeed(key));
  reservoir->Feed(table.num_rows());
  return {reservoir, storage::TakeSample(table, reservoir->ids())};
}

Status DatasetCatalog::Register(const std::string& name,
                                storage::Table table) {
  std::string key = ToLower(name);
  if (key.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  Entry entry;
  entry.snapshot.table = std::make_shared<storage::Table>(std::move(table));
  // The sample is taken before the exclusive lock: there is no reason to
  // hold every reader out while it gathers.
  std::tie(entry.reservoir, entry.snapshot.sample) =
      StartSample(key, *entry.snapshot.table);
  entry.writer = std::make_shared<std::mutex>();
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists(
        StrCat("dataset '", name, "' is already registered"));
  }
  entry.snapshot.version = ++version_;
  entry.snapshot.lineage = entry.snapshot.version;
  tables_.emplace(std::move(key), std::move(entry));
  return Status::OK();
}

Status DatasetCatalog::RegisterCsvFile(const std::string& name,
                                       const std::string& path) {
  QAG_ASSIGN_OR_RETURN(storage::Table table, storage::ReadCsvFile(path));
  return Register(name, std::move(table));
}

Result<uint64_t> DatasetCatalog::AppendRows(
    const std::string& name,
    const std::vector<std::vector<storage::Value>>& rows) {
  std::string key = ToLower(name);
  // The dataset's writer mutex serializes the whole read-clone-publish
  // window (lost-update guard) without blocking writers to other datasets.
  // Readers never wait on it, and mu_ is held only for the map accesses.
  std::shared_ptr<std::mutex> writer;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = tables_.find(key);
    if (it == tables_.end()) {
      return Status::NotFound(
          StrCat("dataset '", name, "' is not registered"));
    }
    writer = it->second.writer;
  }
  std::lock_guard<std::mutex> write_lock(*writer);
  TableSnapshot current;
  std::shared_ptr<storage::RowReservoir> reservoir;
  {
    // Re-read under the writer lock: another writer may have published a
    // newer snapshot between the lookup and the lock acquisition. The
    // reservoir is fetched here too — it is only ever swapped under this
    // writer mutex (ReplaceTable), which we now hold.
    std::shared_lock<std::shared_mutex> lock(mu_);
    const Entry& e = tables_.at(key);
    current = e.snapshot;
    reservoir = e.reservoir;
  }
  // The clone shares the current snapshot's column buffers; the batch is
  // written past the rows the current snapshot reads.
  storage::Table next = current.table->Clone();
  QAG_RETURN_IF_ERROR(next.AppendRows(rows));
  // Feed the reservoir only after AppendRows validated the whole batch, so
  // a rejected append leaves the sample (like the table) untouched.
  std::shared_ptr<const storage::TableSample> sample;
  if (reservoir != nullptr) {
    reservoir->Feed(static_cast<int64_t>(rows.size()));
    sample = storage::TakeSample(next, reservoir->ids());
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& entry = tables_.at(key);
  entry.snapshot.table = std::make_shared<storage::Table>(std::move(next));
  entry.snapshot.sample = std::move(sample);
  entry.snapshot.version = ++version_;  // old snapshot lives on via pins
  return entry.snapshot.version;
}

Result<uint64_t> DatasetCatalog::ReplaceTable(const std::string& name,
                                              storage::Table table) {
  std::string key = ToLower(name);
  if (key.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  auto snapshot = std::make_shared<storage::Table>(std::move(table));
  // The replacement's sample starts from scratch (a new lineage, and the
  // schema may change), taken before any lock as in Register.
  auto [reservoir, sample] = StartSample(key, *snapshot);
  while (true) {
    std::shared_ptr<std::mutex> writer;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = tables_.find(key);
      if (it != tables_.end()) writer = it->second.writer;
    }
    if (writer == nullptr) {
      // Creating: publish under the exclusive lock, unless another writer
      // registered the name meanwhile (then retry with its writer mutex).
      std::unique_lock<std::shared_mutex> lock(mu_);
      if (tables_.count(key) != 0) continue;
      Entry entry;
      entry.snapshot.table = snapshot;
      entry.snapshot.sample = sample;
      entry.snapshot.version = ++version_;
      entry.snapshot.lineage = entry.snapshot.version;
      entry.writer = std::make_shared<std::mutex>();
      entry.reservoir = reservoir;
      uint64_t version = entry.snapshot.version;
      tables_.emplace(std::move(key), std::move(entry));
      return version;
    }
    // Replacing: hold the dataset's writer mutex so a concurrent
    // AppendRows clone cannot publish over this replacement (lost update).
    std::lock_guard<std::mutex> write_lock(*writer);
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry& entry = tables_.at(key);
    entry.snapshot.table = snapshot;
    entry.snapshot.sample = sample;
    entry.snapshot.version = ++version_;
    entry.snapshot.lineage = entry.snapshot.version;
    entry.reservoir = reservoir;
    return entry.snapshot.version;
  }
}

TableSnapshot DatasetCatalog::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? TableSnapshot() : it->second.snapshot;
}

uint64_t DatasetCatalog::TableVersion(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? 0 : it->second.snapshot.version;
}

uint64_t DatasetCatalog::version() const {
  // Lock-free: the QueryService staleness fast path reads this once per
  // warm request. Writers bump the counter under mu_ exclusive after
  // installing the new snapshot; acquire pairs with that (seq_cst) bump.
  return version_.load(std::memory_order_acquire);
}

std::vector<std::string> DatasetCatalog::names() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) out.push_back(name);
  return out;  // map iteration order: already sorted
}

int DatasetCatalog::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int>(tables_.size());
}

CatalogSnapshot DatasetCatalog::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  CatalogSnapshot out;
  // Stable while the shared lock excludes writers.
  out.catalog_version = version_.load(std::memory_order_relaxed);
  out.pins.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) {
    out.sql.Register(name, entry.snapshot.table.get());
    out.versions.emplace(name, entry.snapshot.version);
    out.lineages.emplace(name, entry.snapshot.lineage);
    out.pins.push_back(entry.snapshot.table);
    if (entry.snapshot.sample != nullptr) {
      out.sql.RegisterSample(name, &entry.snapshot.sample->rows,
                             entry.snapshot.sample->population_rows);
      out.sample_pins.push_back(entry.snapshot.sample);
    }
  }
  return out;
}

}  // namespace qagview::service
