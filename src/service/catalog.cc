#include "service/catalog.h"

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

DatasetCatalog::Entry DatasetCatalog::NewEntry(const std::string& key,
                                               storage::Table table) const {
  Entry entry;
  entry.snapshot.table = std::make_shared<storage::Table>(std::move(table));
  if (options_.sample_capacity > 0) {
    entry.reservoir = std::make_shared<storage::RowReservoir>(
        options_.sample_capacity, SampleSeed(key));
    entry.reservoir->Feed(entry.snapshot.table->num_rows());
    entry.snapshot.sample =
        storage::TakeSample(*entry.snapshot.table, entry.reservoir->ids());
  }
  return entry;
}

uint64_t DatasetCatalog::Publish(std::string key, Entry entry) {
  auto next = std::make_shared<State>(*CurrentState());
  const uint64_t version = ++next->version;
  entry.snapshot.version = version;
  if (entry.snapshot.lineage == 0) entry.snapshot.lineage = version;
  next->tables.insert_or_assign(std::move(key), std::move(entry));
  // Readers holding the previous state keep it, and every table it holds.
  std::atomic_store_explicit(&state_,
                             std::shared_ptr<const State>(std::move(next)),
                             std::memory_order_release);
  version_.store(version, std::memory_order_release);
  return version;
}

Status DatasetCatalog::Register(const std::string& name,
                                storage::Table table) {
  std::string key = ToLower(name);
  if (key.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  // The sample is taken before the lock: there is no reason to hold the
  // other writers out while it gathers.
  Entry entry = NewEntry(key, std::move(table));
  std::lock_guard<std::mutex> lock(mu_);
  if (CurrentState()->tables.count(key) != 0) {
    return Status::AlreadyExists(
        StrCat("dataset '", name, "' is already registered"));
  }
  Publish(std::move(key), std::move(entry));
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
  // The lock spans the whole read-clone-publish window, so a concurrent
  // writer cannot publish over this append (lost update).
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const State> current = CurrentState();
  auto it = current->tables.find(key);
  if (it == current->tables.end()) {
    return Status::NotFound(StrCat("dataset '", name, "' is not registered"));
  }
  Entry entry = it->second;
  // The clone shares the current snapshot's column buffers; the batch is
  // written past the rows the current snapshot reads.
  storage::Table next = entry.snapshot.table->Clone();
  QAG_RETURN_IF_ERROR(next.AppendRows(rows));
  // Feed the reservoir only after AppendRows validated the whole batch, so
  // a rejected append leaves the sample (like the table) untouched.
  if (entry.reservoir != nullptr) {
    entry.reservoir->Feed(static_cast<int64_t>(rows.size()));
    entry.snapshot.sample = storage::TakeSample(next, entry.reservoir->ids());
  }
  entry.snapshot.table = std::make_shared<storage::Table>(std::move(next));
  return Publish(std::move(key), std::move(entry));
}

Result<uint64_t> DatasetCatalog::ReplaceTable(const std::string& name,
                                              storage::Table table) {
  std::string key = ToLower(name);
  if (key.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  // The replacement's sample starts from scratch (a new lineage, and the
  // schema may change), taken before the lock as in Register.
  Entry entry = NewEntry(key, std::move(table));
  std::lock_guard<std::mutex> lock(mu_);
  return Publish(std::move(key), std::move(entry));
}

TableSnapshot DatasetCatalog::Find(const std::string& name) const {
  std::shared_ptr<const State> state = CurrentState();
  auto it = state->tables.find(ToLower(name));
  return it == state->tables.end() ? TableSnapshot() : it->second.snapshot;
}

uint64_t DatasetCatalog::TableVersion(const std::string& name) const {
  return Find(name).version;
}

uint64_t DatasetCatalog::version() const {
  return version_.load(std::memory_order_acquire);
}

std::vector<std::string> DatasetCatalog::names() const {
  std::shared_ptr<const State> state = CurrentState();
  std::vector<std::string> out;
  out.reserve(state->tables.size());
  for (const auto& [name, entry] : state->tables) out.push_back(name);
  return out;  // map iteration order: already sorted
}

int DatasetCatalog::size() const {
  return static_cast<int>(CurrentState()->tables.size());
}

CatalogSnapshot DatasetCatalog::Snapshot() const {
  std::shared_ptr<const State> state = CurrentState();
  CatalogSnapshot out;
  out.catalog_version = state->version;
  for (const auto& [name, entry] : state->tables) {
    const TableSnapshot& table = entry.snapshot;
    out.tables.emplace(name, table);
    out.sql.Register(name, table.table.get());
    if (table.sample != nullptr) {
      out.sql.RegisterSample(name, &table.sample->rows,
                             table.sample->population_rows);
    }
  }
  return out;
}

}  // namespace qagview::service
