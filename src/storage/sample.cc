#include "storage/sample.h"

#include <limits>
#include <utility>

#include "common/logging.h"

namespace qagview::storage {

RowReservoir::RowReservoir(int capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  QAG_CHECK(capacity_ > 0) << "reservoir capacity must be positive";
}

double RowReservoir::UnitOpen() {
  double u = rng_.Uniform01();  // [0, 1)
  return u > 0.0 ? u : std::numeric_limits<double>::min();
}

void RowReservoir::ScheduleNextPick() {
  // Skip length: geometric with parameter 1 - w_. log1p keeps the
  // denominator accurate for w_ near 0; the clamp guards the int64 cast
  // when w_ is so small the skip exceeds any realistic stream (and w_ == 1
  // degenerates to admitting the very next index, which is harmless).
  double skip = std::floor(std::log(UnitOpen()) / std::log1p(-w_));
  if (!(skip < 9.0e18)) skip = 9.0e18;
  next_pick_ = seen_ + static_cast<int64_t>(skip) + 1;
}

std::shared_ptr<const TableSample> TakeSample(
    const Table& table, const std::vector<int64_t>& ids) {
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c).Take(ids));
  }
  return std::make_shared<const TableSample>(
      Table::FromColumns(table.schema(), std::move(columns)),
      table.num_rows());
}

ReservoirSampler::ReservoirSampler(Schema schema, int capacity, uint64_t seed)
    : schema_(std::move(schema)), reservoir_(capacity, seed) {
  rows_.reserve(static_cast<size_t>(capacity));
}

void ReservoirSampler::Keep(int slot, std::vector<Value> row) {
  if (static_cast<size_t>(slot) == rows_.size()) {
    rows_.push_back(std::move(row));
  } else {
    rows_[static_cast<size_t>(slot)] = std::move(row);
  }
}

void ReservoirSampler::Add(const std::vector<Value>& row) {
  reservoir_.Feed(1, [&](int slot, int64_t) { Keep(slot, row); });
}

void ReservoirSampler::AddTable(const Table& table) {
  const int64_t first = reservoir_.seen();
  reservoir_.Feed(table.num_rows(), [&](int slot, int64_t index) {
    Keep(slot, table.GetRow(index - first));
  });
}

std::shared_ptr<const TableSample> ReservoirSampler::Snapshot() const {
  Table rows{schema_};
  for (const auto& row : rows_) {
    Status status = rows.AppendRow(row);
    QAG_CHECK(status.ok()) << "sampled row no longer fits its schema: "
                           << status.message();
  }
  return std::make_shared<const TableSample>(std::move(rows),
                                             reservoir_.seen());
}

}  // namespace qagview::storage
