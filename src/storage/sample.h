#ifndef QAGVIEW_STORAGE_SAMPLE_H_
#define QAGVIEW_STORAGE_SAMPLE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "storage/table.h"

namespace qagview::storage {

/// \brief An immutable uniform-sample snapshot of one table version: the
/// sampled rows materialized as a Table, plus the population size they were
/// drawn from.
///
/// Published behind `shared_ptr<const TableSample>` with the same immutable
/// snapshot discipline as the tables themselves (service::DatasetCatalog):
/// every catalog mutation publishes a fresh snapshot; readers holding an
/// older one keep it alive for as long as they need it.
struct TableSample {
  TableSample(Table sample_rows, int64_t population)
      : rows(std::move(sample_rows)), population_rows(population) {}

  /// The sampled rows (a uniform subset of the population, in reservoir
  /// order — not the original row order).
  Table rows;

  /// Number of rows in the table version this sample was drawn from.
  int64_t population_rows = 0;

  /// n / N. 1.0 when the sample covers the whole (or an empty) table.
  double fraction() const {
    return population_rows <= 0
               ? 1.0
               : static_cast<double>(rows.num_rows()) /
                     static_cast<double>(population_rows);
  }
};

/// \brief A bounded uniform reservoir over a stream of row ids.
///
/// Classic reservoir sampling with Vitter's Algorithm L skip-ahead: once
/// the reservoir is full, the gap to the next admitted row is drawn from a
/// geometric distribution instead of flipping a coin per row, so feeding n
/// rows costs O(capacity * (1 + log(n/capacity))) admissions. The sample is
/// exactly uniform over every prefix of the stream. The reservoir holds
/// stream indices, not rows: fed with the rows of an append-only table in
/// order, its ids() are row ids of every later version of that table, which
/// is what lets the dataset catalog keep one reservoir across append
/// batches and materialize each version's sample with Column::Take.
///
/// Determinism: all randomness flows through the explicitly seeded Rng, so
/// the same (seed, stream length) always yields the same ids, however the
/// stream is split into Feed calls. Not thread-safe.
class RowReservoir {
 public:
  /// `capacity` > 0 is the reservoir size in rows.
  RowReservoir(int capacity, uint64_t seed);

  /// Feeds the next `count` stream indices [seen(), seen() + count). For
  /// each admitted index calls `admit(slot, index)` after storing it in
  /// ids()[slot]; `slot == ids().size() - 1` while the reservoir fills.
  template <typename Admit>
  void Feed(int64_t count, Admit&& admit);
  void Feed(int64_t count) {
    Feed(count, [](int, int64_t) {});
  }

  /// The stream index each slot holds, in reservoir order.
  const std::vector<int64_t>& ids() const { return ids_; }

  /// Stream indices fed so far (N, the population of the current sample).
  int64_t seen() const { return seen_; }

  int capacity() const { return capacity_; }

 private:
  /// Uniform in (0, 1): log() of the result stays finite.
  double UnitOpen();

  /// Draws the stream position of the next admitted index (Algorithm L:
  /// the skip length is geometric with parameter 1 - w_).
  void ScheduleNextPick();

  /// Algorithm L's weight update after an admission.
  void ShrinkWeight() { w_ *= std::exp(std::log(UnitOpen()) / capacity_); }

  const int capacity_;
  Rng rng_;
  std::vector<int64_t> ids_;
  int64_t seen_ = 0;       // indices consumed from the stream
  double w_ = 0.0;         // Algorithm L state, valid once the reservoir fills
  int64_t next_pick_ = 0;  // 1-based stream position of the next admission
};

template <typename Admit>
void RowReservoir::Feed(int64_t count, Admit&& admit) {
  const int64_t end = seen_ + count;
  // Fill phase: every index is admitted until the reservoir is full.
  while (static_cast<int>(ids_.size()) < capacity_ && seen_ < end) {
    ids_.push_back(seen_);
    admit(static_cast<int>(ids_.size()) - 1, seen_);
    ++seen_;
    if (static_cast<int>(ids_.size()) == capacity_) {
      w_ = std::exp(std::log(UnitOpen()) / capacity_);
      ScheduleNextPick();
    }
  }
  // Skip-ahead phase: jump straight to each admitted index.
  while (seen_ < end) {
    if (next_pick_ > end) {
      seen_ = end;
      return;
    }
    seen_ = next_pick_;
    const int slot = static_cast<int>(rng_.Index(capacity_));
    ids_[static_cast<size_t>(slot)] = seen_ - 1;
    admit(slot, seen_ - 1);
    ShrinkWeight();
    ScheduleNextPick();
  }
}

/// The sample of `table` a reservoir fed with its rows holds: the rows at
/// `ids`, in reservoir order, drawn from a population of table.num_rows().
std::shared_ptr<const TableSample> TakeSample(const Table& table,
                                              const std::vector<int64_t>& ids);

/// \brief A RowReservoir over rows passed by value, for callers without an
/// append-only table to index: the admitted rows are kept boxed and
/// Snapshot() materializes them. Takes the same admissions as a
/// RowReservoir with the same seed, so its snapshot equals TakeSample over
/// the concatenated stream cell for cell.
class ReservoirSampler {
 public:
  /// `capacity` > 0 is the reservoir size in rows; `schema` must match
  /// every row subsequently fed in.
  ReservoirSampler(Schema schema, int capacity, uint64_t seed);

  /// Feeds one row of the stream. Copies the row only if it is admitted.
  void Add(const std::vector<Value>& row);

  /// Feeds every row of `table`, boxing only the admitted ones.
  void AddTable(const Table& table);

  /// Rows seen so far (N, the population of the current sample).
  int64_t population_rows() const { return reservoir_.seen(); }

  int capacity() const { return reservoir_.capacity(); }

  /// Materializes the current reservoir as an immutable snapshot.
  std::shared_ptr<const TableSample> Snapshot() const;

 private:
  /// Stores `row` in `slot`.
  void Keep(int slot, std::vector<Value> row);

  Schema schema_;
  RowReservoir reservoir_;
  std::vector<std::vector<Value>> rows_;  // slot -> admitted row
};

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_SAMPLE_H_
