#ifndef QAGVIEW_CORE_SOLUTION_STORE_IO_H_
#define QAGVIEW_CORE_SOLUTION_STORE_IO_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/solution_store.h"

namespace qagview::core {

/// \brief Persistence for precomputed solution stores (§6.2).
///
/// The paper's prototype keeps precomputed (k, D) grids in memory and in
/// PostgreSQL so later requests retrieve at interactive speed; this module
/// is the equivalent for our in-process substrate: a store serializes to a
/// compact line-based text format and reloads against a freshly built
/// ClusterUniverse in a later process.
///
/// Clusters are serialized as attribute-code *patterns*, not universe ids:
/// ids depend on universe construction order, while patterns are stable
/// under rebuilds from the same answer set. Loading resolves each pattern
/// through ClusterUniverse::FindId.
///
/// A file is untrusted disk state, validated in three layers before any
/// pattern resolves: the FNV-1a 64 checksum over every byte but the
/// trailer (truncation, appended bytes and every single-byte change fail
/// here), the structural bounds of each header field, and the identity of
/// the answer set the grid was built from (n, m, and its content and
/// domain fingerprints), so a grid saved from other data — even data with
/// the same ranking — is refused instead of served.
///
/// Format (version 2):
///   qagview-store 2 <L> <k_max> <num_attrs> <num_d> <num_answers>
///       <content_fp> <domain_fp>         (one line; fps as 16 hex digits)
///   d <D> states <S> intervals <I>
///   s <size> <value>                   (x S)
///   i <lo> <hi> <c1> <c2> ... <cm>     (x I; wildcard rendered as '*')
///   checksum <fnv1a64>                 (16 hex digits, over all bytes above)
/// Version-1 files (no identity, no checksum) are rejected.
std::string SerializeSolutionStore(const SolutionStore& store);

/// What a grid file records about itself, readable without a universe.
struct SolutionStoreHeader {
  /// The L the grid was built for.
  int l = 0;
  int k_max = 0;
  /// The number of per-D blocks that follow the header.
  int num_d = 0;
  /// Identity of the answer set the grid was built from.
  int num_answers = 0;
  int num_attrs = 0;
  uint64_t content_fingerprint = 0;
  uint64_t domain_fingerprint = 0;

  /// OK iff the grid was built from exactly `answers`; InvalidArgument
  /// otherwise.
  Status CheckBuiltFrom(const AnswerSet& answers) const;
};

/// Verifies `text`'s version and checksum and parses its header, with
/// every field range-checked. Any damage is a clean InvalidArgument.
Result<SolutionStoreHeader> ParseSolutionStoreHeader(const std::string& text);

/// Parses `text` and rebuilds the store against `universe` (which must
/// outlive the result). Fails with a clean InvalidArgument — never a
/// crash, never a partially built store (SolutionStore::FromParts is
/// all-or-nothing) — unless the checksum holds, the header names the
/// universe's own answer set, the universe covers the store's L, and every
/// count, coordinate and pattern is in range.
Result<SolutionStore> DeserializeSolutionStore(const ClusterUniverse* universe,
                                               const std::string& text);

/// File wrappers. Saving writes a temp file and renames it over `path`, so
/// a reader sees the old file or the new one, never a torn write.
Status SaveSolutionStore(const SolutionStore& store, const std::string& path);
Result<std::string> ReadSolutionStoreFile(const std::string& path);
Result<SolutionStore> LoadSolutionStore(const ClusterUniverse* universe,
                                        const std::string& path);

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_SOLUTION_STORE_IO_H_
