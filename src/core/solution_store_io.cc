#include "core/solution_store_io.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/hash.h"
#include "common/string_util.h"
#include "core/cluster.h"

namespace qagview::core {

namespace {

constexpr int kFormatVersion = 2;
constexpr const char* kMagic = "qagview-store";
/// The last line of every file: the tag, 16 lowercase hex digits, '\n'.
constexpr std::string_view kTrailerTag = "checksum ";
constexpr size_t kTrailerSize = kTrailerTag.size() + 16 + 1;

/// Shortest round-trip representation of a double.
std::string RoundTripDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string Hex64(uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// Exactly 16 lowercase hex digits, as Hex64 writes them: one spelling per
/// value, so changing any digit changes the value.
bool ParseHex64(std::string_view text, uint64_t* out) {
  constexpr std::string_view kDigits = "0123456789abcdef";
  if (text.size() != 16) return false;
  *out = 0;
  for (char c : text) {
    const size_t digit = kDigits.find(c);
    if (digit == std::string_view::npos) return false;
    *out = (*out << 4) | digit;
  }
  return true;
}

struct LineReader {
  std::istringstream in;
  int line_number = 0;

  explicit LineReader(const std::string& text) : in(text) {}

  Result<std::string> Next() {
    std::string line;
    while (std::getline(in, line)) {
      ++line_number;
      if (!line.empty()) return line;
    }
    return Status::InvalidArgument("unexpected end of solution-store data");
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrCat("solution store line ", line_number, ": ", message));
  }

  /// Parses an integer field and range-checks it *before* any narrowing
  /// cast — the load path must survive arbitrary disk bytes, so a count
  /// or coordinate outside its plausible range is rejected as damage
  /// rather than truncated into something that happens to validate.
  Result<int> BoundedInt(const std::string& field, const char* what,
                         int64_t lo, int64_t hi) {
    Result<int64_t> v = ParseInt64(field);
    if (!v.ok()) return Error(StrCat("bad ", what, " '", field, "'"));
    if (*v < lo || *v > hi) {
      return Error(
          StrCat(what, " = ", *v, " outside [", lo, ", ", hi, "]"));
    }
    return static_cast<int>(*v);
  }

  Result<uint64_t> Fingerprint(const std::string& field, const char* what) {
    uint64_t v = 0;
    if (!ParseHex64(field, &v)) {
      return Error(StrCat("bad ", what, " '", field,
                          "' (expected 16 lowercase hex digits)"));
    }
    return v;
  }
};

/// Structural ceilings for untrusted store files. Far above anything the
/// precompute can produce, far below anything that overflows an int or
/// turns a hostile header into unbounded work.
constexpr int64_t kMaxL = int64_t{1} << 30;
constexpr int64_t kMaxKMax = int64_t{1} << 30;
constexpr int64_t kMaxAttrs = int64_t{1} << 20;
constexpr int64_t kMaxDBlocks = int64_t{1} << 20;
constexpr int64_t kMaxStates = int64_t{1} << 26;
constexpr int64_t kMaxIntervals = int64_t{1} << 28;
constexpr int64_t kMaxAnswers = int64_t{1} << 30;

/// Checks the magic and version (first, so an old file says what it is),
/// then the checksum trailer against every byte before it.
Status VerifyVersionAndChecksum(const std::string& text) {
  const std::vector<std::string> head =
      Split(std::string_view(text).substr(0, text.find('\n')), ' ');
  if (head.size() < 2 || head[0] != kMagic) {
    return Status::InvalidArgument(
        "not a grid file (expected 'qagview-store <version> ...')");
  }
  if (head[1] != std::to_string(kFormatVersion)) {
    return Status::InvalidArgument(
        StrCat("unsupported grid file version '", head[1],
               "' (this build reads version ", kFormatVersion, ")"));
  }
  const std::string_view bytes(text);
  const size_t body_size =
      bytes.size() > kTrailerSize ? bytes.size() - kTrailerSize : 0;
  uint64_t recorded = 0;
  if (body_size == 0 || bytes[body_size - 1] != '\n' ||
      bytes.substr(body_size, kTrailerTag.size()) != kTrailerTag ||
      !ParseHex64(bytes.substr(body_size + kTrailerTag.size(), 16),
                  &recorded) ||
      bytes.back() != '\n') {
    return Status::InvalidArgument(
        "grid file does not end in a checksum line (truncated or extended)");
  }
  if (Fnv1a64(bytes.substr(0, body_size)) != recorded) {
    return Status::InvalidArgument("grid file checksum mismatch (damaged)");
  }
  return Status::OK();
}

/// Reads and range-checks the header line; `reader` is left on the first
/// per-D block.
Result<SolutionStoreHeader> ReadHeader(LineReader* reader) {
  QAG_ASSIGN_OR_RETURN(std::string line, reader->Next());
  const std::vector<std::string> head = Split(line, ' ');
  if (head.size() != 9) {
    return reader->Error("bad header (expected 9 fields)");
  }
  SolutionStoreHeader out;
  QAG_ASSIGN_OR_RETURN(out.l, reader->BoundedInt(head[2], "L", 1, kMaxL));
  QAG_ASSIGN_OR_RETURN(out.k_max,
                       reader->BoundedInt(head[3], "k_max", 1, kMaxKMax));
  QAG_ASSIGN_OR_RETURN(out.num_attrs,
                       reader->BoundedInt(head[4], "num_attrs", 1, kMaxAttrs));
  QAG_ASSIGN_OR_RETURN(out.num_d,
                       reader->BoundedInt(head[5], "num_d", 0, kMaxDBlocks));
  QAG_ASSIGN_OR_RETURN(
      out.num_answers,
      reader->BoundedInt(head[6], "num_answers", 1, kMaxAnswers));
  QAG_ASSIGN_OR_RETURN(out.content_fingerprint,
                       reader->Fingerprint(head[7], "content fingerprint"));
  QAG_ASSIGN_OR_RETURN(out.domain_fingerprint,
                       reader->Fingerprint(head[8], "domain fingerprint"));
  return out;
}

}  // namespace

Status SolutionStoreHeader::CheckBuiltFrom(const AnswerSet& answers) const {
  if (num_answers != answers.size() || num_attrs != answers.num_attrs() ||
      content_fingerprint != answers.content_fingerprint() ||
      domain_fingerprint != answers.domain_fingerprint()) {
    return Status::InvalidArgument(
        StrCat("grid file was built from a different answer set (file n=",
               num_answers, " content ", Hex64(content_fingerprint),
               ", answers n=", answers.size(), " content ",
               Hex64(answers.content_fingerprint()), ")"));
  }
  return Status::OK();
}

std::string SerializeSolutionStore(const SolutionStore& store) {
  const AnswerSet& answers = store.universe()->answer_set();
  std::vector<int> d_values = store.d_values();
  std::string out =
      StrCat(kMagic, " ", kFormatVersion, " ", store.l(), " ", store.k_max(),
             " ", store.num_attrs(), " ", d_values.size(), " ",
             answers.size(), " ", Hex64(answers.content_fingerprint()), " ",
             Hex64(answers.domain_fingerprint()), "\n");
  for (int d : d_values) {
    auto size_values = store.SizeValues(d);
    auto intervals = store.Intervals(d);
    QAG_CHECK_OK(size_values.status());
    QAG_CHECK_OK(intervals.status());
    out += StrCat("d ", d, " states ", size_values->size(), " intervals ",
                  intervals->size(), "\n");
    for (const auto& [size, value] : *size_values) {
      out += StrCat("s ", size, " ", RoundTripDouble(value), "\n");
    }
    for (const SolutionStore::IntervalRecord& record : *intervals) {
      out += StrCat("i ", record.lo, " ", record.hi);
      for (int32_t code : store.ClusterPattern(record.cluster_id)) {
        out += code == kWildcard ? " *" : StrCat(" ", code);
      }
      out += "\n";
    }
  }
  out += StrCat(kTrailerTag, Hex64(Fnv1a64(out)), "\n");
  return out;
}

Result<SolutionStoreHeader> ParseSolutionStoreHeader(const std::string& text) {
  QAG_RETURN_IF_ERROR(VerifyVersionAndChecksum(text));
  LineReader reader(text);
  return ReadHeader(&reader);
}

Result<SolutionStore> DeserializeSolutionStore(const ClusterUniverse* universe,
                                               const std::string& text) {
  if (universe == nullptr) {
    return Status::InvalidArgument("universe must not be null");
  }
  QAG_RETURN_IF_ERROR(VerifyVersionAndChecksum(text));
  LineReader reader(text);
  QAG_ASSIGN_OR_RETURN(SolutionStoreHeader header, ReadHeader(&reader));
  // Identity before any pattern resolves: a grid from other data can name
  // patterns this universe also holds, and would then serve wrong answers.
  QAG_RETURN_IF_ERROR(header.CheckBuiltFrom(universe->answer_set()));
  if (header.l > universe->top_l()) {
    return reader.Error(StrCat("store was built for L=", header.l,
                               " but the universe only covers ",
                               universe->top_l()));
  }
  const int m = header.num_attrs;

  std::vector<SolutionStore::PartsPerD> parts;
  for (int block = 0; block < header.num_d; ++block) {
    QAG_ASSIGN_OR_RETURN(std::string d_line, reader.Next());
    std::vector<std::string> fields = Split(d_line, ' ');
    if (fields.size() != 6 || fields[0] != "d" || fields[2] != "states" ||
        fields[4] != "intervals") {
      return reader.Error("bad per-D header");
    }
    SolutionStore::PartsPerD part;
    QAG_ASSIGN_OR_RETURN(int d, reader.BoundedInt(fields[1], "D", 0, m));
    QAG_ASSIGN_OR_RETURN(
        int64_t num_states,
        reader.BoundedInt(fields[3], "state count", 1, kMaxStates));
    QAG_ASSIGN_OR_RETURN(
        int64_t num_intervals,
        reader.BoundedInt(fields[5], "interval count", 0, kMaxIntervals));
    part.d = d;

    for (int64_t r = 0; r < num_states; ++r) {
      QAG_ASSIGN_OR_RETURN(std::string line, reader.Next());
      std::vector<std::string> sv = Split(line, ' ');
      if (sv.size() != 3 || sv[0] != "s") return reader.Error("bad state row");
      QAG_ASSIGN_OR_RETURN(int size,
                           reader.BoundedInt(sv[1], "state size", 1, kMaxL));
      Result<double> value = ParseDouble(sv[2]);
      if (!value.ok() || !std::isfinite(*value)) {
        return reader.Error(StrCat("bad state value '", sv[2], "'"));
      }
      part.size_value.emplace_back(size, *value);
    }

    for (int64_t r = 0; r < num_intervals; ++r) {
      QAG_ASSIGN_OR_RETURN(std::string line, reader.Next());
      std::vector<std::string> fields2 = Split(line, ' ');
      if (static_cast<int>(fields2.size()) != 3 + m || fields2[0] != "i") {
        return reader.Error(
            StrCat("bad interval row (expected ", 3 + m, " fields)"));
      }
      SolutionStore::IntervalRecord record;
      QAG_ASSIGN_OR_RETURN(record.lo,
                           reader.BoundedInt(fields2[1], "lo", 1, kMaxKMax));
      QAG_ASSIGN_OR_RETURN(record.hi,
                           reader.BoundedInt(fields2[2], "hi", 1, kMaxKMax));
      std::vector<int32_t> pattern(static_cast<size_t>(m));
      for (int a = 0; a < m; ++a) {
        const std::string& field = fields2[static_cast<size_t>(3 + a)];
        if (field == "*") {
          pattern[static_cast<size_t>(a)] = kWildcard;
        } else {
          QAG_ASSIGN_OR_RETURN(
              int code,
              reader.BoundedInt(field, "attribute code", 0, INT32_MAX));
          pattern[static_cast<size_t>(a)] = static_cast<int32_t>(code);
        }
      }
      record.cluster_id = universe->FindId(Cluster(std::move(pattern)));
      if (record.cluster_id < 0) {
        return reader.Error("pattern not present in the universe");
      }
      part.intervals.push_back(record);
    }
    parts.push_back(std::move(part));
  }
  return SolutionStore::FromParts(universe, header.l, header.k_max,
                                  std::move(parts));
}

Status SaveSolutionStore(const SolutionStore& store, const std::string& path) {
  const std::string text = SerializeSolutionStore(store);
  // A temp name unique per process and call, so concurrent saves to one
  // path each rename a complete file into place.
  static std::atomic<uint64_t> next_temp{0};
  const std::string tmp =
      StrCat(path, ".tmp.", ::getpid(), ".",
             next_temp.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      return Status::NotFound(StrCat("cannot open ", tmp, " for writing"));
    }
    out << text;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal(StrCat("write to ", tmp, " failed"));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return Status::Internal(StrCat("rename ", tmp, " -> ", path,
                                   " failed: ", std::strerror(err)));
  }
  return Status::OK();
}

Result<std::string> ReadSolutionStoreFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("cannot open ", path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<SolutionStore> LoadSolutionStore(const ClusterUniverse* universe,
                                        const std::string& path) {
  QAG_ASSIGN_OR_RETURN(std::string text, ReadSolutionStoreFile(path));
  return DeserializeSolutionStore(universe, text);
}

}  // namespace qagview::core
