#include "storage/csv.h"

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/string_util.h"

namespace qagview::storage {

namespace {

// Bytes of the line where an unterminated quote opened that its error
// message quotes.
constexpr size_t kExcerptBytes = 64;

// Walks the records of CSV text in order (the grammar is in csv.h). Next()
// hands each field of the next non-blank record to a callback as a view:
// into the text, or, for a field that holds a quote, into one scratch
// string reused for every such field. The callback consumes the view
// before it returns.
class RecordTokenizer {
 public:
  RecordTokenizer(std::string_view text, char separator)
      : text_(text), sep_(separator) {}

  /// Byte offset of the next record to read.
  size_t position() const { return pos_; }
  void set_position(size_t pos) { pos_ = pos; }

  /// Calls on_field(index, cell) for each field of the next non-blank
  /// record and returns its field count, or 0 at the end of the input.
  template <typename OnField>
  Result<size_t> Next(OnField&& on_field) {
    const char* const end = text_.data() + text_.size();
    while (pos_ < text_.size()) {
      const char* const begin = text_.data() + pos_;
      const char* stop = FindLineEnd(begin, end);
      const bool quoted = std::memchr(begin, '"', stop - begin) != nullptr;
      if (quoted) {
        QAG_ASSIGN_OR_RETURN(stop, FindRecordEnd(begin, end));
      }
      pos_ = std::min(static_cast<size_t>(stop - text_.data()) + 1,
                      text_.size());
      if (stop != begin && stop[-1] == '\r') --stop;
      if (stop == begin) continue;  // blank record
      return quoted ? SplitQuoted(begin, stop, on_field)
                    : SplitPlain(begin, stop, on_field);
    }
    return 0;
  }

 private:
  static const char* FindLineEnd(const char* begin, const char* end) {
    const void* nl = std::memchr(begin, '\n', end - begin);
    return nl == nullptr ? end : static_cast<const char*>(nl);
  }

  // The first '\n' outside quotes at or after `begin`, or `end`. Each '"'
  // flips the quoting, which also steps over the "" escape inside quotes.
  Result<const char*> FindRecordEnd(const char* begin, const char* end) {
    bool in_quotes = false;
    const char* opened = nullptr;  // the quote that opened the quoting
    const char* closed = nullptr;  // the last quote that closed it
    const char* p = begin;
    for (; p != end && (in_quotes || *p != '\n'); ++p) {
      if (*p != '"') continue;
      if (in_quotes) {
        closed = p;
      } else if (closed == nullptr || p - 1 != closed) {
        opened = p;  // not the second quote of an escaped ""
      }
      in_quotes = !in_quotes;
    }
    if (in_quotes) return UnterminatedQuote(opened);
    return p;
  }

  // Names the line where the quote opened and quotes its start, so the
  // message stays short however far the quoting runs.
  Status UnterminatedQuote(const char* quote) const {
    const std::string_view before(text_.data(), quote - text_.data());
    const size_t line_start = before.rfind('\n') + 1;  // npos + 1 == 0
    const auto line_number =
        1 + std::count(before.begin(), before.end(), '\n');
    std::string_view line = text_.substr(line_start);
    line = line.substr(0, line.find('\n'));
    return Status::ParseError(
        StrCat("unterminated quote opened on line ", line_number, ": ",
               line.substr(0, kExcerptBytes),
               line.size() > kExcerptBytes ? "..." : ""));
  }

  template <typename OnField>
  size_t SplitPlain(const char* begin, const char* stop, OnField& on_field) {
    size_t index = 0;
    while (true) {
      const void* sep = std::memchr(begin, sep_, stop - begin);
      const char* field_end =
          sep == nullptr ? stop : static_cast<const char*>(sep);
      on_field(index++, std::string_view(begin, field_end - begin));
      if (field_end == stop) return index;
      begin = field_end + 1;
    }
  }

  // A quote opens quoting anywhere in a field, so only a separator outside
  // quotes ends one; a quote is never a separator.
  template <typename OnField>
  size_t SplitQuoted(const char* begin, const char* stop, OnField& on_field) {
    size_t index = 0;
    while (true) {
      bool in_quotes = false;
      bool has_quote = false;
      const char* p = begin;
      for (; p != stop; ++p) {
        if (*p == '"') {
          in_quotes = !in_quotes;
          has_quote = true;
        } else if (*p == sep_ && !in_quotes) {
          break;
        }
      }
      on_field(index++, has_quote ? Unescape(begin, p)
                                  : std::string_view(begin, p - begin));
      if (p == stop) return index;
      begin = p + 1;
    }
  }

  // The field's text with its quoting removed: a quote outside quotes opens
  // them, and inside them "" is one literal quote and a lone quote closes.
  std::string_view Unescape(const char* begin, const char* end) {
    scratch_.clear();
    bool in_quotes = false;
    for (const char* p = begin; p != end; ++p) {
      if (*p != '"') {
        scratch_.push_back(*p);
      } else if (!in_quotes) {
        in_quotes = true;
      } else if (p + 1 != end && p[1] == '"') {
        scratch_.push_back('"');
        ++p;
      } else {
        in_quotes = false;
      }
    }
    return scratch_;
  }

  std::string_view text_;
  char sep_;
  size_t pos_ = 0;
  std::string scratch_;
};

// A cell as ParseInt64 reads it. std::from_chars takes the common case; what
// it refuses (surrounding whitespace, a leading '+', overflow, trailing
// bytes) goes to ParseInt64, which decides.
bool ToInt64(std::string_view cell, int64_t* out) {
  const char* const end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, *out);
  if (ec == std::errc() && ptr == end) return true;
  Result<int64_t> parsed = ParseInt64(cell);
  if (!parsed.ok()) return false;
  *out = *parsed;
  return true;
}

// A cell as ParseDouble reads it. std::from_chars takes a finite value that
// is zero or above DBL_MIN, where it and strtod agree bit for bit. The rest
// goes to ParseDouble: what from_chars refuses (whitespace, '+', hex
// floats, overflow, trailing bytes); infinities and NaNs (from_chars drops
// the payload of a NaN, strtod keeps it); and values at or below DBL_MIN,
// which glibc's strtod flags ERANGE when inexact, making them no number.
bool ToDouble(std::string_view cell, double* out) {
  const char* const end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, *out);
  if (ec == std::errc() && ptr == end &&
      (*out == 0.0 ||
       (std::fabs(*out) > DBL_MIN && std::fabs(*out) <= DBL_MAX))) {
    return true;
  }
  Result<double> parsed = ParseDouble(cell);
  if (!parsed.ok()) return false;
  *out = *parsed;
  return true;
}

// The inference rule of csv.h, fed one cell at a time: INT64 when every
// non-empty cell is an integer, DOUBLE when every one is a number, STRING
// when one is neither or none has a value. Once a cell is neither, the
// column is STRING and later cells are not looked at.
class TypeInference {
 public:
  void Observe(std::string_view cell) {
    if (cell.empty() || !all_num_) return;
    any_value_ = true;
    int64_t int_value = 0;
    if (all_int_ && ToInt64(cell, &int_value)) return;
    all_int_ = false;
    double double_value = 0.0;
    all_num_ = ToDouble(cell, &double_value);
  }

  ValueType type() const {
    if (!any_value_ || !all_num_) return ValueType::kString;
    return all_int_ ? ValueType::kInt64 : ValueType::kDouble;
  }

 private:
  bool any_value_ = false;
  bool all_int_ = true;
  bool all_num_ = true;
};

// Appends a cell the inference pass typed for this column.
void AppendCell(std::string_view cell, Column* column) {
  if (cell.empty()) {
    column->AppendNull();
    return;
  }
  switch (column->type()) {
    case ValueType::kInt64: {
      int64_t value = 0;
      const bool parsed = ToInt64(cell, &value);
      QAG_DCHECK(parsed);
      column->AppendInt(value);
      break;
    }
    case ValueType::kDouble: {
      double value = 0.0;
      const bool parsed = ToDouble(cell, &value);
      QAG_DCHECK(parsed);
      column->AppendDouble(value);
      break;
    }
    default:
      column->AppendString(cell);
  }
}

bool NeedsQuoting(const std::string& s, char sep) {
  return s.find_first_of(std::string{sep, '"', '\n', '\r'}) !=
         std::string::npos;
}

std::string QuoteCell(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  // The first record fixes the width, and names the columns if a header.
  RecordTokenizer records(text, options.separator);
  std::vector<std::string> names;
  auto name = [&](size_t, std::string_view cell) { names.emplace_back(cell); };
  QAG_ASSIGN_OR_RETURN(const size_t num_cols, records.Next(name));
  if (num_cols == 0) return Status::ParseError("empty CSV input");
  if (!options.has_header) {
    for (size_t c = 0; c < num_cols; ++c) names[c] = StrCat("c", c);
    records.set_position(0);
  }
  const size_t data_start = records.position();
  const size_t first_data = options.has_header ? 1 : 0;

  // Pass 1: check every record's width and infer each column's type.
  std::vector<TypeInference> inference(num_cols);
  auto observe = [&](size_t c, std::string_view cell) {
    if (c < num_cols) inference[c].Observe(cell);
  };
  size_t num_rows = 0;
  while (true) {
    QAG_ASSIGN_OR_RETURN(const size_t cells, records.Next(observe));
    if (cells == 0) break;
    if (cells != num_cols) {
      return Status::ParseError(StrCat("row ", first_data + num_rows, " has ",
                                       cells, " cells, expected ", num_cols));
    }
    ++num_rows;
  }

  // Pass 2: typed cells straight into columns sized for every record.
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t c = 0; c < num_cols; ++c) {
    fields.push_back({std::move(names[c]), inference[c].type()});
    columns.emplace_back(inference[c].type());
    columns.back().Reserve(static_cast<int64_t>(num_rows));
  }
  auto append = [&](size_t c, std::string_view cell) {
    AppendCell(cell, &columns[c]);
  };
  records.set_position(data_start);
  for (size_t r = 0; r < num_rows; ++r) {
    QAG_RETURN_IF_ERROR(records.Next(append).status());
  }
  return Table::FromColumns(Schema{std::move(fields)}, std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  // One sized read of the whole file, so only a regular file will do: a
  // directory or a pipe has no size to read.
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return Status::IOError(StrCat("cannot read ", path,
                                  " as a regular file: ", error.message()));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::string text(static_cast<size_t>(size), '\0');
  if (!in.read(text.data(), static_cast<std::streamsize>(size))) {
    return Status::IOError(StrCat("read of ", path, " came up short: ",
                                  in.gcount(), " of ", size, " bytes"));
  }
  return ReadCsvString(text, options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::ostringstream out;
  // In a one-column table an empty cell would make a blank line, which the
  // reader skips; "" reads back as the same empty cell.
  const bool one_column = table.num_columns() == 1;
  auto write_cell = [&](const std::string& s) {
    if (s.empty()) {
      if (one_column) out << "\"\"";
    } else {
      out << (NeedsQuoting(s, options.separator) ? QuoteCell(s) : s);
    }
  };
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (c) out << options.separator;
    write_cell(schema.field(c).name);
  }
  out << "\n";
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c) out << options.separator;
      Value v = table.Get(r, c);
      write_cell(v.is_null() ? std::string() : v.ToString());
    }
    out << "\n";
  }
  return out.str();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open file for write: " + path);
  out << WriteCsvString(table, options);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace qagview::storage
