#include "storage/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace qagview::storage {

namespace {

// Splits one CSV record, honoring double-quote quoting with "" escapes.
Result<std::vector<std::string>> SplitRecord(const std::string& line,
                                             char sep) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      cells.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quote in: " + line);
  cells.push_back(std::move(cur));
  return cells;
}

bool NeedsQuoting(const std::string& s, char sep) {
  return s.find(sep) != std::string::npos ||
         s.find('"') != std::string::npos || s.find('\n') != std::string::npos;
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
  std::vector<std::vector<std::string>> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    QAG_ASSIGN_OR_RETURN(auto cells, SplitRecord(line, options.separator));
    records.push_back(std::move(cells));
  }
  if (records.empty()) return Status::ParseError("empty CSV input");

  std::vector<std::string> names;
  size_t first_data = 0;
  if (options.has_header) {
    names = records[0];
    first_data = 1;
  } else {
    for (size_t i = 0; i < records[0].size(); ++i) {
      names.push_back(StrCat("c", i));
    }
  }
  size_t num_cols = names.size();
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != num_cols) {
      return Status::ParseError(
          StrCat("row ", r, " has ", records[r].size(), " cells, expected ",
                 num_cols));
    }
  }

  // Infer per-column types.
  std::vector<ValueType> types(num_cols, ValueType::kInt64);
  for (size_t c = 0; c < num_cols; ++c) {
    bool all_int = true;
    bool all_num = true;
    bool any_value = false;
    for (size_t r = first_data; r < records.size(); ++r) {
      const std::string& cell = records[r][c];
      if (cell.empty()) continue;
      any_value = true;
      if (all_int && !ParseInt64(cell).ok()) all_int = false;
      if (all_num && !ParseDouble(cell).ok()) all_num = false;
      if (!all_num) break;
    }
    if (!any_value) {
      types[c] = ValueType::kString;
    } else if (all_int) {
      types[c] = ValueType::kInt64;
    } else if (all_num) {
      types[c] = ValueType::kDouble;
    } else {
      types[c] = ValueType::kString;
    }
  }

  // Typed cells straight into columns sized for every record.
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t c = 0; c < num_cols; ++c) {
    fields.push_back({names[c], types[c]});
    columns.emplace_back(types[c]);
    columns.back().Reserve(static_cast<int64_t>(records.size() - first_data));
  }
  for (size_t r = first_data; r < records.size(); ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& cell = records[r][c];
      Column& column = columns[c];
      if (cell.empty()) {
        column.AppendNull();
        continue;
      }
      switch (types[c]) {
        case ValueType::kInt64:
          column.AppendInt(ParseInt64(cell).value());
          break;
        case ValueType::kDouble:
          column.AppendDouble(ParseDouble(cell).value());
          break;
        default:
          column.AppendString(cell);
      }
    }
  }
  return Table::FromColumns(Schema{std::move(fields)}, std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ReadCsvString(buf.str(), options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::ostringstream out;
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (c) out << options.separator;
    out << schema.field(c).name;
  }
  out << "\n";
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c) out << options.separator;
      Value v = table.Get(r, c);
      if (v.is_null()) continue;
      std::string s = v.ToString();
      out << (NeedsQuoting(s, options.separator) ? QuoteCell(s) : s);
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
