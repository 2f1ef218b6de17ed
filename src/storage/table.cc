#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace qagview::storage {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (const Field& f : schema_.fields()) {
    columns_.push_back(std::make_unique<Column>(f.type));
  }
}

Table Table::FromColumns(Schema schema, std::vector<Column> columns) {
  Table out(std::move(schema));
  QAG_CHECK(static_cast<int>(columns.size()) == out.num_columns())
      << "FromColumns: " << columns.size() << " columns for "
      << out.num_columns() << " fields";
  out.num_rows_ = columns.empty() ? 0 : columns.front().size();
  for (int i = 0; i < out.num_columns(); ++i) {
    Column& column = columns[static_cast<size_t>(i)];
    QAG_CHECK(column.type() == out.schema_.field(i).type &&
              column.size() == out.num_rows_)
        << "FromColumns: column " << out.schema_.field(i).name
        << " does not match its field or the first column's length";
    *out.columns_[static_cast<size_t>(i)] = std::move(column);
  }
  return out;
}

Table Table::Clone() const {
  Table out(schema_);
  for (int i = 0; i < num_columns(); ++i) {
    *out.columns_[static_cast<size_t>(i)] =
        columns_[static_cast<size_t>(i)]->Clone();
  }
  out.num_rows_ = num_rows_;
  return out;
}

Status Table::ValidateRow(const std::vector<Value>& values) const {
  if (static_cast<int>(values.size()) != num_columns()) {
    return Status::InvalidArgument(
        StrCat("row has ", values.size(), " values, table has ",
               num_columns(), " columns"));
  }
  for (int i = 0; i < num_columns(); ++i) {
    const Value& v = values[static_cast<size_t>(i)];
    if (!v.is_null()) {
      ValueType ct = schema_.field(i).type;
      bool ok = v.type() == ct ||
                (ct == ValueType::kDouble && v.type() == ValueType::kInt64);
      if (!ok) {
        return Status::InvalidArgument(
            StrCat("column ", schema_.field(i).name, " expects ",
                   ValueTypeToString(ct), ", got ",
                   ValueTypeToString(v.type())));
      }
    }
  }
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& values) {
  QAG_RETURN_IF_ERROR(ValidateRow(values));
  for (int i = 0; i < num_columns(); ++i) {
    columns_[static_cast<size_t>(i)]->Append(values[static_cast<size_t>(i)]);
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendRows(const std::vector<std::vector<Value>>& rows) {
  for (size_t r = 0; r < rows.size(); ++r) {
    Status status = ValidateRow(rows[r]);
    if (!status.ok()) {
      return Status::InvalidArgument(
          StrCat("batch row ", r, ": ", status.message()));
    }
  }
  for (int i = 0; i < num_columns(); ++i) {
    Column& column = *columns_[static_cast<size_t>(i)];
    column.Reserve(static_cast<int64_t>(rows.size()));
    for (const std::vector<Value>& row : rows) {
      column.Append(row[static_cast<size_t>(i)]);
    }
  }
  num_rows_ += static_cast<int64_t>(rows.size());
  return Status::OK();
}

std::vector<Value> Table::GetRow(int64_t row) const {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(num_columns()));
  for (int i = 0; i < num_columns(); ++i) out.push_back(Get(row, i));
  return out;
}

std::string Table::ToString(int64_t max_rows) const {
  int64_t rows = std::min(max_rows, num_rows());
  // Compute column widths over the printed window.
  std::vector<size_t> width(static_cast<size_t>(num_columns()));
  std::vector<std::vector<std::string>> cells(static_cast<size_t>(rows));
  for (int c = 0; c < num_columns(); ++c) {
    width[static_cast<size_t>(c)] = schema_.field(c).name.size();
  }
  for (int64_t r = 0; r < rows; ++r) {
    cells[static_cast<size_t>(r)].resize(static_cast<size_t>(num_columns()));
    for (int c = 0; c < num_columns(); ++c) {
      std::string s = Get(r, c).ToString();
      width[static_cast<size_t>(c)] =
          std::max(width[static_cast<size_t>(c)], s.size());
      cells[static_cast<size_t>(r)][static_cast<size_t>(c)] = std::move(s);
    }
  }
  std::ostringstream out;
  for (int c = 0; c < num_columns(); ++c) {
    out << (c ? " | " : "");
    std::string name = schema_.field(c).name;
    name.resize(width[static_cast<size_t>(c)], ' ');
    out << name;
  }
  out << "\n";
  for (int64_t r = 0; r < rows; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      out << (c ? " | " : "");
      std::string s = cells[static_cast<size_t>(r)][static_cast<size_t>(c)];
      s.resize(width[static_cast<size_t>(c)], ' ');
      out << s;
    }
    out << "\n";
  }
  if (rows < num_rows()) {
    out << "... (" << num_rows() - rows << " more rows)\n";
  }
  return out.str();
}

}  // namespace qagview::storage
