#ifndef QAGVIEW_STORAGE_CSV_H_
#define QAGVIEW_STORAGE_CSV_H_

#include <string>

#include "common/result.h"
#include "storage/table.h"

namespace qagview::storage {

struct CsvOptions {
  char separator = ',';
  /// First row holds column names; when false, columns are named c0, c1, ...
  bool has_header = true;
};

/// \brief Parses CSV text into a Table, inferring column types.
///
/// Grammar:
/// - A record ends at a '\n' outside quotes. One '\r' just before that
///   '\n', or before the end of the input, is dropped. Blank records are
///   skipped; every other record must have as many fields as the first.
/// - Fields are split at the separator outside quotes. A '"' outside quotes
///   opens quoting anywhere in a field, so `"x"tail` reads as `xtail`.
///   Inside quotes, `""` is one literal quote and a lone '"' closes them;
///   the separator, '\n' and '\r' are part of the field. A quote left
///   open at the end of the input is a ParseError naming the line where it
///   opened.
///
/// Type inference scans all rows: a column is INT64 if every non-empty cell
/// parses as an integer, DOUBLE if every non-empty cell parses as a number,
/// STRING otherwise or when no cell has a value. Empty cells (also `""`)
/// become NULL. "Parses" means what ParseInt64/ParseDouble accept: strtoll
/// or strtod over the cell with surrounding whitespace stripped, and the
/// whole of it consumed. So ` 7 `, `+8`, hex floats (`0x1p3`), `inf` and
/// `nan(...)` are numbers, while a value strtod flags ERANGE is not: an
/// overflow (`1e400`), an underflow to zero (`1e-400`), and with glibc an
/// inexact value at or below DBL_MIN (`1e-310`, `2.2250738585072012e-308`);
/// a column holding one of those is STRING. Integers past the int64
/// range make the column DOUBLE.
///
/// The text is walked twice without copying a cell: once to check widths
/// and infer types, once to append typed values into columns sized for
/// every record. Only a field that holds a quote is unescaped, into one
/// reused buffer.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options = {});

/// Reads a CSV file with one sized read and parses it as ReadCsvString
/// does. A path that is not a regular file (a directory, a pipe), or one
/// that cannot be opened or read in full, is an IOError naming the path.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table as CSV (header + rows). NULLs are written as empty
/// cells, and as `""` in a one-column table, where an empty cell would be a
/// blank line; cells containing the separator, quotes, '\n' or '\r' are
/// quoted.
std::string WriteCsvString(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_CSV_H_
