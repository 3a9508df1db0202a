#pragma once

#include <string>
#include <vector>

/// \file
/// Plain-text table rendering for the experiment harnesses. Every bench
/// binary prints its table/figure series through this, so a table's rows
/// can be regenerated by re-running its binary.

namespace mhbc {

/// Column-aligned table with a markdown and a CSV rendering.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends a fully formatted row; must match the header arity.
  void AddRow(std::vector<std::string> cells);

  /// Number of data rows.
  std::size_t num_rows() const { return rows_.size(); }

  /// Renders a column-aligned markdown table (header, rule, rows).
  std::string ToMarkdown() const;

  /// Renders RFC-4180-ish CSV (cells containing comma/quote are quoted).
  std::string ToCsv() const;

  /// Renders a JSON object {"columns": [...], "rows": [[...], ...]} with
  /// every cell as a (escaped) string — the machine-readable twin of the
  /// markdown rendering, used by the bench JSON emitter and the CLI's
  /// --json mode.
  std::string ToJson() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escapes a string for embedding in a JSON document (quotes, backslashes,
/// control characters), without the surrounding quotes.
std::string EscapeJson(const std::string& raw);

/// Formats a double with `digits` significant-looking decimal places,
/// trimming to "%.*f". Centralized so all benches print consistently.
std::string FormatDouble(double value, int digits);

/// Formats like "1.23e-4" for tail probabilities and small errors.
std::string FormatScientific(double value, int digits);

/// Thousands-grouped integer (e.g. "1,234,567") for dataset-size tables.
std::string FormatCount(std::uint64_t value);

}  // namespace mhbc
