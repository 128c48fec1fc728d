// CSV writer used by benches to dump figure data series next to the
// human-readable tables they print.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace prepare {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Throws
  /// std::runtime_error ("cannot open PATH for writing") if the file
  /// cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Writes one row; the column count must match the header.
  void row(const std::vector<double>& values);
  void row(const std::vector<std::string>& values);

  /// Flushes and closes the file. Throws std::runtime_error ("cannot
  /// write PATH") if any write or the flush failed. The destructor
  /// closes without checking, so a writer whose data must land calls
  /// this.
  void close();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::size_t columns_;
  std::ofstream out_;
};

/// Render a double without trailing zeros ("3.5", "120", "0.001").
std::string format_number(double value);

/// Minimal CSV reader for the files CsvWriter produces (no quoting or
/// embedded commas — our writers never emit them).
class CsvReader {
 public:
  /// Opens `path` and reads the header row. Throws std::runtime_error if
  /// the file cannot be opened or is empty.
  explicit CsvReader(const std::string& path);

  const std::vector<std::string>& header() const { return header_; }

  /// Index of a header column; throws CheckFailure if absent.
  std::size_t column(const std::string& name) const;

  /// Reads the next data row into `fields` (sized to the header width).
  /// Returns false at end of file. Throws CheckFailure on a row whose
  /// field count does not match the header.
  bool next(std::vector<std::string>* fields);

 private:
  std::ifstream in_;
  std::vector<std::string> header_;
};

/// Splits one CSV line on commas (no quote handling).
std::vector<std::string> split_csv_line(const std::string& line);

}  // namespace prepare
