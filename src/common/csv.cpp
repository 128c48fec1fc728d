#include "common/csv.h"

#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace prepare {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), columns_(header.size()), out_(path) {
  if (!out_) throw std::runtime_error("cannot open " + path + " for writing");
  PREPARE_CHECK(!header.empty());
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) out_ << ",";
    out_ << header[i];
  }
  out_ << "\n";
}

void CsvWriter::row(const std::vector<double>& values) {
  PREPARE_CHECK(values.size() == columns_);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ",";
    out_ << format_number(values[i]);
  }
  out_ << "\n";
}

void CsvWriter::row(const std::vector<std::string>& values) {
  PREPARE_CHECK(values.size() == columns_);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ",";
    out_ << values[i];
  }
  out_ << "\n";
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw std::runtime_error("cannot write " + path_);
}

std::string format_number(double value) {
  std::ostringstream os;
  os.precision(6);
  os << value;
  return os.str();
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

CsvReader::CsvReader(const std::string& path) : in_(path) {
  if (!in_) throw std::runtime_error("cannot open csv file: " + path);
  std::string line;
  if (!std::getline(in_, line))
    throw std::runtime_error("empty csv file: " + path);
  header_ = split_csv_line(line);
}

std::size_t CsvReader::column(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i)
    if (header_[i] == name) return i;
  PREPARE_CHECK_MSG(false, "csv column not found: " + name);
  return 0;  // unreachable
}

bool CsvReader::next(std::vector<std::string>* fields) {
  PREPARE_CHECK(fields != nullptr);
  std::string line;
  while (std::getline(in_, line)) {
    if (line.empty()) continue;
    *fields = split_csv_line(line);
    PREPARE_CHECK_MSG(fields->size() == header_.size(),
                      "csv row width does not match header");
    return true;
  }
  return false;
}

}  // namespace prepare
