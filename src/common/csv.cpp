#include "common/csv.hpp"

#include "common/error.hpp"

namespace nocsched {

std::string csv_quote(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), width_(header.size()) {
  ensure(width_ > 0, "CsvWriter: header must not be empty");
  emit(header);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  ensure(cells.size() == width_, "CsvWriter: row has ", cells.size(),
         " cells, header has ", width_);
  emit(cells);
}

void CsvWriter::emit(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_quote(cells[i]);
  }
  out_ << '\n';
}

}  // namespace nocsched
