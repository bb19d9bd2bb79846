#include "src/common/table_printer.h"

#include <cstdarg>

namespace palette {

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::FILE* out) const {
  const std::string rendered = ToString();
  std::fwrite(rendered.data(), 1, rendered.size(), out);
}

std::string TablePrinter::ToString() const {
  std::string out;
  if (rows_.empty()) {
    return out;
  }
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (row.size() > widths.size()) {
      widths.resize(row.size(), 0);
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  const auto append_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += row[i];
      out.append(widths[i] + 2 - row[i].size(), ' ');
    }
    out += '\n';
  };
  append_row(rows_[0]);
  std::size_t total = 0;
  for (std::size_t w : widths) {
    total += w + 2;
  }
  out.append(total, '-');
  out += '\n';
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    append_row(rows_[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  // One pass into a stack buffer covers names and table cells; only output
  // that does not fit pays a second vsnprintf, into the sized string.
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  std::string result;
  if (needed > 0 && static_cast<std::size_t>(needed) < sizeof(buffer)) {
    result.assign(buffer, static_cast<std::size_t>(needed));
  } else if (needed > 0) {
    result.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return result;
}

}  // namespace palette
