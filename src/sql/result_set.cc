#include "sql/result_set.h"

#include <sstream>

namespace qbism::sql {

std::string ResultSet::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out << (i ? " | " : "") << columns[i];
  }
  out << "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i ? " | " : "") << row[i].ToString();
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace qbism::sql
