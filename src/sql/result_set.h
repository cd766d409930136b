#ifndef QBISM_SQL_RESULT_SET_H_
#define QBISM_SQL_RESULT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sql/schema.h"

namespace qbism::sql {

/// Result of a statement: column headers plus rows. DDL/DML statements
/// produce an empty set (INSERT, UPDATE and DELETE report the row count
/// via `rows_affected`); EXPLAIN produces one `plan` column, one row
/// per plan line.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  uint64_t rows_affected = 0;

  /// Renders an ASCII table (for examples and debugging).
  std::string ToString() const;
};

}  // namespace qbism::sql

#endif  // QBISM_SQL_RESULT_SET_H_
