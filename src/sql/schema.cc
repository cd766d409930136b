#include "sql/schema.h"

#include "common/macros.h"

namespace qbism::sql {

Result<ColumnType> ColumnTypeFromString(const std::string& name) {
  if (name == "int" || name == "INT" || name == "integer") {
    return ColumnType::kInt;
  }
  if (name == "double" || name == "DOUBLE" || name == "float") {
    return ColumnType::kDouble;
  }
  if (name == "string" || name == "STRING" || name == "varchar") {
    return ColumnType::kString;
  }
  if (name == "longfield" || name == "LONGFIELD" || name == "long") {
    return ColumnType::kLongField;
  }
  return Status::InvalidArgument("unknown column type: " + name);
}

std::string_view ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "int";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
    case ColumnType::kLongField:
      return "longfield";
  }
  return "unknown";
}

bool ValueMatchesType(const Value& value, ColumnType type) {
  if (value.is_null()) return true;
  switch (type) {
    case ColumnType::kInt:
      return value.kind() == Value::Kind::kInt;
    case ColumnType::kDouble:
      return value.kind() == Value::Kind::kDouble ||
             value.kind() == Value::Kind::kInt;
    case ColumnType::kString:
      return value.kind() == Value::Kind::kString;
    case ColumnType::kLongField:
      return value.kind() == Value::Kind::kLongField;
  }
  return false;
}

Result<size_t> TableSchema::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column_name) return i;
  }
  return Status::NotFound("no column '" + column_name + "' in table " + name_);
}

Result<std::vector<uint8_t>> SerializeRow(const TableSchema& schema,
                                          const Row& row) {
  if (row.size() != schema.NumColumns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   schema.name());
  }
  std::vector<uint8_t> out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (!ValueMatchesType(row[i], schema.columns()[i].type)) {
      return Status::InvalidArgument(
          "value " + row[i].ToString() + " does not match column '" +
          schema.columns()[i].name + "' of type " +
          std::string(ColumnTypeToString(schema.columns()[i].type)));
    }
    QBISM_RETURN_NOT_OK(row[i].SerializeTo(&out));
  }
  return out;
}

Result<Row> DeserializeRow(const TableSchema& schema,
                           const std::vector<uint8_t>& bytes) {
  Row row;
  row.reserve(schema.NumColumns());
  ByteReader in(bytes);
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    QBISM_ASSIGN_OR_RETURN(Value v, Value::DeserializeFrom(&in));
    row.push_back(std::move(v));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in stored row of table " +
                              schema.name());
  }
  return row;
}

Status DeserializeRowProjected(const TableSchema& schema,
                               const std::vector<uint8_t>& bytes,
                               const std::vector<char>& needed, Row* row) {
  return DeserializeRowProjected(schema, bytes, 0, bytes.size(), needed,
                                 row);
}

Status DeserializeRowProjected(const TableSchema& schema,
                               const std::vector<uint8_t>& bytes,
                               size_t offset, size_t length,
                               const std::vector<char>& needed, Row* row) {
  if (offset > bytes.size() || length > bytes.size() - offset) {
    return Status::Corruption("record slice out of bounds in table " +
                              schema.name());
  }
  row->clear();
  row->resize(schema.NumColumns());
  // Each value is bounded by its own record, not by the page buffer.
  ByteReader in(bytes.data() + offset, length);
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    if (i < needed.size() && needed[i]) {
      QBISM_ASSIGN_OR_RETURN((*row)[i], Value::DeserializeFrom(&in));
    } else {
      QBISM_RETURN_NOT_OK(Value::SkipSerialized(&in));
    }
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in stored row of table " +
                              schema.name());
  }
  return Status::OK();
}

}  // namespace qbism::sql
