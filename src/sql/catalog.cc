#include "sql/catalog.h"

#include "common/macros.h"

namespace qbism::sql {

Status Catalog::CreateTable(TableSchema schema) {
  if (schema.name().empty()) {
    return Status::InvalidArgument("CreateTable: empty table name");
  }
  if (schema.NumColumns() == 0) {
    return Status::InvalidArgument("CreateTable: table needs columns");
  }
  if (tables_.count(schema.name())) {
    return Status::AlreadyExists("table '" + schema.name() +
                                 "' already exists");
  }
  TableInfo info;
  std::string name = schema.name();
  info.schema = std::move(schema);
  info.file = std::make_unique<storage::HeapFile>(pool_, allocator_);
  tables_.emplace(name, std::move(info));
  ++version_;
  return Status::OK();
}

Result<TableInfo*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return &it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Status Catalog::CreateIndex(const std::string& table,
                            const std::string& column) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * info, GetTable(table));
  QBISM_ASSIGN_OR_RETURN(size_t column_index,
                         info->schema.ColumnIndex(column));
  if (info->schema.columns()[column_index].type != ColumnType::kInt) {
    return Status::InvalidArgument(
        "CreateIndex: only integer columns are indexable");
  }
  if (info->indexes.count(column)) {
    return Status::AlreadyExists("index on " + table + "(" + column +
                                 ") already exists");
  }
  QBISM_ASSIGN_OR_RETURN(storage::BPlusTree tree,
                         storage::BPlusTree::Create(pool_, allocator_));
  auto index = std::make_unique<storage::BPlusTree>(std::move(tree));

  // Backfill from existing rows.
  Status backfill = Status::OK();
  QBISM_RETURN_NOT_OK(info->file->Scan(
      [&](const storage::RecordId& rid, const std::vector<uint8_t>& bytes) {
        auto row = DeserializeRow(info->schema, bytes);
        if (!row.ok()) {
          backfill = row.status();
          return false;
        }
        const Value& key = row.value()[column_index];
        if (key.is_null()) return true;
        auto key_int = key.AsInt();
        if (!key_int.ok()) {
          backfill = key_int.status();
          return false;
        }
        backfill = index->Insert(key_int.value(), rid);
        return backfill.ok();
      }));
  QBISM_RETURN_NOT_OK(backfill);
  info->indexes[column] = std::move(index);
  ++version_;
  return Status::OK();
}

Result<storage::RecordId> Catalog::InsertRow(TableInfo* table,
                                             const Row& row) {
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> record,
                         SerializeRow(table->schema, row));
  QBISM_ASSIGN_OR_RETURN(storage::RecordId rid, table->file->Insert(record));
  for (const auto& [column, index] : table->indexes) {
    QBISM_ASSIGN_OR_RETURN(size_t column_index,
                           table->schema.ColumnIndex(column));
    const Value& key = row[column_index];
    if (key.is_null()) continue;
    QBISM_ASSIGN_OR_RETURN(int64_t key_int, key.AsInt());
    QBISM_RETURN_NOT_OK(index->Insert(key_int, rid));
  }
  return rid;
}

Status Catalog::DeleteRow(TableInfo* table, const storage::RecordId& rid,
                          const Row& row) {
  QBISM_RETURN_NOT_OK(table->file->Delete(rid));
  for (const auto& [column, index] : table->indexes) {
    QBISM_ASSIGN_OR_RETURN(size_t column_index,
                           table->schema.ColumnIndex(column));
    const Value& key = row[column_index];
    if (key.is_null()) continue;
    QBISM_ASSIGN_OR_RETURN(int64_t key_int, key.AsInt());
    QBISM_RETURN_NOT_OK(index->Remove(key_int, rid));
  }
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, info] : tables_) names.push_back(name);
  return names;
}

}  // namespace qbism::sql
