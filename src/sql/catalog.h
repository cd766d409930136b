#ifndef QBISM_SQL_CATALOG_H_
#define QBISM_SQL_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/schema.h"
#include "storage/bptree.h"
#include "storage/heap_file.h"

namespace qbism::sql {

/// Table metadata plus its backing heap file and secondary indexes
/// (B+-trees over integer columns, keyed by column name).
struct TableInfo {
  TableSchema schema;
  std::unique_ptr<storage::HeapFile> file;
  std::map<std::string, std::unique_ptr<storage::BPlusTree>> indexes;
};

/// In-memory catalog mapping table names to schemas and heap files.
class Catalog {
 public:
  /// `pool` and `allocator` address the relational device and must
  /// outlive the catalog.
  Catalog(storage::BufferPool* pool, storage::PageAllocator* allocator)
      : pool_(pool), allocator_(allocator) {}

  Status CreateTable(TableSchema schema);
  Result<TableInfo*> GetTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Creates a B+-tree index over an integer column and backfills it
  /// from the existing rows. NULL values get no index entry, so an
  /// index lookup never returns NULL-keyed rows (equality with NULL is
  /// never true in this dialect anyway).
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Serializes and inserts a row, maintaining every index.
  Result<storage::RecordId> InsertRow(TableInfo* table, const Row& row);

  /// Deletes the record at `rid` and its entry in every index. `row`
  /// is the record's image; only its indexed columns are read, so a
  /// projection that decoded them suffices.
  Status DeleteRow(TableInfo* table, const storage::RecordId& rid,
                   const Row& row);

  /// Bumped on every schema change (CREATE TABLE / CREATE INDEX). Plan
  /// caches key on this: a compiled plan embeds resolved column indexes
  /// and access-path choices, so any DDL invalidates it. Row-level DML
  /// does not bump the version — plans re-resolve heap files and index
  /// handles by name at run time.
  uint64_t version() const { return version_; }

 private:
  storage::BufferPool* pool_;
  storage::PageAllocator* allocator_;
  std::map<std::string, TableInfo> tables_;
  uint64_t version_ = 0;
};

}  // namespace qbism::sql

#endif  // QBISM_SQL_CATALOG_H_
