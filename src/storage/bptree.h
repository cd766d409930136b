#ifndef QBISM_STORAGE_BPTREE_H_
#define QBISM_STORAGE_BPTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace qbism::storage {

/// Disk-backed B+-tree mapping signed 64-bit keys to RecordIds, with
/// duplicate keys allowed. This is the index substrate the paper lists
/// as future work ("spatial indexing and query optimization techniques
/// for efficiently locating spatial objects in large populations of
/// studies", §7): the SQL layer builds per-column indexes on it so
/// equality predicates over large catalogs stop scanning.
///
/// Layout: one node per 4 KB page.
///   header: [u8 is_leaf][u16 count][u64 next_leaf (leaves only)]
///   leaf entries:     (i64 key, u64 page, u16 slot)   18 bytes
///   internal entries: (i64 key, u64 child)            16 bytes,
///     child[i] holds keys < key[i]; a final right-most child follows
///     the last key.
/// Entries within a node are sorted by (key, rid) so duplicates behave
/// deterministically.
class BPlusTree {
 public:
  /// Creates an empty tree; `pool` and `allocator` must outlive it and
  /// address the same device.
  static Result<BPlusTree> Create(BufferPool* pool, PageAllocator* allocator);

  /// Inserts a (key, rid) pair. Duplicate keys are fine; the exact pair
  /// may be inserted multiple times (index semantics: one entry per
  /// base-table record).
  Status Insert(int64_t key, const RecordId& rid);

  /// Removes one copy of the (key, rid) pair; NotFound when absent.
  /// Leaf-local: nodes are never merged or rebalanced, so a leaf may
  /// end up empty and separators stay valid search bounds.
  Status Remove(int64_t key, const RecordId& rid);

  /// All record ids whose key equals `key`.
  Result<std::vector<RecordId>> Find(int64_t key) const;

  /// All record ids with key in [lo, hi] (inclusive), in key order.
  Result<std::vector<RecordId>> FindRange(int64_t lo, int64_t hi) const;

  /// Visits every (key, rid) in ascending key order; return false to
  /// stop.
  Status Scan(const std::function<bool(int64_t, const RecordId&)>& visit) const;

  /// Number of entries.
  Result<uint64_t> Size() const;

  /// Tree height (1 = a single leaf). For tests and EXPLAIN output.
  Result<int> Height() const;

  uint64_t root_page() const { return root_; }

 private:
  BPlusTree(BufferPool* pool, PageAllocator* allocator, uint64_t root)
      : pool_(pool), allocator_(allocator), root_(root) {}

  /// Result of inserting into a subtree: set when the child split and
  /// the parent must add (separator_key, new right node).
  struct SplitResult {
    bool split = false;
    int64_t separator = 0;
    uint64_t right_page = 0;
  };

  Result<SplitResult> InsertInto(uint64_t page_no, int64_t key,
                                 const RecordId& rid);
  Result<uint64_t> LeftmostLeaf() const;
  /// Leaf that may contain `key` (the leaf a search for key lands in).
  Result<uint64_t> FindLeaf(int64_t key) const;

  BufferPool* pool_;
  PageAllocator* allocator_;
  uint64_t root_;
};

}  // namespace qbism::storage

#endif  // QBISM_STORAGE_BPTREE_H_
