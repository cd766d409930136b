#include "storage/bptree.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/bytes.h"
#include "common/macros.h"

namespace qbism::storage {

namespace {

constexpr size_t kIsLeafOffset = 0;
constexpr size_t kCountOffset = 1;
constexpr size_t kNextLeafOffset = 3;
constexpr size_t kEntriesOffset = 11;

constexpr size_t kLeafEntrySize = 8 + 8 + 2;      // key, page, slot
constexpr size_t kInternalEntrySize = 8 + 8;      // key, child
constexpr size_t kLeafCapacity =
    (kPageSize - kEntriesOffset) / kLeafEntrySize;  // 226
constexpr size_t kInternalCapacity =
    (kPageSize - kEntriesOffset - 8) / kInternalEntrySize;  // 254 keys

/// In-memory decoded node: mutated locally, then written back whole.
struct Node {
  bool is_leaf = true;
  uint64_t next_leaf = 0;

  struct LeafEntry {
    int64_t key;
    RecordId rid;
  };
  std::vector<LeafEntry> leaf;  // sorted by (key, rid)

  std::vector<int64_t> keys;        // internal: separator keys
  std::vector<uint64_t> children;   // internal: keys.size() + 1 children

  void Decode(const uint8_t* page) {
    is_leaf = page[kIsLeafOffset] != 0;
    uint16_t count = LoadLE16(page + kCountOffset);
    next_leaf = LoadLE64(page + kNextLeafOffset);
    leaf.clear();
    keys.clear();
    children.clear();
    if (is_leaf) {
      leaf.reserve(count);
      const uint8_t* p = page + kEntriesOffset;
      for (uint16_t i = 0; i < count; ++i, p += kLeafEntrySize) {
        leaf.push_back({int64_t(LoadLE64(p)),
                        RecordId{LoadLE64(p + 8), LoadLE16(p + 16)}});
      }
    } else {
      children.reserve(count + 1);
      keys.reserve(count);
      const uint8_t* p = page + kEntriesOffset;
      children.push_back(LoadLE64(p));
      p += 8;
      for (uint16_t i = 0; i < count; ++i, p += kInternalEntrySize) {
        keys.push_back(int64_t(LoadLE64(p)));
        children.push_back(LoadLE64(p + 8));
      }
    }
  }

  void Encode(uint8_t* page) const {
    std::memset(page, 0, kPageSize);
    page[kIsLeafOffset] = is_leaf ? 1 : 0;
    StoreLE64(page + kNextLeafOffset, next_leaf);
    uint8_t* p = page + kEntriesOffset;
    if (is_leaf) {
      QBISM_CHECK(leaf.size() <= kLeafCapacity);
      StoreLE16(page + kCountOffset, static_cast<uint16_t>(leaf.size()));
      for (const LeafEntry& e : leaf) {
        StoreLE64(p, uint64_t(e.key));
        StoreLE64(p + 8, e.rid.page_no);
        StoreLE16(p + 16, e.rid.slot);
        p += kLeafEntrySize;
      }
    } else {
      QBISM_CHECK(keys.size() <= kInternalCapacity);
      QBISM_CHECK(children.size() == keys.size() + 1);
      StoreLE16(page + kCountOffset, static_cast<uint16_t>(keys.size()));
      StoreLE64(p, children[0]);
      p += 8;
      for (size_t i = 0; i < keys.size(); ++i) {
        StoreLE64(p, uint64_t(keys[i]));
        StoreLE64(p + 8, children[i + 1]);
        p += kInternalEntrySize;
      }
    }
  }
};

bool LeafEntryLess(const Node::LeafEntry& a, const Node::LeafEntry& b) {
  if (a.key != b.key) return a.key < b.key;
  if (a.rid.page_no != b.rid.page_no) return a.rid.page_no < b.rid.page_no;
  return a.rid.slot < b.rid.slot;
}

}  // namespace

Result<BPlusTree> BPlusTree::Create(BufferPool* pool,
                                    PageAllocator* allocator) {
  QBISM_ASSIGN_OR_RETURN(uint64_t root, allocator->Allocate());
  Node empty;
  QBISM_ASSIGN_OR_RETURN(uint8_t* page, pool->GetPage(root));
  empty.Encode(page);
  QBISM_RETURN_NOT_OK(pool->MarkDirty(root));
  return BPlusTree(pool, allocator, root);
}

namespace {

Result<Node> LoadNode(BufferPool* pool, uint64_t page_no) {
  QBISM_ASSIGN_OR_RETURN(uint8_t* page, pool->GetPage(page_no));
  Node node;
  node.Decode(page);
  return node;
}

Status StoreNode(BufferPool* pool, uint64_t page_no, const Node& node) {
  QBISM_ASSIGN_OR_RETURN(uint8_t* page, pool->GetPage(page_no));
  node.Encode(page);
  return pool->MarkDirty(page_no);
}

}  // namespace

Result<BPlusTree::SplitResult> BPlusTree::InsertInto(uint64_t page_no,
                                                     int64_t key,
                                                     const RecordId& rid) {
  QBISM_ASSIGN_OR_RETURN(Node node, LoadNode(pool_, page_no));
  if (node.is_leaf) {
    Node::LeafEntry entry{key, rid};
    auto it = std::upper_bound(node.leaf.begin(), node.leaf.end(), entry,
                               LeafEntryLess);
    node.leaf.insert(it, entry);
    if (node.leaf.size() <= kLeafCapacity) {
      QBISM_RETURN_NOT_OK(StoreNode(pool_, page_no, node));
      return SplitResult{};
    }
    // Split: right half moves to a new leaf.
    QBISM_ASSIGN_OR_RETURN(uint64_t right_page, allocator_->Allocate());
    Node right;
    right.is_leaf = true;
    size_t mid = node.leaf.size() / 2;
    right.leaf.assign(node.leaf.begin() + static_cast<int64_t>(mid),
                      node.leaf.end());
    node.leaf.resize(mid);
    right.next_leaf = node.next_leaf;
    node.next_leaf = right_page;
    QBISM_RETURN_NOT_OK(StoreNode(pool_, right_page, right));
    QBISM_RETURN_NOT_OK(StoreNode(pool_, page_no, node));
    return SplitResult{true, right.leaf.front().key, right_page};
  }

  // Internal node: descend into the child for `key`.
  size_t child_index =
      static_cast<size_t>(std::upper_bound(node.keys.begin(), node.keys.end(),
                                           key) -
                          node.keys.begin());
  QBISM_ASSIGN_OR_RETURN(SplitResult child_split,
                         InsertInto(node.children[child_index], key, rid));
  if (!child_split.split) return SplitResult{};

  // Reload: the recursive call may have rewritten pages (ours is not
  // among them, but reloading keeps the logic simple and correct if the
  // buffer pool evicted our frame).
  QBISM_ASSIGN_OR_RETURN(node, LoadNode(pool_, page_no));
  node.keys.insert(node.keys.begin() + static_cast<int64_t>(child_index),
                   child_split.separator);
  node.children.insert(
      node.children.begin() + static_cast<int64_t>(child_index) + 1,
      child_split.right_page);
  if (node.keys.size() <= kInternalCapacity) {
    QBISM_RETURN_NOT_OK(StoreNode(pool_, page_no, node));
    return SplitResult{};
  }
  // Split the internal node; the middle key moves up.
  QBISM_ASSIGN_OR_RETURN(uint64_t right_page, allocator_->Allocate());
  size_t mid = node.keys.size() / 2;
  int64_t separator = node.keys[mid];
  Node right;
  right.is_leaf = false;
  right.keys.assign(node.keys.begin() + static_cast<int64_t>(mid) + 1,
                    node.keys.end());
  right.children.assign(node.children.begin() + static_cast<int64_t>(mid) + 1,
                        node.children.end());
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  QBISM_RETURN_NOT_OK(StoreNode(pool_, right_page, right));
  QBISM_RETURN_NOT_OK(StoreNode(pool_, page_no, node));
  return SplitResult{true, separator, right_page};
}

Status BPlusTree::Insert(int64_t key, const RecordId& rid) {
  // Public tree operations hold the pool latch end to end so node page
  // pointers stay valid (see BufferPool::latch()).
  std::lock_guard<std::recursive_mutex> lock(pool_->latch());
  QBISM_ASSIGN_OR_RETURN(SplitResult split, InsertInto(root_, key, rid));
  if (!split.split) return Status::OK();
  // Grow a new root.
  QBISM_ASSIGN_OR_RETURN(uint64_t new_root, allocator_->Allocate());
  Node root;
  root.is_leaf = false;
  root.keys.push_back(split.separator);
  root.children.push_back(root_);
  root.children.push_back(split.right_page);
  QBISM_RETURN_NOT_OK(StoreNode(pool_, new_root, root));
  root_ = new_root;
  return Status::OK();
}

Result<uint64_t> BPlusTree::FindLeaf(int64_t key) const {
  // Duplicates of a separator key may sit on both sides of it (a split
  // can land between equal keys), so searches descend to the LEFTMOST
  // candidate leaf (lower_bound) and range scans walk right through the
  // leaf chain.
  uint64_t page_no = root_;
  while (true) {
    QBISM_ASSIGN_OR_RETURN(Node node, LoadNode(pool_, page_no));
    if (node.is_leaf) return page_no;
    size_t child_index = static_cast<size_t>(
        std::lower_bound(node.keys.begin(), node.keys.end(), key) -
        node.keys.begin());
    page_no = node.children[child_index];
  }
}

Status BPlusTree::Remove(int64_t key, const RecordId& rid) {
  std::lock_guard<std::recursive_mutex> lock(pool_->latch());
  // Duplicates of `key` may span several leaves, and a split orders
  // them by rid only within each leaf: walk right from the leftmost
  // candidate until a leaf holds a larger key.
  const Node::LeafEntry target{key, rid};
  QBISM_ASSIGN_OR_RETURN(uint64_t page_no, FindLeaf(key));
  while (page_no != 0) {
    QBISM_ASSIGN_OR_RETURN(Node node, LoadNode(pool_, page_no));
    auto it = std::lower_bound(node.leaf.begin(), node.leaf.end(), target,
                               LeafEntryLess);
    if (it != node.leaf.end() && !LeafEntryLess(target, *it)) {
      node.leaf.erase(it);
      return StoreNode(pool_, page_no, node);
    }
    if (!node.leaf.empty() && node.leaf.back().key > key) break;
    page_no = node.next_leaf;
  }
  return Status::NotFound("BPlusTree::Remove: no entry (" +
                          std::to_string(key) + ", " +
                          std::to_string(rid.page_no) + ":" +
                          std::to_string(rid.slot) + ")");
}

Result<std::vector<RecordId>> BPlusTree::Find(int64_t key) const {
  return FindRange(key, key);
}

Result<std::vector<RecordId>> BPlusTree::FindRange(int64_t lo,
                                                   int64_t hi) const {
  std::lock_guard<std::recursive_mutex> lock(pool_->latch());
  std::vector<RecordId> out;
  if (lo > hi) return out;
  QBISM_ASSIGN_OR_RETURN(uint64_t page_no, FindLeaf(lo));
  while (page_no != 0) {
    QBISM_ASSIGN_OR_RETURN(Node node, LoadNode(pool_, page_no));
    for (const Node::LeafEntry& e : node.leaf) {
      if (e.key < lo) continue;
      if (e.key > hi) return out;
      out.push_back(e.rid);
    }
    page_no = node.next_leaf;
  }
  return out;
}

Status BPlusTree::Scan(
    const std::function<bool(int64_t, const RecordId&)>& visit) const {
  std::lock_guard<std::recursive_mutex> lock(pool_->latch());
  QBISM_ASSIGN_OR_RETURN(uint64_t page_no, LeftmostLeaf());
  while (page_no != 0) {
    QBISM_ASSIGN_OR_RETURN(Node node, LoadNode(pool_, page_no));
    for (const Node::LeafEntry& e : node.leaf) {
      if (!visit(e.key, e.rid)) return Status::OK();
    }
    page_no = node.next_leaf;
  }
  return Status::OK();
}

Result<uint64_t> BPlusTree::LeftmostLeaf() const {
  uint64_t page_no = root_;
  while (true) {
    QBISM_ASSIGN_OR_RETURN(Node node, LoadNode(pool_, page_no));
    if (node.is_leaf) return page_no;
    page_no = node.children.front();
  }
}

Result<uint64_t> BPlusTree::Size() const {
  uint64_t count = 0;
  QBISM_RETURN_NOT_OK(Scan([&](int64_t, const RecordId&) {
    ++count;
    return true;
  }));
  return count;
}

Result<int> BPlusTree::Height() const {
  std::lock_guard<std::recursive_mutex> lock(pool_->latch());
  int height = 1;
  uint64_t page_no = root_;
  while (true) {
    QBISM_ASSIGN_OR_RETURN(Node node, LoadNode(pool_, page_no));
    if (node.is_leaf) return height;
    page_no = node.children.front();
    ++height;
  }
}

}  // namespace qbism::storage
