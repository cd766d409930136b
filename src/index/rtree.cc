#include "index/rtree.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>

#include "common/bytes.h"
#include "curve/engine.h"

namespace qbism::index {

namespace {

void PutBoxAt(uint8_t* p, const BoundingBox& box) {
  for (int d = 0; d < 3; ++d) StoreLE16(p + 2 * d, box.min[d]);
  for (int d = 0; d < 3; ++d) StoreLE16(p + 6 + 2 * d, box.max[d]);
}

BoundingBox GetBoxAt(const uint8_t* p) {
  BoundingBox box;
  for (int d = 0; d < 3; ++d) box.min[d] = LoadLE16(p + 2 * d);
  for (int d = 0; d < 3; ++d) box.max[d] = LoadLE16(p + 6 + 2 * d);
  return box;
}

/// An internal-level entry during bottom-up construction.
struct Upward {
  uint64_t page = 0;
  uint64_t signature = 0;
  BoundingBox box;
};

}  // namespace

Result<HilbertRTree> HilbertRTree::BulkLoad(storage::BufferPool* pool,
                                            storage::PageAllocator* alloc,
                                            const region::GridSpec& grid,
                                            curve::CurveKind kind,
                                            std::vector<Entry> entries) {
  HilbertRTree tree;
  tree.pool_ = pool;
  if (entries.empty()) return tree;

  // Hilbert-pack: order leaf entries by the curve index of their box
  // centroid. Centroids are computed at 2x resolution (min+max per
  // axis) then halved so they stay on the storage grid; the batch
  // engine converts them all in one call.
  {
    const int dims = grid.dims;
    const int bits = grid.bits;
    std::vector<uint32_t> axes(entries.size() * size_t(dims));
    for (size_t i = 0; i < entries.size(); ++i) {
      uint32_t c2[3];
      entries[i].box.Centroid2(c2);
      for (int d = 0; d < dims; ++d) {
        axes[i * size_t(dims) + size_t(d)] = c2[d] / 2;
      }
    }
    std::vector<uint64_t> keys(entries.size());
    curve::CurveIndexBatch(kind, axes.data(), entries.size(), dims, bits,
                           keys.data());
    std::vector<size_t> order(entries.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (keys[a] != keys[b]) return keys[a] < keys[b];
      return entries[a].study_id < entries[b].study_id;
    });
    std::vector<Entry> packed(entries.size());
    for (size_t i = 0; i < order.size(); ++i) packed[i] = entries[order[i]];
    entries = std::move(packed);
  }

  std::lock_guard<std::recursive_mutex> lock(pool->latch());

  // Pack the leaf level.
  std::vector<Upward> level;
  level.reserve(entries.size() / kLeafFanout + 1);
  for (size_t off = 0; off < entries.size(); off += kLeafFanout) {
    size_t count = std::min(kLeafFanout, entries.size() - off);
    auto page_no = alloc->Allocate();
    if (!page_no.ok()) return page_no.status();
    auto frame = pool->GetPage(*page_no);
    if (!frame.ok()) return frame.status();
    uint8_t* p = *frame;
    std::memset(p, 0, storage::kPageSize);
    p[0] = 0;  // leaf
    StoreLE16(p + 2, uint16_t(count));
    Upward up;
    up.page = *page_no;
    uint8_t* e = p + kHeaderSize;
    for (size_t i = 0; i < count; ++i, e += kLeafEntrySize) {
      const Entry& ent = entries[off + i];
      StoreLE64(e, uint64_t(ent.study_id));
      StoreLE64(e + 8, ent.signature);
      PutBoxAt(e + 16, ent.box);
      e[28] = ent.lo;
      e[29] = ent.hi;
      up.signature |= ent.signature;
      if (i == 0) {
        up.box = ent.box;
      } else {
        up.box.ExpandTo(ent.box);
      }
    }
    auto dirty = pool->MarkDirty(*page_no);
    if (!dirty.ok()) return dirty;
    level.push_back(up);
    ++tree.page_count_;
  }

  // Pack internal levels until one root remains. Children keep their
  // Hilbert order, so internal boxes inherit the packing locality.
  int height = 1;
  while (level.size() > 1) {
    std::vector<Upward> next;
    next.reserve(level.size() / kInternalFanout + 1);
    for (size_t off = 0; off < level.size(); off += kInternalFanout) {
      size_t count = std::min(kInternalFanout, level.size() - off);
      auto page_no = alloc->Allocate();
      if (!page_no.ok()) return page_no.status();
      auto frame = pool->GetPage(*page_no);
      if (!frame.ok()) return frame.status();
      uint8_t* p = *frame;
      std::memset(p, 0, storage::kPageSize);
      p[0] = uint8_t(height);
      StoreLE16(p + 2, uint16_t(count));
      Upward up;
      up.page = *page_no;
      uint8_t* e = p + kHeaderSize;
      for (size_t i = 0; i < count; ++i, e += kInternalEntrySize) {
        const Upward& child = level[off + i];
        StoreLE64(e, child.page);
        StoreLE64(e + 8, child.signature);
        PutBoxAt(e + 16, child.box);
        up.signature |= child.signature;
        if (i == 0) {
          up.box = child.box;
        } else {
          up.box.ExpandTo(child.box);
        }
      }
      auto dirty = pool->MarkDirty(*page_no);
      if (!dirty.ok()) return dirty;
      next.push_back(up);
      ++tree.page_count_;
    }
    level = std::move(next);
    ++height;
  }

  tree.root_page_ = level[0].page;
  tree.height_ = height;
  tree.leaf_entries_ = entries.size();
  return tree;
}

Status HilbertRTree::Probe(const BoundingBox& box, uint64_t sig,
                           uint8_t band_lo, uint8_t band_hi,
                           const std::function<void(int64_t)>& emit,
                           ProbeCounters* counters) const {
  if (height_ == 0) return Status::OK();
  std::lock_guard<std::recursive_mutex> lock(pool_->latch());
  return ProbePage(root_page_, box, sig, band_lo, band_hi, emit, counters);
}

Status HilbertRTree::ProbePage(uint64_t page_no, const BoundingBox& box,
                               uint64_t sig, uint8_t band_lo, uint8_t band_hi,
                               const std::function<void(int64_t)>& emit,
                               ProbeCounters* counters) const {
  auto frame = pool_->GetPage(page_no);
  if (!frame.ok()) return frame.status();
  const uint8_t* p = *frame;
  int level = p[0];
  size_t count = LoadLE16(p + 2);
  if (counters) ++counters->pages_visited;

  if (level == 0) {
    const uint8_t* e = p + kHeaderSize;
    for (size_t i = 0; i < count; ++i, e += kLeafEntrySize) {
      if (counters) ++counters->entries_tested;
      uint64_t esig = LoadLE64(e + 8);
      if ((esig & sig) == 0) {
        if (counters) ++counters->pruned_sig;
        continue;
      }
      BoundingBox ebox = GetBoxAt(e + 16);
      if (!ebox.Intersects(box)) {
        if (counters) ++counters->pruned_box;
        continue;
      }
      uint8_t elo = e[28], ehi = e[29];
      if (elo < band_lo || ehi > band_hi) {
        if (counters) ++counters->pruned_band;
        continue;
      }
      if (counters) ++counters->emitted;
      emit(int64_t(LoadLE64(e)));
    }
    return Status::OK();
  }

  // Internal node: gather surviving children first, then recurse — the
  // recursion's own GetPage calls may evict this frame.
  std::vector<uint64_t> children;
  children.reserve(count);
  {
    const uint8_t* e = p + kHeaderSize;
    for (size_t i = 0; i < count; ++i, e += kInternalEntrySize) {
      if (counters) ++counters->entries_tested;
      uint64_t csig = LoadLE64(e + 8);
      if ((csig & sig) == 0) {
        if (counters) ++counters->pruned_sig;
        continue;
      }
      BoundingBox cbox = GetBoxAt(e + 16);
      if (!cbox.Intersects(box)) {
        if (counters) ++counters->pruned_box;
        continue;
      }
      children.push_back(LoadLE64(e));
    }
  }
  for (uint64_t child : children) {
    auto st = ProbePage(child, box, sig, band_lo, band_hi, emit, counters);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace qbism::index
