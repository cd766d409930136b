#ifndef QBISM_INDEX_BITMAP_H_
#define QBISM_INDEX_BITMAP_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace qbism::index {

/// Two-level hierarchical bitmap over the 8-bit intensity domain
/// (PAPERS.md "Hierarchical Bitmap Indexing for Range and Membership
/// Queries on Multidimensional Arrays"). The leaf level has one bit per
/// intensity value (256 bits = 4 machine words); the summary level has
/// one bit per 32-value group (8 bits), set iff any leaf bit in the
/// group is set. Range/membership probes test summary bits first and
/// touch leaf words only for groups whose summary bit is on, so a
/// "does study S contain any voxel with intensity in [lo, hi]?" probe
/// is a handful of word operations against 33 bytes of state — no
/// region is decoded, no long field is read.
///
/// The bitmap is conservative by construction: a set bit means "this
/// intensity MAY occur in the study" (builders may over-approximate,
/// e.g. marking a whole stored band's [lo, hi] when only the band
/// region's non-emptiness is known). A clear bit is authoritative:
/// the intensity definitely does not occur. That one-sided contract is
/// what makes the bitmap sound for pruning — AnyInRange() == false
/// proves the study contributes no rows to an intensity-range
/// predicate, while true merely keeps it as a candidate.
class IntensityBitmap {
 public:
  static constexpr int kValues = 256;      // 8-bit intensity domain
  static constexpr int kGroupBits = 32;    // leaf bits per summary bit
  static constexpr int kGroups = kValues / kGroupBits;  // 8
  static constexpr size_t kSerializedSize = 4 * sizeof(uint64_t) + 1;

  IntensityBitmap() { Clear(); }

  void Clear() {
    std::memset(leaves_, 0, sizeof(leaves_));
    summary_ = 0;
  }

  /// Marks one intensity value as (possibly) present.
  void Set(uint8_t value) {
    leaves_[value >> 6] |= uint64_t{1} << (value & 63);
    summary_ |= uint8_t(1u << (value / kGroupBits));
  }

  /// Marks every value in [lo, hi] (inclusive) as possibly present.
  void SetRange(uint8_t lo, uint8_t hi) {
    if (lo > hi) return;
    for (int w = lo >> 6; w <= hi >> 6; ++w) {
      int first = w << 6, last = first + 63;
      int a = lo > first ? lo - first : 0;
      int b = hi < last ? hi - first : 63;
      uint64_t mask = (b - a == 63) ? ~uint64_t{0}
                                    : (((uint64_t{1} << (b - a + 1)) - 1) << a);
      leaves_[w] |= mask;
    }
    for (int g = lo / kGroupBits; g <= hi / kGroupBits; ++g) {
      summary_ |= uint8_t(1u << g);
    }
  }

  bool Test(uint8_t value) const {
    if (!(summary_ & (1u << (value / kGroupBits)))) return false;
    return (leaves_[value >> 6] >> (value & 63)) & 1;
  }

  /// True iff any value in [lo, hi] may be present. The summary level
  /// rejects whole 32-value groups before any leaf word is read.
  bool AnyInRange(uint8_t lo, uint8_t hi) const {
    if (lo > hi) return false;
    for (int g = lo / kGroupBits; g <= hi / kGroupBits; ++g) {
      if (!(summary_ & (1u << g))) continue;
      // Group g intersects [lo, hi]; check its leaf bits.
      int gfirst = g * kGroupBits;
      int a = lo > gfirst ? lo : gfirst;
      int b = hi < gfirst + kGroupBits - 1 ? hi : gfirst + kGroupBits - 1;
      uint64_t word = leaves_[a >> 6];
      int wa = a & 63, wb = b & 63;
      // a and b sit in the same leaf word because a group (32 bits)
      // never straddles a word (64 bits) boundary.
      uint64_t mask = (wb - wa == 63)
                          ? ~uint64_t{0}
                          : (((uint64_t{1} << (wb - wa + 1)) - 1) << wa);
      if (word & mask) return true;
    }
    return false;
  }

  bool Empty() const { return summary_ == 0; }

  void UnionWith(const IntensityBitmap& other) {
    for (int i = 0; i < 4; ++i) leaves_[i] |= other.leaves_[i];
    summary_ |= other.summary_;
  }

  /// Fixed 33-byte little-endian layout: 4 leaf words then the summary
  /// byte (the summary is redundant but kept so deserialization is a
  /// straight copy with no recompute).
  void Serialize(std::vector<uint8_t>* out) const {
    out->resize(out->size() + kSerializedSize);
    uint8_t* p = out->data() + out->size() - kSerializedSize;
    for (int i = 0; i < 4; ++i) StoreLE64(p + 8 * i, leaves_[i]);
    p[32] = summary_;
  }

  /// Reads 33 bytes at `p`; caller guarantees availability.
  void Deserialize(const uint8_t* p) {
    for (int i = 0; i < 4; ++i) leaves_[i] = LoadLE64(p + 8 * i);
    summary_ = p[32];
  }

  friend bool operator==(const IntensityBitmap& a, const IntensityBitmap& b) {
    return std::memcmp(a.leaves_, b.leaves_, sizeof(a.leaves_)) == 0 &&
           a.summary_ == b.summary_;
  }

 private:
  uint64_t leaves_[4];
  uint8_t summary_;
};

}  // namespace qbism::index

#endif  // QBISM_INDEX_BITMAP_H_
