#ifndef QBISM_REGION_ENCODING_H_
#define QBISM_REGION_ENCODING_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "region/region.h"

namespace qbism::region {

/// On-disk representation schemes studied in §4.2. The encodings are
/// curve-agnostic: pairing them with a Hilbert- or Z-ordered Region
/// produces the paper's "h-run-naive", "z-run-naive", etc.
enum class RegionEncoding {
  /// 4+4 bytes per run ("naive"): u32 start, u32 end, after a u32 count.
  kNaiveRuns,
  /// Elias gamma codes of the alternating run/gap ("delta") lengths
  /// ("elias"): the most compact scheme, ~1.17x the entropy bound.
  kEliasDeltas,
  /// 4 bytes per cubic octant <id, rank> after a u32 count.
  kOctants,
  /// 4 bytes per maximal aligned block of any rank.
  kOblongOctants,
};

std::string_view RegionEncodingToString(RegionEncoding encoding);

/// Serializes a region. Octant encodings require dims*bits + 5 <= 32
/// (grids up to 512^3, as in the paper's 4-byte packing).
Result<std::vector<uint8_t>> EncodeRegion(const Region& region,
                                          RegionEncoding encoding);

/// Deserializes; `grid` and `kind` must match the encoder's. Reads
/// `bytes` in place.
Result<Region> DecodeRegion(const GridSpec& grid, curve::CurveKind kind,
                            RegionEncoding encoding,
                            std::span<const uint8_t> bytes);

/// Size in bytes the encoding would take, without materializing it.
Result<uint64_t> EncodedSizeBytes(const Region& region,
                                  RegionEncoding encoding);

}  // namespace qbism::region

#endif  // QBISM_REGION_ENCODING_H_
