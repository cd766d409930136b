#ifndef QBISM_QBISM_SPATIAL_EXTENSION_H_
#define QBISM_QBISM_SPATIAL_EXTENSION_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "qbism/parallel_extractor.h"
#include "region/encoded_ops.h"
#include "region/encoding.h"
#include "region/region.h"
#include "sql/database.h"
#include "volume/volume.h"

namespace qbism {

/// A region's run list as LFM byte ranges (one byte per voxel in curve
/// order): the single translation every extraction/planning path shares.
std::vector<storage::ByteRange> RunByteRanges(const region::Region& r);

/// Configuration of the spatial extension: the atlas grid every stored
/// REGION/VOLUME lives on, the linearization curve, and the on-disk
/// REGION encoding. The paper's defaults: 128^3 grid, Hilbert order,
/// naive 8-bytes-per-run encoding for the timing experiments (§6.1).
struct SpatialConfig {
  region::GridSpec grid{3, 7};
  curve::CurveKind curve = curve::CurveKind::kHilbert;
  region::RegionEncoding region_encoding =
      region::RegionEncoding::kNaiveRuns;
};

/// The QBISM extension to the DBMS (§5.1): registers the spatial
/// operators as user-defined SQL functions and provides the helpers that
/// move REGIONs and VOLUMEs between long fields and their in-memory
/// types.
///
/// Registered SQL functions (names are case-insensitive):
///   intersection(r1, r2)        -> REGION        (§3.2)
///   regionunion(r1, r2)         -> REGION
///   regiondifference(r1, r2)    -> REGION
///   contains(r1, r2)            -> int (0/1)     (§3.2)
///   intersects(r1, r2)          -> int (0/1) (early-exit run merge; the
///                                  cross-study index's re-check predicate)
///   extractvoxels(volume, r)    -> DATA_REGION   (§3.2 EXTRACT_DATA)
///   bandregion(volume, lo, hi)  -> REGION        (ad-hoc banding)
///   volumemean(volume)          -> double (streaming whole-volume mean)
///   voxelcount(r)               -> int
///   runcount(r)                 -> int
///   meanintensity(dr)           -> double
///   fullregion()                -> REGION (the whole grid)
///   boxregion(x0,y0,z0,x1,y1,z1)-> REGION (rectangular solid)
///   mingapregion(r, gap)        -> REGION (§4.2 mingap approximation)
///   minoctantregion(r, glog2)   -> REGION (§4.2 GxGxG approximation)
///   octantcount(r)              -> int (cubic octants)
///   oblongoctantcount(r)        -> int
///   intersection_n(r1, ..., rn) -> REGION (one streaming n-way pass)
///
/// REGION arguments accept either a long-field handle (decoded through
/// the LFM, charging I/O) or a transient REGION object produced by a
/// nested call; VOLUME arguments are long-field handles.
///
/// Encoded-domain execution: when every region operand of a set
/// operator is available in elias-deltas form — stored that way on
/// disk, or a transient ENCODED_REGION from a nested call — the
/// operator runs on the γ-coded streams directly (region/encoded_ops.h)
/// and returns an ENCODED_REGION, so a chain of set ops never
/// materializes an intermediate run list. contains / voxelcount /
/// runcount likewise stream the encoded form. Materialization happens
/// only at extraction boundaries (extractvoxels decodes the final
/// region to plan its page reads, and stamps the encoded payload on the
/// DATA_REGION so the answer codec ships it without re-encoding) or
/// when an operator needs a mix of encoded and decoded operands.
class SpatialExtension {
 public:
  /// Registers the UDFs on `db` and installs this object as the
  /// database's extension state. `db` must outlive the extension.
  static Result<std::unique_ptr<SpatialExtension>> Install(
      sql::Database* db, SpatialConfig config);

  const SpatialConfig& config() const { return config_; }
  sql::Database* db() const { return db_; }

  /// --- Long-field marshalling -----------------------------------------

  /// Encodes a region (1-byte encoding tag + payload) into a long field.
  Result<storage::LongFieldId> StoreRegion(const region::Region& r) const;
  /// Stores with an explicit encoding (Table 4 mixes encodings).
  Result<storage::LongFieldId> StoreRegionAs(
      const region::Region& r, region::RegionEncoding encoding) const;

  /// Decodes a region long field.
  Result<region::Region> LoadRegion(storage::LongFieldId id) const;

  /// Serializes a DATA_REGION (footnote 6: the storable return type of
  /// EXTRACT_DATA) — a u32 length, the region in stored-REGION framing,
  /// then the per-voxel values — so derived extraction results can be
  /// kept as first-class long fields.
  Result<storage::LongFieldId> StoreDataRegion(
      const volume::DataRegion& dr) const;

  /// Inverse of StoreDataRegion.
  Result<volume::DataRegion> LoadDataRegion(storage::LongFieldId id) const;

  /// Stores a volume's curve-ordered intensities as a long field.
  Result<storage::LongFieldId> StoreVolume(const volume::Volume& v) const;

  /// Reads a whole volume back.
  Result<volume::Volume> LoadVolume(storage::LongFieldId id) const;

  /// EXTRACT_DATA against a volume long field: reads only the 4 KB pages
  /// covering the region's runs (the early-filtering I/O path), executed
  /// as a vectored, optionally parallel read through the extractor —
  /// coalesced page extents scattered straight into the DATA_REGION's
  /// value buffer.
  Result<volume::DataRegion> ExtractFromLongField(
      storage::LongFieldId volume_field, const region::Region& r) const;

  /// Streams a stored VOLUME through `fn` in curve order in page-aligned
  /// chunks of at most `chunk_bytes` (the offset doubles as the first
  /// curve id of the chunk). Whole-volume operators use this to run in
  /// O(chunk) memory instead of materializing the volume.
  Status ScanVolume(storage::LongFieldId volume_field, uint64_t chunk_bytes,
                    const std::function<Status(uint64_t first_id,
                                               const uint8_t* values,
                                               uint64_t count)>& fn) const;

  /// bandregion() over a stored VOLUME via ScanVolume: the REGION of
  /// voxels with intensity in [lo, hi], built one chunk at a time.
  Result<region::Region> BandRegionFromField(
      storage::LongFieldId volume_field, uint8_t lo, uint8_t hi) const;

  /// Mean intensity of a whole stored VOLUME via ScanVolume.
  Result<double> MeanIntensityFromField(
      storage::LongFieldId volume_field) const;

  /// The extraction executor (for pool installation and metrics).
  ParallelExtractor* extractor() const { return extractor_.get(); }

  /// Coerces a SQL value (long field or transient object) to a REGION.
  /// Transient ENCODED_REGION objects are decoded (this is a
  /// materialization boundary).
  Result<std::shared_ptr<const region::Region>> RegionArg(
      const sql::Value& value) const;

  /// A region operand as resolved from a SQL value: kept in its stored
  /// elias-deltas form when possible (`encoded` set), otherwise
  /// materialized (`decoded` set). Exactly one pointer is non-null.
  struct RegionOperand {
    std::shared_ptr<const region::EncodedRegion> encoded;
    std::shared_ptr<const region::Region> decoded;
  };

  /// Resolves a SQL value to a region operand with a single LFM read,
  /// preserving the encoded form when the field is stored elias-deltas
  /// or the value is a transient ENCODED_REGION.
  Result<RegionOperand> RegionOperandArg(const sql::Value& value) const;

  /// Materializes an operand (decodes it if it was encoded).
  Result<std::shared_ptr<const region::Region>> MaterializeOperand(
      const RegionOperand& operand) const;

  /// Stores an encoded region's payload verbatim (tag + bytes; no
  /// decode/re-encode round trip).
  Result<storage::LongFieldId> StoreEncodedRegion(
      const region::EncodedRegion& r) const;

  /// --- Cost-based planner integration -----------------------------------

  /// Recomputes optimizer statistics: scalar column stats for every
  /// table (PlannerStats::AnalyzeAll) plus, for every REGION long-field
  /// column, per-band run/voxel/size histograms and the §4.2 power-law
  /// fit (count = c * length^(-a)), pooled and per studyId. Wired to
  /// IngestManager commit listeners so stats track online ingest.
  Status RefreshPlannerStats() const;

  /// The planner cost hook for spatial conjuncts: selectivity of
  /// voxelcount/runcount threshold predicates from the region
  /// histograms, streaming costs for contains and set-op chains, and
  /// the encoded-domain vs decode-and-extract preference. Stateless;
  /// Install() registers it on the database.
  static sql::planner::UdfCostHook CostHook();

 private:
  SpatialExtension(sql::Database* db, SpatialConfig config)
      : db_(db), config_(config) {}

  Status RegisterUdfs();

  sql::Database* db_;
  SpatialConfig config_;
  std::unique_ptr<ParallelExtractor> extractor_;
};

}  // namespace qbism

#endif  // QBISM_QBISM_SPATIAL_EXTENSION_H_
