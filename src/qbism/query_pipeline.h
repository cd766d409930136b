#ifndef QBISM_QBISM_QUERY_PIPELINE_H_
#define QBISM_QBISM_QUERY_PIPELINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "geometry/vec3.h"
#include "net/channel.h"
#include "qbism/spatial_extension.h"
#include "viz/renderer.h"

namespace qbism {

/// High-level query specification as it arrives from the DX front end
/// (§5.2): a study plus optional spatial and attribute conditions. The
/// QueryPipeline translates it into the two SQL statements of §3.4.
struct QuerySpec {
  int study_id = 0;
  std::string atlas_name = "Talairach";

  /// Spatial conditions (both may be set; they intersect).
  // NOTE: every field added here that affects the result must also be
  // folded into Describe(), which doubles as the shared cache key.
  std::optional<std::string> structure_name;
  std::optional<geometry::Box3i> box;

  /// Attribute condition: intensity interval [lo, hi]. When
  /// `use_band_index` is true and the interval aligns with stored
  /// intensity-band boundaries, the redundant Intensity Band entity
  /// answers it without reading the VOLUME — a single band as in the
  /// paper's setup, or a UNION of consecutive bands for wider aligned
  /// intervals. Otherwise the bandregion() UDF scans the study.
  std::optional<std::pair<int, int>> intensity_range;
  bool use_band_index = true;

  /// When true, a result cached in the DX executive under this spec's
  /// Describe() key short-circuits the database and network entirely
  /// (the paper flushed this cache before each measured run; it exists
  /// for the interactive review loop of §5.2).
  bool allow_cached = false;

  bool IsFullStudy() const {
    return !structure_name && !box && !intensity_range;
  }

  /// Cache key / display label.
  std::string Describe() const;
};

/// Table-3-style timing breakdown. CPU columns are measured process CPU
/// time; "real" columns add the deterministic I/O and network model
/// time, standing in for the paper's wall-clock on 1993 hardware.
struct TimingBreakdown {
  double db_cpu_seconds = 0.0;
  double db_real_seconds = 0.0;  // cpu + simulated LFM/relational I/O wait
  uint64_t lfm_pages = 0;        // LFM disk I/Os (4 KB pages)
  uint64_t network_messages = 0;
  double network_seconds = 0.0;
  double import_cpu_seconds = 0.0;
  double render_seconds = 0.0;
  double other_seconds = 0.0;  // atlas/info query + modeled SQL compile
  double total_seconds = 0.0;
};

/// Result of a single-study query.
struct StudyQueryResult {
  volume::DataRegion data;
  uint64_t result_runs = 0;
  uint64_t result_voxels = 0;
  TimingBreakdown timing;
  std::string info_sql;  // the §3.4 "first query"
  std::string data_sql;  // the §3.4 "second query"
  viz::Image image;      // rendered result (empty when render=false)
};

/// Cost knobs that are modeled rather than measured.
struct ServerCostModel {
  /// Starburst compiled each SQL statement at query time; the paper's
  /// "other" column (~3-4 s) is mostly compilation. Charged per query.
  double sql_compile_seconds = 3.0;
};

/// One answered query before it ships: the result set's own DATA_REGION
/// (shared, never copied), the SQL and the timing. Import and render
/// stay zero; they are the DX executive's, after the answer ships.
struct PipelineResult {
  std::shared_ptr<const volume::DataRegion> data;
  TimingBreakdown timing;
  std::string info_sql;
  std::string data_sql;

  /// The caller's own copy of the answer, made inside a kShip span, with
  /// its run and voxel counts and total_seconds over the pipeline's
  /// columns. It copies the run list; the voxels stay shared.
  StudyQueryResult Ship() const;
};

/// The database half of a single-study query (§3.4, §5.2): pins a read
/// snapshot, translates the spec into the info and data SQL, runs both,
/// and charges the modeled compile time and network shipping. Stateless
/// past its construction, so one instance serves any number of threads.
class QueryPipeline {
 public:
  QueryPipeline(SpatialExtension* ext, net::NetworkCostModel net_model,
                ServerCostModel cost_model);

  /// Runs `spec`. A set `interrupt` is polled before each SQL statement,
  /// before returning and between extraction batches; a non-OK return
  /// aborts the query with that status.
  Result<PipelineResult> Run(
      const QuerySpec& spec,
      const std::function<Status()>& interrupt = nullptr) const;

  const net::NetworkCostModel& net_model() const { return net_model_; }
  const ServerCostModel& cost_model() const { return cost_model_; }

 private:
  SpatialExtension* ext_;
  net::NetworkCostModel net_model_;
  ServerCostModel cost_model_;
};

/// The DX executive's half of a query (§5.2): ImportVolume densifies
/// `out->data`, then, if `render`, a MIP goes to `out->image`. Both CPU
/// times are charged to `out->timing` under kImport and kRender spans.
void ImportAndRender(bool render, const viz::Camera& camera,
                     StudyQueryResult* out);

}  // namespace qbism

#endif  // QBISM_QBISM_QUERY_PIPELINE_H_
