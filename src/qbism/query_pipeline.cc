#include "qbism/query_pipeline.h"

#include <sstream>

#include "common/macros.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "sql/lexer.h"
#include "viz/dx.h"

namespace qbism {

using sql::ResultSet;
using sql::Value;
using storage::IoStats;
using volume::DataRegion;

std::string QuerySpec::Describe() const {
  // Canonical cache key: every field that can change the result bytes
  // must appear (study, atlas, structure, box, band interval, and the
  // band-index flag, which selects stored-band vs scan semantics).
  // `allow_cached` is deliberately absent — it changes how a result is
  // obtained, never what the result is.
  std::ostringstream out;
  out << "study " << study_id << " atlas " << atlas_name;
  if (structure_name) out << " in " << *structure_name;
  if (box) {
    out << " in box (" << box->min.x << "," << box->min.y << "," << box->min.z
        << ")-(" << box->max.x << "," << box->max.y << "," << box->max.z
        << ")";
  }
  if (intensity_range) {
    out << " intensity " << intensity_range->first << "-"
        << intensity_range->second
        << (use_band_index ? " via band index" : " via scan");
  }
  if (IsFullStudy()) out << " (entire study)";
  return out.str();
}

StudyQueryResult PipelineResult::Ship() const {
  obs::Span ship(obs::Stage::kShip);
  StudyQueryResult out;
  out.data = *data;
  out.result_runs = out.data.region().RunCount();
  out.result_voxels = out.data.VoxelCount();
  out.timing = timing;
  out.timing.total_seconds = timing.other_seconds + timing.db_real_seconds +
                             timing.network_seconds;
  out.info_sql = info_sql;
  out.data_sql = data_sql;
  ship.AddBytes(data_sql.size() + out.data.ApproxSizeBytes());
  return out;
}

void ImportAndRender(bool render, const viz::Camera& camera,
                     StudyQueryResult* out) {
  obs::Span import(obs::Stage::kImport);
  viz::DxExecutive::ImportResult imported =
      viz::DxExecutive::ImportVolume(out->data);
  import.End();
  out->timing.import_cpu_seconds = imported.cpu_seconds;
  out->timing.total_seconds += imported.cpu_seconds;
  if (render) {
    obs::Span render_span(obs::Stage::kRender);
    viz::DxExecutive::RenderResult rendered =
        viz::DxExecutive::Render(imported.dense, camera);
    out->timing.render_seconds = rendered.cpu_seconds;
    out->timing.total_seconds += rendered.cpu_seconds;
    out->image = std::move(rendered.image);
  }
}

namespace {

/// Builds the §3.4 info query.
std::string BuildInfoSql(const QuerySpec& spec) {
  std::ostringstream sql;
  sql << "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz, a.atlasId,"
      << " p.name, p.patientId, rv.date"
      << " from atlas a, rawVolume rv, warpedVolume wv, patient p"
      << " where a.atlasId = wv.atlasId and wv.studyId = rv.studyId"
      << " and rv.patientId = p.patientId and rv.studyId = " << spec.study_id
      << " and a.atlasName = " << sql::QuoteLiteral(spec.atlas_name);
  return sql.str();
}

/// The consecutive stored bands exactly covering [lo, hi] for the
/// study, or an empty list when the interval does not align.
Result<std::vector<std::pair<int, int>>> StoredBandsCovering(
    sql::Database* db, int study_id, int lo, int hi) {
  QBISM_ASSIGN_OR_RETURN(
      ResultSet bands,
      db->Execute("select ib.lo, ib.hi from intensityBand ib"
                  " where ib.studyId = " +
                  std::to_string(study_id) + " order by lo"));
  std::vector<std::pair<int, int>> covering;
  int cursor = lo;
  for (const sql::Row& row : bands.rows) {
    int band_lo = static_cast<int>(row[0].AsInt().value());
    int band_hi = static_cast<int>(row[1].AsInt().value());
    if (band_lo != cursor) continue;
    covering.emplace_back(band_lo, band_hi);
    if (band_hi >= hi) {
      // Exact alignment requires the last band to end on hi.
      if (band_hi == hi) return covering;
      return std::vector<std::pair<int, int>>{};
    }
    cursor = band_hi + 1;
  }
  return std::vector<std::pair<int, int>>{};  // no exact covering chain
}

/// Builds the data query for the spec; fails for band ranges that do
/// not align with stored bands when use_band_index is set.
Result<std::string> BuildDataSql(sql::Database* db, const QuerySpec& spec) {
  std::vector<std::string> pieces;
  std::ostringstream from;
  std::ostringstream where;
  from << "warpedVolume wv";
  where << "wv.studyId = " << spec.study_id;

  if (spec.structure_name) {
    from << ", atlasStructure ast, neuralStructure ns";
    where << " and ast.structureId = ns.structureId"
          << " and ns.structureName = "
          << sql::QuoteLiteral(*spec.structure_name)
          << " and ast.atlasId = wv.atlasId";
    pieces.push_back("ast.region");
  }
  if (spec.box) {
    std::ostringstream box;
    box << "boxregion(" << spec.box->min.x << ", " << spec.box->min.y << ", "
        << spec.box->min.z << ", " << spec.box->max.x << ", "
        << spec.box->max.y << ", " << spec.box->max.z << ")";
    pieces.push_back(box.str());
  }
  if (spec.intensity_range) {
    std::vector<std::pair<int, int>> covering;
    if (spec.use_band_index) {
      auto bands = StoredBandsCovering(db, spec.study_id,
                                       spec.intensity_range->first,
                                       spec.intensity_range->second);
      if (!bands.ok()) return bands.status();
      covering = bands.MoveValue();
    }
    if (!covering.empty()) {
      // One alias per stored band; wider aligned intervals union the
      // consecutive band REGIONs inside the database.
      std::string union_expr;
      for (size_t i = covering.size(); i-- > 0;) {
        std::string alias = "ib" + std::to_string(i);
        from << ", intensityBand " << alias;
        where << " and " << alias << ".studyId = wv.studyId and " << alias
              << ".atlasId = wv.atlasId and " << alias
              << ".lo = " << covering[i].first << " and " << alias
              << ".hi = " << covering[i].second;
        if (union_expr.empty()) {
          union_expr = alias + ".region";
        } else {
          union_expr = "regionunion(" + alias + ".region, " + union_expr + ")";
        }
      }
      pieces.push_back(union_expr);
    } else if (spec.use_band_index) {
      return Status::NotFound(
          "intensity range " + std::to_string(spec.intensity_range->first) +
          "-" + std::to_string(spec.intensity_range->second) +
          " does not align with the stored intensity bands; set "
          "use_band_index = false to scan the study");
    } else {
      std::ostringstream band;
      band << "bandregion(wv.data, " << spec.intensity_range->first << ", "
           << spec.intensity_range->second << ")";
      pieces.push_back(band.str());
    }
  }

  std::string region_expr;
  if (pieces.empty()) {
    region_expr = "fullregion()";
  } else {
    region_expr = pieces.back();
    for (size_t i = pieces.size() - 1; i-- > 0;) {
      region_expr = "intersection(" + pieces[i] + ", " + region_expr + ")";
    }
  }

  std::ostringstream sql;
  sql << "select extractvoxels(wv.data, " << region_expr << ") as answer"
      << " from " << from.str() << " where " << where.str();
  return sql.str();
}

/// Pulls the first DATA_REGION object out of a result set.
Result<std::shared_ptr<const DataRegion>> FirstDataRegion(
    const ResultSet& result) {
  if (result.rows.empty()) {
    return Status::NotFound(
        "query returned no rows (no matching study, structure, or stored "
        "intensity band)");
  }
  for (const Value& value : result.rows.front()) {
    if (value.kind() == Value::Kind::kObject) {
      auto dr = value.AsObject<DataRegion>(sql::kDataRegionTypeName);
      if (dr.ok()) return dr;
    }
  }
  return Status::Internal("data query produced no DATA_REGION column");
}

}  // namespace

QueryPipeline::QueryPipeline(SpatialExtension* ext,
                             net::NetworkCostModel net_model,
                             ServerCostModel cost_model)
    : ext_(ext), net_model_(net_model), cost_model_(cost_model) {}

Result<PipelineResult> QueryPipeline::Run(
    const QuerySpec& spec, const std::function<Status()>& interrupt) const {
  auto checkpoint = [&] { return interrupt ? interrupt() : Status::OK(); };
  sql::Database* db = ext_->db();
  // Pin the epoch for the whole query (no-op without a WAL): every
  // long-field read resolves against one consistent pre-ingest view,
  // however long the extraction takes and however many ingests commit
  // meanwhile.
  storage::ReadSnapshot snapshot(db->epochs());
  PipelineResult out;

  QBISM_RETURN_NOT_OK(checkpoint());
  // Extraction runs at UDF depth, below the per-stage checkpoints; the
  // thread-local hook lets it poll the same deadline/cancel state
  // between shard batches and scan chunks.
  ParallelExtractor::ScopedThreadInterrupt extract_interrupt(interrupt);
  {
    obs::Span translate(obs::Stage::kTranslate);
    out.info_sql = BuildInfoSql(spec);
    QBISM_ASSIGN_OR_RETURN(out.data_sql, BuildDataSql(db, spec));
  }

  // --- "Other": the atlas/info query plus modeled SQL compilation. ----
  WallTimer other_timer;
  {
    obs::Span info_span(obs::Stage::kInfo);
    QBISM_ASSIGN_OR_RETURN(ResultSet info, db->Execute(out.info_sql));
    if (info.rows.empty()) {
      info_span.SetFailed();
      return Status::NotFound("no warped study " +
                              std::to_string(spec.study_id) + " in atlas '" +
                              spec.atlas_name + "'");
    }
  }
  out.timing.other_seconds =
      other_timer.Seconds() + cost_model_.sql_compile_seconds;

  // --- Database phase: the data query. ---------------------------------
  QBISM_RETURN_NOT_OK(checkpoint());
  // The span opens before the phase's own bookkeeping: reading the
  // thread CPU clock is a system call, and the scheduler can stall a
  // thread there for a whole tick (~4 ms seen on a first request).
  obs::Span data_span(obs::Stage::kData);
  IoStats lfm_before = db->long_field_device()->thread_stats();
  IoStats rel_before = db->relational_device()->thread_stats();
  ThreadCpuTimer db_cpu;
  WallTimer db_wall;
  Result<ResultSet> data_exec = [&] {
    // Extraction (kExtract/kShard/kIo) and decode spans opened at UDF
    // depth nest under this kData span.
    obs::ScopedTraceContext data_ctx(data_span.context());
    return db->Execute(out.data_sql);
  }();
  if (!data_exec.ok()) {
    data_span.SetFailed();
    return data_exec.status();
  }
  out.timing.db_cpu_seconds = db_cpu.Seconds();
  IoStats lfm_delta = db->long_field_device()->thread_stats() - lfm_before;
  IoStats rel_delta = db->relational_device()->thread_stats() - rel_before;
  data_span.AddPages(lfm_delta.pages_read + lfm_delta.pages_written);
  data_span.End();
  out.timing.db_real_seconds = db_wall.Seconds() +
                               lfm_delta.simulated_seconds +
                               rel_delta.simulated_seconds;
  out.timing.lfm_pages = lfm_delta.pages_read + lfm_delta.pages_written;
  QBISM_ASSIGN_OR_RETURN(out.data, FirstDataRegion(*data_exec));

  // --- Network: the query text out, the answer back (§6.1). -------------
  net::NetworkCharge net =
      net_model_.Charge(out.data->ApproxSizeBytes(), out.data_sql.size());
  out.timing.network_messages = net.messages;
  out.timing.network_seconds = net.seconds;
  QBISM_RETURN_NOT_OK(checkpoint());
  return out;
}

}  // namespace qbism
