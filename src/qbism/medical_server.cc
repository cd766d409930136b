#include "qbism/medical_server.h"

#include <sstream>

#include "common/macros.h"
#include "common/timer.h"
#include "sql/lexer.h"

namespace qbism {

using region::Region;
using sql::ResultSet;
using storage::IoStats;
using storage::LongFieldId;
using volume::DataRegion;

MedicalServer::MedicalServer(SpatialExtension* ext,
                             net::NetworkCostModel net_model,
                             ServerCostModel cost_model)
    : ext_(ext), pipeline_(ext, net_model, cost_model) {}

Result<StudyQueryResult> MedicalServer::RunStudyQuery(
    const QuerySpec& spec, bool render, const viz::Camera& camera) {
  PipelineResult answer;
  // DX cache fast path (§5.2): reviewing a recent result needs no
  // database reaccess and no network traffic.
  if (spec.allow_cached) answer.data = dx_.CacheGet(spec.Describe());
  if (answer.data != nullptr) {
    answer.data_sql = "(served from the DX cache)";
  } else {
    QBISM_ASSIGN_OR_RETURN(answer, pipeline_.Run(spec));
    dx_.CachePut(spec.Describe(), answer.data);
  }
  StudyQueryResult out = answer.Ship();
  ImportAndRender(render, camera, &out);
  return out;
}

Result<MultiStudyResult> MedicalServer::ConsistentBandRegion(
    const std::vector<int>& study_ids, int lo, int hi) {
  if (study_ids.empty()) {
    return Status::InvalidArgument("ConsistentBandRegion: no studies");
  }
  sql::Database* db = ext_->db();
  storage::ReadSnapshot snapshot(db->epochs());

  // Nested n-way INTERSECTION over the per-study band REGIONs.
  std::string region_expr = "ib" + std::to_string(study_ids.size() - 1) +
                            ".region";
  for (size_t i = study_ids.size() - 1; i-- > 0;) {
    region_expr = "intersection(ib" + std::to_string(i) + ".region, " +
                  region_expr + ")";
  }
  std::ostringstream sql;
  sql << "select " << region_expr << " as consistent from ";
  for (size_t i = 0; i < study_ids.size(); ++i) {
    sql << (i ? ", " : "") << "intensityBand ib" << i;
  }
  sql << " where ";
  for (size_t i = 0; i < study_ids.size(); ++i) {
    if (i) sql << " and ";
    sql << "ib" << i << ".studyId = " << study_ids[i] << " and ib" << i
        << ".lo = " << lo << " and ib" << i << ".hi = " << hi;
  }

  MultiStudyResult out;
  out.sql = sql.str();
  IoStats lfm_before = db->long_field_device()->thread_stats();
  IoStats rel_before = db->relational_device()->thread_stats();
  ThreadCpuTimer cpu;
  WallTimer wall;
  QBISM_ASSIGN_OR_RETURN(ResultSet result, db->Execute(out.sql));
  out.db_cpu_seconds = cpu.Seconds();
  IoStats lfm_delta = db->long_field_device()->thread_stats() - lfm_before;
  IoStats rel_delta = db->relational_device()->thread_stats() - rel_before;
  out.db_real_seconds = wall.Seconds() + lfm_delta.simulated_seconds +
                        rel_delta.simulated_seconds;
  out.lfm_pages = lfm_delta.pages_read + lfm_delta.pages_written;

  if (result.rows.empty()) {
    return Status::NotFound("no stored band " + std::to_string(lo) + "-" +
                            std::to_string(hi) + " for the given studies");
  }
  // The intersection chain may return a materialized REGION or (when
  // the bands are stored elias-deltas) a still-encoded one; RegionArg
  // coerces both.
  QBISM_ASSIGN_OR_RETURN(auto region,
                         ext_->RegionArg(result.rows.front().front()));
  out.region = *region;
  return out;
}

Result<StudyQueryResult> MedicalServer::AverageInStructure(
    const std::vector<int>& study_ids, const std::string& structure_name,
    bool render, const viz::Camera& camera) {
  if (study_ids.empty()) {
    return Status::InvalidArgument("AverageInStructure: no studies");
  }
  storage::ReadSnapshot snapshot(ext_->db()->epochs());
  sql::Database* db = ext_->db();
  StudyQueryResult out;

  WallTimer other_timer;
  // Fetch the structure REGION handle.
  out.info_sql =
      "select ast.region from atlasStructure ast, neuralStructure ns "
      "where ast.structureId = ns.structureId and ns.structureName = " +
      sql::QuoteLiteral(structure_name);
  const double compile_seconds = pipeline_.cost_model().sql_compile_seconds;
  out.timing.other_seconds = compile_seconds;

  IoStats lfm_before = db->long_field_device()->thread_stats();
  IoStats rel_before = db->relational_device()->thread_stats();
  ThreadCpuTimer db_cpu;
  WallTimer db_wall;

  QBISM_ASSIGN_OR_RETURN(ResultSet region_result, db->Execute(out.info_sql));
  if (region_result.rows.empty()) {
    return Status::NotFound("no structure named '" + structure_name + "'");
  }
  QBISM_ASSIGN_OR_RETURN(LongFieldId region_field,
                         region_result.rows.front().front().AsLongField());
  QBISM_ASSIGN_OR_RETURN(Region structure, ext_->LoadRegion(region_field));

  // Per-study extraction: the database touches only the pages of each
  // study the structure covers, accumulates sums, and the network ships
  // just one averaged DATA_REGION — the §6.4 linear traffic reduction.
  std::vector<uint32_t> sums(static_cast<size_t>(structure.VoxelCount()), 0);
  for (int study_id : study_ids) {
    std::string handle_sql =
        "select wv.data from warpedVolume wv where wv.studyId = " +
        std::to_string(study_id);
    QBISM_ASSIGN_OR_RETURN(ResultSet handle_result, db->Execute(handle_sql));
    if (handle_result.rows.empty()) {
      return Status::NotFound("no warped study " + std::to_string(study_id));
    }
    QBISM_ASSIGN_OR_RETURN(LongFieldId volume_field,
                           handle_result.rows.front().front().AsLongField());
    QBISM_ASSIGN_OR_RETURN(DataRegion extracted,
                           ext_->ExtractFromLongField(volume_field, structure));
    const auto& values = extracted.values();
    for (size_t i = 0; i < values.size(); ++i) sums[i] += values[i];
  }
  std::vector<uint8_t> averaged(sums.size());
  for (size_t i = 0; i < sums.size(); ++i) {
    averaged[i] = static_cast<uint8_t>(sums[i] / study_ids.size());
  }
  out.data = DataRegion(structure, std::move(averaged));
  out.result_runs = structure.RunCount();
  out.result_voxels = structure.VoxelCount();
  out.data_sql = "(server-side n-way EXTRACT_DATA + voxel-wise average)";

  out.timing.db_cpu_seconds = db_cpu.Seconds();
  IoStats lfm_delta = db->long_field_device()->thread_stats() - lfm_before;
  IoStats rel_delta = db->relational_device()->thread_stats() - rel_before;
  out.timing.db_real_seconds = db_wall.Seconds() +
                               lfm_delta.simulated_seconds +
                               rel_delta.simulated_seconds;
  out.timing.lfm_pages = lfm_delta.pages_read + lfm_delta.pages_written;

  net::NetworkCharge net =
      pipeline_.net_model().Charge(out.data.ApproxSizeBytes());
  out.timing.network_messages = net.messages;
  out.timing.network_seconds = net.seconds;

  out.timing.other_seconds += other_timer.Seconds() - db_wall.Seconds();
  if (out.timing.other_seconds < compile_seconds) {
    out.timing.other_seconds = compile_seconds;
  }
  out.timing.total_seconds = out.timing.other_seconds +
                             out.timing.db_real_seconds +
                             out.timing.network_seconds;
  ImportAndRender(render, camera, &out);
  return out;
}

Result<std::vector<double>> MedicalServer::StudyFeatureVector(int study_id) {
  sql::Database* db = ext_->db();
  storage::ReadSnapshot snapshot(db->epochs());
  QBISM_ASSIGN_OR_RETURN(
      ResultSet volume_rows,
      db->Execute("select wv.data from warpedVolume wv where wv.studyId = " +
                  std::to_string(study_id)));
  if (volume_rows.rows.empty()) {
    return Status::NotFound("no warped study " + std::to_string(study_id));
  }
  QBISM_ASSIGN_OR_RETURN(LongFieldId volume_field,
                         volume_rows.rows.front().front().AsLongField());

  // Structure regions in a deterministic (name) order.
  QBISM_ASSIGN_OR_RETURN(
      ResultSet structures,
      db->Execute("select ns.structureName, ast.region"
                  " from atlasStructure ast, neuralStructure ns"
                  " where ast.structureId = ns.structureId"
                  " order by structureName"));
  if (structures.rows.empty()) {
    return Status::NotFound("no atlas structures loaded");
  }
  std::vector<double> features;
  features.reserve(structures.rows.size());
  for (const sql::Row& row : structures.rows) {
    QBISM_ASSIGN_OR_RETURN(LongFieldId region_field, row[1].AsLongField());
    QBISM_ASSIGN_OR_RETURN(Region structure, ext_->LoadRegion(region_field));
    QBISM_ASSIGN_OR_RETURN(DataRegion extracted,
                           ext_->ExtractFromLongField(volume_field, structure));
    features.push_back(extracted.MeanIntensity());
  }
  return features;
}

Result<std::vector<mining::Neighbor>> MedicalServer::FindSimilarStudies(
    int query_study, const std::vector<int>& candidates, size_t k) {
  QBISM_ASSIGN_OR_RETURN(std::vector<double> query,
                         StudyFeatureVector(query_study));
  std::vector<mining::FeatureVector> vectors;
  vectors.reserve(candidates.size());
  for (int study : candidates) {
    if (study == query_study) continue;
    QBISM_ASSIGN_OR_RETURN(std::vector<double> features,
                           StudyFeatureVector(study));
    vectors.push_back({study, std::move(features)});
  }
  if (vectors.empty()) return std::vector<mining::Neighbor>{};
  QBISM_ASSIGN_OR_RETURN(mining::KdTree tree,
                         mining::KdTree::Build(std::move(vectors)));
  return tree.Knn(query, k);
}

}  // namespace qbism
