#ifndef QBISM_QBISM_MEDICAL_SERVER_H_
#define QBISM_QBISM_MEDICAL_SERVER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mining/knn.h"
#include "qbism/query_pipeline.h"
#include "qbism/spatial_extension.h"
#include "region/encoding.h"
#include "viz/dx.h"

namespace qbism {

/// Result of a Table-4-style multi-study intersection.
struct MultiStudyResult {
  region::Region region;
  uint64_t lfm_pages = 0;
  double db_cpu_seconds = 0.0;
  double db_real_seconds = 0.0;
  std::string sql;
};

/// The paper's 1993 deployment (§5.2) as a reproduction harness: the
/// MedicalServer process runs the QueryPipeline and ships the answer
/// over the modeled RPC link to a DX executive, which caches, imports
/// and renders it, so Table 3's end-to-end columns can be assembled.
/// The query service does not use this class; it runs the pipeline
/// directly.
class MedicalServer {
 public:
  MedicalServer(SpatialExtension* ext,
                net::NetworkCostModel net_model = net::NetworkCostModel{},
                ServerCostModel cost_model = ServerCostModel{});

  /// Runs a single-study query end to end: the pipeline (or, with
  /// allow_cached, the DX cache), then ImportVolume, then (optionally)
  /// rendering.
  Result<StudyQueryResult> RunStudyQuery(const QuerySpec& spec,
                                         bool render = true,
                                         const viz::Camera& camera = {});

  /// Table 4: the REGION where every listed study has intensities in
  /// [lo, hi], computed as an n-way INTERSECTION inside the database.
  /// Band regions must have been stored with `encoding` (the loader's
  /// SpatialConfig.region_encoding).
  Result<MultiStudyResult> ConsistentBandRegion(
      const std::vector<int>& study_ids, int lo, int hi);

  /// §6.4: voxel-wise average intensity inside a structure across many
  /// studies — the database reads only the relevant pages per study and
  /// ships a single averaged result.
  Result<StudyQueryResult> AverageInStructure(
      const std::vector<int>& study_ids, const std::string& structure_name,
      bool render = false, const viz::Camera& camera = {});

  /// §7 future work, implemented: the study's image feature vector —
  /// the mean intensity inside every atlas structure, in structure-name
  /// order. Reads only the pages each structure covers.
  Result<std::vector<double>> StudyFeatureVector(int study_id);

  /// "find all the PET studies ... with intensities inside the
  /// cerebellum similar to Ms. Smith's latest PET study" (§7): the k
  /// studies among `candidates` most similar to `query_study`, by
  /// Euclidean distance over feature vectors, via an exact kd-tree kNN.
  /// The query study itself is excluded from the result.
  Result<std::vector<mining::Neighbor>> FindSimilarStudies(
      int query_study, const std::vector<int>& candidates, size_t k);

  viz::DxExecutive* dx() { return &dx_; }

 private:
  SpatialExtension* ext_;
  QueryPipeline pipeline_;
  viz::DxExecutive dx_;
};

}  // namespace qbism

#endif  // QBISM_QBISM_MEDICAL_SERVER_H_
