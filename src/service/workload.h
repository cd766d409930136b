#ifndef QBISM_SERVICE_WORKLOAD_H_
#define QBISM_SERVICE_WORKLOAD_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "qbism/query_pipeline.h"
#include "qbism/spatial_extension.h"

namespace qbism::service {

/// Relative frequencies of the §6.1 query shapes in the generated
/// stream (normalized internally): entire-study displays, rectangular
/// solids, atlas-structure restrictions, and stored intensity bands.
struct WorkloadMix {
  double full_study = 0.15;
  double box = 0.20;
  double structure = 0.35;
  double band = 0.30;
};

/// Deterministic mixed-workload generator for the query service: every
/// Next() is a well-formed QuerySpec against loaded data (band queries
/// are drawn from each study's stored intensity bands, so the band
/// index can always answer them). Box corners are quantized to a
/// 16-voxel lattice so a finite spec population recurs — that recurrence
/// is what gives the shared result cache something to hit.
class WorkloadGenerator {
 public:
  /// Reads each study's stored bands out of the database. Fails if a
  /// study has no stored bands or `structures` is empty.
  static Result<WorkloadGenerator> Create(
      qbism::SpatialExtension* ext, std::vector<int> study_ids,
      std::vector<std::string> structures, WorkloadMix mix, uint64_t seed);

  /// Next spec in the deterministic stream.
  qbism::QuerySpec Next();

  /// Number of distinct specs the generator can emit (cache working-set
  /// size).
  uint64_t DistinctSpecs() const;

 private:
  WorkloadGenerator(std::vector<int> study_ids,
                    std::vector<std::string> structures,
                    std::map<int, std::vector<std::pair<int, int>>> bands,
                    WorkloadMix mix, uint64_t seed)
      : study_ids_(std::move(study_ids)),
        structures_(std::move(structures)),
        bands_(std::move(bands)),
        mix_(mix),
        rng_(seed) {}

  std::vector<int> study_ids_;
  std::vector<std::string> structures_;
  std::map<int, std::vector<std::pair<int, int>>> bands_;  // per study
  WorkloadMix mix_;
  Rng rng_;
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_WORKLOAD_H_
