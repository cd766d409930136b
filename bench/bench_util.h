#ifndef QBISM_BENCH_BENCH_UTIL_H_
#define QBISM_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "region/region.h"

namespace qbism::bench {

/// One region of the measurement corpus (§4): an anatomic structure or
/// an intensity band of a PET/MRI study, rasterized on the 128^3 atlas
/// grid in Hilbert order.
struct CorpusRegion {
  std::string name;
  std::string category;  // "structure" | "pet-band" | "mri-band"
  region::Region region;
};

/// Builds the §4 measurement corpus: 11 atlas structures plus the
/// intensity bands (width 32) of `num_pet` synthetic PET studies and
/// `num_mri` synthetic MRI studies, all warped to `grid`. Empty bands
/// are dropped. Deterministic in `seed`. The defaults reproduce the
/// paper's data sizes (5 PET, 3 MRI, 128^3).
std::vector<CorpusRegion> BuildRegionCorpus(region::GridSpec grid = {3, 7},
                                            uint64_t seed = 42,
                                            int num_pet = 5, int num_mri = 3);

/// Prints an 80-column rule and a heading for a bench section.
void PrintHeading(const std::string& title);

/// Flat JSON result file for a benchmark run ({"experiment": ...,
/// "metric": number, ...}), so harnesses can diff numbers across
/// commits without scraping the human-readable tables. Every file opens
/// with the run header bench_e2e also writes: `git_sha` (HEAD of the
/// source checkout, suffixed "-dirty" when tracked files differ from
/// it; "unknown" without git), `nproc`, `compiler` and `build_type`.
/// Keys are emitted in insertion order; re-adding a key overwrites its
/// value.
class BenchJson {
 public:
  explicit BenchJson(std::string experiment);

  void Add(const std::string& key, double value);
  void Add(const std::string& key, uint64_t value);
  void AddString(const std::string& key, const std::string& value);

  /// Writes the accumulated object to `path`; false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  void Set(const std::string& key, std::string rendered);

  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace qbism::bench

#endif  // QBISM_BENCH_BENCH_UTIL_H_
