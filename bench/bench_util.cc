#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "med/phantom.h"
#include "volume/volume.h"
#include "warp/warp.h"

namespace qbism::bench {

using curve::CurveKind;
using region::GridSpec;
using region::Region;

std::vector<CorpusRegion> BuildRegionCorpus(GridSpec grid, uint64_t seed,
                                            int num_pet, int num_mri) {
  std::vector<CorpusRegion> corpus;

  for (const auto& s : med::StandardAtlasStructures()) {
    corpus.push_back({s.name, "structure",
                      Region::FromShape(grid, CurveKind::kHilbert, *s.shape)});
  }

  auto add_bands = [&](const warp::RawVolume& raw, uint64_t warp_seed,
                       const std::string& label, const char* category) {
    volume::Volume warped = warp::WarpToAtlas(
        raw, med::StudyWarp(warp_seed, raw.nx(), raw.ny(), raw.nz()), grid,
        CurveKind::kHilbert);
    int lo = 0;
    for (const Region& band : warped.UniformBands(32)) {
      if (!band.Empty()) {
        corpus.push_back({label + " band " + std::to_string(lo) + "-" +
                              std::to_string(lo + 31),
                          category, band});
      }
      lo += 32;
    }
  };

  for (int i = 0; i < num_pet; ++i) {
    add_bands(med::GeneratePetStudy(seed + i), seed + i,
              "PET" + std::to_string(i), "pet-band");
  }
  for (int i = 0; i < num_mri; ++i) {
    add_bands(med::GenerateMriStudy(seed + 100 + i), seed + 100 + i,
              "MRI" + std::to_string(i), "mri-band");
  }
  return corpus;
}

void PrintHeading(const std::string& title) {
  std::printf("\n%s\n", std::string(78, '=').c_str());
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", std::string(78, '=').c_str());
}

namespace {

/// First line of `command`'s standard output, or "" when it fails.
/// Reads the output to its end before closing: a command still writing
/// into a closed pipe dies of SIGPIPE (a line-buffered `git status`
/// listing several files does), and pclose would report that as a
/// failure.
std::string FirstLineOf(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char buf[256];
  std::string line;
  bool first = true;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
    if (first) line += buf;
    if (std::strchr(buf, '\n') != nullptr) first = false;
  }
  if (::pclose(pipe) != 0) return "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

std::string SourceGitSha() {
  const std::string git = "git -C '" QBISM_SOURCE_DIR "' ";
  std::string sha = FirstLineOf(git + "rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  if (!FirstLineOf(git + "status --porcelain --untracked-files=no "
                         "2>/dev/null").empty()) {
    sha += "-dirty";
  }
  return sha;
}

}  // namespace

BenchJson::BenchJson(std::string experiment) {
  AddString("experiment", experiment);
  AddString("git_sha", SourceGitSha());
  Add("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  AddString("compiler", __VERSION__);
  AddString("build_type", QBISM_BUILD_TYPE);
}

void BenchJson::Set(const std::string& key, std::string rendered) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(rendered);
      return;
    }
  }
  entries_.emplace_back(key, std::move(rendered));
}

void BenchJson::Add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  Set(key, buf);
}

void BenchJson::Add(const std::string& key, uint64_t value) {
  Set(key, std::to_string(value));
}

void BenchJson::AddString(const std::string& key, const std::string& value) {
  // Benchmark names are plain identifiers; quote-escape is all we need.
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  Set(key, std::move(quoted));
}

bool BenchJson::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{", f);
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::fprintf(f, "%s\n  \"%s\": %s", i == 0 ? "" : ",",
                 entries_[i].first.c_str(), entries_[i].second.c_str());
  }
  std::fputs("\n}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace qbism::bench
