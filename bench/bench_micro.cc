// E11 — google-benchmark micro-benchmarks backing the paper's cost
// remarks: O(bits) curve conversions ("Both curves require O(n)
// complexity to convert", §4), cheap merge-scan spatial operators ("the
// computational cost of managing REGIONs ... is low", §6.4), and the
// contiguous-copy extraction path, in memory and through the long-field
// device as EXTRACT_DATA runs it; plus the CRC-32 every shipped and
// logged byte passes through, and the naive-runs REGION codec and
// answer decode every shipped answer takes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/crc32.h"
#include "common/task_pool.h"
#include "compress/codes.h"
#include "curve/curve.h"
#include "geometry/shapes.h"
#include "qbism/parallel_extractor.h"
#include "qbism/spatial_extension.h"
#include "region/encoding.h"
#include "region/region.h"
#include "server/codec.h"
#include "sql/database.h"
#include "volume/volume.h"

namespace {

using qbism::curve::CurveKind;
using qbism::region::GridSpec;
using qbism::region::Region;
using qbism::region::RegionEncoding;

void BM_HilbertIndex3D(benchmark::State& state) {
  int bits = static_cast<int>(state.range(0));
  uint32_t axes[3] = {5, 17, 9};
  for (auto _ : state) {
    axes[0] = (axes[0] + 1) & ((1u << bits) - 1);
    benchmark::DoNotOptimize(qbism::curve::HilbertIndex(axes, 3, bits));
  }
}
BENCHMARK(BM_HilbertIndex3D)->Arg(7)->Arg(9);

void BM_HilbertAxes3D(benchmark::State& state) {
  int bits = static_cast<int>(state.range(0));
  uint64_t id = 0;
  uint32_t axes[3];
  uint64_t n = uint64_t{1} << (3 * bits);
  for (auto _ : state) {
    id = (id + 12345) % n;
    qbism::curve::HilbertAxes(id, 3, bits, axes);
    benchmark::DoNotOptimize(axes[0]);
  }
}
BENCHMARK(BM_HilbertAxes3D)->Arg(7)->Arg(9);

void BM_MortonIndex3D(benchmark::State& state) {
  int bits = static_cast<int>(state.range(0));
  uint32_t axes[3] = {5, 17, 9};
  for (auto _ : state) {
    axes[0] = (axes[0] + 1) & ((1u << bits) - 1);
    benchmark::DoNotOptimize(qbism::curve::MortonIndex(axes, 3, bits));
  }
}
BENCHMARK(BM_MortonIndex3D)->Arg(7)->Arg(9);

Region BlobRegion(double scale) {
  const GridSpec grid{3, 7};
  qbism::geometry::Ellipsoid blob({64, 60, 62},
                                  {30 * scale, 26 * scale, 24 * scale});
  return Region::FromShape(grid, CurveKind::kHilbert, blob);
}

void BM_RegionIntersection(benchmark::State& state) {
  Region a = BlobRegion(1.0);
  Region b = BlobRegion(0.7);
  for (auto _ : state) {
    auto result = a.IntersectWith(b);
    benchmark::DoNotOptimize(result);
  }
  state.counters["runs_a"] = static_cast<double>(a.RunCount());
  state.counters["runs_b"] = static_cast<double>(b.RunCount());
}
BENCHMARK(BM_RegionIntersection);

void BM_RegionUnion(benchmark::State& state) {
  Region a = BlobRegion(1.0);
  Region b = BlobRegion(0.7);
  for (auto _ : state) {
    auto result = a.UnionWith(b);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RegionUnion);

void BM_RegionEncodeElias(benchmark::State& state) {
  Region a = BlobRegion(1.0);
  for (auto _ : state) {
    auto bytes = qbism::region::EncodeRegion(a, RegionEncoding::kEliasDeltas);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_RegionEncodeElias);

void BM_RegionDecodeElias(benchmark::State& state) {
  Region a = BlobRegion(1.0);
  auto bytes =
      qbism::region::EncodeRegion(a, RegionEncoding::kEliasDeltas).MoveValue();
  for (auto _ : state) {
    auto region = qbism::region::DecodeRegion(a.grid(), a.curve_kind(),
                                              RegionEncoding::kEliasDeltas,
                                              bytes);
    benchmark::DoNotOptimize(region);
  }
}
BENCHMARK(BM_RegionDecodeElias);

void BM_RegionEncodeNaive(benchmark::State& state) {
  Region a = BlobRegion(1.0);
  for (auto _ : state) {
    auto bytes = qbism::region::EncodeRegion(a, RegionEncoding::kNaiveRuns);
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["runs"] = static_cast<double>(a.RunCount());
}
BENCHMARK(BM_RegionEncodeNaive);

void BM_RegionDecodeNaive(benchmark::State& state) {
  Region a = BlobRegion(1.0);
  auto bytes =
      qbism::region::EncodeRegion(a, RegionEncoding::kNaiveRuns).MoveValue();
  for (auto _ : state) {
    auto region = qbism::region::DecodeRegion(a.grid(), a.curve_kind(),
                                              RegionEncoding::kNaiveRuns,
                                              bytes);
    benchmark::DoNotOptimize(region);
  }
  state.counters["runs"] = static_cast<double>(a.RunCount());
}
BENCHMARK(BM_RegionDecodeNaive);

/// Decoding one shipped answer (naive-runs REGION) on the client, for a
/// full study (arg 0 = 0: one run, 2 MiB of voxels) and a blob (1: the
/// ellipsoid's ~2.2k runs). arg 1 = 0 decodes the whole payload with
/// DecodeAnswerPayload, which copies the pieces out of it; 1 is the
/// in-place receive: the REGION bytes are copied in where recv would
/// write them, the voxel buffer grows 64 KiB at a time as
/// NetClient::ReceiveAnswer grows it, each slice filled (a copy stands
/// in for recv) right after it is sized, and DecodeAnswer runs.
void BM_AnswerDecode(benchmark::State& state) {
  const GridSpec grid{3, 7};
  Region r = state.range(0) == 0 ? Region::Full(grid, CurveKind::kHilbert)
                                 : BlobRegion(1.0);
  const size_t voxels = static_cast<size_t>(r.VoxelCount());
  qbism::volume::DataRegion answer(r, std::vector<uint8_t>(voxels, 9));
  auto payload =
      qbism::server::EncodeAnswerPayload(answer, RegionEncoding::kNaiveRuns)
          .MoveValue();
  const uint8_t* next = payload.data();
  const qbism::server::AnswerPieces received =
      qbism::server::ReadAnswerPieces(
          payload.size(),
          [&](std::vector<uint8_t>* out, size_t size) {
            out->assign(next, next + size);
            next += size;
            return qbism::Status::OK();
          })
          .MoveValue();
  const bool in_place = state.range(1) == 1;
  constexpr size_t kSliceBytes = 64u << 10;  // as NetClient's receive
  for (auto _ : state) {
    if (in_place) {
      qbism::server::AnswerPieces pieces{received.head, received.region_bytes,
                                         {}};
      pieces.values.reserve(voxels);
      for (size_t at = 0; at < voxels;) {
        const size_t slice = std::min(voxels - at, kSliceBytes);
        pieces.values.resize(at + slice);
        std::memcpy(pieces.values.data() + at, received.values.data() + at,
                    slice);
        at += slice;
      }
      auto data = qbism::server::DecodeAnswer(std::move(pieces));
      benchmark::DoNotOptimize(data);
    } else {
      auto data = qbism::server::DecodeAnswerPayload(payload);
      benchmark::DoNotOptimize(data);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  state.SetLabel(in_place ? "in place" : "payload");
}
BENCHMARK(BM_AnswerDecode)->ArgsProduct({{0, 1}, {0, 1}});

/// A 128^3 study stored in an in-memory long-field device (transfers
/// do not wait) and three EXTRACT_DATA run lists over it: the full
/// study, the blob of BM_VolumeExtract and an intensity band.
struct ExtractFixture {
  qbism::sql::Database db;
  std::unique_ptr<qbism::SpatialExtension> ext;
  qbism::storage::LongFieldId field;
  std::vector<qbism::storage::ByteRange> shapes[3];

  ExtractFixture() {
    ext = qbism::SpatialExtension::Install(&db, qbism::SpatialConfig{})
              .MoveValue();
    const GridSpec grid{3, 7};
    auto volume = qbism::volume::Volume::FromFunction(
        grid, CurveKind::kHilbert, [](const qbism::geometry::Vec3i& p) {
          int cx = p.x - 64, cy = p.y - 64, cz = p.z - 64;
          return static_cast<uint8_t>((cx * cx + cy * cy + cz * cz) * 255 /
                                      (3 * 64 * 64 + 1));
        });
    field = ext->StoreVolume(volume).MoveValue();
    shapes[0] = qbism::RunByteRanges(Region::Full(grid, CurveKind::kHilbert));
    shapes[1] = qbism::RunByteRanges(BlobRegion(1.0));
    shapes[2] = qbism::RunByteRanges(volume.BandRegion(96, 127));
  }
};

/// One ExtractBytes, the EXTRACT_DATA data path, on the in-memory
/// device: arg 0 picks the run list (0 full study, 1 blob, 2 band), arg
/// 1 runs it inline (0) or with a 4-thread donation pool installed (1).
void BM_ExtractBytes(benchmark::State& state) {
  static ExtractFixture* fixture = new ExtractFixture();
  const auto& ranges = fixture->shapes[state.range(0)];
  qbism::ParallelExtractor extractor(fixture->db.lfm());
  std::unique_ptr<qbism::TaskPool> pool;
  if (state.range(1) == 1) {
    pool = std::make_unique<qbism::TaskPool>(4);
    extractor.set_pool(pool.get());
  }
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto data = extractor.ExtractBytes(fixture->field, ranges);
    bytes = data->size();
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.counters["runs"] = static_cast<double>(ranges.size());
  state.counters["shards"] =
      static_cast<double>(extractor.stats().shard_tasks) /
      static_cast<double>(std::max<uint64_t>(1, extractor.stats().extractions));
  static const char* const kShapes[] = {"full", "blob", "band"};
  state.SetLabel(std::string(kShapes[state.range(0)]) +
                 (pool ? " pool 4" : " inline"));
}
BENCHMARK(BM_ExtractBytes)->ArgsProduct({{0, 1, 2}, {0, 1}});

void BM_VolumeExtract(benchmark::State& state) {
  const GridSpec grid{3, 7};
  auto volume = qbism::volume::Volume::FromFunction(
      grid, CurveKind::kHilbert, [](const qbism::geometry::Vec3i& p) {
        return static_cast<uint8_t>(p.x + p.y);
      });
  Region r = BlobRegion(1.0);
  for (auto _ : state) {
    auto data = volume.Extract(r);
    benchmark::DoNotOptimize(data);
  }
  state.counters["voxels"] = static_cast<double>(r.VoxelCount());
}
BENCHMARK(BM_VolumeExtract);

void BM_VolumeBanding(benchmark::State& state) {
  const GridSpec grid{3, 6};  // 64^3 keeps iterations fast
  auto volume = qbism::volume::Volume::FromFunction(
      grid, CurveKind::kHilbert, [](const qbism::geometry::Vec3i& p) {
        return static_cast<uint8_t>((p.x * 7 + p.y * 3 + p.z) & 0xFF);
      });
  for (auto _ : state) {
    auto band = volume.BandRegion(224, 255);
    benchmark::DoNotOptimize(band);
  }
}
BENCHMARK(BM_VolumeBanding);

void BM_EliasGammaCodec(benchmark::State& state) {
  for (auto _ : state) {
    qbism::BitWriter writer;
    for (uint64_t x = 1; x <= 1000; ++x) {
      qbism::compress::EliasGammaEncode(x, &writer);
    }
    auto bytes = writer.Finish();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_EliasGammaCodec);

/// One CRC-32 pass, as the wire (frame payloads), the WAL (records) and
/// the LFM (content checksums) run it, over 64 B, 4 KiB and 2 MiB (a
/// full-study answer): the dispatched kernel (arg 0 = 1; the folding
/// kernel on a host with PCLMULQDQ) and the byte-at-a-time oracle (0).
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(1)));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const bool dispatched = state.range(0) == 1;
  for (auto _ : state) {
    uint32_t crc = dispatched ? qbism::Crc32(data.data(), data.size())
                              : qbism::Crc32Scalar(data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(dispatched ? "dispatched" : "scalar");
}
BENCHMARK(BM_Crc32)->ArgsProduct({{1, 0}, {64, 4 << 10, 2 << 20}});

}  // namespace

BENCHMARK_MAIN();
