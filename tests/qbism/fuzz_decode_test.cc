// Decode fuzzing: every deserializer in the system must handle
// arbitrary bytes by returning a Status (or a valid object), never by
// crashing or reading out of bounds. Stored data is the trust boundary
// of a DBMS; a corrupt long field must surface as Corruption, not UB.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "index/summary.h"
#include "qbism/spatial_extension.h"
#include "region/encoding.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "viz/mesh.h"

namespace qbism {
namespace {

using curve::CurveKind;
using region::GridSpec;
using region::RegionEncoding;

std::vector<uint8_t> RandomBytes(Rng* rng, size_t max_len) {
  std::vector<uint8_t> bytes(rng->NextBounded(max_len + 1));
  for (auto& b : bytes) b = static_cast<uint8_t>(rng->Next());
  return bytes;
}

TEST(FuzzDecodeTest, RegionDecodersNeverCrash) {
  Rng rng(101);
  const GridSpec grid{3, 5};
  for (int trial = 0; trial < 3000; ++trial) {
    auto bytes = RandomBytes(&rng, 200);
    for (RegionEncoding enc :
         {RegionEncoding::kNaiveRuns, RegionEncoding::kEliasDeltas,
          RegionEncoding::kOctants, RegionEncoding::kOblongOctants}) {
      auto result = region::DecodeRegion(grid, CurveKind::kHilbert, enc,
                                         bytes);
      if (result.ok()) {
        // Whatever decoded must satisfy the canonical invariants.
        const auto& runs = result->runs();
        for (size_t i = 0; i < runs.size(); ++i) {
          ASSERT_LE(runs[i].start, runs[i].end);
          ASSERT_LT(runs[i].end, grid.NumCells());
        }
      }
    }
  }
}

TEST(FuzzDecodeTest, MeshDeserializeNeverCrashes) {
  Rng rng(102);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = RandomBytes(&rng, 300);
    auto mesh = viz::TriangleMesh::Deserialize(bytes);
    if (mesh.ok()) {
      for (const auto& t : mesh->triangles) {
        for (uint32_t idx : t) ASSERT_LT(idx, mesh->VertexCount());
      }
    }
  }
}

/// Decodes values from `in` until it is exhausted or a value fails;
/// every decoded or skipped value must consume at least its tag byte.
void DrainValues(ByteReader in, bool skip) {
  while (!in.AtEnd()) {
    size_t before = in.remaining();
    bool ok = skip ? sql::Value::SkipSerialized(&in).ok()
                   : sql::Value::DeserializeFrom(&in).ok();
    if (!ok) return;
    ASSERT_LT(in.remaining(), before);
  }
}

TEST(FuzzDecodeTest, ValueDeserializeNeverCrashes) {
  Rng rng(103);
  for (int trial = 0; trial < 5000; ++trial) {
    auto bytes = RandomBytes(&rng, 64);
    DrainValues(ByteReader(bytes), /*skip=*/false);
    DrainValues(ByteReader(bytes), /*skip=*/true);
  }
  // A stored string length near 2^64 wraps a `pos + len > size` bounds
  // check; random bytes essentially never draw one.
  const sql::TableSchema schema("t", {{"name", sql::ColumnType::kString}});
  for (uint64_t len : {~uint64_t{0}, ~uint64_t{0} - 7}) {
    std::vector<uint8_t> record = {
        static_cast<uint8_t>(sql::Value::Kind::kString)};
    ByteWriter(&record).PutU64(len);
    record.insert(record.end(), {'a', 'b', 'c'});
    ByteReader values(record);
    EXPECT_TRUE(sql::Value::DeserializeFrom(&values).status().IsCorruption());
    ByteReader skips(record);
    EXPECT_TRUE(sql::Value::SkipSerialized(&skips).IsCorruption());
    // The same record as a window inside a larger page buffer.
    std::vector<uint8_t> page(8, 0xAA);
    page.insert(page.end(), record.begin(), record.end());
    page.resize(page.size() + 64, 0xBB);
    for (char needed : {1, 0}) {
      sql::Row row;
      EXPECT_TRUE(sql::DeserializeRowProjected(schema, page, 8, record.size(),
                                               {needed}, &row)
                      .IsCorruption());
    }
  }
}

TEST(FuzzDecodeTest, RowWindowDecodeNeverCrashes) {
  const sql::TableSchema schema("t", {{"id", sql::ColumnType::kInt},
                                      {"name", sql::ColumnType::kString},
                                      {"score", sql::ColumnType::kDouble},
                                      {"data", sql::ColumnType::kLongField}});
  auto valid = sql::SerializeRow(schema, {sql::Value::Int(5),
                                          sql::Value::String("alpha"),
                                          sql::Value::Double(0.5),
                                          sql::Value::LongField({11})})
                   .MoveValue();
  Rng rng(107);
  for (int trial = 0; trial < 5000; ++trial) {
    // A random or bit-flipped record at a random offset of a page buffer
    // whose other bytes are random too.
    std::vector<uint8_t> record = valid;
    if (trial % 2 == 0) {
      record = RandomBytes(&rng, 48);
    } else {
      record[rng.NextBounded(record.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    std::vector<uint8_t> page = RandomBytes(&rng, 32);
    size_t offset = page.size();
    page.insert(page.end(), record.begin(), record.end());
    auto tail = RandomBytes(&rng, 32);
    page.insert(page.end(), tail.begin(), tail.end());
    std::vector<char> needed(schema.NumColumns());
    for (char& n : needed) n = static_cast<char>(rng.NextBounded(2));
    sql::Row row;
    Status st = sql::DeserializeRowProjected(schema, page, offset,
                                             record.size(), needed, &row);
    if (st.ok()) {
      ASSERT_EQ(row.size(), schema.NumColumns());
    }
  }
}

TEST(FuzzDecodeTest, StudySummaryDeserializeNeverCrashes) {
  index::StudySummary summary;
  summary.study_id = 7;
  summary.atlas_id = 1;
  summary.bitmap.SetRange(10, 90);
  for (uint8_t lo : {0, 64, 128}) {
    index::BandSummary band;
    band.lo = lo;
    band.hi = static_cast<uint8_t>(lo + 63);
    band.voxels = 1000u + lo;
    band.runs = 17;
    band.signature = 0xF0F0u;
    band.box.max[0] = 31;
    summary.bands.push_back(band);
  }
  std::vector<uint8_t> valid;
  summary.Serialize(&valid);
  Rng rng(108);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> bytes = valid;
    switch (trial % 3) {
      case 0:
        bytes = RandomBytes(&rng, 200);
        break;
      case 1:
        bytes.resize(rng.NextBounded(bytes.size() + 1));
        break;
      default:
        bytes[rng.NextBounded(bytes.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    auto back = index::StudySummary::Deserialize(bytes.data(), bytes.size());
    if (back.ok()) {
      // Every field is stored verbatim: an accepted payload re-encodes
      // to exactly its own bytes.
      std::vector<uint8_t> again;
      back->Serialize(&again);
      ASSERT_EQ(again, bytes);
    }
  }
}

TEST(FuzzDecodeTest, LongFieldRegionAndDataRegionLoaders) {
  sql::Database db;
  SpatialConfig config;
  config.grid = GridSpec{3, 4};
  auto ext = SpatialExtension::Install(&db, config).MoveValue();
  Rng rng(104);
  for (int trial = 0; trial < 500; ++trial) {
    auto field = db.lfm()->Create(RandomBytes(&rng, 150)).MoveValue();
    auto region = ext->LoadRegion(field);
    auto data_region = ext->LoadDataRegion(field);
    // No crash; OK results must be internally consistent.
    if (data_region.ok()) {
      EXPECT_EQ(data_region->values().size(),
                data_region->region().VoxelCount());
    }
    (void)region;
  }
}

TEST(FuzzDecodeTest, SqlParserNeverCrashesOnGarbage) {
  Rng rng(105);
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 ()*,.'=<>+-/\n_";
  for (int trial = 0; trial < 5000; ++trial) {
    std::string sql;
    size_t len = rng.NextBounded(120);
    for (size_t i = 0; i < len; ++i) {
      sql += alphabet[rng.NextBounded(sizeof(alphabet) - 1)];
    }
    auto statement = sql::ParseStatement(sql);
    (void)statement;  // either parses or errors; never crashes
  }
}

TEST(FuzzDecodeTest, MutatedValidRegionsEitherFailOrStayCanonical) {
  // Bit-flip corruption of genuinely valid encodings.
  Rng rng(106);
  const GridSpec grid{3, 4};
  geometry::Ellipsoid blob({8, 8, 8}, {5, 4, 3});
  auto region = region::Region::FromShape(grid, CurveKind::kHilbert, blob);
  for (RegionEncoding enc :
       {RegionEncoding::kNaiveRuns, RegionEncoding::kEliasDeltas,
        RegionEncoding::kOctants, RegionEncoding::kOblongOctants}) {
    auto bytes = region::EncodeRegion(region, enc).MoveValue();
    for (int trial = 0; trial < 500; ++trial) {
      auto mutated = bytes;
      size_t flips = 1 + rng.NextBounded(4);
      for (size_t f = 0; f < flips; ++f) {
        mutated[rng.NextBounded(mutated.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      auto result = region::DecodeRegion(grid, CurveKind::kHilbert, enc,
                                         mutated);
      if (result.ok()) {
        const auto& runs = result->runs();
        for (size_t i = 0; i < runs.size(); ++i) {
          ASSERT_LE(runs[i].start, runs[i].end);
          ASSERT_LT(runs[i].end, grid.NumCells());
          if (i > 0) {
            ASSERT_GT(runs[i].start, runs[i - 1].end + 1);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qbism
