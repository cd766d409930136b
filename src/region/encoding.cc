#include "region/encoding.h"

#include "common/bitstream.h"
#include "common/bytes.h"
#include "common/macros.h"
#include "compress/codes.h"

namespace qbism::region {

namespace {

constexpr int kOctantRankBits = 5;

Status CheckOctantPackable(const Region& region) {
  int id_bits = region.grid().dims * region.grid().bits;
  if (id_bits + kOctantRankBits > 32) {
    return Status::InvalidArgument(
        "octant encoding supports grids up to 512^3 (id + rank in 4 bytes)");
  }
  return Status::OK();
}

/// --- Shared per-scheme layout helpers -----------------------------------
///
/// Each scheme has exactly one place that knows its layout; the encoder
/// and EncodedSizeBytes are both derived from it, so the two can never
/// drift (they used to be parallel hand-written walks).

/// Bytes of a naive-runs payload with `run_count` runs.
uint64_t NaiveRunsPayloadBytes(uint64_t run_count) {
  return uint64_t{4} + 8 * run_count;
}

/// Bytes of an octant-list payload with `octant_count` octants.
uint64_t OctantPayloadBytes(uint64_t octant_count) {
  return uint64_t{4} + 4 * octant_count;
}

/// Enumerates the gamma symbols of the elias-deltas layout in stream
/// order: gamma(#runs + 1), gamma(leading_gap + 1), then per run its
/// length followed (except after the last run) by the gap to the next
/// run. The trailing gap is implied by the grid.
template <typename Fn>
void ForEachEliasSymbol(const Region& region, Fn&& symbol) {
  const auto& runs = region.runs();
  symbol(static_cast<uint64_t>(runs.size()) + 1);
  symbol((runs.empty() ? uint64_t{0} : runs.front().start) + 1);
  for (size_t i = 0; i < runs.size(); ++i) {
    symbol(runs[i].Length());
    if (i + 1 < runs.size()) {
      // Canonical runs are separated by a gap of at least one id.
      symbol(runs[i + 1].start - runs[i].end - 1);
    }
  }
}

/// Exact bit length of the elias-deltas stream, via the SIMD-dispatched
/// gamma length-sum kernel over chunked symbol batches.
uint64_t EliasStreamBits(const Region& region) {
  constexpr size_t kChunk = 1024;
  uint64_t symbols[kChunk];
  size_t filled = 0;
  uint64_t bits = 0;
  ForEachEliasSymbol(region, [&](uint64_t x) {
    symbols[filled++] = x;
    if (filled == kChunk) {
      bits += compress::EliasGammaLengthSum(symbols, filled);
      filled = 0;
    }
  });
  bits += compress::EliasGammaLengthSum(symbols, filled);
  return bits;
}

Result<std::vector<uint8_t>> EncodeOctantList(const Region& region,
                                              bool oblong) {
  QBISM_RETURN_NOT_OK(CheckOctantPackable(region));
  std::vector<Octant> octants =
      oblong ? region.ToOblongOctants() : region.ToOctants();
  std::vector<uint8_t> out;
  out.reserve(OctantPayloadBytes(octants.size()));
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(octants.size()));
  for (const Octant& o : octants) {
    w.PutU32((static_cast<uint32_t>(o.id) << kOctantRankBits) |
             static_cast<uint32_t>(o.rank));
  }
  return out;
}

Result<Region> DecodeOctantList(const GridSpec& grid, curve::CurveKind kind,
                                std::span<const uint8_t> bytes) {
  ByteReader in(bytes.data(), bytes.size());
  QBISM_ASSIGN_OR_RETURN(uint32_t count, in.GetU32());
  // Never trust a stored count: each octant occupies exactly 4 bytes.
  if (in.remaining() != static_cast<size_t>(count) * 4) {
    return Status::Corruption("octant decode: count does not match payload");
  }
  std::vector<Run> runs(count);
  const uint8_t* p = bytes.data() + 4;
  for (Run& run : runs) {
    const uint32_t packed = LoadLE32(p);
    p += 4;
    const uint64_t id = packed >> kOctantRankBits;
    const int rank = static_cast<int>(packed & ((1u << kOctantRankBits) - 1));
    run = Run{id, id + (uint64_t{1} << rank) - 1};
  }
  return Region::FromRuns(grid, kind, std::move(runs));
}

/// Naive runs: a u32 count, then a u32 start and a u32 end per run. The
/// one count check bounds every field, so the runs are read in bulk.
std::vector<uint8_t> EncodeNaiveRuns(const Region& region) {
  std::vector<uint8_t> out(NaiveRunsPayloadBytes(region.RunCount()));
  uint8_t* p = out.data();
  StoreLE32(p, static_cast<uint32_t>(region.RunCount()));
  p += 4;
  for (const Run& r : region.runs()) {
    StoreLE32(p, static_cast<uint32_t>(r.start));
    StoreLE32(p + 4, static_cast<uint32_t>(r.end));
    p += 8;
  }
  return out;
}

Result<Region> DecodeNaiveRuns(const GridSpec& grid, curve::CurveKind kind,
                               std::span<const uint8_t> bytes) {
  ByteReader in(bytes.data(), bytes.size());
  QBISM_ASSIGN_OR_RETURN(uint32_t count, in.GetU32());
  // Never trust a stored count: each run occupies exactly 8 bytes.
  if (in.remaining() != static_cast<size_t>(count) * 8) {
    return Status::Corruption("naive-run decode: count/payload mismatch");
  }
  std::vector<Run> runs(count);
  const uint8_t* p = bytes.data() + 4;
  for (Run& run : runs) {
    run = Run{LoadLE32(p), LoadLE32(p + 4)};
    p += 8;
  }
  // Runs this system encodes are canonical, so FromRuns keeps the list.
  return Region::FromRuns(grid, kind, std::move(runs));
}

/// Fast elias decode: header, then the alternating length/gap symbols
/// through the word-at-a-time batch gamma kernel, maintaining the curve
/// offset cursor and bounds-checking against the grid as it goes. The
/// output run list is canonical by construction (every decoded gap is
/// >= 1), so FromCanonicalRuns validates it without a sort.
Result<Region> DecodeEliasDeltas(const GridSpec& grid, curve::CurveKind kind,
                                 std::span<const uint8_t> bytes) {
  BitReader reader(bytes.data(), bytes.size());
  QBISM_ASSIGN_OR_RETURN(uint64_t count_p1,
                         compress::EliasGammaDecode(&reader));
  uint64_t count = count_p1 - 1;
  // A canonical region cannot hold more runs than half the grid's
  // cells (runs are separated by gaps), and each run costs at least
  // one bit in the stream — both bound a corrupt count.
  if (count > (grid.NumCells() + 1) / 2 || count > bytes.size() * 8) {
    return Status::Corruption("elias decode: implausible run count");
  }
  QBISM_ASSIGN_OR_RETURN(uint64_t gap_p1, compress::EliasGammaDecode(&reader));
  uint64_t cursor = gap_p1 - 1;
  const uint64_t num_cells = grid.NumCells();
  std::vector<Run> runs;
  runs.reserve(count);
  uint64_t symbols_left = count == 0 ? 0 : 2 * count - 1;
  bool expect_length = true;
  constexpr size_t kChunk = 2048;
  uint64_t symbols[kChunk];
  while (symbols_left > 0) {
    size_t n = static_cast<size_t>(
        symbols_left < kChunk ? symbols_left : kChunk);
    QBISM_RETURN_NOT_OK(compress::EliasGammaDecodeBatch(&reader, symbols, n));
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = symbols[i];
      if (expect_length) {
        // Overflow-safe bound: the run [cursor, cursor + v - 1] must
        // stay inside the grid.
        if (cursor >= num_cells || v > num_cells - cursor) {
          return Status::OutOfRange("elias decode: run exceeds grid");
        }
        runs.push_back(Run{cursor, cursor + v - 1});
        cursor += v;
      } else {
        // A gap symbol is always followed by another run, which needs
        // at least one cell.
        if (v >= num_cells - cursor) {
          return Status::OutOfRange("elias decode: gap exceeds grid");
        }
        cursor += v;
      }
      expect_length = !expect_length;
    }
    symbols_left -= n;
  }
  return Region::FromCanonicalRuns(grid, kind, std::move(runs));
}

}  // namespace

std::string_view RegionEncodingToString(RegionEncoding encoding) {
  switch (encoding) {
    case RegionEncoding::kNaiveRuns:
      return "naive-runs";
    case RegionEncoding::kEliasDeltas:
      return "elias-deltas";
    case RegionEncoding::kOctants:
      return "octants";
    case RegionEncoding::kOblongOctants:
      return "oblong-octants";
  }
  return "unknown";
}

Result<std::vector<uint8_t>> EncodeRegion(const Region& region,
                                          RegionEncoding encoding) {
  switch (encoding) {
    case RegionEncoding::kNaiveRuns: {
      if (region.grid().dims * region.grid().bits > 32) {
        return Status::InvalidArgument("naive runs need ids to fit 4 bytes");
      }
      return EncodeNaiveRuns(region);
    }
    case RegionEncoding::kEliasDeltas: {
      BitWriter writer;
      ForEachEliasSymbol(region, [&](uint64_t x) {
        compress::EliasGammaEncode(x, &writer);
      });
      return writer.Finish();
    }
    case RegionEncoding::kOctants:
      return EncodeOctantList(region, /*oblong=*/false);
    case RegionEncoding::kOblongOctants:
      return EncodeOctantList(region, /*oblong=*/true);
  }
  return Status::InvalidArgument("unknown region encoding");
}

Result<Region> DecodeRegion(const GridSpec& grid, curve::CurveKind kind,
                            RegionEncoding encoding,
                            std::span<const uint8_t> bytes) {
  switch (encoding) {
    case RegionEncoding::kNaiveRuns:
      return DecodeNaiveRuns(grid, kind, bytes);
    case RegionEncoding::kEliasDeltas:
      return DecodeEliasDeltas(grid, kind, bytes);
    case RegionEncoding::kOctants:
    case RegionEncoding::kOblongOctants:
      return DecodeOctantList(grid, kind, bytes);
  }
  return Status::InvalidArgument("unknown region encoding");
}

Result<uint64_t> EncodedSizeBytes(const Region& region,
                                  RegionEncoding encoding) {
  switch (encoding) {
    case RegionEncoding::kNaiveRuns:
      return NaiveRunsPayloadBytes(region.RunCount());
    case RegionEncoding::kEliasDeltas:
      return (EliasStreamBits(region) + 7) / 8;
    case RegionEncoding::kOctants:
      QBISM_RETURN_NOT_OK(CheckOctantPackable(region));
      return OctantPayloadBytes(region.ToOctants().size());
    case RegionEncoding::kOblongOctants:
      QBISM_RETURN_NOT_OK(CheckOctantPackable(region));
      return OctantPayloadBytes(region.ToOblongOctants().size());
  }
  return Status::InvalidArgument("unknown region encoding");
}

}  // namespace qbism::region
