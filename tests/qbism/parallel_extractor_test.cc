#include "qbism/parallel_extractor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/task_pool.h"
#include "storage/fault_plan.h"

namespace qbism {
namespace {

using storage::ByteRange;
using storage::DiskDevice;
using storage::FaultPlan;
using storage::kPageSize;
using storage::LongFieldId;
using storage::LongFieldManager;

/// A field of pseudo-random bytes plus the oracle copy.
struct TestField {
  std::vector<uint8_t> bytes;
  LongFieldId id;
};

TestField MakeField(LongFieldManager* lfm, size_t size, uint64_t seed) {
  TestField f;
  Rng rng(seed);
  f.bytes.resize(size);
  for (auto& b : f.bytes) b = static_cast<uint8_t>(rng.Next());
  f.id = lfm->Create(f.bytes).MoveValue();
  return f;
}

/// What ExtractBytes must return: the ranges' bytes concatenated.
std::vector<uint8_t> Oracle(const TestField& f,
                            const std::vector<ByteRange>& ranges) {
  std::vector<uint8_t> out;
  for (const ByteRange& r : ranges) {
    out.insert(out.end(), f.bytes.begin() + static_cast<ptrdiff_t>(r.offset),
               f.bytes.begin() + static_cast<ptrdiff_t>(r.offset + r.length));
  }
  return out;
}

/// Random sorted disjoint range list over [0, size).
std::vector<ByteRange> RandomRanges(Rng* rng, uint64_t size) {
  std::vector<ByteRange> ranges;
  uint64_t cursor = rng->Next() % (kPageSize / 2);
  while (cursor < size) {
    uint64_t len = 1 + rng->Next() % (3 * kPageSize);
    if (cursor + len > size) len = size - cursor;
    if (len > 0) ranges.push_back({cursor, len});
    cursor += len + 1 + rng->Next() % (2 * kPageSize);
  }
  return ranges;
}

TEST(ParallelExtractorTest, MatchesOracleAcrossShapesSerial) {
  DiskDevice device(1024);
  LongFieldManager lfm(&device);
  ParallelExtractor extractor(&lfm);
  TestField f = MakeField(&lfm, 100 * kPageSize + 123, 1);

  std::vector<std::vector<ByteRange>> shapes = {
      {},                                  // empty region
      {{0, f.bytes.size()}},               // full field (one run)
      {{0, 1}},                            // single voxel at start
      {{f.bytes.size() - 1, 1}},           // single voxel at field end
      {{kPageSize - 1, 2}},                // page-straddling pair
      {{0, kPageSize}, {kPageSize, 10}},   // boundary-exact neighbors
      {{5, 10}, {kPageSize + 5, 10}, {50 * kPageSize, 4 * kPageSize}},
  };
  for (const auto& ranges : shapes) {
    auto got = extractor.ExtractBytes(f.id, ranges);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), Oracle(f, ranges));
  }
}

TEST(ParallelExtractorTest, MatchesOracleRandomizedAllGapFills) {
  DiskDevice device(1024);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 64 * kPageSize + 777, 2);
  Rng rng(3);
  for (uint64_t gap : {uint64_t{0}, uint64_t{1}, uint64_t{4}, uint64_t{1000}}) {
    ExtractOptions options;
    options.gap_fill_pages = gap;
    ParallelExtractor extractor(&lfm, options);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<ByteRange> ranges = RandomRanges(&rng, f.bytes.size());
      auto got = extractor.ExtractBytes(f.id, ranges);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.value(), Oracle(f, ranges)) << "gap " << gap;
    }
  }
}

TEST(ParallelExtractorTest, ParallelMatchesSerial) {
  DiskDevice device(2048);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 1024 * kPageSize, 4);
  TaskPool pool(4);
  ExtractOptions options;
  options.min_parallel_pages = 1;  // force sharding even for small plans
  ParallelExtractor extractor(&lfm, options);
  extractor.set_pool(&pool);

  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ByteRange> ranges = RandomRanges(&rng, f.bytes.size());
    auto got = extractor.ExtractBytes(f.id, ranges);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value(), Oracle(f, ranges));
  }
  // The full field as one run: the all-direct fast path, sharded.
  auto full = extractor.ExtractBytes(f.id, {{0, f.bytes.size()}});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), f.bytes);
  EXPECT_GT(extractor.stats().shard_tasks, extractor.stats().extractions);
}

TEST(ParallelExtractorTest, ConcurrentExtractionsAreIsolated) {
  DiskDevice device(4096);
  LongFieldManager lfm(&device);
  TaskPool pool(4);
  ExtractOptions options;
  options.min_parallel_pages = 1;
  ParallelExtractor extractor(&lfm, options);
  extractor.set_pool(&pool);

  std::vector<TestField> fields;
  for (int i = 0; i < 4; ++i) {
    fields.push_back(MakeField(&lfm, 256 * kPageSize + 31 * i, 10 + i));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int trial = 0; trial < 8; ++trial) {
        const TestField& f = fields[static_cast<size_t>(c)];
        std::vector<ByteRange> ranges = RandomRanges(&rng, f.bytes.size());
        auto got = extractor.ExtractBytes(f.id, ranges);
        if (!got.ok() || got.value() != Oracle(f, ranges)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelExtractorTest, StatsTrackCoalescingAndParallelism) {
  DiskDevice device(2048);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 512 * kPageSize, 6);
  TaskPool pool(4);
  ExtractOptions options;
  options.min_parallel_pages = 1;
  ParallelExtractor extractor(&lfm, options);
  extractor.set_pool(&pool);

  // Many short runs per page: the per-run path would pay one page read
  // per run, the planner reads each page once.
  std::vector<ByteRange> ranges;
  for (uint64_t off = 0; off + 64 <= 128 * kPageSize; off += 512) {
    ranges.push_back({off, 64});
  }
  auto got = extractor.ExtractBytes(f.id, ranges);
  ASSERT_TRUE(got.ok());
  ExtractorStatsSnapshot stats = extractor.stats();
  EXPECT_EQ(stats.extractions, 1u);
  EXPECT_EQ(stats.runs, ranges.size());
  EXPECT_EQ(stats.pages_read, 128u);            // each page exactly once
  EXPECT_EQ(stats.pages_demanded, ranges.size());  // one page per short run
  EXPECT_GT(stats.CoalescingRatio(), 7.0);
  EXPECT_LE(stats.pages_read, stats.pages_demanded);
  EXPECT_EQ(stats.bytes_moved, static_cast<uint64_t>(ranges.size()) * 64);
  EXPECT_GE(stats.extents_planned, 1u);
  EXPECT_GT(stats.shard_tasks, 1u);
}

TEST(ParallelExtractorTest, HelperIoIsReattributedToTheCallingThread) {
  DiskDevice device(2048);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 512 * kPageSize, 7);
  TaskPool pool(4);
  ExtractOptions options;
  options.min_parallel_pages = 1;
  ParallelExtractor extractor(&lfm, options);
  extractor.set_pool(&pool);

  // The ledger invariant must hold on every extraction; repeat until at
  // least one helper actually grabbed a task (the caller can in
  // principle drain a whole batch before a helper wakes, so a single
  // attempt would be timing-dependent).
  for (int attempt = 0;
       attempt < 200 && extractor.stats().helper_tasks == 0; ++attempt) {
    device.ResetThreadStats();
    storage::IoStats device_before = device.stats();
    auto got = extractor.ExtractBytes(f.id, {{0, f.bytes.size()}});
    ASSERT_TRUE(got.ok());
    storage::IoStats device_delta = device.stats() - device_before;
    storage::IoStats thread_delta = device.thread_stats();
    // Every page a helper read must show up in this thread's ledger,
    // which is what the server's per-request accounting is built on.
    EXPECT_EQ(thread_delta.pages_read, device_delta.pages_read);
    EXPECT_EQ(thread_delta.pages_read, 512u);
  }
  EXPECT_GT(extractor.stats().helper_tasks, 0u);
}

TEST(ParallelExtractorTest, RejectsUnsortedOrOverlappingRanges) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  ParallelExtractor extractor(&lfm);
  TestField f = MakeField(&lfm, 4 * kPageSize, 8);
  EXPECT_FALSE(extractor.ExtractBytes(f.id, {{100, 10}, {50, 10}}).ok());
  EXPECT_FALSE(extractor.ExtractBytes(f.id, {{0, 100}, {50, 100}}).ok());
  EXPECT_FALSE(
      extractor.ExtractBytes(f.id, {{0, 5 * kPageSize}}).ok());  // past end
  EXPECT_FALSE(extractor.ExtractBytes(LongFieldId{999}, {{0, 1}}).ok());
}

TEST(ParallelExtractorTest, ThreadInterruptAbortsExtraction) {
  DiskDevice device(2048);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 256 * kPageSize, 9);
  ParallelExtractor extractor(&lfm);
  {
    ParallelExtractor::ScopedThreadInterrupt interrupt(
        []() -> Status { return Status::Cancelled("client went away"); });
    auto got = extractor.ExtractBytes(f.id, {{0, f.bytes.size()}});
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsCancelled());
  }
  // Hook cleared on scope exit: the same call succeeds.
  EXPECT_TRUE(extractor.ExtractBytes(f.id, {{0, f.bytes.size()}}).ok());
}

TEST(ParallelExtractorTest, DefaultSurfacesInjectedFaults) {
  DiskDevice device(2048);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 64 * kPageSize, 11);
  ParallelExtractor extractor(&lfm);
  device.InstallFaultPlan(FaultPlan::FailAtTransfer(0));
  auto got = extractor.ExtractBytes(f.id, {{0, f.bytes.size()}});
  device.ClearFault();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError());
}

TEST(ParallelExtractorTest, ScanFieldStreamsEveryByteOnce) {
  DiskDevice device(1024);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 37 * kPageSize + 1234, 13);  // unaligned tail
  ParallelExtractor extractor(&lfm);
  for (uint64_t chunk : {kPageSize / 2, kPageSize, 8 * kPageSize,
                         64 * kPageSize, uint64_t{1} << 30}) {
    std::vector<uint8_t> streamed;
    uint64_t expected_offset = 0;
    Status status = extractor.ScanField(
        f.id, chunk,
        [&](uint64_t offset, const uint8_t* data, uint64_t len) -> Status {
          EXPECT_EQ(offset, expected_offset);
          expected_offset += len;
          streamed.insert(streamed.end(), data, data + len);
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(streamed, f.bytes) << "chunk " << chunk;
  }
}

TEST(ParallelExtractorTest, ScanFieldPropagatesCallbackAndInterrupt) {
  DiskDevice device(1024);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 16 * kPageSize, 14);
  ParallelExtractor extractor(&lfm);
  Status status = extractor.ScanField(
      f.id, kPageSize, [](uint64_t, const uint8_t*, uint64_t) -> Status {
        return Status::InvalidArgument("stop");
      });
  EXPECT_TRUE(status.IsInvalidArgument());

  int chunks_seen = 0;
  ParallelExtractor::ScopedThreadInterrupt interrupt([&]() -> Status {
    return chunks_seen >= 2 ? Status::Cancelled("deadline") : Status::OK();
  });
  status = extractor.ScanField(
      f.id, kPageSize, [&](uint64_t, const uint8_t*, uint64_t) -> Status {
        ++chunks_seen;
        return Status::OK();
      });
  EXPECT_TRUE(status.IsCancelled());
  EXPECT_EQ(chunks_seen, 2);
}

}  // namespace
}  // namespace qbism
