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

/// Any realize scale above 0 makes a device's transfers wait, and only
/// there does ExtractBytes shard; this one keeps each wait to a few
/// microseconds of modeled time.
constexpr double kWaitScale = 1e-4;

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
  device.set_realize_scale(kWaitScale);
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
  // The full field as one run, split into units across the shards.
  auto full = extractor.ExtractBytes(f.id, {{0, f.bytes.size()}});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), f.bytes);
  EXPECT_GT(extractor.stats().shard_tasks, extractor.stats().extractions);
}

TEST(ParallelExtractorTest, ConcurrentExtractionsAreIsolated) {
  DiskDevice device(4096);
  device.set_realize_scale(kWaitScale);
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
  device.set_realize_scale(kWaitScale);
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
  device.set_realize_scale(kWaitScale);
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

TEST(ParallelExtractorTest, InlineUnlessTransfersWait) {
  DiskDevice device(2048);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 512 * kPageSize, 15);
  TaskPool pool(4);
  ParallelExtractor extractor(&lfm);  // default min_parallel_pages
  extractor.set_pool(&pool);
  const std::vector<ByteRange> full = {{0, f.bytes.size()}};

  // In memory a transfer is a memcpy: the caller reads inline, one shard
  // per extraction, and the pool never runs a task.
  const TaskPool::Stats pool_before = pool.stats();
  for (int i = 0; i < 4; ++i) {
    auto got = extractor.ExtractBytes(f.id, full);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), f.bytes);
  }
  const ExtractorStatsSnapshot in_memory = extractor.stats();
  EXPECT_EQ(in_memory.extractions, 4u);
  EXPECT_EQ(in_memory.shard_tasks, 4u);
  EXPECT_EQ(in_memory.helper_tasks, 0u);
  EXPECT_EQ(pool.stats().batches, pool_before.batches);
  EXPECT_EQ(pool.stats().tasks, pool_before.tasks);
  EXPECT_EQ(pool.stats().helper_tasks, pool_before.helper_tasks);

  // The same call on a device whose transfers wait fans out.
  device.set_realize_scale(kWaitScale);
  auto got = extractor.ExtractBytes(f.id, full);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), f.bytes);
  ExtractorStatsSnapshot waiting = extractor.stats() - in_memory;
  EXPECT_EQ(waiting.extractions, 1u);
  EXPECT_GT(waiting.shard_tasks, 1u);
  EXPECT_EQ(pool.stats().batches, pool_before.batches + 1);
}

/// Run lists whose pieces rarely cover a whole page: many runs per page,
/// runs across page edges, and long runs across several pages separated
/// by page-sized gaps, so plans hold boundary extents everywhere and
/// sharding cuts runs at unit edges.
std::vector<std::vector<ByteRange>> BoundaryHeavyLists(uint64_t size) {
  std::vector<std::vector<ByteRange>> lists(4);
  for (uint64_t off = 3; off + 5 <= 48 * kPageSize; off += 37) {
    lists[0].push_back({off, 5});
  }
  for (uint64_t p = 1; (p + 1) * kPageSize < size; p += 2) {
    lists[1].push_back({p * kPageSize - 3, 7});
  }
  for (uint64_t off = kPageSize / 2; off + 3 * kPageSize + 1 <= size;
       off += 5 * kPageSize + 11) {
    lists[2].push_back({off, 3 * kPageSize + 1});
  }
  // A long run, then a spray of short runs on the page it ends in and
  // the next one, then a gap.
  for (uint64_t off = 100; off + 4 * kPageSize <= size;
       off += 7 * kPageSize) {
    lists[3].push_back({off, 2 * kPageSize});
    for (uint64_t at = off + 2 * kPageSize + 1;
         at + 3 <= off + 4 * kPageSize; at += 301) {
      lists[3].push_back({at, 3});
    }
  }
  return lists;
}

TEST(ParallelExtractorTest, OneCopyMatchesOracleOnBoundaryHeavyLists) {
  DiskDevice device(2048);
  LongFieldManager lfm(&device);
  TestField f = MakeField(&lfm, 300 * kPageSize + 99, 16);
  TaskPool pool(4);
  for (bool sharded : {false, true}) {
    device.set_realize_scale(sharded ? kWaitScale : 0.0);
    for (uint64_t gap : {uint64_t{0}, uint64_t{1}, uint64_t{1000}}) {
      ExtractOptions options;
      options.gap_fill_pages = gap;
      options.min_parallel_pages = 1;
      ParallelExtractor extractor(&lfm, options);
      extractor.set_pool(&pool);
      for (const auto& ranges : BoundaryHeavyLists(f.bytes.size())) {
        ASSERT_FALSE(ranges.empty());
        auto got = extractor.ExtractBytes(f.id, ranges);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got.value(), Oracle(f, ranges))
            << (sharded ? "sharded" : "inline") << " gap " << gap;
      }
      ExtractorStatsSnapshot stats = extractor.stats();
      if (sharded) {
        EXPECT_GT(stats.shard_tasks, stats.extractions);
      } else {
        EXPECT_EQ(stats.shard_tasks, stats.extractions);
      }
    }
  }
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
