// Readers racing durable updates of one long field. A snapshot-less
// Read must return exactly one version, and an ExtractBytes whose
// shards run on pool helpers must take every byte from one version:
// each read resolves the field's version once (Read under one directory
// hold; ExtractBytes under one snapshot it pins when the caller holds
// none), so neither can mix an old and a new extent.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/task_pool.h"
#include "qbism/parallel_extractor.h"
#include "storage/disk_device.h"
#include "storage/epoch.h"
#include "storage/long_field.h"
#include "storage/wal.h"

namespace qbism::storage {
namespace {

TEST(LfmConcurrencyTest, ReadsNeverTearAcrossDurableUpdates) {
  DiskDevice device(4096);
  DiskDevice log_device(4096);
  WriteAheadLog wal(&log_device);
  EpochManager epochs;
  LongFieldManager lfm(&device, LfmDurabilityHooks{&wal, &epochs});
  const std::vector<uint8_t> small(3 * kPageSize, 0xAA);
  const std::vector<uint8_t> large(5 * kPageSize + 100, 0xBB);
  LongFieldId id = lfm.Create(small).MoveValue();

  // One writer alternates the two payloads and vacuums every 8 updates,
  // so superseded extents are freed and reused while readers run. A
  // reader pinned across many updates holds their extents back; when
  // the device fills, the writer vacuums and waits for it to move on.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> updates{0};
  Status writer_status;
  std::thread writer([&] {
    for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      Status status = lfm.Update(id, i % 2 == 1 ? large : small);
      while (status.IsOutOfRange() && !stop.load(std::memory_order_relaxed)) {
        lfm.Vacuum();
        std::this_thread::yield();
        status = lfm.Update(id, i % 2 == 1 ? large : small);
      }
      if (!status.ok() && !stop.load(std::memory_order_relaxed)) {
        writer_status = status;
        return;
      }
      if (i % 8 == 0) lfm.Vacuum();
      updates.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // The extraction covers the first 3 pages of either payload; on a
  // device whose transfers wait (a small realize scale) and with
  // min_parallel_pages = 1 it splits into one-page shards, two of them
  // on pool helpers.
  device.set_realize_scale(1e-4);
  TaskPool pool(2);
  ExtractOptions options;
  options.min_parallel_pages = 1;
  ParallelExtractor extractor(&lfm, options);
  extractor.set_pool(&pool);
  const std::vector<ByteRange> first_pages = {{0, 3 * kPageSize}};

  uint64_t reads = 0, extracts = 0;
  uint64_t torn_reads = 0, failed_reads = 0;
  uint64_t torn_extracts = 0, failed_extracts = 0;
  Status first_failure;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 8; ++i, ++reads) {
      auto bytes = lfm.Read(id);
      if (!bytes.ok()) {
        ++failed_reads;
        if (first_failure.ok()) first_failure = bytes.status();
      } else if (*bytes != small && *bytes != large) {
        ++torn_reads;
      }
    }
    ++extracts;
    auto bytes = extractor.ExtractBytes(id, first_pages);
    if (!bytes.ok()) {
      ++failed_extracts;
      if (first_failure.ok()) first_failure = bytes.status();
      continue;
    }
    uint8_t fill = bytes->front();
    for (uint8_t b : *bytes) {
      if (b != fill) {
        ++torn_extracts;
        break;
      }
    }
  }
  stop.store(true);
  writer.join();
  pool.Shutdown();

  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_GT(updates.load(), 100u);  // the readers really raced updates
  EXPECT_EQ(torn_reads, 0u) << "of " << reads << " reads";
  EXPECT_EQ(failed_reads, 0u) << "of " << reads << " reads";
  EXPECT_EQ(torn_extracts, 0u) << "of " << extracts << " extractions";
  EXPECT_EQ(failed_extracts, 0u) << "of " << extracts << " extractions";
  EXPECT_TRUE(first_failure.ok()) << first_failure.ToString();
  EXPECT_TRUE(lfm.CheckPageAccounting().ok());
}

}  // namespace
}  // namespace qbism::storage
