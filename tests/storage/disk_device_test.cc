#include "storage/disk_device.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace qbism::storage {
namespace {

/// A batch read whose visitor copies op i's pages to outs[i].
Status ReadInto(DiskDevice* device, const std::vector<PageReadOp>& ops,
                const std::vector<uint8_t*>& outs) {
  return device->ReadPagesBatch(ops, [&](size_t i, const uint8_t* pages) {
    std::memcpy(outs[i], pages, ops[i].count * kPageSize);
  });
}

TEST(DiskDeviceTest, WriteThenReadBack) {
  DiskDevice device(16);
  std::vector<uint8_t> out(kPageSize, 0xAB);
  ASSERT_TRUE(device.WritePage(3, out.data()).ok());
  std::vector<uint8_t> in(kPageSize, 0);
  ASSERT_TRUE(device.ReadPage(3, in.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(DiskDeviceTest, FreshPagesAreZero) {
  DiskDevice device(4);
  std::vector<uint8_t> in(kPageSize, 0xFF);
  ASSERT_TRUE(device.ReadPage(0, in.data()).ok());
  for (uint8_t b : in) EXPECT_EQ(b, 0);
}

TEST(DiskDeviceTest, OutOfRangeRejected) {
  DiskDevice device(4);
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_FALSE(device.ReadPage(4, buf.data()).ok());
  EXPECT_FALSE(device.WritePage(4, buf.data()).ok());
  EXPECT_FALSE(device.ReadPages(3, 2, buf.data()).ok());
}

TEST(DiskDeviceTest, WrappingPageRangeRejectedOnEveryPath) {
  // page_no + count wraps uint64_t to an in-range value: every path must
  // reject it before any transfer, or it would touch the bytes before
  // the store.
  DiskDevice device(16);
  std::vector<uint8_t> buf(kPageSize, 0x5A);
  EXPECT_TRUE(device.ReadPage(UINT64_MAX, buf.data()).IsOutOfRange());
  EXPECT_TRUE(
      ReadInto(&device, {{UINT64_MAX, 1}}, {buf.data()}).IsOutOfRange());
  EXPECT_TRUE(device.WritePages(UINT64_MAX, 1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(device.ReadPages(2, UINT64_MAX - 1, buf.data()).IsOutOfRange());
  EXPECT_EQ(device.fault_stats().transfers, 0u);
  // The last page itself is still in range.
  EXPECT_TRUE(device.ReadPages(15, 1, buf.data()).ok());
  EXPECT_TRUE(device.WritePages(15, 1, buf.data()).ok());
}

TEST(DiskDeviceTest, MultiPageTransfer) {
  DiskDevice device(8);
  std::vector<uint8_t> out(3 * kPageSize);
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(device.WritePages(2, 3, out.data()).ok());
  std::vector<uint8_t> in(3 * kPageSize);
  ASSERT_TRUE(device.ReadPages(2, 3, in.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(DiskDeviceTest, CountsPagesAndSeeks) {
  DiskDevice device(64);
  std::vector<uint8_t> buf(4 * kPageSize);
  device.ResetStats();
  // First access: one seek.
  ASSERT_TRUE(device.ReadPages(10, 4, buf.data()).ok());
  EXPECT_EQ(device.stats().pages_read, 4u);
  EXPECT_EQ(device.stats().seeks, 1u);
  // Sequential continuation: no extra seek.
  ASSERT_TRUE(device.ReadPage(14, buf.data()).ok());
  EXPECT_EQ(device.stats().pages_read, 5u);
  EXPECT_EQ(device.stats().seeks, 1u);
  // Random jump: another seek.
  ASSERT_TRUE(device.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(device.stats().seeks, 2u);
}

TEST(DiskDeviceTest, CostModelDeterministic) {
  DiskCostModel model{0.010, 0.001};
  DiskDevice device(64, model);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(device.ReadPage(5, buf.data()).ok());   // seek + 1 transfer
  ASSERT_TRUE(device.ReadPage(6, buf.data()).ok());   // sequential transfer
  ASSERT_TRUE(device.ReadPage(20, buf.data()).ok());  // seek + transfer
  EXPECT_NEAR(device.stats().simulated_seconds, 2 * 0.010 + 3 * 0.001, 1e-12);
}

TEST(DiskDeviceTest, ResetStatsClearsCounters) {
  DiskDevice device(8);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(device.ReadPage(1, buf.data()).ok());
  device.ResetStats();
  EXPECT_EQ(device.stats().pages_read, 0u);
  EXPECT_EQ(device.stats().simulated_seconds, 0.0);
}

TEST(DiskDeviceTest, StatsSubtraction) {
  IoStats a{10, 5, 3, 1.5};
  IoStats b{4, 2, 1, 0.5};
  IoStats d = a - b;
  EXPECT_EQ(d.pages_read, 6u);
  EXPECT_EQ(d.pages_written, 3u);
  EXPECT_EQ(d.seeks, 2u);
  EXPECT_NEAR(d.simulated_seconds, 1.0, 1e-12);
}

TEST(DiskDeviceTest, BatchReadScattersIntoDistinctBuffers) {
  DiskDevice device(32);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < 32; ++p) {
    std::fill(page.begin(), page.end(), static_cast<uint8_t>(p + 1));
    ASSERT_TRUE(device.WritePage(p, page.data()).ok());
  }
  std::vector<uint8_t> a(2 * kPageSize), b(kPageSize), c(3 * kPageSize);
  ASSERT_TRUE(ReadInto(&device, {{4, 2}, {10, 1}, {20, 3}},
                       {a.data(), b.data(), c.data()})
                  .ok());
  EXPECT_EQ(a[0], 5);
  EXPECT_EQ(a[kPageSize], 6);
  EXPECT_EQ(b[0], 11);
  EXPECT_EQ(c[0], 21);
  EXPECT_EQ(c[2 * kPageSize], 23);
}

TEST(DiskDeviceTest, BatchReadChargesOneTransferPerOp) {
  DiskDevice device(64);
  std::vector<uint8_t> buf(8 * kPageSize);
  device.ResetStats();
  FaultStats before = device.fault_stats();
  ASSERT_TRUE(ReadInto(&device, {{0, 4}, {30, 2}, {60, 2}},
                       {buf.data(), buf.data() + 4 * kPageSize,
                        buf.data() + 6 * kPageSize})
                  .ok());
  FaultStats delta = device.fault_stats() - before;
  EXPECT_EQ(delta.transfers, 3u);  // one arm movement per extent
  EXPECT_EQ(delta.pages, 8u);
  EXPECT_EQ(device.stats().pages_read, 8u);
  EXPECT_EQ(device.thread_stats().pages_read, 8u);
}

TEST(DiskDeviceTest, BatchReadValidatesBeforeTransferring) {
  DiskDevice device(16);
  std::vector<uint8_t> buf(4 * kPageSize);
  device.ResetStats();
  // Second op is out of bounds: the whole batch is rejected up front and
  // nothing transfers (no torn charge for the valid first op).
  Status status = ReadInto(&device, {{0, 2}, {15, 2}},
                           {buf.data(), buf.data() + 2 * kPageSize});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(device.stats().pages_read, 0u);
  EXPECT_TRUE(device.ReadPages(0, 1, nullptr).IsInvalidArgument());
  EXPECT_EQ(device.stats().pages_read, 0u);
}

TEST(DiskDeviceTest, BatchReadMidBatchFaultChargesEarlierOps) {
  DiskDevice device(64);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < 64; ++p) {
    std::fill(page.begin(), page.end(), static_cast<uint8_t>(p + 1));
    ASSERT_TRUE(device.WritePage(p, page.data()).ok());
  }
  device.ResetStats();
  device.ResetThreadStats();
  // Transfers number per op; fail the second op of the batch.
  device.InstallFaultPlan(FaultPlan::FailAtTransfer(1));
  std::vector<size_t> visited;
  std::vector<uint8_t> first_bytes;
  Status status = device.ReadPagesBatch(
      {{0, 2}, {10, 2}, {20, 2}}, [&](size_t i, const uint8_t* pages) {
        visited.push_back(i);
        first_bytes.push_back(pages[0]);
      });
  device.ClearFault();
  EXPECT_TRUE(status.IsIOError());
  // Op 0 transferred, is charged and was visited with its own pages;
  // the faulting op and the one behind it are neither charged nor
  // visited.
  EXPECT_EQ(visited, std::vector<size_t>{0});
  EXPECT_EQ(first_bytes, std::vector<uint8_t>{1});
  EXPECT_EQ(device.stats().pages_read, 2u);
  EXPECT_EQ(device.stats().seeks, 1u);
  EXPECT_EQ(device.thread_stats().pages_read, 2u);
}

TEST(DiskDeviceTest, ConcurrentBatchReadsSeeConsistentData) {
  DiskDevice device(64);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < 64; ++p) {
    std::fill(page.begin(), page.end(), static_cast<uint8_t>(p));
    ASSERT_TRUE(device.WritePage(p, page.data()).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&device, &failures, t] {
      std::vector<uint8_t> buf(16 * kPageSize);
      for (int iter = 0; iter < 50; ++iter) {
        uint64_t first = static_cast<uint64_t>(t) * 16;
        if (!ReadInto(&device, {{first, 8}, {first + 8, 8}},
                      {buf.data(), buf.data() + 8 * kPageSize})
                 .ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (uint64_t p = 0; p < 16; ++p) {
          if (buf[p * kPageSize] != static_cast<uint8_t>(first + p)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(device.stats().pages_read, 4u * 50u * 16u);
}

TEST(DiskDeviceTest, WritesCountedSeparately) {
  DiskDevice device(8);
  std::vector<uint8_t> buf(kPageSize, 1);
  ASSERT_TRUE(device.WritePage(0, buf.data()).ok());
  ASSERT_TRUE(device.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(device.stats().pages_written, 1u);
  EXPECT_EQ(device.stats().pages_read, 1u);
}

}  // namespace
}  // namespace qbism::storage
