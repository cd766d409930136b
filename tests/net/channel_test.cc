#include "net/channel.h"

#include <gtest/gtest.h>

namespace qbism::net {
namespace {

/// A model whose only cost is per-message overhead and bandwidth, so
/// each test isolates one term of the charge.
NetworkCostModel NoRtt() {
  NetworkCostModel model;
  model.rtt_seconds = 0.0;
  return model;
}

TEST(ChannelTest, ControlMessageCosts) {
  NetworkCostModel model = NoRtt();
  model.per_message_seconds = 0.01;
  model.bandwidth_bytes_per_second = 1000.0;
  NetworkCharge charge = model.Charge(/*bulk_bytes=*/0, /*control_bytes=*/500);
  EXPECT_EQ(charge.messages, 1u);
  EXPECT_NEAR(charge.seconds, 0.01 + 0.5, 1e-12);
  // A zero-byte control message is still one message.
  EXPECT_EQ(model.Charge(0, 0).messages, 1u);
  EXPECT_NEAR(model.Charge(0, 0).seconds, 0.01, 1e-12);
}

TEST(ChannelTest, BulkChunking) {
  NetworkCostModel model = NoRtt();
  model.chunk_bytes = 1024;
  // 2048 data messages, mirroring the paper's ~2103 for Q1.
  EXPECT_EQ(model.Charge(2 * 1024 * 1024).messages, 2048u);
  EXPECT_EQ(model.Charge(1).messages, 1u);
  EXPECT_EQ(model.Charge(1025).messages, 2u);
  EXPECT_EQ(model.Charge(0).messages, 0u);
  EXPECT_EQ(model.Charge(0).seconds, 0.0);
  // Bulk and control messages add up.
  EXPECT_EQ(model.Charge(1025, 100).messages, 3u);
}

TEST(ChannelTest, CostScalesWithSize) {
  NetworkCostModel model;
  double small = model.Charge(100000).seconds;
  double large = model.Charge(2000000).seconds;
  EXPECT_GT(large, 10 * small);
}

TEST(ChannelTest, RoundTripAddsRtt) {
  NetworkCostModel model;
  model.rtt_seconds = 0.004;
  NetworkCharge charge = model.Charge(0);
  EXPECT_NEAR(charge.seconds, 0.004, 1e-12);
  EXPECT_EQ(charge.messages, 0u);
  // Every exchange pays exactly one round trip on top of its messages.
  NetworkCostModel no_rtt = model;
  no_rtt.rtt_seconds = 0.0;
  EXPECT_NEAR(model.Charge(5000, 64).seconds,
              no_rtt.Charge(5000, 64).seconds + 0.004, 1e-12);
}

TEST(ChannelTest, DeterministicAcrossInstances) {
  NetworkCostModel a, b;
  EXPECT_EQ(a.Charge(123456, 80).seconds, b.Charge(123456, 80).seconds);
  EXPECT_EQ(a.Charge(123456, 80).messages, b.Charge(123456, 80).messages);
}

}  // namespace
}  // namespace qbism::net
