// ServiceMetrics snapshots: edge-rejection counters and the per-stage
// tracing summaries reach the snapshot JSON.

#include "service/metrics.h"

#include <gtest/gtest.h>

#include <string>

namespace qbism::service {
namespace {

TEST(ServiceMetricsTest, EdgeRejectionCountersFlowIntoSnapshotAndJson) {
  ServiceMetrics metrics;
  metrics.AddUnauthorized();
  metrics.AddUnauthorized();
  metrics.AddQuotaRejected();
  metrics.AddSessionExpired();
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.unauthorized, 2u);
  EXPECT_EQ(snapshot.quota_rejected, 1u);
  EXPECT_EQ(snapshot.session_expired, 1u);
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"unauthorized\":2"), std::string::npos);
  EXPECT_NE(json.find("\"quota_rejected\":1"), std::string::npos);
  EXPECT_NE(json.find("\"session_expired\":1"), std::string::npos);
}

TEST(ServiceMetricsTest, LatencySummariesAreInSeconds) {
  ServiceMetrics metrics;
  for (int i = 1; i <= 100; ++i) metrics.RecordLatency(i * 1e-3);
  metrics.RecordQueueWait(0.25);
  metrics.RecordQueueWait(0.5);
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.latency.count, 100u);
  EXPECT_NEAR(snapshot.latency.mean, 50.5e-3, 1e-9);
  EXPECT_NEAR(snapshot.latency.max, 100e-3, 1e-9);
  // Nearest rank: the 50th and 95th of 1..100 ms, each within 1/32.
  EXPECT_NEAR(snapshot.latency.p50, 50e-3, 50e-3 / 32);
  EXPECT_NEAR(snapshot.latency.p95, 95e-3, 95e-3 / 32);
  EXPECT_EQ(snapshot.queue_wait.count, 2u);
  EXPECT_DOUBLE_EQ(snapshot.queue_wait.max, 0.5);
  EXPECT_DOUBLE_EQ(snapshot.queue_wait_seconds, 0.75);
}

TEST(MetricsSnapshotTest, ToJsonOmitsStagesWhenUntraced) {
  MetricsSnapshot snapshot;
  std::string json = snapshot.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find("\"stages\""), std::string::npos);
}

TEST(MetricsSnapshotTest, ToJsonEmbedsStageSummaries) {
  MetricsSnapshot snapshot;
  obs::StageSummary io;
  io.stage = obs::Stage::kIo;
  io.count = 42;
  io.total_seconds = 1.5;
  io.pages = 640;
  snapshot.stages.push_back(io);
  std::string json = snapshot.ToJson();
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"stages\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"io\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"pages\":640"), std::string::npos);
}

}  // namespace
}  // namespace qbism::service
