// Unit tests for the span-based tracing layer: span lifecycle and
// nesting, the disabled fast path, drop-at-capacity, and the
// structured export formats.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

namespace qbism::obs {
namespace {

TEST(TracerTest, SpanTreeParentage) {
  Tracer tracer;
  TraceContext root_ctx = tracer.StartTrace();
  {
    Span parent(root_ctx, Stage::kQuery);
    ASSERT_TRUE(parent.active());
    Span child(parent.context(), Stage::kIo);
    ASSERT_TRUE(child.active());
    child.AddPages(3);
    child.AddBytes(4096);
  }
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);  // child ends first (reverse scope order)
  const SpanRecord& child = spans[0];
  const SpanRecord& parent = spans[1];
  EXPECT_EQ(child.stage, Stage::kIo);
  EXPECT_EQ(parent.stage, Stage::kQuery);
  EXPECT_EQ(child.trace_id, parent.trace_id);
  EXPECT_EQ(child.parent_id, parent.span_id);
  EXPECT_EQ(parent.parent_id, 0u);
  EXPECT_EQ(child.pages, 3u);
  EXPECT_EQ(child.bytes, 4096u);
  EXPECT_TRUE(child.ok);
}

TEST(TracerTest, ThreadLocalContextPropagation) {
  Tracer tracer;
  TraceContext root = tracer.StartTrace();
  {
    ScopedTraceContext install(root);
    Span span(Stage::kPlan);  // picks up the installed context
    EXPECT_TRUE(span.active());
  }
  // Restored: a span opened now is inert.
  Span after(Stage::kPlan);
  EXPECT_FALSE(after.active());
  EXPECT_EQ(tracer.Spans().size(), 1u);
}

TEST(TracerTest, InertWithoutTracerAndWhenDisabled) {
  {
    Span span(TraceContext{}, Stage::kIo);
    EXPECT_FALSE(span.active());
    // context() falls through so nesting still works.
    EXPECT_EQ(span.context().tracer, nullptr);
  }
  TracerOptions options;
  options.enabled = false;
  Tracer tracer(options);
  Span span(tracer.StartTrace(), Stage::kIo);
  EXPECT_FALSE(span.active());
  span.End();
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, DropsSpansAtCapacityButKeepsHistograms) {
  TracerOptions options;
  options.span_capacity = 4;
  Tracer tracer(options);
  TraceContext ctx = tracer.StartTrace();
  for (int i = 0; i < 10; ++i) {
    Span span(ctx, Stage::kIo);
  }
  EXPECT_EQ(tracer.Spans().size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  std::vector<StageSummary> stages = tracer.StageSummaries();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].count, 10u);  // the histogram saw every span
  EXPECT_NE(tracer.DumpStatsTable().find("dropped"), std::string::npos);
}

TEST(TracerTest, ResetClearsEverything) {
  Tracer tracer;
  TraceContext ctx = tracer.StartTrace();
  { Span span(ctx, Stage::kDecode); }
  ASSERT_EQ(tracer.Spans().size(), 1u);
  tracer.Reset();
  EXPECT_EQ(tracer.Spans().size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.StageSummaries().empty());
}

TEST(TracerTest, SetLabelTruncatesSafely) {
  Tracer tracer;
  Span span(tracer.StartTrace(), Stage::kQuery);
  span.SetLabel("a-very-long-label-that-overflows");
  span.End();
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].label), "a-very-long-lab");
}

TEST(TracerTest, SetFailedMarksSpanNotOk) {
  Tracer tracer;
  {
    Span span(tracer.StartTrace(), Stage::kData);
    span.SetFailed();
  }
  ASSERT_EQ(tracer.Spans().size(), 1u);
  EXPECT_FALSE(tracer.Spans()[0].ok);
}

TEST(TracerTest, RetroactiveRecordFeedsHistogramAndBuffer) {
  Tracer tracer;
  SpanRecord record;
  record.trace_id = 7;
  record.span_id = tracer.NextSpanId();
  record.stage = Stage::kQueueWait;
  record.start_seconds = 0.25;
  record.duration_seconds = 0.5;
  tracer.Record(record);
  std::vector<StageSummary> stages = tracer.StageSummaries();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, Stage::kQueueWait);
  EXPECT_DOUBLE_EQ(stages[0].total_seconds, 0.5);
}

TEST(TracerExportTest, JsonlOneLinePerSpan) {
  Tracer tracer;
  TraceContext ctx = tracer.StartTrace();
  {
    Span a(ctx, Stage::kTranslate);
    Span b(a.context(), Stage::kInfo);
  }
  std::string jsonl = tracer.DumpTraceJsonl();
  int lines = 0;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(jsonl.find("\"stage\":\"translate\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"stage\":\"info\""), std::string::npos);
}

TEST(TracerExportTest, ChromeTraceEventFormat) {
  Tracer tracer;
  { Span span(tracer.StartTrace(), Stage::kRender); }
  std::string chrome = tracer.DumpTraceChrome();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"render\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ts\":"), std::string::npos);
  EXPECT_NE(chrome.find("\"dur\":"), std::string::npos);
}

TEST(TracerExportTest, StatsTableAndStagesJson) {
  Tracer tracer;
  TraceContext ctx = tracer.StartTrace();
  {
    Span io(ctx, Stage::kIo);
    io.AddPages(12);
  }
  std::string table = tracer.DumpStatsTable();
  EXPECT_NE(table.find("io"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
  std::string json = Tracer::StagesToJson(tracer.StageSummaries());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"stage\":\"io\""), std::string::npos);
  EXPECT_NE(json.find("\"pages\":12"), std::string::npos);
}

TEST(TracerTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(Stage::kQuery), "query");
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue");
  EXPECT_STREQ(StageName(Stage::kIo), "io");
  EXPECT_STREQ(StageName(Stage::kExtract), "extract");
  EXPECT_STREQ(StageName(Stage::kIoWait), "io_wait");
}

}  // namespace
}  // namespace qbism::obs
