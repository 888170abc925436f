//===- tests/obs/TelemetryTest.cpp - TimeSeries/EventLog/exporters --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The telemetry layer: windowed ring buffers, the structured JSONL event
// log, and the Prometheus/JSONL exporters.
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"
#include "obs/Export.h"
#include "obs/Stats.h"
#include "obs/TimeSeries.h"

#include <gtest/gtest.h>

using namespace paco;
using namespace paco::obs;

namespace {

TEST(TimeSeriesTest, RingDropsOldestPastCapacity) {
  TimeSeries S("test", 3);
  for (uint64_t I = 0; I != 5; ++I) {
    TimeWindow W;
    W.Index = I;
    W.Start = std::to_string(I);
    W.End = std::to_string(I + 1);
    W.counter("hits", I * 10);
    S.push(std::move(W));
  }
  EXPECT_EQ(S.size(), 3u);
  EXPECT_EQ(S.totalWindows(), 5u);
  // Oldest-first iteration over the retained suffix.
  EXPECT_EQ(S.window(0).Index, 2u);
  EXPECT_EQ(S.window(1).Index, 3u);
  EXPECT_EQ(S.window(2).Index, 4u);
  EXPECT_EQ(S.latest().Index, 4u);
  EXPECT_EQ(S.latest().Counters[0].second, 40u);
}

TEST(TimeSeriesTest, WindowJSONKeepsEmissionOrder) {
  TimeWindow W;
  W.Index = 7;
  W.Start = "0";
  W.End = "100";
  W.counter("zulu", 1);
  W.counter("alpha", 2);
  W.value("rate", 2.5);
  std::string J = W.toJSON();
  // Field order follows emission order, not alphabetical order.
  EXPECT_LT(J.find("\"zulu\""), J.find("\"alpha\"")) << J;
  EXPECT_NE(J.find("\"window\": 7"), std::string::npos) << J;
  EXPECT_NE(J.find("\"rate\": 2.5"), std::string::npos) << J;
}

TEST(TimeSeriesTest, ToJSONLTagsEveryLineWithSeriesName) {
  TimeSeries S("lane", 4);
  for (uint64_t I = 0; I != 2; ++I) {
    TimeWindow W;
    W.Index = I;
    S.push(std::move(W));
  }
  std::string L = S.toJSONL();
  EXPECT_EQ(L.find("{\"series\": \"lane\", \"window\": 0"), 0u) << L;
  EXPECT_NE(L.find("\n{\"series\": \"lane\", \"window\": 1"),
            std::string::npos)
      << L;
  EXPECT_EQ(L.back(), '\n');
}

TEST(TimeSeriesTest, FillWindowDeltas) {
  StatsRegistry &Reg = StatsRegistry::global();
  Counter &A = Reg.counter("ttest.a");
  Counter &B = Reg.counter("ttest.b");
  Histogram &H = Reg.histogram("ttest.h");
  StatsSnapshot Before = Reg.snapshot();
  A.add(5);
  H.record(100);
  H.record(200);
  StatsSnapshot After = Reg.snapshot();
  (void)B;

  TimeWindow W;
  fillWindowDeltas(Before, After, "ttest.", W);
  // Both counters appear (zero deltas included; uniform field sets), in
  // registration order.
  ASSERT_EQ(W.Counters.size(), 2u);
  EXPECT_EQ(W.Counters[0].first, "ttest.a");
  EXPECT_EQ(W.Counters[0].second, 5u);
  EXPECT_EQ(W.Counters[1].first, "ttest.b");
  EXPECT_EQ(W.Counters[1].second, 0u);
  // The histogram delta holds exactly the two recorded values.
  ASSERT_EQ(W.Histograms.size(), 1u);
  EXPECT_EQ(W.Histograms[0].second.count(), 2u);
  EXPECT_EQ(W.Histograms[0].second.Sum, 300u);
}

TEST(HistogramSnapshotTest, SubtractYieldsWindowDelta) {
  HistogramSnapshot Early, Late;
  Early.record(10);
  Late = Early;
  Late.record(1000);
  Late.record(2000);
  Late.subtract(Early);
  EXPECT_EQ(Late.count(), 2u);
  EXPECT_EQ(Late.Sum, 3000u);
  double P50 = Late.percentile(50);
  EXPECT_GE(P50, 512.0);
  EXPECT_LE(P50, 2048.0);
}

TEST(EventLogTest, StableFieldOrderAndSequence) {
  EventLog Log("myrun");
  Log.event(LogLevel::Info, "probe").field("bytes", 64u).field("up", true);
  Log.event(LogLevel::Warn, "crash").field("at", std::string("50000"));
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log.lines()[0],
            "{\"run\": \"myrun\", \"seq\": 0, \"level\": \"info\", "
            "\"type\": \"probe\", \"bytes\": 64, \"up\": true}");
  EXPECT_EQ(Log.lines()[1],
            "{\"run\": \"myrun\", \"seq\": 1, \"level\": \"warn\", "
            "\"type\": \"crash\", \"at\": \"50000\"}");
  EXPECT_EQ(Log.toJSONL(), Log.lines()[0] + "\n" + Log.lines()[1] + "\n");
}

TEST(EventLogTest, MinLevelDropsWithoutConsumingSequenceNumbers) {
  EventLog Log("r", LogLevel::Warn);
  Log.event(LogLevel::Debug, "noise").field("k", 1);
  Log.event(LogLevel::Info, "noise").field("k", 2);
  Log.event(LogLevel::Error, "kept").field("k", 3);
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_NE(Log.lines()[0].find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(Log.lines()[0].find("\"type\": \"kept\""), std::string::npos);
}

TEST(EventLogTest, EscapesStringsAndSurvivesAtSignInRunId) {
  // An '@' in the run id must not be mistaken for the seq placeholder.
  // The message covers every escape class of the one obs escaper: quote,
  // backslash, newline, tab, another control byte, and a UTF-8 sequence,
  // which passes through unchanged.
  EventLog Log("run@host");
  Log.event(LogLevel::Info, "e")
      .field("msg", std::string("a\"b\\c\nd\te\x01" "f\xc3\xa9"));
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log.lines()[0],
            "{\"run\": \"run@host\", \"seq\": 0, \"level\": \"info\", "
            "\"type\": \"e\", "
            "\"msg\": \"a\\\"b\\\\c\\nd\\te\\u0001f\xc3\xa9\"}");
}

TEST(ExportTest, PrometheusTextExposition) {
  StatsRegistry &Reg = StatsRegistry::global();
  Reg.counter("etest.hits").add(3);
  Reg.gauge("etest.depth").set(-2);
  Reg.timer("etest.solve").record(0.25);
  Reg.histogram("etest.shard0.lat").record(100);
  Reg.histogram("etest.shard1.lat").record(200);
  std::string Text = toPrometheusText(Reg.snapshot());

  EXPECT_NE(Text.find("# TYPE paco_etest_hits_total counter\n"
                      "paco_etest_hits_total 3\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("# TYPE paco_etest_depth gauge\n"
                      "paco_etest_depth -2\n"),
            std::string::npos);
  EXPECT_NE(Text.find("paco_etest_solve_seconds_total 0.25\n"),
            std::string::npos);
  EXPECT_NE(Text.find("paco_etest_solve_calls_total 1\n"),
            std::string::npos);
  // Per-shard histograms fold into one summary family with shard labels;
  // the TYPE header appears once.
  EXPECT_NE(Text.find("paco_etest_shard_lat{shard=\"0\",quantile=\"0.5\"}"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("paco_etest_shard_lat_count{shard=\"1\"} 1"),
            std::string::npos);
  size_t First = Text.find("# TYPE paco_etest_shard_lat summary");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Text.find("# TYPE paco_etest_shard_lat summary", First + 1),
            std::string::npos);
}

TEST(ExportTest, WindowExpositionFoldsLeadingShardNames) {
  TimeSeries S("serve", 2);
  TimeWindow W;
  W.Index = 9;
  W.counter("queries", 1000);
  W.value("queries_per_second", 5e6);
  HistogramSnapshot H;
  H.record(150);
  W.histogram("shard0.latency_ns", H);
  S.push(std::move(W));
  std::string Text = windowPrometheusText(S);
  EXPECT_NE(Text.find("paco_serve_window_index 9\n"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("paco_serve_window_queries 1000\n"),
            std::string::npos);
  EXPECT_NE(
      Text.find(
          "paco_serve_window_shard_latency_ns{shard=\"0\",quantile=\"0.5\"}"),
      std::string::npos)
      << Text;
  // An empty series exports nothing rather than stale samples.
  TimeSeries Empty("idle", 2);
  EXPECT_EQ(windowPrometheusText(Empty), "");
}

TEST(ExportTest, WriteTextFileReportsFailures) {
  std::string Err;
  EXPECT_FALSE(writeTextFile("/nonexistent-dir/x/y.txt", "hi", &Err));
  EXPECT_NE(Err.find("/nonexistent-dir/x/y.txt: "), std::string::npos) << Err;
}

} // namespace
