//===- tests/obs/ObsTest.cpp - Stats registry + tracer tests --------------===//

#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <thread>
#include <vector>

using namespace paco;
using namespace paco::obs;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON syntax checker, enough to prove the exported trace and
// snapshot strings are well-formed (objects, arrays, strings with escapes,
// numbers, literals).
//===----------------------------------------------------------------------===//

class JSONChecker {
public:
  explicit JSONChecker(const std::string &Text) : Text(Text) {}

  bool valid() {
    skipSpace();
    return value() && (skipSpace(), Pos == Text.size());
  }

private:
  void skipSpace() {
    while (Pos != Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }
  bool eat(char C) {
    skipSpace();
    if (Pos == Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }
  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }
  bool string() {
    if (!eat('"'))
      return false;
    while (Pos != Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\') {
        ++Pos;
        if (Pos == Text.size())
          return false;
      }
      ++Pos;
    }
    return Pos != Text.size() && Text[Pos++] == '"';
  }
  bool number() {
    size_t Start = Pos;
    if (Pos != Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos != Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    return Pos != Start;
  }
  bool value() {
    skipSpace();
    if (Pos == Text.size())
      return false;
    switch (Text[Pos]) {
    case '{': {
      ++Pos;
      if (eat('}'))
        return true;
      do {
        skipSpace();
        if (!string() || !eat(':') || !value())
          return false;
      } while (eat(','));
      return eat('}');
    }
    case '[': {
      ++Pos;
      if (eat(']'))
        return true;
      do {
        if (!value())
          return false;
      } while (eat(','));
      return eat(']');
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  const std::string &Text;
  size_t Pos = 0;
};

bool isValidJSON(const std::string &Text) {
  return JSONChecker(Text).valid();
}

TEST(JSONCheckerTest, SanityOnTheCheckerItself) {
  EXPECT_TRUE(isValidJSON("{}"));
  EXPECT_TRUE(isValidJSON("{\"a\": [1, 2.5, -3e4], \"b\": {\"c\": \"d\\\"\"}}"));
  EXPECT_FALSE(isValidJSON("{\"a\": }"));
  EXPECT_FALSE(isValidJSON("{\"a\": 1"));
  EXPECT_FALSE(isValidJSON("[1 2]"));
}

//===----------------------------------------------------------------------===//
// StatsRegistry
//===----------------------------------------------------------------------===//

TEST(StatsRegistryTest, CounterGaugeTimerRoundTrip) {
  StatsRegistry Reg;
  Reg.counter("test.count").add(3);
  Reg.counter("test.count").add();
  Reg.gauge("test.level").set(7);
  Reg.gauge("test.level").add(-2);
  Reg.timer("test.time").record(0.25);
  Reg.timer("test.time").record(0.5);

  StatsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("test.count"), 4u);
  EXPECT_EQ(Snap.Gauges.at("test.level"), 5);
  EXPECT_EQ(Snap.Timers.at("test.time").Count, 2u);
  EXPECT_NEAR(Snap.Timers.at("test.time").Seconds, 0.75, 1e-6);
}

TEST(StatsRegistryTest, HandlesAreStableAcrossRegistrations) {
  StatsRegistry Reg;
  Counter &First = Reg.counter("stable.a");
  // Registering many more entries must not move the first handle.
  for (int I = 0; I != 100; ++I)
    Reg.counter("stable.fill" + std::to_string(I)).add();
  Counter &Again = Reg.counter("stable.a");
  EXPECT_EQ(&First, &Again);
  First.add(5);
  EXPECT_EQ(Reg.snapshot().Counters.at("stable.a"), 5u);
}

TEST(StatsRegistryTest, ConcurrentIncrementsAreLossless) {
  StatsRegistry Reg;
  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 50000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Reg] {
      // Half through a cached handle, half through fresh lookups, to
      // exercise concurrent registration against concurrent increments.
      Counter &C = Reg.counter("mt.count");
      for (uint64_t I = 0; I != PerThread / 2; ++I)
        C.add();
      for (uint64_t I = 0; I != PerThread / 2; ++I)
        Reg.counter("mt.count").add();
      Reg.timer("mt.time").record(0.001);
    });
  for (std::thread &T : Threads)
    T.join();
  StatsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("mt.count"), NumThreads * PerThread);
  EXPECT_EQ(Snap.Timers.at("mt.time").Count, NumThreads);
}

TEST(StatsRegistryTest, ResetZeroesButKeepsHandles) {
  StatsRegistry Reg;
  Counter &C = Reg.counter("reset.count");
  C.add(9);
  Reg.timer("reset.time").record(1.0);
  Reg.reset();
  StatsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.Counters.at("reset.count"), 0u);
  EXPECT_EQ(Snap.Timers.at("reset.time").Count, 0u);
  C.add();
  EXPECT_EQ(Reg.snapshot().Counters.at("reset.count"), 1u);
}

TEST(StatsRegistryTest, SnapshotJSONIsWellFormed) {
  StatsRegistry Reg;
  Reg.counter("json.a\"quote").add(1);
  Reg.gauge("json.g").set(-4);
  Reg.timer("json.t").record(0.125);
  Reg.histogram("json.h").record(100);
  EXPECT_TRUE(isValidJSON(Reg.snapshot().toJSON()));
  // And an empty registry still renders a valid object.
  StatsRegistry Empty;
  EXPECT_TRUE(isValidJSON(Empty.snapshot().toJSON()));
}

TEST(StatsRegistryTest, SnapshotsEmitInRegistrationOrder) {
  StatsRegistry Reg;
  // Deliberately registered in non-alphabetical order.
  Reg.counter("z.last").add(1);
  Reg.counter("a.first").add(2);
  Reg.counter("m.middle").add(3);
  Reg.histogram("z.hist").record(1);
  Reg.histogram("a.hist").record(2);

  StatsSnapshot Snap = Reg.snapshot();
  ASSERT_EQ(Snap.CounterOrder.size(), 3u);
  EXPECT_EQ(Snap.CounterOrder[0], "z.last");
  EXPECT_EQ(Snap.CounterOrder[1], "a.first");
  EXPECT_EQ(Snap.CounterOrder[2], "m.middle");
  ASSERT_EQ(Snap.HistogramOrder.size(), 2u);
  EXPECT_EQ(Snap.HistogramOrder[0], "z.hist");
  EXPECT_EQ(Snap.HistogramOrder[1], "a.hist");

  // The rendered forms follow that order, not the map's sorted order...
  std::string JSON = Snap.toJSON();
  EXPECT_LT(JSON.find("z.last"), JSON.find("a.first"));
  EXPECT_LT(JSON.find("a.first"), JSON.find("m.middle"));
  EXPECT_LT(JSON.find("z.hist"), JSON.find("a.hist"));
  std::string Text = Snap.toText();
  EXPECT_LT(Text.find("z.last"), Text.find("a.first"));

  // ...and a second snapshot of the unchanged registry is byte-identical.
  StatsSnapshot Again = Reg.snapshot();
  EXPECT_EQ(JSON, Again.toJSON());
  EXPECT_EQ(Text, Again.toText());
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is the zeros bucket; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(~uint64_t(0)), 64u);
  for (unsigned B = 1; B != Histogram::NumBuckets - 1; ++B) {
    // Both edges of every bucket land in it: lo inclusive, hi exclusive.
    EXPECT_EQ(Histogram::bucketOf(HistogramSnapshot::bucketLo(B)), B);
    EXPECT_EQ(Histogram::bucketOf(HistogramSnapshot::bucketHi(B) - 1), B);
    EXPECT_EQ(Histogram::bucketOf(HistogramSnapshot::bucketHi(B)), B + 1);
  }
  EXPECT_EQ(HistogramSnapshot::bucketLo(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucketHi(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucketLo(64), uint64_t(1) << 63);
  EXPECT_EQ(HistogramSnapshot::bucketHi(64), ~uint64_t(0));
}

TEST(HistogramTest, RecordRoundTripThroughSnapshot) {
  StatsRegistry Reg;
  Histogram &H = Reg.histogram("h.bytes");
  H.record(0);
  H.record(1);
  H.record(5);
  H.record(5);
  H.record(1024);
  HistogramSnapshot Snap = Reg.snapshot().Histograms.at("h.bytes");
  EXPECT_EQ(Snap.count(), 5u);
  EXPECT_EQ(Snap.Sum, 1035u);
  EXPECT_EQ(Snap.Buckets[0], 1u);                      // the zero
  EXPECT_EQ(Snap.Buckets[Histogram::bucketOf(1)], 1u);
  EXPECT_EQ(Snap.Buckets[Histogram::bucketOf(5)], 2u);
  EXPECT_EQ(Snap.Buckets[Histogram::bucketOf(1024)], 1u);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  StatsRegistry Reg;
  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 40000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Reg] {
      // Half through a cached handle, half through fresh lookups, to
      // exercise concurrent registration against concurrent records.
      Histogram &H = Reg.histogram("mt.hist");
      for (uint64_t I = 0; I != PerThread / 2; ++I)
        H.record(3);
      for (uint64_t I = 0; I != PerThread / 2; ++I)
        Reg.histogram("mt.hist").record(0);
    });
  for (std::thread &T : Threads)
    T.join();
  HistogramSnapshot Snap = Reg.snapshot().Histograms.at("mt.hist");
  EXPECT_EQ(Snap.count(), NumThreads * PerThread);
  EXPECT_EQ(Snap.Buckets[0], NumThreads * PerThread / 2);
  EXPECT_EQ(Snap.Buckets[Histogram::bucketOf(3)], NumThreads * PerThread / 2);
  EXPECT_EQ(Snap.Sum, 3 * NumThreads * PerThread / 2);
}

TEST(HistogramTest, MergeAccumulatesExactly) {
  StatsRegistry RegA, RegB;
  RegA.histogram("h").record(0);
  RegA.histogram("h").record(7);
  RegB.histogram("h").record(7);
  RegB.histogram("h").record(300);
  HistogramSnapshot A = RegA.snapshot().Histograms.at("h");
  HistogramSnapshot B = RegB.snapshot().Histograms.at("h");
  A.merge(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.Sum, 314u);
  EXPECT_EQ(A.Buckets[0], 1u);
  EXPECT_EQ(A.Buckets[Histogram::bucketOf(7)], 2u);
  EXPECT_EQ(A.Buckets[Histogram::bucketOf(300)], 1u);
}

TEST(HistogramTest, PercentileMath) {
  HistogramSnapshot Empty;
  EXPECT_EQ(Empty.percentile(50), 0.0);

  // 100 values in bucket 3 = [4, 8): the median interpolates to the
  // middle of the bucket.
  HistogramSnapshot Uniform;
  Uniform.Buckets[3] = 100;
  EXPECT_DOUBLE_EQ(Uniform.percentile(50), 6.0);
  EXPECT_DOUBLE_EQ(Uniform.percentile(0), 4.0);
  EXPECT_DOUBLE_EQ(Uniform.percentile(100), 8.0);

  // Half zeros, half ones: the median is still zero, p75 is halfway
  // through the ones bucket [1, 2).
  HistogramSnapshot Mixed;
  Mixed.Buckets[0] = 50;
  Mixed.Buckets[1] = 50;
  EXPECT_DOUBLE_EQ(Mixed.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(Mixed.percentile(75), 1.5);
  EXPECT_DOUBLE_EQ(Mixed.percentile(100), 2.0);
}

TEST(HistogramTest, ResetZeroesBuckets) {
  StatsRegistry Reg;
  Reg.histogram("r.h").record(42);
  Reg.reset();
  HistogramSnapshot Snap = Reg.snapshot().Histograms.at("r.h");
  EXPECT_EQ(Snap.count(), 0u);
  EXPECT_EQ(Snap.Sum, 0u);
  Reg.histogram("r.h").record(1);
  EXPECT_EQ(Reg.snapshot().Histograms.at("r.h").count(), 1u);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer &T = Tracer::global();
  T.disable();
  T.clear();
  T.completeEvent("never", "test", 0, 1);
  T.laneEvent("never", "test", 2, 1, 0, 1);
  EXPECT_EQ(T.eventCount(), 0u);
  EXPECT_TRUE(isValidJSON(T.toJSON()));
}

TEST(TracerTest, RecordsSpansAndEventsAsValidJSON) {
  Tracer &T = Tracer::global();
  T.enable();
  T.clear();
  {
    ScopedSpan Span("test.span", "test");
    Span.arg("items", 42u);
    Span.arg("label", "hello \"world\"");
    T.completeEvent("test.event", "test", T.nowUs(), 0,
                    {{"bytes", static_cast<uint64_t>(1024)}});
  }
  T.disable();
  EXPECT_EQ(T.eventCount(), 2u);
  std::string JSON = T.toJSON();
  EXPECT_TRUE(isValidJSON(JSON)) << JSON;
  EXPECT_NE(JSON.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(JSON.find("\"test.span\""), std::string::npos);
  EXPECT_NE(JSON.find("\"test.event\""), std::string::npos);
  EXPECT_NE(JSON.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(JSON.find("\"items\": 42"), std::string::npos);
  EXPECT_NE(JSON.find("\"bytes\": 1024"), std::string::npos);
  T.clear();
}

TEST(TracerTest, ConcurrentEventsAllRecorded) {
  Tracer &T = Tracer::global();
  T.enable();
  T.clear();
  constexpr unsigned NumThreads = 4;
  constexpr unsigned PerThread = 500;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&T] {
      for (unsigned E = 0; E != PerThread; ++E)
        T.completeEvent("mt.event", "test", T.nowUs(), 0);
    });
  for (std::thread &Th : Threads)
    Th.join();
  T.disable();
  EXPECT_EQ(T.eventCount(), NumThreads * PerThread);
  EXPECT_TRUE(isValidJSON(T.toJSON()));
  T.clear();
}

TEST(ScopedSpanTest, FeedsRegistryTimerEvenWhenTracingDisabled) {
  Tracer::global().disable();
  StatsSnapshot Before = StatsRegistry::global().snapshot();
  uint64_t Calls = 0;
  auto It = Before.Timers.find("test.disabled_span");
  if (It != Before.Timers.end())
    Calls = It->second.Count;
  { ScopedSpan Span("test.disabled_span", "test"); }
  StatsSnapshot After = StatsRegistry::global().snapshot();
  EXPECT_EQ(After.Timers.at("test.disabled_span").Count, Calls + 1);
}

} // namespace
