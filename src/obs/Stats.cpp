//===- obs/Stats.cpp - Process-wide stats registry ------------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/Stats.h"

#include "obs/JSONText.h"

#include <cstdio>

using namespace paco;
using namespace paco::obs;

uint64_t HistogramSnapshot::count() const {
  uint64_t N = 0;
  for (uint64_t B : Buckets)
    N += B;
  return N;
}

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  for (unsigned B = 0; B != Histogram::NumBuckets; ++B)
    Buckets[B] += Other.Buckets[B];
  Sum += Other.Sum;
}

void HistogramSnapshot::subtract(const HistogramSnapshot &Earlier) {
  for (unsigned B = 0; B != Histogram::NumBuckets; ++B)
    Buckets[B] -= Earlier.Buckets[B];
  Sum -= Earlier.Sum;
}

double HistogramSnapshot::percentile(double P) const {
  uint64_t Total = count();
  if (Total == 0)
    return 0;
  double Target = P / 100.0 * static_cast<double>(Total);
  double Cum = 0;
  for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
    if (!Buckets[B])
      continue;
    double C = static_cast<double>(Buckets[B]);
    if (Cum + C >= Target) {
      double Lo = static_cast<double>(bucketLo(B));
      double Hi = static_cast<double>(bucketHi(B));
      double Frac = Target <= Cum ? 0 : (Target - Cum) / C;
      return Lo + (Hi - Lo) * Frac;
    }
    Cum += C;
  }
  return static_cast<double>(bucketHi(Histogram::NumBuckets - 1));
}

StatsRegistry &StatsRegistry::global() {
  static StatsRegistry Registry;
  return Registry;
}

Counter &StatsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Counters.try_emplace(Name);
  if (Inserted)
    CounterOrder.push_back(&It->first);
  return It->second;
}

Gauge &StatsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Gauges.try_emplace(Name);
  if (Inserted)
    GaugeOrder.push_back(&It->first);
  return It->second;
}

Timer &StatsRegistry::timer(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Timers.try_emplace(Name);
  if (Inserted)
    TimerOrder.push_back(&It->first);
  return It->second;
}

Histogram &StatsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Histograms.try_emplace(Name);
  if (Inserted)
    HistogramOrder.push_back(&It->first);
  return It->second;
}

StatsSnapshot StatsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  StatsSnapshot Snap;
  for (const auto &[Name, C] : Counters)
    Snap.Counters.emplace(Name, C.value());
  for (const auto &[Name, G] : Gauges)
    Snap.Gauges.emplace(Name, G.value());
  for (const auto &[Name, T] : Timers)
    Snap.Timers.emplace(Name, StatsSnapshot::TimerValue{T.count(),
                                                        T.seconds()});
  for (const auto &[Name, H] : Histograms) {
    HistogramSnapshot HS;
    for (unsigned B = 0; B != Histogram::NumBuckets; ++B)
      HS.Buckets[B] = H.Buckets[B].load(std::memory_order_relaxed);
    HS.Sum = H.Sum.load(std::memory_order_relaxed);
    Snap.Histograms.emplace(Name, HS);
  }
  for (const std::string *Name : CounterOrder)
    Snap.CounterOrder.push_back(*Name);
  for (const std::string *Name : GaugeOrder)
    Snap.GaugeOrder.push_back(*Name);
  for (const std::string *Name : TimerOrder)
    Snap.TimerOrder.push_back(*Name);
  for (const std::string *Name : HistogramOrder)
    Snap.HistogramOrder.push_back(*Name);
  return Snap;
}

void StatsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C.Value.store(0, std::memory_order_relaxed);
  for (auto &[Name, G] : Gauges)
    G.Value.store(0, std::memory_order_relaxed);
  for (auto &[Name, T] : Timers) {
    T.Count.store(0, std::memory_order_relaxed);
    T.Nanos.store(0, std::memory_order_relaxed);
  }
  for (auto &[Name, H] : Histograms) {
    for (auto &B : H.Buckets)
      B.store(0, std::memory_order_relaxed);
    H.Sum.store(0, std::memory_order_relaxed);
  }
}

std::string HistogramSnapshot::toJSON() const {
  const HistogramSnapshot &H = *this;
  // Sequential appends rather than one chained operator+ expression:
  // GCC 12's -Wrestrict misfires on `const char * + std::string &&`
  // chains at -O3 (GCC PR 105651), and this file builds with -Werror.
  std::string Out = "{\"count\": ";
  Out += std::to_string(H.count());
  Out += ", \"sum\": ";
  Out += std::to_string(H.Sum);
  Out += ", \"p50\": ";
  appendJSONNumber(Out, H.percentile(50));
  Out += ", \"p95\": ";
  appendJSONNumber(Out, H.percentile(95));
  Out += ", \"p99\": ";
  appendJSONNumber(Out, H.percentile(99));
  Out += ", \"buckets\": [";
  bool First = true;
  for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
    if (!H.Buckets[B])
      continue;
    if (!First)
      Out += ", ";
    First = false;
    Out += "[";
    Out += std::to_string(HistogramSnapshot::bucketLo(B));
    Out += ", ";
    Out += std::to_string(HistogramSnapshot::bucketHi(B));
    Out += ", ";
    Out += std::to_string(H.Buckets[B]);
    Out += "]";
  }
  Out += "]}";
  return Out;
}

namespace {

std::string histogramJSON(const HistogramSnapshot &H) { return H.toJSON(); }

} // namespace

std::string StatsSnapshot::toJSON(const std::string &Indent) const {
  std::string Out = "{\n";
  auto key = [&](const std::string &Name) {
    std::string K = Indent + "    \"";
    appendJSONEscaped(K, Name);
    K += "\": ";
    return K;
  };
  bool FirstSection = true;
  auto section = [&](const char *Name) {
    if (!FirstSection)
      Out += ",\n";
    FirstSection = false;
    Out += Indent + "  \"" + Name + "\": {\n";
  };
  section("counters");
  bool First = true;
  for (const std::string &Name : CounterOrder) {
    Out += (First ? "" : ",\n") + key(Name) +
           std::to_string(Counters.at(Name));
    First = false;
  }
  Out += "\n" + Indent + "  }";
  section("gauges");
  First = true;
  for (const std::string &Name : GaugeOrder) {
    Out += (First ? "" : ",\n") + key(Name) + std::to_string(Gauges.at(Name));
    First = false;
  }
  Out += "\n" + Indent + "  }";
  section("timers");
  First = true;
  for (const std::string &Name : TimerOrder) {
    const TimerValue &V = Timers.at(Name);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"count\": %llu, \"seconds\": %.6f}",
                  static_cast<unsigned long long>(V.Count), V.Seconds);
    Out += (First ? "" : ",\n") + key(Name) + Buf;
    First = false;
  }
  Out += "\n" + Indent + "  }";
  section("histograms");
  First = true;
  for (const std::string &Name : HistogramOrder) {
    Out += (First ? "" : ",\n") + key(Name) + histogramJSON(Histograms.at(Name));
    First = false;
  }
  Out += "\n" + Indent + "  }\n" + Indent + "}";
  return Out;
}

std::string StatsSnapshot::toText() const {
  std::string Out;
  for (const std::string &Name : CounterOrder)
    Out += Name + " " + std::to_string(Counters.at(Name)) + "\n";
  for (const std::string &Name : GaugeOrder)
    Out += Name + " " + std::to_string(Gauges.at(Name)) + "\n";
  for (const std::string &Name : TimerOrder) {
    const TimerValue &V = Timers.at(Name);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), " %.6fs over %llu call(s)\n", V.Seconds,
                  static_cast<unsigned long long>(V.Count));
    Out += Name + Buf;
  }
  for (const std::string &Name : HistogramOrder) {
    const HistogramSnapshot &H = Histograms.at(Name);
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  " count=%llu sum=%llu p50=%g p95=%g p99=%g\n",
                  static_cast<unsigned long long>(H.count()),
                  static_cast<unsigned long long>(H.Sum), H.percentile(50),
                  H.percentile(95), H.percentile(99));
    Out += Name + Buf;
  }
  return Out;
}
