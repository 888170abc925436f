//===- obs/TimeSeries.cpp - Windowed metric ring buffers ------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/TimeSeries.h"

#include "obs/JSONText.h"

using namespace paco;
using namespace paco::obs;

namespace {

void appendQuoted(std::string &Out, const std::string &Text) {
  Out += "\"";
  appendJSONEscaped(Out, Text);
  Out += "\"";
}

} // namespace

std::string TimeWindow::toJSON() const {
  // Sequential appends; see the -Wrestrict note in Stats.cpp.
  std::string Out = "{\"window\": ";
  Out += std::to_string(Index);
  Out += ", \"start\": ";
  appendQuoted(Out, Start);
  Out += ", \"end\": ";
  appendQuoted(Out, End);
  Out += ", \"counters\": {";
  bool First = true;
  for (const auto &[Name, V] : Counters) {
    if (!First)
      Out += ", ";
    First = false;
    appendQuoted(Out, Name);
    Out += ": ";
    Out += std::to_string(V);
  }
  Out += "}, \"values\": {";
  First = true;
  for (const auto &[Name, V] : Values) {
    if (!First)
      Out += ", ";
    First = false;
    appendQuoted(Out, Name);
    Out += ": ";
    appendJSONNumber(Out, V);
  }
  Out += "}, \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!First)
      Out += ", ";
    First = false;
    appendQuoted(Out, Name);
    Out += ": ";
    Out += H.toJSON();
  }
  Out += "}}";
  return Out;
}

void TimeSeries::push(TimeWindow W) {
  ++Total;
  if (Ring.size() < Cap) {
    Ring.push_back(std::move(W));
    return;
  }
  Ring[Head] = std::move(W);
  Head = (Head + 1) % Ring.size();
}

std::string TimeSeries::toJSONL() const {
  std::string Out;
  for (size_t I = 0; I != size(); ++I) {
    std::string Line = "{\"series\": ";
    appendQuoted(Line, Name);
    Line += ", ";
    // Splice the window object's fields into the tagged line.
    std::string W = window(I).toJSON();
    Line.append(W, 1, std::string::npos);
    Out += Line;
    Out += "\n";
  }
  return Out;
}

void paco::obs::fillWindowDeltas(const StatsSnapshot &Before,
                                 const StatsSnapshot &After,
                                 const std::string &Prefix, TimeWindow &W) {
  for (const std::string &Name : After.CounterOrder) {
    if (Name.compare(0, Prefix.size(), Prefix) != 0)
      continue;
    uint64_t Now = After.Counters.at(Name);
    auto It = Before.Counters.find(Name);
    uint64_t Then = It == Before.Counters.end() ? 0 : It->second;
    W.counter(Name, Now - Then);
  }
  for (const std::string &Name : After.HistogramOrder) {
    if (Name.compare(0, Prefix.size(), Prefix) != 0)
      continue;
    HistogramSnapshot Delta = After.Histograms.at(Name);
    auto It = Before.Histograms.find(Name);
    if (It != Before.Histograms.end())
      Delta.subtract(It->second);
    if (Delta.count() == 0)
      continue;
    W.histogram(Name, std::move(Delta));
  }
}
