//===- obs/Trace.cpp - Chrome-trace-event tracer --------------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/JSONText.h"

#include <algorithm>
#include <cstdio>

using namespace paco;
using namespace paco::obs;

Tracer &Tracer::global() {
  static Tracer Instance;
  return Instance;
}

void Tracer::enable() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Epoch = std::chrono::steady_clock::now();
  Enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { Enabled.store(false, std::memory_order_relaxed); }

double Tracer::nowUs() const {
  if (!enabled())
    return 0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

uint32_t Tracer::tidLocked() {
  std::thread::id Self = std::this_thread::get_id();
  auto It = std::find(TidTable.begin(), TidTable.end(), Self);
  if (It != TidTable.end())
    return static_cast<uint32_t>(It - TidTable.begin()) + 1;
  TidTable.push_back(Self);
  return static_cast<uint32_t>(TidTable.size());
}

void Tracer::completeEvent(const std::string &Name, const char *Category,
                           double TsUs, double DurUs,
                           std::vector<TraceArg> Args) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back(
      {'X', Name, Category, TsUs, DurUs, 1, tidLocked(), std::move(Args)});
}

void Tracer::laneEvent(const std::string &Name, const char *Category,
                       uint32_t Pid, uint32_t Tid, double TsUs, double DurUs,
                       std::vector<TraceArg> Args) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back({'X', Name, Category, TsUs, DurUs, Pid, Tid,
                    std::move(Args)});
}

void Tracer::nameThread(uint32_t Pid, uint32_t Tid, const std::string &Label) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back({'M', "thread_name", "__metadata", 0, 0, Pid, Tid,
                    {TraceArg("name", Label)}});
}

void Tracer::nameProcess(uint32_t Pid, const std::string &Label) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back({'M', "process_name", "__metadata", 0, 0, Pid, 0,
                    {TraceArg("name", Label)}});
}

void Tracer::sortProcess(uint32_t Pid, int64_t SortIndex) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back({'M', "process_sort_index", "__metadata", 0, 0, Pid, 0,
                    {TraceArg("sort_index", SortIndex)}});
}

void Tracer::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.clear();
}

size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

namespace {

/// True if \p Value can be emitted as a bare JSON number.
bool isJSONNumber(const std::string &Value) {
  if (Value.empty())
    return false;
  size_t I = Value[0] == '-' ? 1 : 0;
  if (I == Value.size())
    return false;
  bool SeenDot = false;
  for (; I != Value.size(); ++I) {
    if (Value[I] == '.' && !SeenDot && I + 1 != Value.size())
      SeenDot = true;
    else if (Value[I] < '0' || Value[I] > '9')
      return false;
  }
  return true;
}

} // namespace

std::string Tracer::toJSON() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out = "{\"traceEvents\": [\n";
  char Buf[160];
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    Out += "  {\"name\": \"";
    appendJSONEscaped(Out, E.Name);
    Out += "\", \"cat\": \"";
    appendJSONEscaped(Out, E.Category);
    if (E.Phase == 'X')
      std::snprintf(Buf, sizeof(Buf),
                    "\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                    "\"pid\": %u, \"tid\": %u",
                    E.TsUs, E.DurUs, E.Pid, E.Tid);
    else
      std::snprintf(Buf, sizeof(Buf),
                    "\", \"ph\": \"M\", \"pid\": %u, \"tid\": %u", E.Pid,
                    E.Tid);
    Out += Buf;
    if (!E.Args.empty()) {
      Out += ", \"args\": {";
      for (size_t A = 0; A != E.Args.size(); ++A) {
        if (A)
          Out += ", ";
        Out += "\"";
        appendJSONEscaped(Out, E.Args[A].Key);
        Out += "\": ";
        if (E.Args[A].NumberLike && isJSONNumber(E.Args[A].Value)) {
          Out += E.Args[A].Value;
        } else {
          Out += "\"";
          appendJSONEscaped(Out, E.Args[A].Value);
          Out += "\"";
        }
      }
      Out += "}";
    }
    Out += "}";
    if (I + 1 != Events.size())
      Out += ",";
    Out += "\n";
  }
  Out += "], \"displayTimeUnit\": \"ms\"}\n";
  return Out;
}

bool Tracer::writeJSON(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::string Text = toJSON();
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), Out);
  return std::fclose(Out) == 0 && Written == Text.size();
}
