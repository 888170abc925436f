//===- obs/Trace.h - Chrome-trace-event tracer ------------------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide tracer recording scoped spans and simulated-clock lanes
/// (complete events), exported in the Chrome trace-event JSON format that
/// chrome://tracing and Perfetto load directly. Tracing is off by default;
/// a disabled tracer costs one relaxed atomic load per would-be event, so
/// instrumentation stays unconditionally compiled in.
///
/// Spans double as registry timers: every completed ScopedSpan adds its
/// duration to the StatsRegistry timer of the same name, whether or not
/// tracing is enabled, so `--stats` reports per-phase time without paying
/// for event storage.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_OBS_TRACE_H
#define PACO_OBS_TRACE_H

#include "obs/Stats.h"

#include <chrono>
#include <thread>
#include <vector>

namespace paco {
namespace obs {

/// One key/value argument attached to a trace event. Values are stored
/// pre-rendered; NumberLike values are emitted unquoted.
struct TraceArg {
  std::string Key;
  std::string Value;
  bool NumberLike = false;

  TraceArg(std::string Key, std::string Value)
      : Key(std::move(Key)), Value(std::move(Value)) {}
  TraceArg(std::string Key, int64_t Value)
      : Key(std::move(Key)), Value(std::to_string(Value)), NumberLike(true) {}
  TraceArg(std::string Key, uint64_t Value)
      : Key(std::move(Key)), Value(std::to_string(Value)), NumberLike(true) {}
  TraceArg(std::string Key, unsigned Value)
      : Key(std::move(Key)), Value(std::to_string(Value)), NumberLike(true) {}
};

/// The tracer. Thread-safe: events are appended under a mutex (event
/// rates are phase/message-grained, far below contention levels), and the
/// enabled flag is a relaxed atomic so disabled call sites stay free.
class Tracer {
public:
  /// The process-wide tracer used by all built-in instrumentation.
  static Tracer &global();

  /// Starts recording; resets the trace clock to zero.
  void enable();
  /// Stops recording (already-recorded events are kept until clear()).
  void disable();
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Microseconds since enable() (0 when disabled).
  double nowUs() const;

  /// Records a complete ("ph":"X") event. No-op when disabled.
  void completeEvent(const std::string &Name, const char *Category,
                     double TsUs, double DurUs,
                     std::vector<TraceArg> Args = {});

  /// Records a complete event on an explicit (pid, tid) lane with caller-
  /// supplied timestamps, for synthetic timelines whose clock is not the
  /// wall clock (e.g. simulated cost units). No-op when disabled.
  void laneEvent(const std::string &Name, const char *Category, uint32_t Pid,
                 uint32_t Tid, double TsUs, double DurUs,
                 std::vector<TraceArg> Args = {});

  /// Records "ph":"M" metadata naming lane (pid, tid) / process \p Pid, so
  /// viewers show a label instead of a bare id. No-op when disabled.
  void nameThread(uint32_t Pid, uint32_t Tid, const std::string &Label);
  void nameProcess(uint32_t Pid, const std::string &Label);

  /// Records "ph":"M" process_sort_index metadata for process \p Pid, so
  /// viewers order process groups by \p SortIndex (ascending) instead of
  /// interleaving by pid. No-op when disabled.
  void sortProcess(uint32_t Pid, int64_t SortIndex);

  /// Drops all recorded events (the clock keeps running).
  void clear();
  size_t eventCount() const;

  /// Renders `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
  std::string toJSON() const;
  /// Writes toJSON() to \p Path; returns false on I/O failure.
  bool writeJSON(const std::string &Path) const;

private:
  struct Event {
    char Phase; // 'X' or 'M'
    std::string Name;
    const char *Category;
    double TsUs;
    double DurUs;
    uint32_t Pid;
    uint32_t Tid;
    std::vector<TraceArg> Args;
  };

  uint32_t tidLocked();

  std::atomic<bool> Enabled{false};
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mutex;
  std::vector<Event> Events;
  std::vector<std::thread::id> TidTable;
};

/// RAII span: times a scope, feeds the duration into the registry timer
/// named \p Name, and (when tracing is enabled) records a complete trace
/// event. Arguments added via arg() are attached to the trace event only.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, const char *Category)
      : Name(Name), Category(Category),
        Start(std::chrono::steady_clock::now()) {
    if (Tracer::global().enabled())
      StartUs = Tracer::global().nowUs();
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches an argument to the trace event (dropped when disabled).
  template <typename T> void arg(const char *Key, T &&Value) {
    if (StartUs >= 0)
      Args.emplace_back(Key, std::forward<T>(Value));
  }

  ~ScopedSpan() {
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    StatsRegistry::global().timer(Name).record(Seconds);
    if (StartUs >= 0)
      Tracer::global().completeEvent(Name, Category, StartUs, Seconds * 1e6,
                                     std::move(Args));
  }

private:
  const char *Name;
  const char *Category;
  std::chrono::steady_clock::time_point Start;
  double StartUs = -1; ///< >= 0 iff tracing was enabled at entry.
  std::vector<TraceArg> Args;
};

} // namespace obs
} // namespace paco

#endif // PACO_OBS_TRACE_H
