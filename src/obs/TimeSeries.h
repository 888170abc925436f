//===- obs/TimeSeries.h - Windowed metric ring buffers ----------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Telemetry over time: a TimeSeries is a fixed-capacity ring of
/// TimeWindow records, each holding counter deltas, derived values and
/// histogram-snapshot deltas for one window of the driving clock. Two
/// clocks drive windows:
///
///  * wall clock -- DispatchService pushes one window per batch while
///    `--serve` replays traffic (queries/s, per-shard latency quantiles);
///  * simulated clock -- runtime::buildSimWindows() bins the deterministic
///    RuntimeRecorder timeline into fixed-width cost-unit windows after a
///    run, so sim-time series are byte-identical across replays and
///    thread counts.
///
/// Window fields keep their emission order, so toJSONL() output is
/// stable.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_OBS_TIMESERIES_H
#define PACO_OBS_TIMESERIES_H

#include "obs/Stats.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace paco {
namespace obs {

/// One window of telemetry. Start/End are pre-rendered timestamps in the
/// driving clock's unit (seconds for wall windows, cost units for sim
/// windows) so no float formatting ambiguity leaks into the output.
struct TimeWindow {
  uint64_t Index = 0;
  std::string Start, End;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Values;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;

  void counter(std::string Name, uint64_t V) {
    Counters.emplace_back(std::move(Name), V);
  }
  void value(std::string Name, double V) {
    Values.emplace_back(std::move(Name), V);
  }
  void histogram(std::string Name, HistogramSnapshot H) {
    Histograms.emplace_back(std::move(Name), std::move(H));
  }

  /// One-line JSON object: `{"window": N, "start": ..., "end": ...,
  /// "counters": {...}, "values": {...}, "histograms": {...}}` with
  /// fields in emission order.
  std::string toJSON() const;
};

/// Fixed-capacity ring of windows; pushing past capacity drops the
/// oldest window (totalWindows() keeps counting).
class TimeSeries {
public:
  TimeSeries(std::string Name, size_t Capacity)
      : Name(std::move(Name)), Cap(Capacity ? Capacity : 1) {}

  const std::string &name() const { return Name; }
  size_t capacity() const { return Cap; }
  /// Windows currently retained (<= capacity()).
  size_t size() const { return Ring.size(); }
  /// Windows pushed over the series' lifetime.
  uint64_t totalWindows() const { return Total; }

  void push(TimeWindow W);

  /// Retained window \p I, oldest first (0 <= I < size()).
  const TimeWindow &window(size_t I) const {
    return Ring[(Head + I) % Ring.size()];
  }
  /// The most recently pushed window; size() must be nonzero.
  const TimeWindow &latest() const { return window(size() - 1); }

  /// Every retained window as JSONL, oldest first, each line tagged with
  /// the series name.
  std::string toJSONL() const;

  void clear() {
    Ring.clear();
    Head = 0;
    Total = 0;
  }

private:
  std::string Name;
  size_t Cap;
  uint64_t Total = 0;
  std::vector<TimeWindow> Ring; ///< Ring storage; oldest at Head once full.
  size_t Head = 0;
};

/// Fills \p W with the per-counter and per-histogram deltas between two
/// registry snapshots, restricted to names starting with \p Prefix (empty
/// prefix = everything). Counters appear in \p After's registration
/// order; counters whose delta is zero are still emitted so window field
/// sets stay uniform across a run. Histogram deltas with zero count are
/// skipped.
void fillWindowDeltas(const StatsSnapshot &Before, const StatsSnapshot &After,
                      const std::string &Prefix, TimeWindow &W);

} // namespace obs
} // namespace paco

#endif // PACO_OBS_TIMESERIES_H
