//===- runtime/SimTelemetry.cpp - Sim-clock telemetry windows -------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "runtime/SimTelemetry.h"

#include "runtime/Timeline.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace paco;

namespace {

/// Accumulator for one window before rendering.
struct WindowAccum {
  uint64_t ClientInstrs = 0, ServerInstrs = 0;
  uint64_t Messages = 0, TransferBytes = 0;
  uint64_t Timeouts = 0, Retries = 0;
  uint64_t Probes = 0, LedgerSyncs = 0, Undelivered = 0;
  uint64_t Adaptations = 0, Recoveries = 0;
  obs::HistogramSnapshot MessageUnits;
};

/// Window index containing simulated time \p At (attribution by start).
size_t windowOf(const Rational &At, const Rational &Width) {
  BigInt Floor = (At / Width).floor();
  assert(Floor.fitsInt64() && "window index overflows int64");
  int64_t I = Floor.toInt64();
  return I < 0 ? 0 : static_cast<size_t>(I);
}

/// Cost units of [Start, End), floored to an integer for histogram
/// bucketing (sub-unit message costs land in the zeros bucket).
uint64_t unitsOf(const Rational &Start, const Rational &End) {
  BigInt Floor = (End - Start).floor();
  if (!Floor.fitsInt64())
    return ~uint64_t(0);
  int64_t U = Floor.toInt64();
  return U < 0 ? 0 : static_cast<uint64_t>(U);
}

} // namespace

obs::TimeSeries paco::buildSimWindows(const RuntimeRecorder &Rec,
                                      const SimWindowOptions &Opts) {
  assert(Opts.WindowUnits > Rational(0) && "window width must be positive");
  obs::TimeSeries Series("sim", Opts.Capacity);

  Rational LastEnd(0);
  for (const TaskSegment &S : Rec.segments())
    LastEnd = std::max(LastEnd, S.End);
  for (const MessageRecord &M : Rec.messages())
    LastEnd = std::max(LastEnd, M.End);
  // Re-dispatch and server-failure marks count (sim.adaptations,
  // sim.recoveries); the other kinds are the event log's.
  auto windowed = [](const RunMark &M) {
    return M.K == RunMark::Kind::Redispatch || M.recovery();
  };
  bool AnyMark = false;
  for (const RunMark &M : Rec.marks())
    if (windowed(M)) {
      LastEnd = std::max(LastEnd, M.At);
      AnyMark = true;
    }
  if (Rec.segments().empty() && Rec.messages().empty() && !AnyMark)
    return Series;

  // A record starting exactly at LastEnd (zero-length mark at the end of
  // the run) still needs a window.
  size_t NumWindows = windowOf(LastEnd, Opts.WindowUnits) + 1;
  std::vector<WindowAccum> Accum(NumWindows);

  for (const TaskSegment &S : Rec.segments()) {
    WindowAccum &W = Accum[windowOf(S.Start, Opts.WindowUnits)];
    (S.OnServer ? W.ServerInstrs : W.ClientInstrs) += S.Instrs;
  }
  for (const MessageRecord &M : Rec.messages()) {
    WindowAccum &W = Accum[windowOf(M.Start, Opts.WindowUnits)];
    ++W.Messages;
    W.TransferBytes += M.Bytes;
    W.Timeouts += M.Timeouts;
    W.Retries += M.Retries;
    W.Undelivered += M.Delivered ? 0 : 1;
    if (M.K == MessageRecord::Kind::Probe)
      ++W.Probes;
    else if (M.K == MessageRecord::Kind::LedgerSync)
      ++W.LedgerSyncs;
    W.MessageUnits.record(unitsOf(M.Start, M.End));
  }
  for (const RunMark &M : Rec.marks())
    if (windowed(M)) {
      WindowAccum &W = Accum[windowOf(M.At, Opts.WindowUnits)];
      ++(M.K == RunMark::Kind::Redispatch ? W.Adaptations : W.Recoveries);
    }

  double Width = Opts.WindowUnits.toDouble();
  for (size_t I = 0; I != NumWindows; ++I) {
    const WindowAccum &A = Accum[I];
    obs::TimeWindow W;
    W.Index = I;
    W.Start = (Opts.WindowUnits * Rational(static_cast<int64_t>(I)))
                  .toString();
    W.End = (Opts.WindowUnits * Rational(static_cast<int64_t>(I + 1)))
                .toString();
    W.counter("sim.client_instrs", A.ClientInstrs);
    W.counter("sim.server_instrs", A.ServerInstrs);
    W.counter("sim.messages", A.Messages);
    W.counter("sim.transfer_bytes", A.TransferBytes);
    W.counter("sim.timeouts", A.Timeouts);
    W.counter("sim.retries", A.Retries);
    W.counter("sim.undelivered", A.Undelivered);
    W.counter("sim.probes", A.Probes);
    W.counter("sim.ledger_syncs", A.LedgerSyncs);
    W.counter("sim.adaptations", A.Adaptations);
    W.counter("sim.recoveries", A.Recoveries);
    W.value("sim.instrs_per_unit",
            static_cast<double>(A.ClientInstrs + A.ServerInstrs) / Width);
    if (A.MessageUnits.count())
      W.histogram("sim.message_units", A.MessageUnits);
    Series.push(std::move(W));
  }
  return Series;
}
