//===- runtime/Timeline.h - Simulated-run timeline recorder ----*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records what one simulated run did and when, on the *simulated* clock
/// (exact Rational cost units, not wall time): the run's one event
/// record. The interpreter attaches a RuntimeRecorder through ExecOptions
/// and reports every task-execution segment and every runtime message
/// (scheduling, data transfer, registration) with its start/end
/// simulated time. Segments are split at every message, so the recorded
/// spans partition the run exactly: the sum of all span durations equals
/// the run's elapsed time, which the test suite checks and the cost audit
/// relies on. Everything else the run does -- start and end, re-dispatch,
/// crash, restart, fallback, re-offload, probe exhaustion, ledger
/// eviction and refetch -- is a mark, kept in emission order.
///
/// The recorder renders two views: Chrome-trace lanes (a dedicated pid
/// with client / server / channel threads, one microsecond per cost unit)
/// and a deterministic text Gantt whose bytes depend only on the run. The
/// structured event log renders from it too (interp/RunLog.h).
///
//===----------------------------------------------------------------------===//

#ifndef PACO_RUNTIME_TIMELINE_H
#define PACO_RUNTIME_TIMELINE_H

#include "support/Rational.h"

#include <cstdint>
#include <string>
#include <vector>

namespace paco {

namespace obs {
class Tracer;
} // namespace obs

/// One contiguous stay of the program on one host: no messages and no
/// host change between Start and End.
struct TaskSegment {
  unsigned Task = ~0u;
  bool OnServer = false;
  uint64_t Instrs = 0; ///< Instructions charged during the segment.
  Rational Start, End;
};

/// One runtime message on the channel lane. The span covers everything
/// the message cost the run, including timeout detection, backoff waits
/// and latency jitter of lost attempts.
struct MessageRecord {
  enum class Kind { Schedule, Transfer, Registration, Probe, LedgerSync };
  Kind K = Kind::Schedule;
  bool ToServer = true;
  unsigned FromTask = ~0u;
  unsigned ToTask = ~0u;
  unsigned LocId = ~0u;   ///< Transfer/Registration: the data item.
  uint64_t Bytes = 0;     ///< Transfer only.
  uint64_t Timeouts = 0;  ///< Attempts declared lost by this message.
  uint64_t Retries = 0;   ///< Re-sends after a timeout.
  bool Delivered = true;  ///< False when retries were exhausted.
  Rational Start, End;
};

/// One run event that is neither a segment nor a message, stamped with
/// the simulated time and the task active when the run emitted it. The
/// recorder keeps marks in emission order; the text Gantt, the Chrome
/// lanes and the sim windows show the re-dispatch and server-failure
/// kinds, and the event log renders every kind.
struct RunMark {
  enum class Kind {
    RunStart,      ///< The run began (on ExecResult::ChoiceUsed).
    Redispatch,    ///< The closed loop switched to another choice.
    Crash,         ///< The server process died; server-resident data lost.
    Restart,       ///< A blank server process came back.
    Fallback,      ///< Rolled back to the checkpoint, resumed on the client.
    Reoffload,     ///< A probe priced the remote cut back in; re-dispatched.
    Exhausted,     ///< Probe budget spent; the degrade became permanent.
    LedgerEvict,   ///< A recovery-ledger pin was evicted under the budget.
    LedgerRefetch, ///< An evicted pin was fetched again.
    RunEnd,        ///< The run finished, successfully or not.
  };
  Kind K = Kind::Crash;
  Rational At;           ///< Simulated time of the event.
  unsigned AtTask = ~0u; ///< Task active when the run observed it.
  /// Messages recorded before the mark, which places it among them (set
  /// by the recorder).
  size_t AfterMessages = 0;
  /// Redispatch: the switch, with the repriced (profiled-model) costs
  /// that justified it; ~0u renders as the all-client "local".
  /// Reoffload: ToChoice is the choice the run returned to.
  unsigned FromChoice = ~0u;
  unsigned ToChoice = ~0u;
  Rational PredictedStay;   ///< Keeping FromChoice, under the profile.
  Rational PredictedSwitch; ///< Running ToChoice, under the profile.
  uint64_t Restored = 0;  ///< Fallback: data items restored from the ledger.
  bool Permanent = false; ///< Fallback: no probing can lift it.
  uint64_t Probes = 0;    ///< Exhausted: probes sent.
  /// LedgerEvict / LedgerRefetch: the pinned region, its data item and
  /// the pin's size; PinnedBytes is the ledger's size after an eviction.
  unsigned Region = ~0u;
  unsigned LocId = ~0u;
  uint64_t Bytes = 0;
  uint64_t PinnedBytes = 0;

  /// A server-failure lifecycle mark (Crash through Exhausted).
  bool recovery() const { return K >= Kind::Crash && K <= Kind::Exhausted; }
};

/// Collects the timeline of one simulated run. Not thread-safe: the
/// interpreter is single-threaded and owns the recorder for the run.
class RuntimeRecorder {
public:
  void segment(TaskSegment S) { Segments.push_back(std::move(S)); }

  void message(MessageRecord M) { Messages.push_back(std::move(M)); }

  /// Records \p M after the messages recorded so far.
  RunMark &mark(RunMark M) {
    M.AfterMessages = Messages.size();
    return Marks.emplace_back(std::move(M));
  }

  /// Records a mark of kind \p K; the caller fills in the fields its kind
  /// uses.
  RunMark &mark(RunMark::Kind K, Rational At, unsigned AtTask) {
    RunMark M;
    M.K = K;
    M.At = std::move(At);
    M.AtTask = AtTask;
    return mark(std::move(M));
  }

  /// Drops all recorded state, ready for a fresh run.
  void clear();

  const std::vector<TaskSegment> &segments() const { return Segments; }
  const std::vector<MessageRecord> &messages() const { return Messages; }
  const std::vector<RunMark> &marks() const { return Marks; }

  /// Total simulated units per lane. client + server + channel equals the
  /// run's elapsed time (segments and messages partition the run).
  Rational clientUnits() const;
  Rational serverUnits() const;
  Rational channelUnits() const;

  /// Deterministic text Gantt: one line per segment and message in start
  /// order, plus lane totals. \p TaskLabels / \p DataLabels map task and
  /// memory-location ids to names (out-of-range ids print numerically).
  std::string renderTimeline(const std::vector<std::string> &TaskLabels,
                             const std::vector<std::string> &DataLabels) const;

  /// Emits the timeline into \p T as complete events on a dedicated
  /// "simulated run" process (client/server/channel lanes, 1 us per cost
  /// unit). No-op when tracing is disabled.
  void emitChromeLanes(obs::Tracer &T,
                       const std::vector<std::string> &TaskLabels,
                       const std::vector<std::string> &DataLabels) const;

  /// The pid the Chrome lanes are emitted under (pid 1 is wall-clock
  /// pipeline tracing).
  static constexpr uint32_t TracePid = 2;

private:
  std::vector<TaskSegment> Segments;
  std::vector<MessageRecord> Messages;
  std::vector<RunMark> Marks;
};

} // namespace paco

#endif // PACO_RUNTIME_TIMELINE_H
