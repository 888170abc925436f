//===- interp/Interp.h - Partitioned-program interpreter -------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled MiniC program on the simulated client/server
/// runtime. Every abstract memory location is materialized as a pair of
/// copies (client and server); task transitions follow the TCFG, apply
/// the scheduling messages of the paper's self-scheduling model, and
/// perform exactly the data transfers the chosen partitioning's validity
/// states dictate. Because reads always hit the current host's copy, an
/// unsound validity analysis would corrupt program outputs -- runs under
/// any partitioning must produce bit-identical outputs to the all-client
/// run, which the test suite checks.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_INTERP_INTERP_H
#define PACO_INTERP_INTERP_H

#include "runtime/OnlineProfiler.h"
#include "runtime/Simulator.h"
#include "runtime/Timeline.h"
#include "transform/Pipeline.h"

namespace paco {

/// How the run may adapt its partitioning after dispatch. A run that
/// keeps its dispatched choice for good is ReactOnFailure under
/// FaultPolicy::RetryOnly (or FailFast): a message that exhausts its
/// retries then fails the run instead of degrading.
enum class AdaptationPolicy {
  /// Adapt only by degrading to all-client execution when a message
  /// exhausts its retries (per FaultPolicy).
  ReactOnFailure,
  /// Full closed loop: profile the live link and server online, detect
  /// when the environment has drifted across a partitioning-region
  /// boundary, and re-dispatch to the newly optimal cut at a task-
  /// boundary checkpoint. Failure degradation stays armed as the
  /// backstop.
  ClosedLoop,
};

/// Tuning knobs of the closed loop. The defaults favor stability over
/// reaction speed: transient jitter must survive several evaluations
/// and clear a cost margin before the run pays for a switch.
struct AdaptationOptions {
  AdaptationPolicy Policy = AdaptationPolicy::ReactOnFailure;
  /// EWMA smoothing weight of the online profiler, in (0, 1].
  Rational Alpha = Rational::fraction(1, 4);
  /// Profiler observations required before the detector may fire.
  uint64_t MinSamples = 8;
  /// Evaluate the detector every Nth task boundary (>= 1).
  unsigned EvalPeriod = 4;
  /// Task boundaries to dwell on a choice before switching again.
  unsigned MinDwellBoundaries = 16;
  /// Hard cap on re-dispatches per run (thrash guard).
  unsigned MaxRedispatches = 8;

  /// Active recovery probing (ClosedLoop only). While the run sits in
  /// local fallback after a degrade or a server crash, it sends one
  /// probe message every ProbePeriodBoundaries task boundaries, priced
  /// through the CostModel like any other traffic. A delivered probe
  /// feeds the profiler and reprices local-vs-remote under the profiled
  /// model; the run re-offloads only when the best remote cut beats
  /// local by the switch margin. ProbeBudget bounds the total spend: once
  /// exhausted, the fallback becomes a permanent degrade. Zero disables
  /// probing (every fallback is immediately permanent, the PR-6
  /// behavior).
  unsigned ProbePeriodBoundaries = 8;
  uint64_t ProbeBytes = 64;
  unsigned ProbeBudget = 16;
};

/// How to run the program.
struct ExecOptions {
  enum class Placement {
    AllClient, ///< Everything on the client (the paper's baseline).
    Dispatch,  ///< Pick the optimal choice for the parameter values.
    Forced,    ///< Run a specific partitioning choice.
  };
  Placement Mode = Placement::AllClient;
  unsigned ForcedChoice = 0;
  /// One value per declared run-time parameter, in declaration order.
  std::vector<int64_t> ParamValues;
  /// Stream feeding io_read / io_read_buf; exhausted reads yield zero.
  std::vector<int64_t> Inputs;
  /// Runaway guard.
  uint64_t MaxInstructions = 2000000000ull;
  /// Injected fault schedule for the client/server link. The default is
  /// a perfect link, which keeps the whole fault layer off the hot path.
  FaultSpec Link;
  /// Retry/backoff schedule for lost messages (ignored under FailFast).
  RetryPolicy Retry;
  /// Recovery policy when a message exhausts its retries.
  FaultPolicy OnLinkFailure = FaultPolicy::DegradeToLocal;
  /// Closed-loop adaptation policy and tuning (see AdaptationPolicy).
  AdaptationOptions Adapt;
  /// Piecewise environment-drift schedule the simulator applies on the
  /// simulated clock (bandwidth ramps, server load spikes, timed
  /// outages). Empty = the static environment.
  DriftSchedule Drift;
  /// Scheduled server crash/restart events on the simulated clock. A
  /// crash loses every server-resident data copy and aborts the
  /// in-flight server task; under a recovery policy the run rolls back
  /// to the last task boundary and restores the lost items from the
  /// client-held recovery ledger. Empty = the server never fails.
  CrashSchedule Crash;
  /// Byte budget of the client-held recovery ledger (pinned client
  /// copies of server-authoritative data, maintained at task boundaries
  /// while a crash schedule is armed). Items beyond the budget are
  /// evicted LRU and re-fetched -- at full transfer price -- when
  /// needed again. Pins the current checkpoint depends on are never
  /// evicted, so the budget is a soft target with a hard safety floor.
  uint64_t LedgerBudgetBytes = 1ull << 20;
  /// Optional timeline recorder (cleared at run start): receives every
  /// task-execution segment and runtime message on the simulated clock,
  /// and a mark at every run start and end, re-dispatch, crash, restart,
  /// fallback, re-offload, probe exhaustion and ledger eviction/refetch.
  /// The cost audit, the Gantt, the trace lanes, the sim windows and the
  /// event log (interp/RunLog.h) all render from it. Costs one
  /// elapsed-time evaluation per task boundary, nothing on the
  /// per-instruction path.
  RuntimeRecorder *Recorder = nullptr;
};

/// Everything measured during one run: the run's counters plus what
/// only the finished run knows.
struct ExecResult : RunCounters {
  /// Structured classification of a failed run (Error carries the text).
  enum class FailureKind {
    None,             ///< The run succeeded.
    InstructionLimit, ///< The MaxInstructions runaway guard tripped.
    LinkFailure,      ///< A message exhausted its retries and the policy
                      ///< forbade degrading to local execution.
    ServerCrash,      ///< The server process died and the policy had no
                      ///< recovery path (FailFast/RetryOnly).
    BadInput,         ///< Program-level fault (bad pointer, div by zero,
                      ///< missing main, analysis bug, ...).
  };

  bool OK = false;
  FailureKind Failure = FailureKind::None;
  std::string Error;
  std::vector<double> Outputs;

  Rational Time;            ///< Elapsed time in cost units.
  double EnergyJoules = 0;  ///< Client energy under the EnergyModel.
  unsigned ChoiceUsed = KNone;  ///< Initially dispatched choice, if any.
  unsigned FinalChoice = KNone; ///< Choice the run finished under (KNone
                                ///< after a switch to local or a degrade).
  bool Degraded = false; ///< The run finished on the client after a
                         ///< link failure or server crash.

  /// Measured instruction executions per task (for prediction error).
  std::map<unsigned, uint64_t> TaskInstrs;
};

/// Runs the program.
ExecResult runProgram(const CompiledProgram &CP, const ExecOptions &Opts,
                      const EnergyModel &Energy = EnergyModel());

} // namespace paco

#endif // PACO_INTERP_INTERP_H
