//===- runtime/Simulator.h - Client/server runtime simulator ---*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distributed-execution substrate, simulated: two hosts (the mobile
/// client and the server) connected by a message-passing link. Matching
/// the paper's model, exactly one host is active at a time; the other
/// blocks until a scheduling message arrives. The simulator accounts
/// time for computation on either host, task-scheduling messages, data
/// transfers (startup + per-byte) and registration overhead, all driven
/// by the same CostModel constants the static analysis used, plus an
/// energy model for the client (the paper's multimeter stands in).
///
//===----------------------------------------------------------------------===//

#ifndef PACO_RUNTIME_SIMULATOR_H
#define PACO_RUNTIME_SIMULATOR_H

#include "cost/CostModel.h"
#include "obs/Stats.h"
#include "runtime/LinkModel.h"
#include "runtime/Timeline.h"

#include <cstdint>
#include <vector>

namespace paco {

/// Client energy model: the client draws ActiveAmps while computing or
/// communicating and IdleAmps while blocked on the server, at Volts.
/// UnitSeconds converts abstract cost units to seconds.
struct EnergyModel {
  double ActiveAmps = 0.28;
  double IdleAmps = 0.16;
  double Volts = 5.0;
  double UnitSeconds = 1e-6;
};

/// Everything one run counts, each event once. The Simulator charges the
/// message, fault and time fields; the interpreter counts its recovery
/// and adaptation events into the same record; ExecResult derives from
/// it, the cost audit keeps a copy, and publish() hands it to the stats
/// registry when the run ends.
struct RunCounters {
  uint64_t ClientInstrs = 0;
  uint64_t ServerInstrs = 0;
  uint64_t Migrations = 0; ///< Delivered task-scheduling messages.
  uint64_t TransferCount = 0;
  uint64_t BytesToServer = 0;
  uint64_t BytesToClient = 0;
  uint64_t Registrations = 0;

  /// Per-component time split (cost audit): task-scheduling messages,
  /// data transfers, dynamic-data registrations.
  Rational SchedulingTime;
  Rational TransferTime;
  Rational RegistrationTime;

  /// Fault accounting (all zero on a fault-free link).
  uint64_t Timeouts = 0;    ///< Message attempts declared lost.
  uint64_t Retries = 0;     ///< Re-sends after a timeout.
  uint64_t Fallbacks = 0;   ///< Rollbacks that degraded the run to local.
  uint64_t JitterUnits = 0; ///< Latency jitter of delivered messages.
  Rational FaultTime;       ///< Time lost to timeouts, backoff and jitter.

  /// Server-failure recovery accounting (all zero without a crash
  /// schedule and with probing off).
  uint64_t Crashes = 0;          ///< Scheduled crashes the run crossed.
  uint64_t Restarts = 0;         ///< Scheduled restarts the run crossed.
  uint64_t CrashRecoveries = 0;  ///< Rollbacks forced by a crash.
  uint64_t LedgerRestores = 0;   ///< Data items restored from the ledger.
  uint64_t Probes = 0;           ///< Recovery probes sent.
  uint64_t ProbeFailures = 0;    ///< Probes lost (down/dropped/crashed).
  uint64_t ProbeExhaustions = 0; ///< Probe budgets spent (at most one).
  uint64_t Reoffloads = 0;       ///< Probe-driven returns to a remote cut.
  uint64_t LedgerSyncs = 0;      ///< Charged ledger pin transfers.
  uint64_t LedgerSyncBytes = 0;  ///< Bytes those transfers moved.
  uint64_t LedgerEvictions = 0;  ///< Pins evicted under the byte budget.
  uint64_t LedgerRefetches = 0;  ///< Evicted pins fetched again later.
  uint64_t LedgerPeakBytes = 0;  ///< Ledger high-water mark.
  /// Host bytes the task-boundary checkpoints copied: region copies saved
  /// into the undo log before their first change, plus call stacks.
  uint64_t CheckpointBytes = 0;
  Rational ProbeTime;            ///< Time spent probing.
  Rational LedgerTime;           ///< Time spent syncing the ledger.

  /// The closed-loop re-dispatches, in order (the marks the timeline
  /// records).
  using RedispatchEvent = RunMark;
  std::vector<RedispatchEvent> Redispatches;
};

/// Adds the nonzero counters of \p C to the process-wide stats registry
/// under their sim.* and recovery.* names. runProgram calls it once per
/// run, so no message pays for a registry lookup.
void publish(const RunCounters &C);

/// Accumulates the execution costs of one run.
class Simulator {
public:
  explicit Simulator(const CostModel &Costs)
      : Costs(Costs), ServerRate(Costs.Ts) {}

  /// A simulator whose link follows the injected fault schedule \p Faults
  /// and retries lost messages under \p Retry. An active \p Drift
  /// schedule additionally scales message and server-compute costs (and
  /// forces outages) phase by phase on the simulated clock; an active
  /// \p Crash schedule kills and optionally restarts the server process
  /// at fixed simulated times (every link attempt fails while it is
  /// down). The fault-free fast paths are untouched when both are empty.
  Simulator(const CostModel &Costs, const FaultSpec &Faults,
            const RetryPolicy &Retry,
            const DriftSchedule &Drift = DriftSchedule(),
            const CrashSchedule &Crash = CrashSchedule())
      : Costs(Costs), Link(Faults), Retry(Retry), Drift(Drift),
        Crashes(Crash), DriftOn(this->Drift.active()),
        CrashOn(this->Crashes.active()),
        ClockOn(DriftOn || CrashOn), ServerRate(Costs.Ts) {
    for (const DriftPhase &P : this->Drift.Phases)
      DriftHasDown = DriftHasDown || P.Down;
    if (DriftOn)
      passPhases(now()); // Phases from time zero; crashes wait for a charge.
  }

  /// Accounts \p N instructions on the active host. Costs are derived
  /// from the counters on demand, so this is a bare increment on the
  /// interpreter's hottest path. While a drift or crash schedule is
  /// active it also counts down the whole instruction units left before
  /// the next scheduled instant; only the chunk that reaches it, or the
  /// first chunk after a message or a host change, takes the exact path.
  void execInstructions(bool OnServer, uint64_t N) {
    if (OnServer)
      Counts.ServerInstrs += N;
    else
      Counts.ClientInstrs += N;
    if (!ClockOn)
      return;
    if (OnServer == CountdownOnServer && N < Countdown)
      Countdown -= N;
    else
      reachInstant(OnServer);
  }

  /// Accounts one task-scheduling message.
  void schedule(bool ToServer) {
    ++Counts.Migrations;
    Rational Cost = commCost(ToServer ? Costs.Tcst : Costs.Tsct);
    Counts.SchedulingTime += Cost;
    advanceClock(Cost);
  }

  /// Accounts one data transfer of \p Bytes.
  void transfer(bool ToServer, uint64_t Bytes) {
    ++Counts.TransferCount;
    Rational Size(static_cast<int64_t>(Bytes));
    Rational Cost;
    if (ToServer) {
      Counts.BytesToServer += Bytes;
      Cost = commCost(Costs.Tcsh + Costs.Tcsu * Size);
    } else {
      Counts.BytesToClient += Bytes;
      Cost = commCost(Costs.Tsch + Costs.Tscu * Size);
    }
    Counts.TransferTime += Cost;
    advanceClock(Cost);
    static obs::Histogram &Sizes =
        obs::StatsRegistry::global().histogram("sim.transfer_bytes");
    Sizes.record(Bytes);
  }

  /// Accounts one dynamic-data registration.
  void registration() {
    ++Counts.Registrations;
    Rational Cost = commCost(Costs.Ta);
    Counts.RegistrationTime += Cost;
    advanceClock(Cost);
  }

  //===------------------------------------------------------------------===//
  // Fault-aware sends
  //
  // The try* variants drive the message through the lossy link first: a
  // delivered message is accounted exactly like the plain call (plus its
  // latency jitter); every lost attempt charges the timeout-detection
  // time and the bounded-exponential backoff wait to the client. They
  // return false when the message exhausts its retries. On a fault-free
  // link they collapse to the plain calls with no per-message overhead.
  //===------------------------------------------------------------------===//

  bool trySchedule(bool ToServer) {
    if (!sendMessage())
      return false;
    schedule(ToServer);
    return true;
  }

  bool tryTransfer(bool ToServer, uint64_t Bytes) {
    if (!sendMessage())
      return false;
    transfer(ToServer, Bytes);
    return true;
  }

  bool tryRegistration() {
    if (!sendMessage())
      return false;
    registration();
    return true;
  }

  /// One active recovery probe: a single link attempt (no retries) of a
  /// \p Bytes payload, priced like a client-to-server transfer under the
  /// current drift phase. A delivered probe charges that message cost
  /// (plus jitter) to ProbeTime and returns true; a lost one (dropped,
  /// drift-down or crashed server) charges the timeout-detection time
  /// instead and returns false. Either way the attempt index advances,
  /// so probing never perturbs the fault schedule of later traffic.
  bool tryProbe(uint64_t Bytes) {
    ++Counts.Probes;
    LinkModel::Attempt A = Link.next(driftDown() || ServerDownNow);
    if (!A.Delivered) {
      ++Counts.ProbeFailures;
      Counts.ProbeTime += Costs.Tto;
      advanceClock(Costs.Tto);
      return false;
    }
    Rational Cost = commCost(Costs.Tcsh +
                             Costs.Tcsu *
                                 Rational(static_cast<int64_t>(Bytes)));
    Cost += Rational(static_cast<int64_t>(A.Jitter));
    Counts.ProbeTime += Cost;
    advanceClock(Cost);
    return true;
  }

  /// One recovery-ledger sync: pins \p Bytes of server-authoritative
  /// data on the client, driven through the retry machinery like any
  /// transfer but priced into its own LedgerTime bucket so the audit can
  /// show what crash insurance cost. Returns false when retries run out.
  bool tryLedgerSync(uint64_t Bytes) {
    if (!sendMessage())
      return false;
    ++Counts.LedgerSyncs;
    Counts.LedgerSyncBytes += Bytes;
    Rational Cost = commCost(Costs.Tsch +
                             Costs.Tscu *
                                 Rational(static_cast<int64_t>(Bytes)));
    Counts.LedgerTime += Cost;
    advanceClock(Cost);
    static obs::Histogram &Sizes =
        obs::StatsRegistry::global().histogram("sim.ledger_sync_bytes");
    Sizes.record(Bytes);
    return true;
  }

  /// Computation time per host, derived from the instruction counters.
  /// Server time includes what drift-phase load spikes added on top of
  /// the static Ts rate.
  Rational clientCompute() const {
    return Costs.Tc * Rational(static_cast<int64_t>(Counts.ClientInstrs));
  }
  Rational serverCompute() const {
    Rational T =
        Costs.Ts * Rational(static_cast<int64_t>(Counts.ServerInstrs)) +
        SpikeExtra;
    if (ServerRate != Costs.Ts)
      T += (ServerRate - Costs.Ts) *
           Rational(static_cast<int64_t>(Counts.ServerInstrs - SpikeMark));
    return T;
  }

  /// Total elapsed time in cost units (hosts never overlap). Time lost
  /// to faults -- timeouts, backoff waits and latency jitter -- elapses
  /// on the client like any other communication time.
  Rational elapsed() const {
    return clientCompute() + serverCompute() + Counts.SchedulingTime +
           Counts.TransferTime + Counts.RegistrationTime + Counts.FaultTime +
           Counts.ProbeTime + Counts.LedgerTime;
  }

  /// The simulated clock: elapsed(), memoized. The timeline recorder
  /// asks for the current time at every segment and message boundary,
  /// and the drift and crash layers index their schedules by it, so the
  /// eight-term Rational sum is never recomputed: advanceClock adds each
  /// message or fault charge to the memo, and pure compute since the
  /// last read is applied here from the instruction counters at the
  /// rates in force. Exact: Rational arithmetic is canonical, so the
  /// incremental sum is bit-identical to a fresh elapsed().
  const Rational &now() const {
    if (Counts.ClientInstrs != CacheClientInstrs) {
      CachedNow += Costs.Tc * Rational(static_cast<int64_t>(
                                  Counts.ClientInstrs - CacheClientInstrs));
      CacheClientInstrs = Counts.ClientInstrs;
    }
    if (Counts.ServerInstrs != CacheServerInstrs) {
      CachedNow += ServerRate * Rational(static_cast<int64_t>(
                                    Counts.ServerInstrs - CacheServerInstrs));
      CacheServerInstrs = Counts.ServerInstrs;
    }
    return CachedNow;
  }

  /// Time the client radio/CPU is active (everything except waiting for
  /// server computation).
  Rational clientActive() const { return elapsed() - serverCompute(); }

  /// Client energy in joules under \p Model.
  double energyJoules(const EnergyModel &Model) const {
    double Active = clientActive().toDouble() * Model.UnitSeconds;
    double Idle = serverCompute().toDouble() * Model.UnitSeconds;
    return Model.Volts *
           (Model.ActiveAmps * Active + Model.IdleAmps * Idle);
  }

  /// The run's counters and time buckets. The interpreter counts its
  /// recovery and adaptation events into the same record.
  RunCounters &counters() { return Counts; }
  const RunCounters &counters() const { return Counts; }

  /// The link, exposed for fault-trace inspection.
  const LinkModel &link() const { return Link; }

  /// The drift schedule driving this run (empty when static).
  const DriftSchedule &drift() const { return Drift; }

  /// The crash schedule driving this run (empty when the server is
  /// assumed reliable).
  const CrashSchedule &crashes() const { return Crashes; }
  /// True while a scheduled crash window covers the current simulated
  /// time (the server process is dead; every link attempt fails).
  bool serverDown() const { return ServerDownNow; }
  /// True when the clock crossed a crash or restart instant that the
  /// runtime has not consumed yet (cheap flag for the interpreter loop).
  bool serverEventPending() const { return PendingCrash || PendingRestart; }
  /// Consumes pending crash/restart crossings. \p CrashedAt / \p
  /// RestartedAt receive the *scheduled* instants (exact Rationals from
  /// the schedule, not the detection time). Both can fire in one call
  /// when a whole crash window fit inside a single clock advance.
  void takeServerEvents(bool &Crashed, Rational &CrashedAt, bool &Restarted,
                        Rational &RestartedAt) {
    Crashed = PendingCrash;
    CrashedAt = PendingCrashAt;
    Restarted = PendingRestart;
    RestartedAt = PendingRestartAt;
    PendingCrash = PendingRestart = false;
  }

private:
  /// Runs one logical message through the link: up to 1 + MaxRetries
  /// attempts, charging Tto plus the capped exponential backoff for each
  /// failure. Returns false when every attempt was lost. Backoff waits
  /// advance the drift clock, so a retry loop can ride out a time-based
  /// Down phase and deliver after recovery.
  bool sendMessage() {
    if (Link.faultFree() && !DriftHasDown && !CrashOn)
      return true;
    for (unsigned Attempt = 0;; ++Attempt) {
      LinkModel::Attempt A = Link.next(driftDown() || ServerDownNow);
      if (A.Delivered) {
        Rational Jitter(static_cast<int64_t>(A.Jitter));
        Counts.FaultTime += Jitter;
        Counts.JitterUnits += A.Jitter;
        advanceClock(Jitter);
        return true;
      }
      ++Counts.Timeouts;
      Counts.FaultTime += Costs.Tto;
      advanceClock(Costs.Tto);
      if (Attempt == Retry.MaxRetries)
        return false;
      ++Counts.Retries;
      Rational Backoff = backoffDelay(Retry, Attempt);
      Counts.FaultTime += Backoff;
      advanceClock(Backoff);
      static obs::Histogram &Waits =
          obs::StatsRegistry::global().histogram("sim.backoff_wait_units");
      Waits.record(saturatingCostUnits(Backoff));
    }
  }

  //===------------------------------------------------------------------===//
  // Clock layer (drift + crashes). The clock is now(); its instants are
  // the drift-phase starts and the crash and restart times. The cursors
  // only move forward because simulated time is monotone. Between two
  // instants each host computes at a fixed rate (the server's scaled by
  // the phase in force), so the number of whole instruction units left
  // before the next instant is an integer, computed exactly once per
  // message charge or host change (reachInstant) and then counted down
  // by execInstructions. The chunk that reaches an instant is charged
  // entirely at the rates in force when it started.
  //===------------------------------------------------------------------===//

  /// The phase in effect at the current simulated time, or null before
  /// the first phase (the static cost model). passInstants keeps the
  /// cursor current.
  const DriftPhase *phaseNow() const {
    return PhaseIdx ? &Drift.Phases[PhaseIdx - 1] : nullptr;
  }

  /// Message cost under the current drift phase's bandwidth factor.
  Rational commCost(Rational Base) {
    if (DriftOn)
      if (const DriftPhase *P = phaseNow())
        Base *= P->CommScale;
    return Base;
  }

  /// True while a Down phase covers the current simulated time.
  bool driftDown() const {
    if (!DriftHasDown)
      return false;
    const DriftPhase *P = phaseNow();
    return P && P->Down;
  }

  /// Adds a message or fault charge (already booked in its bucket) to
  /// the clock. Under a schedule it also consumes the instants the
  /// charge reached and makes the next instruction chunk re-arm the
  /// countdown.
  void advanceClock(const Rational &Delta) {
    now(); // Charge the pending instructions at the rates in force.
    CachedNow += Delta;
    if (ClockOn) {
      passInstants();
      Countdown = 0;
    }
  }

  /// Moves the crash and drift cursors past every instant the clock has
  /// reached.
  void passInstants();
  void passPhases(const Rational &T);

  /// The slow path of execInstructions: passes the instants the clock
  /// reached and re-arms the countdown for the host \p OnServer.
  void reachInstant(bool OnServer);

  CostModel Costs;
  LinkModel Link;
  RetryPolicy Retry;
  DriftSchedule Drift;
  CrashSchedule Crashes;
  bool DriftOn = false;
  bool CrashOn = false;
  bool ClockOn = false;
  bool DriftHasDown = false;
  size_t PhaseIdx = 0;       ///< Drift phases already started (cursor).
  size_t CrashIdx = 0;       ///< Crash events fully behind us (cursor).
  bool ServerDownNow = false;
  bool PendingCrash = false, PendingRestart = false;
  Rational PendingCrashAt, PendingRestartAt;
  // Server compute rate of the phase in force, Ts * ServerScale. A load
  // spike's surcharge over Ts is SpikeExtra plus (ServerRate - Ts) per
  // server instruction since SpikeMark.
  Rational ServerRate;
  Rational SpikeExtra;
  uint64_t SpikeMark = 0;
  // The countdown: whole instruction units on host CountdownOnServer
  // before the clock reaches the next instant (saturated at the uint64_t
  // range; zero forces a re-arm).
  uint64_t Countdown = 0;
  bool CountdownOnServer = false;
  // now() memo (mutable: a pure-compute refresh is not an observable
  // state change). It starts in sync with the all-zero clock.
  mutable uint64_t CacheClientInstrs = 0, CacheServerInstrs = 0;
  mutable Rational CachedNow;
  RunCounters Counts;
};

} // namespace paco

#endif // PACO_RUNTIME_SIMULATOR_H
