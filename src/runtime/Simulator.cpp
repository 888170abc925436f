//===- runtime/Simulator.cpp - Client/server runtime simulator ------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "runtime/Simulator.h"

using namespace paco;

void Simulator::passInstants() {
  const Rational &T = now();
  // A crash window is [At, RestartAt) -- or [At, inf) when the event
  // never restarts -- during which serverDown() holds. Crossings are
  // flagged for the interpreter.
  while (CrashOn && CrashIdx != Crashes.Events.size()) {
    const ServerCrash &E = Crashes.Events[CrashIdx];
    if (!ServerDownNow) {
      if (T < E.At)
        break;
      ServerDownNow = true;
      PendingCrash = true;
      PendingCrashAt = E.At;
      ++Counts.Crashes;
    } else {
      if (!E.Restarts || T < E.RestartAt)
        break;
      ServerDownNow = false;
      PendingRestart = true;
      PendingRestartAt = E.RestartAt;
      ++Counts.Restarts;
      ++CrashIdx;
    }
  }
  passPhases(T);
}

void Simulator::passPhases(const Rational &T) {
  size_t Passed = PhaseIdx;
  while (PhaseIdx != Drift.Phases.size() && !(T < Drift.Phases[PhaseIdx].At))
    ++PhaseIdx;
  if (PhaseIdx == Passed)
    return;
  // A new server rate from here on: fold the old rate's surcharge.
  if (ServerRate != Costs.Ts)
    SpikeExtra +=
        (ServerRate - Costs.Ts) *
        Rational(static_cast<int64_t>(Counts.ServerInstrs - SpikeMark));
  SpikeMark = Counts.ServerInstrs;
  ServerRate = Costs.Ts * phaseNow()->ServerScale;
}

void Simulator::reachInstant(bool OnServer) {
  passInstants();
  // The next instant: the next phase start, crash or restart.
  const Rational *Next = nullptr;
  if (PhaseIdx != Drift.Phases.size())
    Next = &Drift.Phases[PhaseIdx].At;
  if (CrashOn && CrashIdx != Crashes.Events.size()) {
    const ServerCrash &E = Crashes.Events[CrashIdx];
    const Rational *At =
        !ServerDownNow ? &E.At : (E.Restarts ? &E.RestartAt : nullptr);
    if (At && (!Next || *At < *Next))
      Next = At;
  }
  // A chunk of N units starting now reaches Next iff N >= (Next - now) /
  // Rate; with no instant left or a zero rate it never does.
  CountdownOnServer = OnServer;
  Countdown = UINT64_MAX;
  const Rational &Rate = OnServer ? ServerRate : Costs.Tc;
  if (!Next || Rate.sign() <= 0)
    return;
  BigInt Units = ((*Next - now()) / Rate).ceil();
  if (Units.fitsInt64())
    Countdown = static_cast<uint64_t>(Units.toInt64());
}

void paco::publish(const RunCounters &C) {
  obs::StatsRegistry &Reg = obs::StatsRegistry::global();
  // A counter no run has touched stays unregistered, so --stats lists
  // only what happened.
  auto add = [&Reg](const char *Name, uint64_t N) {
    if (N)
      Reg.counter(Name).add(N);
  };
  add("sim.instructions", C.ClientInstrs + C.ServerInstrs);
  add("sim.migrations", C.Migrations);
  add("sim.transfers", C.TransferCount);
  add("sim.bytes_to_server", C.BytesToServer);
  add("sim.bytes_to_client", C.BytesToClient);
  add("sim.registrations", C.Registrations);
  add("sim.timeouts", C.Timeouts);
  add("sim.retries", C.Retries);
  add("sim.jitter_units", C.JitterUnits);
  add("sim.fallbacks", C.Fallbacks);
  add("sim.crashes", C.Crashes);
  add("sim.restarts", C.Restarts);
  add("sim.probes", C.Probes);
  add("sim.probe_failures", C.ProbeFailures);
  add("sim.ledger_syncs", C.LedgerSyncs);
  add("sim.redispatches", C.Redispatches.size());
  add("recovery.crash_rollbacks", C.CrashRecoveries);
  add("recovery.ledger_restores", C.LedgerRestores);
  add("recovery.ledger_evictions", C.LedgerEvictions);
  add("recovery.ledger_refetches", C.LedgerRefetches);
  add("recovery.probe_budget_exhausted", C.ProbeExhaustions);
  add("recovery.reoffloads", C.Reoffloads);
  add("recovery.checkpoint_bytes", C.CheckpointBytes);
}
