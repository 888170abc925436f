//===- runtime/Simulator.cpp - Client/server runtime simulator ------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "runtime/Simulator.h"

using namespace paco;

void Simulator::clockInstructions(bool OnServer, uint64_t N) {
  Rational T = (OnServer ? Costs.Ts : Costs.Tc) *
               Rational(static_cast<int64_t>(N));
  if (OnServer && DriftOn) {
    if (const DriftPhase *P = phaseNow()) {
      static const Rational One(1);
      if (P->ServerScale != One) {
        // The spike surcharge is tracked separately so serverCompute()
        // can stay derived from the instruction counter.
        Rational Extra = T * (P->ServerScale - One);
        DriftServerExtra += Extra;
        ++ChargeEpoch; // Surcharge is outside the instruction counters.
        T += Extra;
      }
    }
  }
  DriftNow += T;
  if (CrashOn)
    pollServerClock();
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
}
