//===- bench/bench_recovery.cpp - Server-failure recovery pricing ---------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Prices the server-failure tolerance machinery on a stateful frame
// pipeline (the accumulator array lives on the server between frames,
// so a crash actually destroys authoritative data) under three seeded
// crash scenarios, measured on the simulated clock:
//
//   crash_restart     the server dies at 7/16 of the nominal offloaded
//                     runtime and a blank process returns shortly after.
//                     The closed loop must roll back, restore from the
//                     client-held ledger, probe, and re-offload -- and
//                     beat both the never-offload run and the fail-fast
//                     total (work-at-crash wasted + full local rerun).
//   crash_permanent   the server never comes back. Probes all fail, the
//                     budget drains, and the run must finish locally --
//                     correct, bounded, no probe loop.
//   crash_under_drift the link has already degraded 4x when the crash
//                     hits. Recovery must still converge and still beat
//                     the fail-fast total.
//
// The static policy has no recovery path: its runs fail, which the
// report records -- that failure is the baseline the ledger exists to
// remove. Emits the standard BENCH json line and writes
// BENCH_recovery.json (override with --out FILE).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace paco;

namespace {

/// Frame pipeline with server-resident state: `state` is rewritten by
/// the offloaded kernel every frame and only returns to the client in
/// the final dump, so it is exactly the data a crash loses.
const char *kStatefulPipeline = R"(
param int x in [1, 64];
param int y in [1, 256];
param int z in [1, 4096];

int *inbuf;
int *state;

void accumulate() {
  for (int i = 0; i < y; i++) {
    int acc = state[i] + inbuf[i];
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      acc = (acc * 5 + 7) & 65535;
    }
    state[i] = acc;
  }
}

void main() {
  inbuf = malloc(y * 4);
  state = malloc(y * 4);
  for (int f = 0; f < x; f++) {
    for (int i = 0; i < y; i++) inbuf[i] = io_read();
    accumulate();
    io_write(f);
  }
  for (int i = 0; i < y; i++) io_write(state[i]);
}
)";

const std::vector<int64_t> kParams = {16, 32, 1000};

std::vector<int64_t> frameInputs() {
  std::vector<int64_t> Inputs;
  for (int I = 0; I != 16 * 32; ++I)
    Inputs.push_back((I * 7) % 251);
  return Inputs;
}

ExecOptions baseOpts(ExecOptions::Placement Mode) {
  ExecOptions Opts;
  Opts.Mode = Mode;
  Opts.ParamValues = kParams;
  Opts.Inputs = frameInputs();
  return Opts;
}

/// Closed loop tuned to probe at every fallback boundary: a 16-frame
/// benchmark run has no room for the library's patient defaults.
AdaptationOptions probingClosedLoop() {
  AdaptationOptions Adapt;
  Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Adapt.Alpha = Rational::fraction(1, 2);
  Adapt.MinSamples = 4;
  Adapt.EvalPeriod = 1;
  Adapt.MinDwellBoundaries = 4;
  Adapt.MaxRedispatches = 4;
  Adapt.ProbePeriodBoundaries = 1;
  Adapt.ProbeBytes = 64;
  Adapt.ProbeBudget = 16;
  return Adapt;
}

ExecResult mustRun(const CompiledProgram &CP, const ExecOptions &Opts,
                   const char *Label) {
  ExecResult R = runProgram(CP, Opts);
  if (!R.OK) {
    std::fprintf(stderr, "error: %s run failed: %s\n", Label,
                 R.Error.c_str());
    std::exit(1);
  }
  return R;
}

struct ScenarioResult {
  std::string Name;
  bool StaticFails = false; ///< The no-recovery policy lost the run.
  ExecResult React;         ///< Degrade-on-failure, no probing (PR-6).
  ExecResult Loop;          ///< Closed loop with recovery probing.
  ExecResult Local;         ///< Never offloaded (crash-immune).
  Rational FailFastTotal;   ///< Work-at-crash wasted + full local rerun.
};

ScenarioResult runScenario(const CompiledProgram &CP, const char *Name,
                           const CrashSchedule &Crash,
                           const DriftSchedule &Drift,
                           const Rational &CrashAt) {
  ScenarioResult S;
  S.Name = Name;

  // Static commitment cannot survive a crash; record that it fails
  // rather than pretending it has a cost.
  ExecOptions Static = baseOpts(ExecOptions::Placement::Dispatch);
  Static.Crash = Crash;
  Static.Drift = Drift;
  Static.OnLinkFailure = FaultPolicy::RetryOnly;
  S.StaticFails = !runProgram(CP, Static).OK;

  ExecOptions React = baseOpts(ExecOptions::Placement::Dispatch);
  React.Crash = Crash;
  React.Drift = Drift;
  S.React = mustRun(CP, React, Name);

  ExecOptions Loop = baseOpts(ExecOptions::Placement::Dispatch);
  Loop.Crash = Crash;
  Loop.Drift = Drift;
  Loop.Adapt = probingClosedLoop();
  S.Loop = mustRun(CP, Loop, Name);

  ExecOptions Local = baseOpts(ExecOptions::Placement::AllClient);
  Local.Crash = Crash;
  Local.Drift = Drift;
  S.Local = mustRun(CP, Local, Name);

  // The fail-fast alternative: everything before the crash is wasted,
  // then the whole program reruns on the client.
  S.FailFastTotal = CrashAt + S.Local.Time;

  std::printf("%-18s react %12.0f  closed-loop %12.0f  local %12.0f"
              "  fail-fast %12.0f\n",
              Name, S.React.Time.toDouble(), S.Loop.Time.toDouble(),
              S.Local.Time.toDouble(), S.FailFastTotal.toDouble());
  std::printf("  closed loop: %llu crash(es) %llu restart(s) %llu "
              "restored %llu probe(s) (%llu lost) %llu re-offload(s) "
              "ledger %llu sync(s)/%llu B\n",
              (unsigned long long)S.Loop.Crashes,
              (unsigned long long)S.Loop.Restarts,
              (unsigned long long)S.Loop.LedgerRestores,
              (unsigned long long)S.Loop.Probes,
              (unsigned long long)S.Loop.ProbeFailures,
              (unsigned long long)S.Loop.Reoffloads,
              (unsigned long long)S.Loop.LedgerSyncs,
              (unsigned long long)S.Loop.LedgerSyncBytes);
  return S;
}

void writeScenario(std::FILE *Out, const ScenarioResult &S, bool Last) {
  std::fprintf(
      Out,
      "    {\n"
      "      \"scenario\": \"%s\",\n"
      "      \"static_fails\": %s,\n"
      "      \"react_units\": %.0f,\n"
      "      \"closed_loop_units\": %.0f,\n"
      "      \"local_units\": %.0f,\n"
      "      \"fail_fast_total_units\": %.0f,\n"
      "      \"crashes\": %llu,\n"
      "      \"restarts\": %llu,\n"
      "      \"ledger_restores\": %llu,\n"
      "      \"ledger_syncs\": %llu,\n"
      "      \"ledger_sync_bytes\": %llu,\n"
      "      \"probes\": %llu,\n"
      "      \"probe_failures\": %llu,\n"
      "      \"reoffloads\": %llu,\n"
      "      \"degraded\": %s\n"
      "    }%s\n",
      S.Name.c_str(), S.StaticFails ? "true" : "false",
      S.React.Time.toDouble(), S.Loop.Time.toDouble(),
      S.Local.Time.toDouble(), S.FailFastTotal.toDouble(),
      (unsigned long long)S.Loop.Crashes,
      (unsigned long long)S.Loop.Restarts,
      (unsigned long long)S.Loop.LedgerRestores,
      (unsigned long long)S.Loop.LedgerSyncs,
      (unsigned long long)S.Loop.LedgerSyncBytes,
      (unsigned long long)S.Loop.Probes,
      (unsigned long long)S.Loop.ProbeFailures,
      (unsigned long long)S.Loop.Reoffloads,
      S.Loop.Degraded ? "true" : "false", Last ? "" : ",");
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = "BENCH_recovery.json";
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--out") == 0 && I + 1 != argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  std::printf("== Server-failure recovery under seeded crash schedules ==\n\n");

  std::string Diags;
  auto CP = compileForOffloading(kStatefulPipeline, CostModel::defaults(), {},
                                 &Diags);
  if (!CP) {
    std::fprintf(stderr, "error: pipeline failed to compile:\n%s",
                 Diags.c_str());
    return 1;
  }

  // Nominal (crash-free) dispatch run anchors every crash timestamp so
  // the scenarios stay meaningful if the cost model ever moves.
  ExecResult Fast =
      mustRun(*CP, baseOpts(ExecOptions::Placement::Dispatch), "nominal");
  if (Fast.ChoiceUsed == KNone) {
    std::fprintf(stderr, "error: dispatcher refused to offload the "
                         "benchmark point; scenarios are meaningless\n");
    return 1;
  }
  std::printf("nominal offloaded run: %.0f units (choice %u)\n\n",
              Fast.Time.toDouble(), Fast.ChoiceUsed);

  const Rational CrashAt = Fast.Time * Rational::fraction(7, 16);
  const Rational RestartAt = CrashAt + Fast.Time * Rational::fraction(1, 64);

  // 1. Crash with a prompt restart: the recovery showcase.
  CrashSchedule Restarting;
  {
    ServerCrash E;
    E.At = CrashAt;
    E.Restarts = true;
    E.RestartAt = RestartAt;
    Restarting.Events.push_back(E);
  }
  ScenarioResult RestartR =
      runScenario(*CP, "crash_restart", Restarting, {}, CrashAt);

  // 2. Permanent crash: probing must drain its budget and stop.
  CrashSchedule Permanent;
  {
    ServerCrash E;
    E.At = CrashAt;
    Permanent.Events.push_back(E);
  }
  ScenarioResult PermanentR =
      runScenario(*CP, "crash_permanent", Permanent, {}, CrashAt);

  // 3. The same crash/restart on a link that already degraded 4x early
  //    in the run: recovery prices its probes and re-upload against the
  //    degraded link and must still beat fail-fast.
  DriftSchedule Degrade4x;
  {
    DriftPhase P;
    P.At = Fast.Time * Rational::fraction(1, 8);
    P.CommScale = Rational(4);
    Degrade4x.Phases.push_back(P);
  }
  ScenarioResult DriftR =
      runScenario(*CP, "crash_under_drift", Restarting, Degrade4x, CrashAt);

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"bench\": \"recovery\",\n"
               "  \"params\": [16, 32, 1000],\n"
               "  \"nominal_units\": %.0f,\n"
               "  \"nominal_choice\": %u,\n"
               "  \"crash_at\": %.0f,\n"
               "  \"restart_at\": %.0f,\n  \"scenarios\": [\n",
               Fast.Time.toDouble(), Fast.ChoiceUsed, CrashAt.toDouble(),
               RestartAt.toDouble());
  writeScenario(Out, RestartR, false);
  writeScenario(Out, PermanentR, false);
  writeScenario(Out, DriftR, true);
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  std::printf("\nwrote %s\n", OutPath);

  // Acceptance gate: every scenario's closed loop beats the fail-fast
  // total. With a restart it must restore from the ledger, re-offload and
  // beat the never-offload run; without one it must drain the probe
  // budget and settle locally; under drift it must still re-offload.
  // Static must have failed every time -- that failure is the baseline
  // the recovery ledger exists to remove.
  bool Pass = RestartR.StaticFails && PermanentR.StaticFails &&
              DriftR.StaticFails && RestartR.Loop.Reoffloads >= 1 &&
              !RestartR.Loop.Degraded &&
              RestartR.Loop.LedgerRestores >= 1 &&
              RestartR.Loop.Time < RestartR.FailFastTotal &&
              RestartR.Loop.Time < RestartR.Local.Time &&
              PermanentR.Loop.Degraded && PermanentR.Loop.Reoffloads == 0 &&
              PermanentR.Loop.ProbeFailures == PermanentR.Loop.Probes &&
              PermanentR.Loop.Time < PermanentR.FailFastTotal &&
              DriftR.Loop.Reoffloads >= 1 &&
              DriftR.Loop.Time < DriftR.FailFastTotal;
  std::printf("\nBENCH {\"name\":\"recovery\","
              "\"restart_closed_loop\":%.0f,\"restart_fail_fast\":%.0f,"
              "\"restart_local\":%.0f,\"restart_reoffloads\":%llu,"
              "\"permanent_closed_loop\":%.0f,\"permanent_probes\":%llu,"
              "\"drift_closed_loop\":%.0f,\"pass\":%s}\n",
              RestartR.Loop.Time.toDouble(), RestartR.FailFastTotal.toDouble(),
              RestartR.Local.Time.toDouble(),
              (unsigned long long)RestartR.Loop.Reoffloads,
              PermanentR.Loop.Time.toDouble(),
              (unsigned long long)PermanentR.Loop.Probes,
              DriftR.Loop.Time.toDouble(), Pass ? "true" : "false");
  return Pass ? 0 : 1;
}
