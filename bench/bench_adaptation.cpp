//===- bench/bench_adaptation.cpp - Static vs closed-loop under drift -----===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Compares the adaptation policies on the frame pipeline under three
// seeded environment-drift scenarios, measured on the simulated clock
// (cost units, deterministic -- not wall time):
//
//   bandwidth_ramp       the link collapses to 1/64 bandwidth at 13/16
//                        of the nominal offloaded runtime. The closed
//                        loop must re-dispatch onto the all-client cut
//                        and beat both the static run (which keeps
//                        paying 64x comm) and the never-offload run
//                        (which forfeits the cheap early phase).
//   server_load_spike    the server slows 64x mid-run; server compute
//                        dominates the offloaded cut, so staying is
//                        ruinous and the loop must bail to local.
//   disconnect_recover   a timed outage the retry loop rides out; no
//                        region boundary is crossed, so a well-damped
//                        loop should NOT re-dispatch -- this scenario
//                        prices the loop's restraint, not its reflexes.
//
// Emits the standard BENCH json line and writes BENCH_adapt.json
// (override with --out FILE) with per-scenario totals and the
// re-dispatch events of every closed-loop run.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace paco;

namespace {

/// The quickstart-style frame pipeline: x frames of y samples, an
/// encode kernel of z trip-counted inner steps per sample. At the
/// benchmark point {16, 32, 1000} the dispatcher offloads the encode.
const char *kFramePipeline = R"(
param int x in [1, 64];
param int y in [1, 256];
param int z in [1, 4096];

int *inbuf;
int *outbuf;

void encode_frame() {
  for (int i = 0; i < y; i++) {
    int acc = inbuf[i];
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      acc = (acc * 3 + 1) & 65535;
    }
    outbuf[i] = acc;
  }
}

void main() {
  inbuf = malloc(y * 4);
  outbuf = malloc(y * 4);
  for (int f = 0; f < x; f++) {
    for (int i = 0; i < y; i++) inbuf[i] = io_read();
    encode_frame();
    for (int i = 0; i < y; i++) io_write(outbuf[i]);
  }
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

/// Reaction-speed knobs tuned for a short benchmark run; the library
/// defaults dwell far longer than 16 frames.
AdaptationOptions eagerClosedLoop() {
  AdaptationOptions Adapt;
  Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Adapt.Alpha = Rational::fraction(1, 2);
  Adapt.MinSamples = 4;
  Adapt.EvalPeriod = 1;
  Adapt.MinDwellBoundaries = 4;
  Adapt.MaxRedispatches = 4;
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
  ExecResult Static;
  ExecResult Loop;
  ExecResult Local;
};

/// Runs one drift scenario under all three policies. The local run sees
/// the same drift schedule: comm and server scales cannot touch it, but
/// that is exactly the comparison the adaptive run must win.
ScenarioResult runScenario(const CompiledProgram &CP, const char *Name,
                           const DriftSchedule &Drift) {
  ScenarioResult S;
  S.Name = Name;

  ExecOptions Static = baseOpts(ExecOptions::Placement::Dispatch);
  Static.Drift = Drift;
  Static.OnLinkFailure = FaultPolicy::RetryOnly;
  S.Static = mustRun(CP, Static, Name);

  ExecOptions Loop = baseOpts(ExecOptions::Placement::Dispatch);
  Loop.Drift = Drift;
  Loop.Adapt = eagerClosedLoop();
  S.Loop = mustRun(CP, Loop, Name);

  ExecOptions Local = baseOpts(ExecOptions::Placement::AllClient);
  Local.Drift = Drift;
  S.Local = mustRun(CP, Local, Name);

  std::printf("%-18s static %14.0f  closed-loop %14.0f  local %14.0f"
              "  re-dispatches %zu\n",
              Name, S.Static.Time.toDouble(), S.Loop.Time.toDouble(),
              S.Local.Time.toDouble(), S.Loop.Redispatches.size());
  for (const ExecResult::RedispatchEvent &E : S.Loop.Redispatches)
    std::printf("  t=%s task %u: choice %s -> %s (predicted %s -> %s)\n",
                E.At.toString().c_str(), E.AtTask,
                E.FromChoice == KNone ? "local"
                                      : std::to_string(E.FromChoice).c_str(),
                E.ToChoice == KNone ? "local"
                                    : std::to_string(E.ToChoice).c_str(),
                E.PredictedStay.toString().c_str(),
                E.PredictedSwitch.toString().c_str());
  return S;
}

void writeScenario(std::FILE *Out, const ScenarioResult &S, bool Last) {
  std::fprintf(Out,
               "    {\n"
               "      \"scenario\": \"%s\",\n"
               "      \"static_units\": %.0f,\n"
               "      \"closed_loop_units\": %.0f,\n"
               "      \"local_units\": %.0f,\n"
               "      \"redispatches\": [",
               S.Name.c_str(), S.Static.Time.toDouble(),
               S.Loop.Time.toDouble(), S.Local.Time.toDouble());
  for (size_t I = 0; I != S.Loop.Redispatches.size(); ++I) {
    const ExecResult::RedispatchEvent &E = S.Loop.Redispatches[I];
    std::fprintf(Out, "%s\n        {\"at\": %.0f, \"at_task\": %u, ",
                 I ? "," : "", E.At.toDouble(), E.AtTask);
    if (E.FromChoice == KNone)
      std::fprintf(Out, "\"from_choice\": null, ");
    else
      std::fprintf(Out, "\"from_choice\": %u, ", E.FromChoice);
    if (E.ToChoice == KNone)
      std::fprintf(Out, "\"to_choice\": null}");
    else
      std::fprintf(Out, "\"to_choice\": %u}", E.ToChoice);
  }
  std::fprintf(Out, "%s]\n    }%s\n",
               S.Loop.Redispatches.empty() ? "" : "\n      ",
               Last ? "" : ",");
}

} // namespace

int main(int argc, char **argv) {
  const char *OutPath = "BENCH_adapt.json";
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--out") == 0 && I + 1 != argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  std::printf("== Adaptation policies under environment drift ==\n\n");

  std::string Diags;
  auto CP = compileForOffloading(kFramePipeline, CostModel::defaults(), {},
                                 &Diags);
  if (!CP) {
    std::fprintf(stderr, "error: pipeline failed to compile:\n%s",
                 Diags.c_str());
    return 1;
  }

  // Nominal (drift-free) dispatch run: anchors every drift timestamp so
  // the scenarios stay meaningful if the cost model ever moves.
  ExecResult Fast =
      mustRun(*CP, baseOpts(ExecOptions::Placement::Dispatch), "nominal");
  if (Fast.ChoiceUsed == KNone) {
    std::fprintf(stderr, "error: dispatcher refused to offload the "
                         "benchmark point; scenarios are meaningless\n");
    return 1;
  }
  std::printf("nominal offloaded run: %0.f units (choice %u)\n\n",
              Fast.Time.toDouble(), Fast.ChoiceUsed);

  // 1. Bandwidth collapse at 13/16 of the nominal runtime: late enough
  //    to reward the early offloaded phase, early enough that the tail
  //    ruins a static run.
  DriftSchedule Ramp;
  {
    DriftPhase P;
    P.At = Fast.Time * Rational::fraction(13, 16);
    P.CommScale = Rational(64);
    Ramp.Phases.push_back(P);
  }
  ScenarioResult RampR = runScenario(*CP, "bandwidth_ramp", Ramp);

  // 2. Server load spike at half the nominal runtime: server compute
  //    dominates the offloaded cut, so a 64x slowdown flips the region.
  DriftSchedule Spike;
  {
    DriftPhase P;
    P.At = Fast.Time * Rational::fraction(1, 2);
    P.ServerScale = Rational(64);
    Spike.Phases.push_back(P);
  }
  ScenarioResult SpikeR = runScenario(*CP, "server_load_spike", Spike);

  // 3. Timed outage the retry loop rides out (the backoff waits advance
  //    the drift clock across the recovery point). No cost scale moves,
  //    so the loop should sit still.
  DriftSchedule Outage;
  {
    DriftPhase Down, Up;
    Down.At = Fast.Time * Rational::fraction(1, 2);
    Down.Down = true;
    Up.At = Down.At + Rational(8000);
    Outage.Phases.push_back(Down);
    Outage.Phases.push_back(Up);
  }
  ScenarioResult OutageR = runScenario(*CP, "disconnect_recover", Outage);

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"bench\": \"adaptation\",\n"
               "  \"params\": [16, 32, 1000],\n"
               "  \"nominal_units\": %.0f,\n"
               "  \"nominal_choice\": %u,\n  \"scenarios\": [\n",
               Fast.Time.toDouble(), Fast.ChoiceUsed);
  writeScenario(Out, RampR, false);
  writeScenario(Out, SpikeR, false);
  writeScenario(Out, OutageR, true);
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  std::printf("\nwrote %s\n", OutPath);

  // The ramp scenario is the acceptance gate: the closed loop must beat
  // both non-adaptive policies strictly and must actually have switched.
  // The spike scenario must at least beat staying put; the outage
  // scenario must stay quiet (restraint is part of the contract).
  bool Pass = RampR.Loop.Time < RampR.Static.Time &&
              RampR.Loop.Time < RampR.Local.Time &&
              !RampR.Loop.Redispatches.empty() &&
              SpikeR.Loop.Time < SpikeR.Static.Time &&
              OutageR.Loop.Redispatches.empty();
  std::printf("\nBENCH {\"name\":\"adaptation\","
              "\"ramp_static\":%.0f,\"ramp_closed_loop\":%.0f,"
              "\"ramp_local\":%.0f,\"ramp_redispatches\":%zu,"
              "\"spike_static\":%.0f,\"spike_closed_loop\":%.0f,"
              "\"outage_redispatches\":%zu,\"pass\":%s}\n",
              RampR.Static.Time.toDouble(), RampR.Loop.Time.toDouble(),
              RampR.Local.Time.toDouble(), RampR.Loop.Redispatches.size(),
              SpikeR.Static.Time.toDouble(), SpikeR.Loop.Time.toDouble(),
              OutageR.Loop.Redispatches.size(), Pass ? "true" : "false");
  return Pass ? 0 : 1;
}
