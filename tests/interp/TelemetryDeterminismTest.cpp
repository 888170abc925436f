//===- tests/interp/TelemetryDeterminismTest.cpp - Replay bit-identity ----===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Sim-time telemetry must be part of the deterministic run state: on a
// seeded drift+crash scenario, the structured event log and the sim-time
// window series must be byte-identical across replays AND across
// analysis thread counts (the partitioning solve is parallel; its thread
// count must never leak into run telemetry). A wall-clock-driven design
// would fail this immediately, which is exactly why the windows are
// built from the recorder after the run.
//
//===----------------------------------------------------------------------===//

#include "interp/RunLog.h"
#include "runtime/SimTelemetry.h"

#include <gtest/gtest.h>

using namespace paco;

namespace {

// Server-resident state plus a hot loop: enough traffic that the drift
// phases, the crash recovery and the probe-driven re-offload all leave
// events in the log.
const char *kScenario = R"MINIC(
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
)MINIC";

const std::vector<int64_t> kParams = {16, 32, 1000}; // x, y, z

std::shared_ptr<CompiledProgram> compileWithThreads(unsigned Threads) {
  ParametricOptions Opts;
  Opts.Threads = Threads;
  std::string Diags;
  std::shared_ptr<CompiledProgram> CP =
      compileForOffloading(kScenario, CostModel::defaults(), Opts, &Diags);
  EXPECT_TRUE(CP != nullptr) << Diags;
  return CP;
}

ExecOptions scenarioOpts(RuntimeRecorder *Rec) {
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Dispatch;
  Opts.ParamValues = kParams;
  Opts.Inputs.resize(16 * 32);
  for (size_t I = 0; I != Opts.Inputs.size(); ++I)
    Opts.Inputs[I] = static_cast<int64_t>((I * 7) % 251);

  // Seeded lossy link + drift + crash/restart, under the closed loop.
  Opts.Link.Seed = 7;
  Opts.Link.DropRate = 0.05;
  std::string Err;
  EXPECT_TRUE(
      DriftSchedule::parse("at=60000,comm=8;at=160000,comm=1", Opts.Drift,
                           Err))
      << Err;
  EXPECT_TRUE(CrashSchedule::parse("at=50000,restart=90000", Opts.Crash, Err))
      << Err;
  Opts.Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Opts.Adapt.EvalPeriod = 1;
  Opts.Adapt.MinSamples = 4;
  Opts.Adapt.MinDwellBoundaries = 4;
  Opts.Adapt.ProbePeriodBoundaries = 1;
  Opts.Recorder = Rec;
  return Opts;
}

/// One full replay: returns the event log JSONL followed by the sim
/// window JSONL (the byte-compared artifact).
std::string replay(const CompiledProgram &CP) {
  RuntimeRecorder Rec;
  ExecOptions Opts = scenarioOpts(&Rec);
  ExecResult R = runProgram(CP, Opts);
  EXPECT_TRUE(R.OK) << R.Error;
  obs::EventLog Log("scenario");
  appendRunLog(Log, CP, Opts, R, Rec);

  SimWindowOptions WinOpts;
  WinOpts.WindowUnits = Rational(16384);
  WinOpts.Capacity = 1024;
  std::string Out = Log.toJSONL();
  Out += buildSimWindows(Rec, WinOpts).toJSONL();
  return Out;
}

TEST(TelemetryDeterminismTest, ByteIdenticalAcrossReplaysAndThreadCounts) {
  std::shared_ptr<CompiledProgram> Serial = compileWithThreads(1);
  std::shared_ptr<CompiledProgram> Parallel = compileWithThreads(4);
  ASSERT_TRUE(Serial && Parallel);

  std::string First = replay(*Serial);
  std::string Second = replay(*Serial);
  std::string Third = replay(*Parallel);

  // The scenario must actually exercise the interesting control points,
  // otherwise bit-identity is vacuous.
  EXPECT_NE(First.find("\"type\": \"server-crash\""), std::string::npos);
  EXPECT_NE(First.find("\"type\": \"server-restart\""), std::string::npos);
  EXPECT_NE(First.find("\"type\": \"run-end\""), std::string::npos);
  EXPECT_NE(First.find("\"series\": \"sim\""), std::string::npos);

  EXPECT_EQ(First, Second) << "replay of the same pipeline diverged";
  EXPECT_EQ(First, Third) << "analysis thread count leaked into telemetry";
}

} // namespace
