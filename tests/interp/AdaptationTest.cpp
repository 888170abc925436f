//===- tests/interp/AdaptationTest.cpp - Closed-loop re-offloading --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The closed-loop acceptance scenario: a frame-structured pipeline is
// dispatched onto the server while the link is fast, then the link's
// bandwidth collapses mid-run. The closed loop must notice the drift
// from its online profile, re-dispatch to all-client execution at a task
// boundary -- exactly once, deterministically -- and finish with outputs
// bit-identical to the static run while beating both the
// stay-on-the-initial-partition run and the never-offload baseline on
// total simulated cost.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "obs/CostAudit.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

using namespace paco;

namespace {

// The quickstart's Figure-1 style pipeline: x frames of y samples with z
// work units per sample. Every frame reads on the client, encodes (the
// offloadable hot loop), and writes back on the client, so each frame
// crosses several task boundaries -- the checkpoints the re-dispatcher
// can fire at.
const char *kFramePipeline = R"MINIC(
param int x in [1, 64];
param int y in [1, 256];
param int z in [1, 4096];

int *inbuf;
int *outbuf;

void encode_frame() {
  for (int i = 0; i < y; i++) {
    int acc = inbuf[i];
    @trip(z) for (int k = 0; k < 1000000000; k++) {
      if (k >= z) break;
      acc = (acc * 3 + 1) & 65535;
    }
    outbuf[i] = acc;
  }
}

void main() {
  inbuf = malloc(y);
  outbuf = malloc(y);
  for (int j = 0; j < x; j++) {
    for (int i = 0; i < y; i++) inbuf[i] = io_read();
    encode_frame();
    for (int i = 0; i < y; i++) io_write(outbuf[i]);
  }
}
)MINIC";

const std::vector<int64_t> kParams = {16, 32, 1000}; // x, y, z

std::shared_ptr<CompiledProgram> compiled() {
  static std::shared_ptr<CompiledProgram> CP = [] {
    std::string Diags;
    std::shared_ptr<CompiledProgram> P = compileForOffloading(
        kFramePipeline, CostModel::defaults(), {}, &Diags);
    EXPECT_TRUE(P != nullptr) << Diags;
    return P;
  }();
  return CP;
}

std::vector<int64_t> frameInputs() {
  std::vector<int64_t> Inputs(16 * 32);
  for (size_t I = 0; I != Inputs.size(); ++I)
    Inputs[I] = static_cast<int64_t>((I * 7) % 251);
  return Inputs;
}

ExecOptions baseOpts(ExecOptions::Placement Mode) {
  ExecOptions Opts;
  Opts.Mode = Mode;
  Opts.ParamValues = kParams;
  Opts.Inputs = frameInputs();
  return Opts;
}

/// Mid-run bandwidth collapse: from \p At on, every message costs 64x.
DriftSchedule bandwidthCollapse(const Rational &At) {
  DriftSchedule Drift;
  DriftPhase P;
  P.At = At;
  P.CommScale = Rational(64);
  Drift.Phases.push_back(P);
  return Drift;
}

/// True when \p Choice runs every task on the client -- either the KNone
/// sentinel or an explicit server={} cut (this program's partition set
/// contains one, and the re-dispatcher legitimately lands on it).
bool allClientChoice(const CompiledProgram &CP, unsigned Choice) {
  if (Choice == KNone)
    return true;
  for (bool OnServer : CP.Partition.Choices[Choice].TaskOnServer)
    if (OnServer)
      return false;
  return true;
}

/// Reaction-speed knobs for the tests: evaluate at every boundary, two
/// confirmations, short dwell.
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

TEST(AdaptationTest, ClosedLoopBeatsStaticAndLocalUnderBandwidthCollapse) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);

  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;

  // The static environment must favor offloading, or there is no drift
  // story to tell.
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;
  ASSERT_NE(Fast.ChoiceUsed, KNone);
  ASSERT_LT(Fast.Time, Local.Time);
  EXPECT_TRUE(Fast.Redispatches.empty());

  // The link collapses 13/16 of the way through the fast run: late
  // enough that the cheap prefix amortizes the switch, early enough that
  // staying would be ruinous.
  const Rational DriftAt = Fast.Time * Rational::fraction(13, 16);
  const DriftSchedule Drift = bandwidthCollapse(DriftAt);

  // All-client is immune to a bandwidth collapse (it sends nothing).
  ExecOptions LocalDriftOpts = baseOpts(ExecOptions::Placement::AllClient);
  LocalDriftOpts.Drift = Drift;
  ExecResult LocalDrift = runProgram(*CP, LocalDriftOpts);
  ASSERT_TRUE(LocalDrift.OK) << LocalDrift.Error;
  EXPECT_EQ(LocalDrift.Time, Local.Time);
  EXPECT_EQ(LocalDrift.Outputs, Local.Outputs);

  // Static policy (retry-only): committed to the initial partition,
  // drift or not.
  ExecOptions StaticOpts = baseOpts(ExecOptions::Placement::Dispatch);
  StaticOpts.Drift = Drift;
  StaticOpts.OnLinkFailure = FaultPolicy::RetryOnly;
  ExecResult Static = runProgram(*CP, StaticOpts);
  ASSERT_TRUE(Static.OK) << Static.Error;
  EXPECT_EQ(Static.ChoiceUsed, Fast.ChoiceUsed);
  EXPECT_TRUE(Static.Redispatches.empty());
  EXPECT_EQ(Static.Outputs, Local.Outputs);
  EXPECT_GT(Static.Time, Fast.Time); // the collapse cost the static run

  // The closed loop: profile, detect, re-dispatch at a checkpoint.
  RuntimeRecorder Recorder;
  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Drift = Drift;
  LoopOpts.Adapt = eagerClosedLoop();
  LoopOpts.Recorder = &Recorder;
  ExecResult Loop = runProgram(*CP, LoopOpts);
  ASSERT_TRUE(Loop.OK) << Loop.Error;

  // Correctness first: bit-identical outputs, no degraded fallback.
  EXPECT_EQ(Loop.Outputs, Local.Outputs);
  EXPECT_EQ(Loop.Outputs, Static.Outputs);
  EXPECT_FALSE(Loop.Degraded);

  // Exactly one re-dispatch, after the collapse, onto an all-client cut
  // (this program's partition set contains an explicit server={} choice,
  // so the detector lands there rather than on the KNone sentinel).
  ASSERT_EQ(Loop.Redispatches.size(), 1u);
  const ExecResult::RedispatchEvent &E = Loop.Redispatches[0];
  EXPECT_EQ(E.FromChoice, Loop.ChoiceUsed);
  EXPECT_NE(E.ToChoice, E.FromChoice);
  EXPECT_TRUE(allClientChoice(*CP, E.ToChoice));
  EXPECT_EQ(Loop.FinalChoice, E.ToChoice);
  EXPECT_GE(E.At, DriftAt);
  // Detection must be prompt: the switch lands in the first half of the
  // post-collapse suffix the static run suffered through.
  EXPECT_LT(E.At, DriftAt + (Static.Time - DriftAt) * Rational::fraction(1, 2));
  EXPECT_LT(E.AtTask, CP->Graph.numTasks());
  EXPECT_LT(E.PredictedSwitch, E.PredictedStay);

  // The whole point: strictly cheaper than both committed strategies.
  EXPECT_LT(Loop.Time, Static.Time);
  EXPECT_LT(Loop.Time, LocalDrift.Time);

  // The timeline saw the same event the result reports.
  std::vector<RunMark> Switches;
  for (const RunMark &M : Recorder.marks())
    if (M.K == RunMark::Kind::Redispatch)
      Switches.push_back(M);
  ASSERT_EQ(Switches.size(), 1u);
  EXPECT_EQ(Switches[0].At, E.At);
  EXPECT_EQ(Switches[0].ToChoice, E.ToChoice);

  // Same seed, same bytes: timeline render, audit JSON, every cost.
  std::vector<std::string> TaskLabels, DataLabels;
  for (const TCFG::Task &Task : CP->Graph.Tasks)
    TaskLabels.push_back(Task.Label);
  for (unsigned D = 0; D != CP->Memory->numLocs(); ++D)
    DataLabels.push_back(CP->Memory->loc(D).Name);
  std::string Timeline = Recorder.renderTimeline(TaskLabels, DataLabels);
  EXPECT_NE(Timeline.find("redispatch"), std::string::npos);
  obs::CostAuditReport Audit = obs::auditRun(*CP, Loop, kParams, &Recorder);
  EXPECT_TRUE(Audit.Valid);
  ASSERT_EQ(Audit.Counters.Redispatches.size(), 1u);
  EXPECT_NE(Audit.Note.find("re-dispatched"), std::string::npos);
  std::string JSON = Audit.toJSON();
  EXPECT_NE(JSON.find("\"redispatches\": [\n"), std::string::npos);

  RuntimeRecorder ReplayRecorder;
  ExecOptions ReplayOpts = LoopOpts;
  ReplayOpts.Inputs = frameInputs();
  ReplayOpts.Recorder = &ReplayRecorder;
  ExecResult Replay = runProgram(*CP, ReplayOpts);
  ASSERT_TRUE(Replay.OK) << Replay.Error;
  EXPECT_EQ(Replay.Time, Loop.Time);
  EXPECT_EQ(Replay.Outputs, Loop.Outputs);
  ASSERT_EQ(Replay.Redispatches.size(), 1u);
  EXPECT_EQ(Replay.Redispatches[0].At, E.At);
  EXPECT_EQ(Replay.Redispatches[0].AtTask, E.AtTask);
  EXPECT_EQ(ReplayRecorder.renderTimeline(TaskLabels, DataLabels), Timeline);
  EXPECT_EQ(obs::auditRun(*CP, Replay, kParams, &ReplayRecorder).toJSON(),
            JSON);
}

TEST(AdaptationTest, ClosedLoopStaysQuietInAStableEnvironment) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;
  ASSERT_NE(Fast.ChoiceUsed, KNone);

  // No drift: the profiled scales stay at 1, so the incumbent keeps
  // winning every evaluation and the run's costs are untouched.
  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Adapt = eagerClosedLoop();
  ExecResult Loop = runProgram(*CP, LoopOpts);
  ASSERT_TRUE(Loop.OK) << Loop.Error;
  EXPECT_TRUE(Loop.Redispatches.empty());
  EXPECT_EQ(Loop.Time, Fast.Time);
  EXPECT_EQ(Loop.FinalChoice, Loop.ChoiceUsed);
  EXPECT_EQ(Loop.Outputs, Fast.Outputs);
}

TEST(AdaptationTest, StaticPolicyDisablesTheDegradeBackstop) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  FaultSpec Dead; // permanently dead shortly after dispatch
  Dead.DisconnectAt = 3;
  Dead.DisconnectLength = ~0ull - 3;

  ExecOptions StaticOpts = baseOpts(ExecOptions::Placement::Dispatch);
  StaticOpts.Link = Dead;
  StaticOpts.OnLinkFailure = FaultPolicy::RetryOnly; // no degrade backstop
  ExecResult Static = runProgram(*CP, StaticOpts);
  EXPECT_FALSE(Static.OK);
  EXPECT_EQ(Static.Failure, ExecResult::FailureKind::LinkFailure);

  // The default react-on-failure policy on the same schedule recovers.
  ExecOptions ReactOpts = baseOpts(ExecOptions::Placement::Dispatch);
  ReactOpts.Link = Dead;
  ExecResult React = runProgram(*CP, ReactOpts);
  ASSERT_TRUE(React.OK) << React.Error;
  EXPECT_TRUE(React.Degraded);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK);
  EXPECT_EQ(React.Outputs, Local.Outputs);
}

TEST(AdaptationTest, ClosedLoopKeepsTheDegradeBackstopArmed) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  FaultSpec Dead;
  Dead.DisconnectAt = 3;
  Dead.DisconnectLength = ~0ull - 3;

  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Link = Dead;
  LoopOpts.Adapt = eagerClosedLoop();
  ExecResult Loop = runProgram(*CP, LoopOpts);
  ASSERT_TRUE(Loop.OK) << Loop.Error;
  EXPECT_TRUE(Loop.Degraded);
  EXPECT_EQ(Loop.FinalChoice, KNone);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK);
  EXPECT_EQ(Loop.Outputs, Local.Outputs);
}

// ci_pipeline.mc, the program of CI's closed-loop explorer run: the same
// frame pipeline with a shorter loop bound and word-sized buffers.
const char *kCIPipeline = R"MINIC(
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
)MINIC";

TEST(AdaptationTest, ExplorerDriftRunTracesAndAuditsTheRedispatch) {
  // `offload_explorer ci_pipeline.mc --params 16,32,1000 --run
  // --adapt=closed-loop --drift="at=200000,comm=64" --trace=...
  // --audit=...`: the explorer runs the library's closed-loop defaults on
  // empty input.
  std::string Diags;
  std::shared_ptr<CompiledProgram> CP = compileForOffloading(
      kCIPipeline, CostModel::defaults(), {}, &Diags);
  ASSERT_TRUE(CP != nullptr) << Diags;
  ExecOptions LocalOpts;
  LocalOpts.Mode = ExecOptions::Placement::AllClient;
  LocalOpts.ParamValues = kParams;
  ExecResult Local = runProgram(*CP, LocalOpts);
  ASSERT_TRUE(Local.OK) << Local.Error;

  RuntimeRecorder Recorder;
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Dispatch;
  Opts.ParamValues = kParams;
  Opts.Adapt.Policy = AdaptationPolicy::ClosedLoop;
  std::string Err;
  ASSERT_TRUE(DriftSchedule::parse("at=200000,comm=64", Opts.Drift, Err))
      << Err;
  Opts.Recorder = &Recorder;
  ExecResult R = runProgram(*CP, Opts);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.Outputs, Local.Outputs);

  obs::Tracer Trace;
  Trace.enable();
  std::vector<std::string> TaskLabels, DataLabels;
  for (const TCFG::Task &Task : CP->Graph.Tasks)
    TaskLabels.push_back(Task.Label);
  for (unsigned D = 0; D != CP->Memory->numLocs(); ++D)
    DataLabels.push_back(CP->Memory->loc(D).Name);
  Recorder.emitChromeLanes(Trace, TaskLabels, DataLabels);
  std::string JSON = Trace.toJSON();
  size_t At = JSON.find("{\"name\": \"redispatch\"");
  ASSERT_NE(At, std::string::npos) << "no redispatch event in the Chrome trace";
  std::string Event = JSON.substr(At, JSON.find('\n', At) - At);
  for (const char *Key :
       {"at_task", "from", "to", "predicted_stay", "predicted_switch"})
    EXPECT_NE(Event.find(std::string("\"") + Key + "\": "), std::string::npos)
        << "redispatch event lacks " << Key << ": " << Event;

  obs::CostAuditReport Audit = obs::auditRun(*CP, R, kParams, &Recorder);
  EXPECT_TRUE(Audit.Valid) << Audit.Note;
  ASSERT_FALSE(Audit.Counters.Redispatches.empty())
      << "audit recorded no re-dispatch";
  const RunMark &First = Audit.Counters.Redispatches[0];
  EXPECT_LT(First.PredictedSwitch, First.PredictedStay)
      << "the switch was not predicted to pay off";
}

} // namespace
