//===- tests/interp/RecoveryTest.cpp - Server-failure recovery ------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The server-failure acceptance scenario: a stateful pipeline keeps an
// accumulator array resident on the server, the server process is killed
// mid-run and restarted shortly after. Under the closed loop the run
// must roll back to the last task boundary, restore the lost array from
// the client-held recovery ledger, finish the interrupted work locally,
// probe the restarted server, and re-offload -- producing outputs
// bit-identical to the fault-free run at a total cost strictly below
// both the never-offload baseline and the fail-fast alternative
// (work-at-crash wasted plus a full local rerun). Every scenario replays
// byte-identically: same schedule, same timeline, same audit JSON.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "obs/CostAudit.h"
#include "obs/Stats.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <map>

using namespace paco;

namespace {

// A frame pipeline with server-resident state: `state` is read and
// rewritten by the hot loop every frame and never returns to the client
// until the final dump, so its authoritative copy lives on the server
// across many task boundaries -- exactly the data a crash destroys and
// the recovery ledger must preserve.
const char *kStatefulPipeline = R"MINIC(
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

std::shared_ptr<CompiledProgram> compiled() {
  static std::shared_ptr<CompiledProgram> CP = [] {
    std::string Diags;
    std::shared_ptr<CompiledProgram> P = compileForOffloading(
        kStatefulPipeline, CostModel::defaults(), {}, &Diags);
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

/// Closed loop with eager probing: probe at every fallback boundary so
/// the tests exercise recovery promptly.
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

/// One crash at \p At, restarting at \p RestartAt (skip for permanent).
CrashSchedule crashAt(const Rational &At) {
  CrashSchedule Crash;
  ServerCrash E;
  E.At = At;
  Crash.Events.push_back(E);
  return Crash;
}

CrashSchedule crashRestart(const Rational &At, const Rational &RestartAt) {
  CrashSchedule Crash = crashAt(At);
  Crash.Events[0].Restarts = true;
  Crash.Events[0].RestartAt = RestartAt;
  return Crash;
}

/// Runs \p Opts and checks the process-wide stats registry against the
/// result: every sim.* / recovery.* counter must move by exactly its
/// ExecResult field, and no other counter under those prefixes may move.
ExecResult runCheckingRegistry(const CompiledProgram &CP,
                               const ExecOptions &Opts) {
  std::map<std::string, uint64_t> Before =
      obs::StatsRegistry::global().snapshot().Counters;
  ExecResult R = runProgram(CP, Opts);
  std::map<std::string, uint64_t> After =
      obs::StatsRegistry::global().snapshot().Counters;
  const std::map<std::string, uint64_t> Expected = {
      {"sim.instructions", R.ClientInstrs + R.ServerInstrs},
      {"sim.migrations", R.Migrations},
      {"sim.transfers", R.TransferCount},
      {"sim.bytes_to_server", R.BytesToServer},
      {"sim.bytes_to_client", R.BytesToClient},
      {"sim.registrations", R.Registrations},
      {"sim.timeouts", R.Timeouts},
      {"sim.retries", R.Retries},
      {"sim.jitter_units", R.JitterUnits},
      {"sim.fallbacks", R.Fallbacks},
      {"sim.crashes", R.Crashes},
      {"sim.restarts", R.Restarts},
      {"sim.probes", R.Probes},
      {"sim.probe_failures", R.ProbeFailures},
      {"sim.ledger_syncs", R.LedgerSyncs},
      {"sim.redispatches", R.Redispatches.size()},
      {"recovery.crash_rollbacks", R.CrashRecoveries},
      {"recovery.ledger_restores", R.LedgerRestores},
      {"recovery.reoffloads", R.Reoffloads},
      {"recovery.ledger_evictions", R.LedgerEvictions},
      {"recovery.ledger_refetches", R.LedgerRefetches},
      {"recovery.probe_budget_exhausted", R.ProbeExhaustions},
      {"recovery.checkpoint_bytes", R.CheckpointBytes},
  };
  for (const auto &[Name, Want] : Expected)
    EXPECT_EQ(After[Name] - Before[Name], Want) << Name;
  for (const auto &[Name, Value] : After) {
    bool Run = Name.starts_with("sim.") || Name.starts_with("recovery.");
    if (Run && Value != Before[Name]) {
      EXPECT_TRUE(Expected.count(Name)) << Name << " has no ExecResult field";
    }
  }
  return R;
}

std::string timelineOf(const CompiledProgram &CP,
                       const RuntimeRecorder &Rec) {
  std::vector<std::string> TaskLabels, DataLabels;
  for (const TCFG::Task &Task : CP.Graph.Tasks)
    TaskLabels.push_back(Task.Label);
  for (unsigned D = 0; D != CP.Memory->numLocs(); ++D)
    DataLabels.push_back(CP.Memory->loc(D).Name);
  return Rec.renderTimeline(TaskLabels, DataLabels);
}

TEST(RecoveryTest, CrashRestartRecoversProbesAndReoffloads) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);

  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;

  // The fault-free environment must favor offloading, or a crash has
  // nothing to destroy.
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;
  ASSERT_NE(Fast.ChoiceUsed, KNone);
  ASSERT_LT(Fast.Time, Local.Time);

  // Kill the server 7/16 of the way through the fast run, bring a blank
  // process back shortly after: early enough that finishing locally
  // would be ruinous, with a restart close enough that probing pays.
  const Rational CrashAt = Fast.Time * Rational::fraction(7, 16);
  const Rational RestartAt = CrashAt + Fast.Time * Rational::fraction(1, 64);

  RuntimeRecorder Recorder;
  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Adapt = probingClosedLoop();
  LoopOpts.Crash = crashRestart(CrashAt, RestartAt);
  LoopOpts.Recorder = &Recorder;
  ExecResult Loop = runCheckingRegistry(*CP, LoopOpts);
  ASSERT_TRUE(Loop.OK) << Loop.Error;

  // Correctness first: the crash must be invisible in the outputs.
  EXPECT_EQ(Loop.Outputs, Local.Outputs);

  // The full lifecycle fired exactly once: crash, rollback, ledger
  // restore, restart, probe, re-offload.
  EXPECT_EQ(Loop.Crashes, 1u);
  EXPECT_EQ(Loop.Restarts, 1u);
  EXPECT_EQ(Loop.CrashRecoveries, 1u);
  EXPECT_GE(Loop.LedgerRestores, 1u);
  EXPECT_GE(Loop.LedgerSyncs, 1u);
  EXPECT_GT(Loop.LedgerSyncBytes, 0u);
  EXPECT_GE(Loop.Probes, 1u);
  EXPECT_EQ(Loop.Reoffloads, 1u);

  // The run must end back on the server, not in a permanent degrade.
  EXPECT_FALSE(Loop.Degraded);
  EXPECT_NE(Loop.FinalChoice, KNone);
  ASSERT_GE(Loop.Redispatches.size(), 1u);

  // The whole point: cheaper than never offloading, and cheaper than
  // fail-fast (all work up to the crash wasted, full local rerun).
  EXPECT_LT(Loop.Time, Local.Time);
  EXPECT_LT(Loop.Time, CrashAt + Local.Time);

  // Recovery time landed in the accounting.
  EXPECT_FALSE(Loop.ProbeTime.isZero());
  EXPECT_FALSE(Loop.LedgerTime.isZero());

  // The timeline saw the same lifecycle the result reports.
  bool SawCrash = false, SawRestart = false, SawFallback = false,
       SawReoffload = false;
  for (const RunMark &M : Recorder.marks()) {
    SawCrash |= M.K == RunMark::Kind::Crash;
    SawRestart |= M.K == RunMark::Kind::Restart;
    SawFallback |= M.K == RunMark::Kind::Fallback;
    SawReoffload |= M.K == RunMark::Kind::Reoffload;
  }
  EXPECT_TRUE(SawCrash);
  EXPECT_TRUE(SawRestart);
  EXPECT_TRUE(SawFallback);
  EXPECT_TRUE(SawReoffload);
  std::string Timeline = timelineOf(*CP, Recorder);
  EXPECT_NE(Timeline.find("server-crash"), std::string::npos);
  EXPECT_NE(Timeline.find("server-restart"), std::string::npos);
  EXPECT_NE(Timeline.find("crash-fallback"), std::string::npos);
  EXPECT_NE(Timeline.find("re-offload"), std::string::npos);

  // The audit's recovery section agrees and survives to the JSON.
  obs::CostAuditReport Audit = obs::auditRun(*CP, Loop, kParams, &Recorder);
  EXPECT_TRUE(Audit.Valid);
  EXPECT_TRUE(Audit.recoveryActive());
  EXPECT_EQ(Audit.Counters.Crashes, 1u);
  EXPECT_EQ(Audit.Counters.Restarts, 1u);
  EXPECT_EQ(Audit.Counters.Reoffloads, 1u);
  EXPECT_EQ(Audit.Counters.LedgerSyncs, Loop.LedgerSyncs);
  std::string JSON = Audit.toJSON();
  EXPECT_NE(JSON.find("\"recovery\": {"), std::string::npos);
  EXPECT_NE(JSON.find("\"crashes\": 1"), std::string::npos);

  // Same schedule, same bytes: outputs, costs, timeline, audit.
  RuntimeRecorder ReplayRecorder;
  ExecOptions ReplayOpts = LoopOpts;
  ReplayOpts.Inputs = frameInputs();
  ReplayOpts.Recorder = &ReplayRecorder;
  ExecResult Replay = runProgram(*CP, ReplayOpts);
  ASSERT_TRUE(Replay.OK) << Replay.Error;
  EXPECT_EQ(Replay.Time, Loop.Time);
  EXPECT_EQ(Replay.Outputs, Loop.Outputs);
  EXPECT_EQ(Replay.Probes, Loop.Probes);
  EXPECT_EQ(Replay.LedgerSyncs, Loop.LedgerSyncs);
  EXPECT_EQ(timelineOf(*CP, ReplayRecorder), Timeline);
  EXPECT_EQ(obs::auditRun(*CP, Replay, kParams, &ReplayRecorder).toJSON(),
            JSON);
}

TEST(RecoveryTest, PermanentCrashExhaustsProbesAndDegrades) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;
  ASSERT_NE(Fast.ChoiceUsed, KNone);

  RuntimeRecorder Recorder;
  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Adapt = probingClosedLoop();
  LoopOpts.Adapt.ProbeBudget = 3;
  LoopOpts.Crash = crashAt(Fast.Time * Rational::fraction(7, 16));
  LoopOpts.Recorder = &Recorder;
  ExecResult Loop = runCheckingRegistry(*CP, LoopOpts);

  // The run completes on the client: every probe is lost against the
  // dead server, the budget drains, the fallback becomes permanent, and
  // no probe loop spins forever. It still beats fail-fast (all work up
  // to the crash wasted, full local rerun).
  ASSERT_TRUE(Loop.OK) << Loop.Error;
  EXPECT_LT(Loop.Time, Fast.Time * Rational::fraction(7, 16) + Local.Time);
  EXPECT_EQ(Loop.Outputs, Local.Outputs);
  EXPECT_EQ(Loop.Crashes, 1u);
  EXPECT_EQ(Loop.Restarts, 0u);
  EXPECT_EQ(Loop.Probes, 3u);
  EXPECT_EQ(Loop.ProbeFailures, 3u);
  EXPECT_EQ(Loop.Reoffloads, 0u);
  EXPECT_TRUE(Loop.Degraded);
  EXPECT_EQ(Loop.FinalChoice, KNone);

  bool SawExhausted = false;
  for (const RunMark &M : Recorder.marks())
    SawExhausted |= M.K == RunMark::Kind::Exhausted;
  EXPECT_TRUE(SawExhausted);
  EXPECT_NE(timelineOf(*CP, Recorder).find("probe-budget-exhausted"),
            std::string::npos);
}

TEST(RecoveryTest, ProbeBudgetZeroMakesEveryFallbackPermanent) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;

  // The PR-6 behavior as a degenerate configuration: with no probe
  // budget, a crash-with-restart still degrades permanently.
  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Adapt = probingClosedLoop();
  LoopOpts.Adapt.ProbeBudget = 0;
  const Rational CrashAt = Fast.Time * Rational::fraction(7, 16);
  LoopOpts.Crash = crashRestart(CrashAt, CrashAt + Rational(1));
  ExecResult Loop = runProgram(*CP, LoopOpts);
  ASSERT_TRUE(Loop.OK) << Loop.Error;
  EXPECT_EQ(Loop.Outputs, Local.Outputs);
  EXPECT_EQ(Loop.Crashes, 1u);
  EXPECT_EQ(Loop.Probes, 0u);
  EXPECT_EQ(Loop.Reoffloads, 0u);
  EXPECT_TRUE(Loop.Degraded);
}

TEST(RecoveryTest, CrashDuringTransferReplaysBitIdentical) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;

  // Find a data transfer in the fault-free schedule and kill the server
  // in the middle of its span: the message itself must fail, and the
  // rollback must not resurrect data from the dead process.
  RuntimeRecorder FastRecorder;
  ExecOptions FastOpts = baseOpts(ExecOptions::Placement::Dispatch);
  FastOpts.Recorder = &FastRecorder;
  ExecResult Fast = runProgram(*CP, FastOpts);
  ASSERT_TRUE(Fast.OK) << Fast.Error;
  const MessageRecord *Transfer = nullptr;
  for (const MessageRecord &M : FastRecorder.messages())
    if (M.K == MessageRecord::Kind::Transfer && M.Start < M.End &&
        M.Start > Fast.Time * Rational::fraction(1, 4))
      Transfer = &M;
  ASSERT_TRUE(Transfer != nullptr);
  const Rational CrashAt =
      (Transfer->Start + Transfer->End) * Rational::fraction(1, 2);

  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Adapt = probingClosedLoop();
  LoopOpts.Crash = crashRestart(CrashAt, CrashAt + Fast.Time *
                                             Rational::fraction(1, 64));
  RuntimeRecorder RecA;
  LoopOpts.Recorder = &RecA;
  ExecResult RunA = runProgram(*CP, LoopOpts);
  ASSERT_TRUE(RunA.OK) << RunA.Error;
  EXPECT_EQ(RunA.Outputs, Local.Outputs);
  EXPECT_EQ(RunA.Crashes, 1u);
  EXPECT_GE(RunA.CrashRecoveries, 1u);

  RuntimeRecorder RecB;
  ExecOptions ReplayOpts = LoopOpts;
  ReplayOpts.Inputs = frameInputs();
  ReplayOpts.Recorder = &RecB;
  ExecResult RunB = runProgram(*CP, ReplayOpts);
  ASSERT_TRUE(RunB.OK) << RunB.Error;
  EXPECT_EQ(RunB.Time, RunA.Time);
  EXPECT_EQ(RunB.Outputs, RunA.Outputs);
  EXPECT_EQ(timelineOf(*CP, RecB), timelineOf(*CP, RecA));
  EXPECT_EQ(obs::auditRun(*CP, RunB, kParams, &RecB).toJSON(),
            obs::auditRun(*CP, RunA, kParams, &RecA).toJSON());
}

TEST(RecoveryTest, CrashDuringBackoffReplaysBitIdentical) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;

  // A short disconnect window forces timeouts and backoff waits; find a
  // message that retried and kill the server inside its span, so the
  // crash lands while the runtime is mid-backoff on a lost attempt.
  FaultSpec Flaky;
  Flaky.DisconnectAt = 6;
  Flaky.DisconnectLength = 2;

  RuntimeRecorder ProbeRecorder;
  ExecOptions ProbeOpts = baseOpts(ExecOptions::Placement::Dispatch);
  ProbeOpts.Link = Flaky;
  ProbeOpts.Recorder = &ProbeRecorder;
  ExecResult ProbeRun = runProgram(*CP, ProbeOpts);
  ASSERT_TRUE(ProbeRun.OK) << ProbeRun.Error;
  const MessageRecord *Retried = nullptr;
  for (const MessageRecord &M : ProbeRecorder.messages())
    if (M.Retries > 0 && M.Start < M.End) {
      Retried = &M;
      break;
    }
  ASSERT_TRUE(Retried != nullptr);
  const Rational CrashAt =
      (Retried->Start + Retried->End) * Rational::fraction(1, 2);

  ExecOptions LoopOpts = baseOpts(ExecOptions::Placement::Dispatch);
  LoopOpts.Link = Flaky;
  LoopOpts.Adapt = probingClosedLoop();
  LoopOpts.Crash = crashRestart(CrashAt, CrashAt + ProbeRun.Time *
                                             Rational::fraction(1, 64));
  RuntimeRecorder RecA;
  LoopOpts.Recorder = &RecA;
  ExecResult RunA = runProgram(*CP, LoopOpts);
  ASSERT_TRUE(RunA.OK) << RunA.Error;
  EXPECT_EQ(RunA.Outputs, Local.Outputs);
  EXPECT_EQ(RunA.Crashes, 1u);

  RuntimeRecorder RecB;
  ExecOptions ReplayOpts = LoopOpts;
  ReplayOpts.Inputs = frameInputs();
  ReplayOpts.Recorder = &RecB;
  ExecResult RunB = runProgram(*CP, ReplayOpts);
  ASSERT_TRUE(RunB.OK) << RunB.Error;
  EXPECT_EQ(RunB.Time, RunA.Time);
  EXPECT_EQ(RunB.Outputs, RunA.Outputs);
  EXPECT_EQ(timelineOf(*CP, RecB), timelineOf(*CP, RecA));
  EXPECT_EQ(obs::auditRun(*CP, RunB, kParams, &RecB).toJSON(),
            obs::auditRun(*CP, RunA, kParams, &RecA).toJSON());
}

TEST(RecoveryTest, RegistryMatchesResultUnderDropsAndJitter) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;

  // Drops, jitter and a crash in one run move the message, fault and
  // recovery counters together.
  ExecOptions Opts = baseOpts(ExecOptions::Placement::Dispatch);
  Opts.Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Opts.Crash = crashRestart(Rational(900000), Rational(940000));
  Opts.Link.Seed = 3;
  Opts.Link.DropRate = 0.05;
  Opts.Link.JitterUnits = 4;
  ExecResult R = runCheckingRegistry(*CP, Opts);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.Outputs, Local.Outputs);
  EXPECT_GT(R.Timeouts, 0u);
  EXPECT_GT(R.JitterUnits, 0u);
  EXPECT_EQ(R.Crashes, 1u);
  EXPECT_GT(R.LedgerSyncs, 0u);
}

TEST(RecoveryTest, CrashUnderDriftStillRecoversAndReoffloads) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;

  // bench_recovery's crash_under_drift: the link has degraded 4x an
  // eighth of the way in when the crash of the restart scenario hits.
  const Rational CrashAt = Fast.Time * Rational::fraction(7, 16);
  DriftSchedule Degrade4x;
  DriftPhase P;
  P.At = Fast.Time * Rational::fraction(1, 8);
  P.CommScale = Rational(4);
  Degrade4x.Phases.push_back(P);
  ExecOptions Opts = baseOpts(ExecOptions::Placement::Dispatch);
  Opts.Crash =
      crashRestart(CrashAt, CrashAt + Fast.Time * Rational::fraction(1, 64));
  Opts.Drift = Degrade4x;

  ExecOptions Static = Opts;
  Static.OnLinkFailure = FaultPolicy::RetryOnly;
  EXPECT_FALSE(runProgram(*CP, Static).OK);

  Opts.Adapt = probingClosedLoop();
  ExecResult Loop = runCheckingRegistry(*CP, Opts);
  ASSERT_TRUE(Loop.OK) << Loop.Error;
  EXPECT_EQ(Loop.Outputs, Local.Outputs);
  EXPECT_EQ(Loop.Crashes, 1u);
  EXPECT_GE(Loop.Reoffloads, 1u);
  EXPECT_LT(Loop.Time, CrashAt + Local.Time);
}

TEST(RecoveryTest, ExplorerCrashRunTracesAndAuditsTheLifecycle) {
  // `offload_explorer ci_stateful.mc --params 16,32,1000 --run
  // --adapt=closed-loop --crash="at=900000,restart=940000" --trace=...
  // --audit=...`, where ci_stateful.mc is this file's pipeline: the
  // explorer runs the library's closed-loop defaults on empty input.
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecOptions LocalOpts = baseOpts(ExecOptions::Placement::AllClient);
  LocalOpts.Inputs.clear();
  ExecResult Local = runProgram(*CP, LocalOpts);
  ASSERT_TRUE(Local.OK) << Local.Error;

  RuntimeRecorder Recorder;
  ExecOptions Opts = baseOpts(ExecOptions::Placement::Dispatch);
  Opts.Inputs.clear();
  Opts.Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Opts.Crash = crashRestart(Rational(900000), Rational(940000));
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
  for (const char *Name : {"server-crash", "crash-fallback", "server-restart",
                           "probe", "ledger-sync", "re-offload"})
    EXPECT_NE(JSON.find(std::string("{\"name\": \"") + Name + "\""),
              std::string::npos)
        << "no " << Name << " event in the Chrome trace";

  obs::CostAuditReport Audit = obs::auditRun(*CP, R, kParams, &Recorder);
  EXPECT_TRUE(Audit.Valid) << Audit.Note;
  EXPECT_EQ(Audit.Counters.Crashes, 1u);
  EXPECT_EQ(Audit.Counters.Restarts, 1u);
  EXPECT_GE(Audit.Counters.LedgerRestores, 1u);
  EXPECT_GE(Audit.Counters.Probes, 1u);
  EXPECT_EQ(Audit.Counters.Reoffloads, 1u);
  EXPECT_GE(Audit.Counters.LedgerSyncs, 1u);
  EXPECT_GT(Audit.Counters.LedgerSyncBytes, 0u);
  EXPECT_NE(Audit.toJSON().find("\"recovery\": {"), std::string::npos);
}

TEST(RecoveryTest, StaticPolicyHasNoRecoveryPathFromACrash) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;

  ExecOptions StaticOpts = baseOpts(ExecOptions::Placement::Dispatch);
  StaticOpts.OnLinkFailure = FaultPolicy::RetryOnly;
  StaticOpts.Crash = crashAt(Fast.Time * Rational::fraction(1, 2));
  ExecResult Static = runProgram(*CP, StaticOpts);
  EXPECT_FALSE(Static.OK);
  EXPECT_EQ(Static.Failure, ExecResult::FailureKind::ServerCrash);
  EXPECT_NE(Static.Error.find("server crashed"), std::string::npos);
}

TEST(RecoveryTest, ReactPolicyDegradesPermanentlyButCorrectly) {
  auto CP = compiled();
  ASSERT_TRUE(CP != nullptr);
  ExecResult Local = runProgram(*CP, baseOpts(ExecOptions::Placement::AllClient));
  ASSERT_TRUE(Local.OK) << Local.Error;
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;

  // Without the closed loop there is no probing: the default
  // react-on-failure policy restores from the ledger and stays local,
  // even though the server comes back.
  const Rational CrashAt = Fast.Time * Rational::fraction(7, 16);
  ExecOptions ReactOpts = baseOpts(ExecOptions::Placement::Dispatch);
  ReactOpts.Crash = crashRestart(CrashAt, CrashAt + Rational(1));
  ExecResult React = runProgram(*CP, ReactOpts);
  ASSERT_TRUE(React.OK) << React.Error;
  EXPECT_EQ(React.Outputs, Local.Outputs);
  EXPECT_EQ(React.Crashes, 1u);
  EXPECT_GE(React.LedgerRestores, 1u);
  EXPECT_EQ(React.Probes, 0u);
  EXPECT_EQ(React.Reoffloads, 0u);
  EXPECT_TRUE(React.Degraded);
  EXPECT_EQ(React.FinalChoice, KNone);
}

// Two server-resident arrays updated in alternating phases. During a's
// phases its pin is load-bearing (server-authoritative, checkpoint
// depends on it) and can never be evicted; after the mid-run dump pulls
// a back to the client its pin goes slack, and b's phase -- over the
// one-pin byte budget -- must evict it. The final a phase then needs the
// pin again: a re-sync at full transfer price, counted as a re-fetch.
const char *kTwoArrayPipeline = R"MINIC(
param int x in [1, 64];
param int y in [1, 256];
param int z in [1, 4096];

int *a;
int *b;

void bump_a() {
  for (int i = 0; i < y; i++) {
    int acc = a[i];
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      acc = (acc * 5 + 7) & 65535;
    }
    a[i] = acc;
  }
}

void bump_b() {
  for (int i = 0; i < y; i++) {
    int acc = b[i];
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      acc = (acc * 3 + 1) & 65535;
    }
    b[i] = acc;
  }
}

void main() {
  a = malloc(y * 4);
  b = malloc(y * 4);
  for (int i = 0; i < y; i++) a[i] = io_read();
  for (int i = 0; i < y; i++) b[i] = io_read();
  for (int f = 0; f < x; f++) { bump_a(); io_write(f); }
  for (int i = 0; i < y; i++) io_write(a[i]);
  for (int f = 0; f < x; f++) { bump_b(); io_write(f); }
  for (int f = 0; f < x; f++) { bump_a(); io_write(f); }
  for (int i = 0; i < y; i++) io_write(b[i]);
  for (int i = 0; i < y; i++) io_write(a[i]);
}
)MINIC";

TEST(RecoveryTest, LedgerEvictsAndRefetchesUnderAByteBudget) {
  std::string Diags;
  std::shared_ptr<CompiledProgram> CP = compileForOffloading(
      kTwoArrayPipeline, CostModel::defaults(), {}, &Diags);
  ASSERT_TRUE(CP != nullptr) << Diags;

  const std::vector<int64_t> Params = {8, 32, 1000}; // x, y, z
  std::vector<int64_t> Inputs(2 * 32);
  for (size_t I = 0; I != Inputs.size(); ++I)
    Inputs[I] = static_cast<int64_t>((I * 11) % 199);

  ExecOptions LocalOpts;
  LocalOpts.Mode = ExecOptions::Placement::AllClient;
  LocalOpts.ParamValues = Params;
  LocalOpts.Inputs = Inputs;
  ExecResult Local = runProgram(*CP, LocalOpts);
  ASSERT_TRUE(Local.OK) << Local.Error;

  // Arm the ledger with a crash the run never reaches: maintenance is
  // driven by the schedule being armed, not by a crash occurring.
  ExecOptions Opts = LocalOpts;
  Opts.Mode = ExecOptions::Placement::Dispatch;
  Opts.Crash = crashAt(Rational(1000000000));
  Opts.LedgerBudgetBytes = 32 * 4; // exactly one pinned array
  ExecResult Tight = runCheckingRegistry(*CP, Opts);
  ASSERT_TRUE(Tight.OK) << Tight.Error;
  ASSERT_NE(Tight.ChoiceUsed, KNone);
  EXPECT_EQ(Tight.Outputs, Local.Outputs);
  EXPECT_EQ(Tight.Crashes, 0u);
  EXPECT_GT(Tight.LedgerSyncs, 0u);
  EXPECT_GT(Tight.LedgerEvictions, 0u);
  EXPECT_GT(Tight.LedgerRefetches, 0u);
  EXPECT_GT(Tight.LedgerPeakBytes, 0u);

  // A budget that fits both arrays never evicts, never re-fetches, and
  // moves strictly fewer ledger bytes.
  ExecOptions RoomyOpts = Opts;
  RoomyOpts.LedgerBudgetBytes = 1ull << 20;
  ExecResult Roomy = runProgram(*CP, RoomyOpts);
  ASSERT_TRUE(Roomy.OK) << Roomy.Error;
  EXPECT_EQ(Roomy.Outputs, Local.Outputs);
  EXPECT_EQ(Roomy.LedgerEvictions, 0u);
  EXPECT_EQ(Roomy.LedgerRefetches, 0u);
  EXPECT_LE(Roomy.LedgerSyncBytes, Tight.LedgerSyncBytes);
  EXPECT_GE(Roomy.LedgerPeakBytes, Tight.LedgerPeakBytes);
}

} // namespace
