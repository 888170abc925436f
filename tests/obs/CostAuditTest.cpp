//===- tests/obs/CostAuditTest.cpp - Predicted-vs-actual audit tests ------===//

#include "obs/CostAudit.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace paco;
using namespace paco::obs;

namespace {

/// The Figure-1 shape from the paper: an input stage, a heavy kernel
/// chain worth offloading, an output stage. Constant trip counts per
/// parameter value and branch-free loop bodies, so the symbolic
/// computation estimate is an exact instruction count.
const char *PipelineSource =
    "param int n in [16, 256];\n"
    "int input[256];\n"
    "int mid[256];\n"
    "int result[256];\n"
    "void stage1() { for (int i = 0; i < n; i++) {\n"
    "  mid[i] = input[i] * 3 + 1; } }\n"
    "void heavy() { for (int i = 0; i < n; i++) {\n"
    "  int s = mid[i];\n"
    "  for (int j = 0; j < n; j++) {\n"
    "    s = s * 5 + (s >> 1);\n"
    "    s = s ^ (s << 2) + j;\n"
    "  }\n"
    "  mid[i] = s; } }\n"
    "void stage2() { for (int i = 0; i < n; i++) {\n"
    "  result[i] = mid[i] + input[i]; } }\n"
    "void main() {\n"
    "  for (int i = 0; i < n; i++) { input[i] = io_read(); }\n"
    "  stage1(); heavy(); stage2();\n"
    "  for (int i = 0; i < n; i++) { io_write(result[i]); } }\n";

std::unique_ptr<CompiledProgram> compilePipeline() {
  std::string Diags;
  InlineOptions NoInline;
  NoInline.Enabled = false;
  auto CP = compileForOffloading(PipelineSource, CostModel::defaults(), {},
                                 &Diags, NoInline);
  EXPECT_TRUE(CP != nullptr) << Diags;
  return CP;
}

/// First choice that puts at least one task on the server.
unsigned serverChoice(const CompiledProgram &CP) {
  for (unsigned C = 0; C != CP.Partition.Choices.size(); ++C)
    for (bool OnServer : CP.Partition.Choices[C].TaskOnServer)
      if (OnServer)
        return C;
  return KNone;
}

ExecResult runForced(const CompiledProgram &CP, int64_t N, unsigned Choice,
                     RuntimeRecorder *Rec) {
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Forced;
  Opts.ForcedChoice = Choice;
  Opts.ParamValues = {N};
  for (int64_t I = 0; I != N; ++I)
    Opts.Inputs.push_back((I * 37 + 11) % 256);
  Opts.Recorder = Rec;
  ExecResult R = runProgram(CP, Opts);
  EXPECT_TRUE(R.OK) << R.Error;
  return R;
}

TEST(CostAuditTest, ForcedOffloadOnNoiselessLinkIsExact) {
  auto CP = compilePipeline();
  ASSERT_TRUE(CP);
  unsigned Choice = serverChoice(*CP);
  ASSERT_NE(Choice, KNone) << "no partitioning offloads anything";

  const int64_t N = 64;
  RuntimeRecorder Rec;
  ExecResult Run = runForced(*CP, N, Choice, &Rec);

  CostAuditReport Report = auditRun(*CP, Run, {N}, &Rec);
  EXPECT_TRUE(Report.Valid) << Report.Note;
  EXPECT_EQ(Report.Choice, Choice);
  EXPECT_FALSE(Report.Degraded);

  // The component decomposition must reproduce the chosen region's cut
  // value -- a mismatch is an analysis bug, not a modeling error.
  EXPECT_TRUE(Report.CutMatchesComponents)
      << "cut " << Report.CutValue.toString() << " vs components "
      << Report.Total.Predicted.toString();

  // On a zero-noise link every component the model prices is exact
  // (Rational equality): the program has constant trip counts and
  // branch-free bodies, so even the computation estimate is exact.
  EXPECT_TRUE(Report.ClientCompute.exact())
      << Report.ClientCompute.Predicted.toString() << " vs "
      << Report.ClientCompute.Actual.toString();
  EXPECT_TRUE(Report.ServerCompute.exact())
      << Report.ServerCompute.Predicted.toString() << " vs "
      << Report.ServerCompute.Actual.toString();
  EXPECT_TRUE(Report.Scheduling.exact());
  EXPECT_TRUE(Report.Communication.exact());
  EXPECT_TRUE(Report.Registration.exact());
  EXPECT_TRUE(Report.Total.exact());
  EXPECT_TRUE(Report.Counters.FaultTime.isZero());
  EXPECT_EQ(Report.Total.relErrorPct(), 0.0);
  EXPECT_TRUE(Report.worstOffenders(5).empty());

  // Per-message rows exist (the recorder was attached) and are exact.
  EXPECT_FALSE(Report.Messages.empty());
  for (const AuditEntry &M : Report.Messages)
    EXPECT_TRUE(M.exact()) << M.What << ": " << M.Predicted.toString()
                           << " vs " << M.Actual.toString();

  // The report renders as both JSON and text.
  std::string JSON = Report.toJSON();
  EXPECT_NE(JSON.find("\"cut_matches_components\": true"), std::string::npos);
  EXPECT_NE(JSON.find("\"total\""), std::string::npos);
  EXPECT_NE(Report.toText().find("total"), std::string::npos);
}

TEST(CostAuditTest, TimelinePartitionsElapsedTimeExactly) {
  auto CP = compilePipeline();
  ASSERT_TRUE(CP);
  unsigned Choice = serverChoice(*CP);
  ASSERT_NE(Choice, KNone);

  const int64_t N = 32;
  RuntimeRecorder Rec;
  ExecResult Run = runForced(*CP, N, Choice, &Rec);

  // Segments and messages partition the run: their durations sum to the
  // elapsed time exactly (Rational arithmetic, no tolerance).
  Rational Covered =
      Rec.clientUnits() + Rec.serverUnits() + Rec.channelUnits();
  EXPECT_TRUE(Covered == Run.Time)
      << Covered.toString() << " vs " << Run.Time.toString();
  EXPECT_FALSE(Rec.segments().empty());
  EXPECT_FALSE(Rec.messages().empty());

  // The rendered timeline is deterministic across identical runs.
  std::vector<std::string> TaskLabels;
  for (const TCFG::Task &T : CP->Graph.Tasks)
    TaskLabels.push_back(T.Label);
  std::vector<std::string> DataLabels;
  for (unsigned D = 0; D != CP->Memory->numLocs(); ++D)
    DataLabels.push_back(CP->Memory->loc(D).Name);
  std::string First = Rec.renderTimeline(TaskLabels, DataLabels);

  RuntimeRecorder Rec2;
  runForced(*CP, N, Choice, &Rec2);
  EXPECT_EQ(First, Rec2.renderTimeline(TaskLabels, DataLabels));
}

TEST(CostAuditTest, AllClientRunAuditsAsBaseline) {
  auto CP = compilePipeline();
  ASSERT_TRUE(CP);
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::AllClient;
  Opts.ParamValues = {16};
  for (int64_t I = 0; I != 16; ++I)
    Opts.Inputs.push_back(I);
  ExecResult Run = runProgram(*CP, Opts);
  ASSERT_TRUE(Run.OK) << Run.Error;

  CostAuditReport Report = auditRun(*CP, Run, {16});
  EXPECT_TRUE(Report.Valid);
  EXPECT_EQ(Report.Choice, KNone);
  EXPECT_FALSE(Report.Note.empty());
  // Local run: no messages, so every non-compute component is zero on
  // both sides, and the client compute is the whole elapsed time.
  EXPECT_TRUE(Report.Scheduling.exact());
  EXPECT_TRUE(Report.Communication.exact());
  EXPECT_TRUE(Report.Registration.exact());
  EXPECT_TRUE(Report.Scheduling.Actual.isZero());
  EXPECT_TRUE(Report.ClientCompute.Actual == Run.Time);
  EXPECT_TRUE(Report.Total.exact());
  // No recorder: no per-message rows.
  EXPECT_TRUE(Report.Messages.empty());
}

TEST(CostAuditTest, DispatchedFftRunMatchesThePrediction) {
  // The paper's Figure-13 check on a shipped program: fft dispatched at
  // (4, 256, 8, 0) on a noiseless link. Every message component the
  // model prices is exact; only the computation estimate may drift.
  std::string Diags;
  auto CP = compileForOffloading(programs::programByName("fft").Source,
                                 CostModel::defaults(), {}, &Diags);
  ASSERT_TRUE(CP) << Diags;
  const std::vector<int64_t> Params = {4, 256, 8, 0};
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Dispatch;
  Opts.ParamValues = Params;
  RuntimeRecorder Rec;
  Opts.Recorder = &Rec;
  ExecResult Run = runProgram(*CP, Opts);
  ASSERT_TRUE(Run.OK) << Run.Error;

  CostAuditReport Report = auditRun(*CP, Run, Params, &Rec);
  EXPECT_TRUE(Report.Valid) << Report.Note;
  EXPECT_NE(Report.Choice, KNone) << "the dispatch offloads nothing";
  EXPECT_TRUE(Report.CutMatchesComponents)
      << "cut " << Report.CutValue.toString() << " vs components "
      << Report.Total.Predicted.toString();
  EXPECT_TRUE(Report.Scheduling.exact());
  EXPECT_TRUE(Report.Communication.exact());
  EXPECT_TRUE(Report.Registration.exact());
  EXPECT_LE(Report.Total.relErrorPct(), 1.0);
}

TEST(CostAuditTest, FailedRunIsInvalid) {
  auto CP = compilePipeline();
  ASSERT_TRUE(CP);
  ExecResult Failed;
  Failed.OK = false;
  Failed.Error = "synthetic failure";
  CostAuditReport Report = auditRun(*CP, Failed, {16});
  EXPECT_FALSE(Report.Valid);
  EXPECT_NE(Report.Note.find("synthetic failure"), std::string::npos);
}

} // namespace
