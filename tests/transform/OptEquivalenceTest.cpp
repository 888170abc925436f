//===- tests/transform/OptEquivalenceTest.cpp -----------------------------===//
//
// The IR pass pipeline must be observationally neutral on every paper
// program: interpreter outputs (local and dispatched), task counts and
// the Table-4 optimal cut costs are bit-identical whether the pipeline
// ran or not. The one intended difference is susan's region discovery,
// which the CostSimplify merge flips from sampled (Approximate) to exact
// certified regions.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <map>

using namespace paco;
using namespace paco::programs;

namespace {

/// Compiles one benchmark with the pass pipeline on or off, once per
/// process (the two susan analyses dominate this suite's runtime).
std::shared_ptr<CompiledProgram> compileBench(const std::string &Name,
                                              bool Optimize) {
  static std::map<std::string, std::shared_ptr<CompiledProgram>> Cache;
  std::string Key = Name + (Optimize ? "+opt" : "-opt");
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  const BenchProgram &Prog = programByName(Name);
  PassOptions Passes;
  Passes.Enabled = Optimize;
  std::string Diags;
  std::shared_ptr<CompiledProgram> CP =
      compileForOffloading(Prog.Source, CostModel::defaults(), {}, &Diags,
                           InlineOptions(), Passes);
  EXPECT_TRUE(CP != nullptr) << Key << ":\n" << Diags;
  Cache.emplace(std::move(Key), CP);
  return CP;
}

struct Case {
  const char *Name;
  std::vector<int64_t> Params;
  std::vector<int64_t> Inputs;
};

std::vector<Case> testCases() {
  return {
      {"rawcaudio", {256}, makeAudioSamples(256, 3)},
      {"rawdaudio", {256}, makeBytes(129, 4)},
      {"encode", {0, 1, 0, 0, 2, 48}, makeAudioSamples(96, 5)},
      {"decode", {1, 0, 1, 0, 2, 48}, makeBytes(96, 6)},
      {"fft", {2, 32, 5, 0}, {8, 40, 12, 71}},
      {"susan", {1, 1, 1, 24, 20, 1, 15, 20, 7, 1, 3, 1},
       makeImage(24, 20, 8)},
  };
}

ExecResult runBench(const CompiledProgram &CP, const Case &C,
                    ExecOptions::Placement Mode) {
  ExecOptions Opts;
  Opts.Mode = Mode;
  Opts.ParamValues = C.Params;
  Opts.Inputs = C.Inputs;
  ExecResult R = runProgram(CP, Opts);
  EXPECT_TRUE(R.OK) << R.Error;
  return R;
}

/// The Table-4 quantity: the optimal (minimum) cut cost over all
/// partitioning choices at the given declared parameter values.
Rational optimalCost(const CompiledProgram &CP,
                     const std::vector<int64_t> &Params) {
  std::vector<Rational> Point = CP.parameterPoint(Params);
  Rational Best;
  bool First = true;
  for (const PartitionChoice &Choice : CP.Partition.Choices) {
    Rational Cost = Choice.CostExpr.evaluate(Point);
    if (First || Cost < Best) {
      Best = Cost;
      First = false;
    }
  }
  EXPECT_FALSE(First);
  return Best;
}

/// A few extra parameter points per program: the test-case point, the
/// box corners, and a mid point.
std::vector<std::vector<int64_t>>
samplePoints(const CompiledProgram &CP, const Case &C) {
  std::vector<std::vector<int64_t>> Points = {C.Params};
  size_t N = CP.AST->RuntimeParams.size();
  std::vector<int64_t> Lo(N), Hi(N), Mid(N);
  for (unsigned I = 0; I != N; ++I) {
    Lo[I] = CP.Space.lower(I).toInt64();
    Hi[I] = CP.Space.upper(I).toInt64();
    Mid[I] = (Lo[I] + Hi[I]) / 2;
  }
  Points.push_back(Lo);
  Points.push_back(Hi);
  Points.push_back(Mid);
  return Points;
}

} // namespace

TEST(OptEquivalenceTest, InterpreterOutputsBitIdentical) {
  for (const Case &C : testCases()) {
    auto On = compileBench(C.Name, true);
    auto Off = compileBench(C.Name, false);
    ASSERT_TRUE(On && Off) << C.Name;
    for (ExecOptions::Placement Mode : {ExecOptions::Placement::AllClient,
                                        ExecOptions::Placement::Dispatch}) {
      ExecResult ROn = runBench(*On, C, Mode);
      ExecResult ROff = runBench(*Off, C, Mode);
      EXPECT_EQ(ROn.Outputs, ROff.Outputs) << C.Name;
      // Cost-weight folding keeps the simulated workloads exact, so the
      // simulated clocks agree too, not just the values computed.
      EXPECT_EQ(ROn.Time, ROff.Time) << C.Name;
      EXPECT_EQ(ROn.ClientInstrs, ROff.ClientInstrs) << C.Name;
      EXPECT_EQ(ROn.ServerInstrs, ROff.ServerInstrs) << C.Name;
    }
  }
}

TEST(OptEquivalenceTest, TaskStructureUnchanged) {
  for (const Case &C : testCases()) {
    auto On = compileBench(C.Name, true);
    auto Off = compileBench(C.Name, false);
    ASSERT_TRUE(On && Off) << C.Name;
    EXPECT_EQ(On->numRealTasks(), Off->numRealTasks()) << C.Name;
    EXPECT_EQ(On->Graph.Tasks.size(), Off->Graph.Tasks.size()) << C.Name;
  }
}

TEST(OptEquivalenceTest, OptimalCutCostsBitIdentical) {
  for (const Case &C : testCases()) {
    auto On = compileBench(C.Name, true);
    auto Off = compileBench(C.Name, false);
    ASSERT_TRUE(On && Off) << C.Name;
    for (const std::vector<int64_t> &P : samplePoints(*On, C))
      EXPECT_EQ(optimalCost(*On, P), optimalCost(*Off, P)) << C.Name;
  }
}

TEST(OptEquivalenceTest, SusanFlipsToExactRegions) {
  auto On = compileBench("susan", true);
  auto Off = compileBench("susan", false);
  ASSERT_TRUE(On && Off);
  // Without the CostSimplify merge the widest flag slices exceed
  // MaxExactDims and region discovery samples (the former known
  // deviation from the paper's Table 4).
  EXPECT_TRUE(Off->Partition.Approximate);
  // With the merge every slice is within the exact solver's reach.
  EXPECT_FALSE(On->Partition.Approximate);
  EXPECT_FALSE(On->Partition.VertexLimitHit);
  EXPECT_GT(On->Partition.Choices.size(), 1u);
  // The merge is the pass that did it, and it shrank the cost terms.
  EXPECT_GT(On->OptStats.MergedDims, 0u);
  EXPECT_GT(On->OptStats.MonomialsMerged, 0u);
  EXPECT_LT(On->OptStats.CostTermsAfter, On->OptStats.CostTermsBefore);
}

TEST(OptEquivalenceTest, OtherProgramsKeepExactness) {
  for (const Case &C : testCases()) {
    if (std::string(C.Name) == "susan")
      continue;
    auto On = compileBench(C.Name, true);
    auto Off = compileBench(C.Name, false);
    ASSERT_TRUE(On && Off) << C.Name;
    EXPECT_EQ(On->Partition.Approximate, Off->Partition.Approximate)
        << C.Name;
  }
}

TEST(OptEquivalenceTest, DisabledPipelineReportsUntouchedSizes) {
  for (const Case &C : testCases()) {
    auto Off = compileBench(C.Name, false);
    ASSERT_TRUE(Off) << C.Name;
    EXPECT_EQ(Off->OptStats.InstrsBefore, Off->OptStats.InstrsAfter)
        << C.Name;
    EXPECT_EQ(Off->OptStats.CostTermsBefore, Off->OptStats.CostTermsAfter)
        << C.Name;
    EXPECT_EQ(Off->OptStats.FixpointIterations, 0u) << C.Name;
    EXPECT_GE(Off->Partition.Choices.size(), 1u) << C.Name;
    auto On = compileBench(C.Name, true);
    ASSERT_TRUE(On) << C.Name;
    EXPECT_LE(On->OptStats.InstrsAfter, On->OptStats.InstrsBefore) << C.Name;
    EXPECT_GT(On->OptStats.FixpointIterations, 0u) << C.Name;
    EXPECT_GE(On->Partition.Choices.size(), 1u) << C.Name;
  }
}
