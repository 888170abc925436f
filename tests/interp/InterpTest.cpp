//===- tests/interp/InterpTest.cpp - Interpreter + runtime tests ----------===//

#include "interp/Interp.h"

#include <gtest/gtest.h>

using namespace paco;

namespace {

std::unique_ptr<CompiledProgram> compileOk(const std::string &Source) {
  std::string Diags;
  auto CP = compileForOffloading(Source, CostModel::defaults(), {}, &Diags);
  EXPECT_TRUE(CP != nullptr) << Diags;
  return CP;
}

ExecResult runClient(const CompiledProgram &CP,
                     std::vector<int64_t> Params = {},
                     std::vector<int64_t> Inputs = {}) {
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::AllClient;
  Opts.ParamValues = std::move(Params);
  Opts.Inputs = std::move(Inputs);
  ExecResult R = runProgram(CP, Opts);
  EXPECT_TRUE(R.OK) << R.Error;
  return R;
}

TEST(InterpTest, WritesConstant) {
  auto CP = compileOk("void main() { io_write(42); }");
  ExecResult R = runClient(*CP);
  ASSERT_EQ(R.Outputs.size(), 1u);
  EXPECT_EQ(R.Outputs[0], 42.0);
}

TEST(InterpTest, ArithmeticAndPrecedence) {
  auto CP = compileOk("void main() {\n"
                      "  io_write(2 + 3 * 4);\n"
                      "  io_write((2 + 3) * 4);\n"
                      "  io_write(7 / 2);\n"
                      "  io_write(7 % 3);\n"
                      "  io_write(-5 + 1);\n"
                      "  io_write(1 << 4);\n"
                      "  io_write(255 >> 4);\n"
                      "  io_write(12 & 10);\n"
                      "  io_write(12 | 3);\n"
                      "  io_write(12 ^ 10);\n"
                      "  io_write(~0 & 15);\n"
                      "}\n");
  ExecResult R = runClient(*CP);
  std::vector<double> Expected = {14, 20, 3, 1, -4, 16, 15, 8, 15, 6, 15};
  EXPECT_EQ(R.Outputs, Expected);
}

TEST(InterpTest, ComparisonsAndLogic) {
  auto CP = compileOk("void main() {\n"
                      "  io_write(3 < 4);\n"
                      "  io_write(4 <= 4);\n"
                      "  io_write(5 > 6);\n"
                      "  io_write(5 >= 6);\n"
                      "  io_write(7 == 7);\n"
                      "  io_write(7 != 7);\n"
                      "  io_write(1 && 0);\n"
                      "  io_write(1 || 0);\n"
                      "  io_write(!3);\n"
                      "  io_write(1 < 2 ? 10 : 20);\n"
                      "}\n");
  ExecResult R = runClient(*CP);
  std::vector<double> Expected = {1, 1, 0, 0, 1, 0, 0, 1, 0, 10};
  EXPECT_EQ(R.Outputs, Expected);
}

TEST(InterpTest, ShortCircuitSkipsSideEffects) {
  auto CP = compileOk("int count = 0;\n"
                      "int bump() { count = count + 1; return 1; }\n"
                      "void main() {\n"
                      "  int a = 0 && bump();\n"
                      "  int b = 1 || bump();\n"
                      "  io_write(count);\n"
                      "  int c = 1 && bump();\n"
                      "  io_write(count);\n"
                      "}\n");
  ExecResult R = runClient(*CP);
  std::vector<double> Expected = {0, 1};
  EXPECT_EQ(R.Outputs, Expected);
}

TEST(InterpTest, LoopsAndBreakContinue) {
  auto CP = compileOk("void main() {\n"
                      "  int s = 0;\n"
                      "  for (int i = 0; i < 10; i++) {\n"
                      "    if (i == 3) continue;\n"
                      "    if (i == 7) break;\n"
                      "    s += i;\n"
                      "  }\n"
                      "  io_write(s);\n" // 0+1+2+4+5+6 = 18
                      "  int j = 5; int p = 1;\n"
                      "  while (j > 0) { p *= j; j--; }\n"
                      "  io_write(p);\n" // 120
                      "}\n");
  ExecResult R = runClient(*CP);
  std::vector<double> Expected = {18, 120};
  EXPECT_EQ(R.Outputs, Expected);
}

TEST(InterpTest, FunctionsAndRecursionFreeCalls) {
  auto CP = compileOk("int square(int v) { return v * v; }\n"
                      "int add3(int a, int b, int c) { return a + b + c; }\n"
                      "void main() { io_write(add3(square(2), square(3), 1)); }");
  ExecResult R = runClient(*CP);
  ASSERT_EQ(R.Outputs.size(), 1u);
  EXPECT_EQ(R.Outputs[0], 14.0);
}

TEST(InterpTest, GlobalsArraysPointers) {
  auto CP = compileOk("int table[5] = {10, 20, 30, 40, 50};\n"
                      "int cursor;\n"
                      "void main() {\n"
                      "  int *p = table;\n"
                      "  p = p + 2;\n"
                      "  io_write(*p);\n"       // 30
                      "  *p = 31;\n"
                      "  io_write(table[2]);\n" // 31
                      "  cursor = 4;\n"
                      "  io_write(p[-1] + table[cursor]);\n" // 20 + 50
                      "}\n");
  ExecResult R = runClient(*CP);
  std::vector<double> Expected = {30, 31, 70};
  EXPECT_EQ(R.Outputs, Expected);
}

TEST(InterpTest, AddrOfScalar) {
  auto CP = compileOk("void bump(int *p) { *p = *p + 1; }\n"
                      "void main() { int v = 9; bump(&v); io_write(v); }");
  ExecResult R = runClient(*CP);
  EXPECT_EQ(R.Outputs[0], 10.0);
}

TEST(InterpTest, MallocAndIoBuffers) {
  auto CP = compileOk("param int n in [1, 64];\n"
                      "void main() {\n"
                      "  int *buf = malloc(n);\n"
                      "  io_read_buf(buf, n);\n"
                      "  int s = 0;\n"
                      "  for (int i = 0; i < n; i++) s += buf[i];\n"
                      "  io_write(s);\n"
                      "  io_write_buf(buf, 2);\n"
                      "}\n");
  ExecResult R = runClient(*CP, {4}, {5, 6, 7, 8});
  std::vector<double> Expected = {26, 5, 6};
  EXPECT_EQ(R.Outputs, Expected);
}

TEST(InterpTest, DoubleArithmetic) {
  auto CP = compileOk("double scale = 1.5;\n"
                      "void main() {\n"
                      "  double d = 2;\n"
                      "  d = d * scale + 0.25;\n"
                      "  io_write(d);\n"
                      "  int i = d;\n" // trunc 3.25 -> 3
                      "  io_write(i);\n"
                      "  io_write(d > 3.0);\n"
                      "}\n");
  ExecResult R = runClient(*CP);
  ASSERT_EQ(R.Outputs.size(), 3u);
  EXPECT_DOUBLE_EQ(R.Outputs[0], 3.25);
  EXPECT_EQ(R.Outputs[1], 3.0);
  EXPECT_EQ(R.Outputs[2], 1.0);
}

TEST(InterpTest, FuncValueDispatch) {
  auto CP = compileOk("int mode;\n"
                      "int acc;\n"
                      "void enc_a() { acc = acc + 1; }\n"
                      "void enc_b() { acc = acc + 100; }\n"
                      "func g;\n"
                      "void main() {\n"
                      "  mode = io_read();\n"
                      "  g = enc_a;\n"
                      "  if (mode) g = enc_b;\n"
                      "  g(); g();\n"
                      "  io_write(acc);\n"
                      "}\n");
  EXPECT_EQ(runClient(*CP, {}, {0}).Outputs[0], 2.0);
  EXPECT_EQ(runClient(*CP, {}, {1}).Outputs[0], 200.0);
}

TEST(InterpTest, ParamsReadable) {
  auto CP = compileOk("param int n in [1, 100];\n"
                      "param int m in [0, 9];\n"
                      "void main() { io_write(n * 10 + m); }");
  ExecResult R = runClient(*CP, {7, 3});
  EXPECT_EQ(R.Outputs[0], 73.0);
}

TEST(InterpTest, DivisionByZeroFails) {
  auto CP = compileOk("void main() { int z = io_read(); io_write(5 / z); }");
  ExecOptions Opts;
  Opts.Inputs = {0};
  ExecResult R = runProgram(*CP, Opts);
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("division"), std::string::npos);
}

TEST(InterpTest, IntegerOverflowWrapsLikeUint64) {
  // Operands come from the input so constant folding cannot see them; the
  // program compares each result with the expected one itself, since
  // io_write rounds a large int to a double.
  auto CP = compileOk("void main() {\n"
                      "  int a = io_read(); int b = io_read();\n"
                      "  int c = io_read();\n"
                      "  io_write(a * b == c);\n"
                      "  io_write((a * b) & 65535);\n"
                      "}\n");
  auto wrapped = [](int64_t A, int64_t B) {
    return static_cast<int64_t>(static_cast<uint64_t>(A) *
                                static_cast<uint64_t>(B));
  };
  for (auto [A, B] : {std::pair<int64_t, int64_t>{5623740275504626306, 5},
                      {INT64_MIN, -1},
                      {INT64_MAX, INT64_MAX},
                      {-3037000500, 3037000500}}) {
    int64_t Want = wrapped(A, B);
    ExecResult R = runClient(*CP, {}, {A, B, Want});
    EXPECT_EQ(R.Outputs, (std::vector<double>{1, double(Want & 65535)}))
        << A << " * " << B;
  }
  auto Edges = compileOk("void main() {\n"
                         "  int m = io_read(); int x = io_read();\n"
                         "  io_write(-m == m);\n"
                         "  io_write(x + 1 == m);\n"
                         "  io_write(m - 1 == x);\n"
                         "}\n");
  ExecResult R = runClient(*Edges, {}, {INT64_MIN, INT64_MAX});
  EXPECT_EQ(R.Outputs, (std::vector<double>{1, 1, 1}));
}

TEST(InterpTest, DivisionOverflowFailsTheRun) {
  // INT64_MIN / -1 has no int64 quotient; like a zero divisor it is a run
  // failure with a one-line diagnostic, never a host trap.
  for (std::string Op : {"/", "%"}) {
    auto CP = compileOk("void main() { int a = io_read(); int b = io_read();"
                        " io_write(a " + Op + " b); }");
    ExecOptions Opts;
    Opts.Inputs = {INT64_MIN, -1};
    ExecResult R = runProgram(*CP, Opts);
    EXPECT_FALSE(R.OK);
    EXPECT_EQ(R.Failure, ExecResult::FailureKind::BadInput);
    EXPECT_EQ(R.Error.find('\n'), std::string::npos);
    EXPECT_NE(R.Error.find(Op == "/" ? "integer division overflow"
                                     : "integer remainder overflow"),
              std::string::npos)
        << R.Error;
    // Any other divisor by -1 is fine.
    Opts.Inputs = {INT64_MIN + 1, -1};
    R = runProgram(*CP, Opts);
    ASSERT_TRUE(R.OK) << R.Error;
    EXPECT_EQ(R.Outputs[0], Op == "/" ? double(INT64_MAX) : 0.0);
  }
}

TEST(InterpTest, OutOfBoundsFails) {
  auto CP = compileOk("int t[2];\n"
                      "void main() { int i = io_read(); t[i] = 1; }");
  ExecOptions Opts;
  Opts.Inputs = {5};
  ExecResult R = runProgram(*CP, Opts);
  EXPECT_FALSE(R.OK);
}

TEST(InterpTest, InstructionBudgetGuards) {
  auto CP = compileOk("void main() { int i = 0;\n"
                      "  @trip(1) while (1) { i++; } }");
  ExecOptions Opts;
  Opts.MaxInstructions = 1000;
  ExecResult R = runProgram(*CP, Opts);
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Distributed execution
//===----------------------------------------------------------------------===//

/// A Figure-1 style pipeline: read a frame, encode it with a heavy
/// kernel, write it out; parameters control frames, buffer size, work.
const char *kPipelineSource = R"(
param int x in [1, 16];
param int y in [1, 32];
param int z in [1, 4096];

int inbuf[32];
int outbuf[32];

void encode() {
  for (int i = 0; i < y; i++) {
    int acc = inbuf[i];
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      acc = acc * 3 + 1;
    }
    outbuf[i] = acc & 255;
  }
}

void main() {
  for (int j = 0; j < x; j++) {
    for (int i = 0; i < y; i++) inbuf[i] = io_read();
    encode();
    for (int i = 0; i < y; i++) io_write(outbuf[i]);
  }
}
)";

TEST(InterpTest, DistributedMatchesLocalOutputs) {
  auto CP = compileOk(kPipelineSource);
  ASSERT_GE(CP->Partition.Choices.size(), 1u);
  std::vector<int64_t> Inputs;
  for (int I = 0; I != 512; ++I)
    Inputs.push_back((I * 37 + 11) & 127);

  std::vector<int64_t> Params = {4, 8, 600};
  ExecResult Local = runClient(*CP, Params, Inputs);
  ASSERT_FALSE(Local.Outputs.empty());

  for (unsigned C = 0; C != CP->Partition.Choices.size(); ++C) {
    ExecOptions Opts;
    Opts.Mode = ExecOptions::Placement::Forced;
    Opts.ForcedChoice = C;
    Opts.ParamValues = Params;
    Opts.Inputs = Inputs;
    ExecResult R = runProgram(*CP, Opts);
    ASSERT_TRUE(R.OK) << "choice " << C << ": " << R.Error;
    EXPECT_EQ(R.Outputs, Local.Outputs) << "choice " << C;
  }
}

TEST(InterpTest, DispatchPicksCheapestChoice) {
  auto CP = compileOk(kPipelineSource);
  std::vector<int64_t> Inputs(2048, 42);
  for (std::vector<int64_t> Params :
       {std::vector<int64_t>{2, 4, 1}, {2, 4, 2048}, {8, 32, 2048}, {8, 1, 2048}}) {
    ExecOptions Opts;
    Opts.Mode = ExecOptions::Placement::Dispatch;
    Opts.ParamValues = Params;
    Opts.Inputs = Inputs;
    ExecResult Picked = runProgram(*CP, Opts);
    ASSERT_TRUE(Picked.OK) << Picked.Error;
    // No forced choice may beat the dispatched one.
    for (unsigned C = 0; C != CP->Partition.Choices.size(); ++C) {
      Opts.Mode = ExecOptions::Placement::Forced;
      Opts.ForcedChoice = C;
      ExecResult Forced = runProgram(*CP, Opts);
      ASSERT_TRUE(Forced.OK) << Forced.Error;
      EXPECT_LE(Picked.Time.toDouble(), Forced.Time.toDouble() * 1.02)
          << "params " << Params[0] << "," << Params[1] << "," << Params[2]
          << " choice " << C;
      Opts.Mode = ExecOptions::Placement::Dispatch;
    }
  }
}

TEST(InterpTest, OffloadingMovesWorkToServer) {
  auto CP = compileOk(kPipelineSource);
  // Heavy compute: some choice should run the encoder on the server.
  std::vector<int64_t> Params = {4, 16, 4096};
  std::vector<int64_t> Inputs(1024, 3);
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Dispatch;
  Opts.ParamValues = Params;
  Opts.Inputs = Inputs;
  ExecResult R = runProgram(*CP, Opts);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_GT(R.ServerInstrs, 0u);
  EXPECT_GT(R.Migrations, 0u);
  EXPECT_GT(R.BytesToServer, 0u);
  EXPECT_GT(R.BytesToClient, 0u);
  // And it must be faster than running locally.
  ExecResult Local = runClient(*CP, Params, Inputs);
  EXPECT_LT(R.Time.toDouble(), Local.Time.toDouble());
}

TEST(InterpTest, EnergyTracksTime) {
  auto CP = compileOk(kPipelineSource);
  std::vector<int64_t> Inputs(1024, 3);
  ExecResult Small = runClient(*CP, {1, 4, 4}, Inputs);
  ExecResult Large = runClient(*CP, {8, 16, 128}, Inputs);
  EXPECT_GT(Large.EnergyJoules, Small.EnergyJoules);
  // All-client: energy is active current times elapsed time.
  EnergyModel E;
  double Expected =
      E.Volts * E.ActiveAmps * Large.Time.toDouble() * E.UnitSeconds;
  EXPECT_NEAR(Large.EnergyJoules, Expected, Expected * 1e-9);
}

//===----------------------------------------------------------------------===//
// Fault tolerance
//===----------------------------------------------------------------------===//

/// A forced partitioning choice that actually uses the server, so the
/// run sends messages a lossy link can eat. KNone if none exists.
unsigned offloadingChoice(const CompiledProgram &CP) {
  for (unsigned C = 0; C != CP.Partition.Choices.size(); ++C)
    for (bool OnServer : CP.Partition.Choices[C].TaskOnServer)
      if (OnServer)
        return C;
  return KNone;
}

TEST(InterpTest, LossyLinkKeepsOutputsBitIdentical) {
  auto CP = compileOk(kPipelineSource);
  unsigned Choice = offloadingChoice(*CP);
  ASSERT_NE(Choice, KNone);
  std::vector<int64_t> Inputs;
  for (int I = 0; I != 512; ++I)
    Inputs.push_back((I * 37 + 11) & 127);
  std::vector<int64_t> Params = {4, 8, 600};
  ExecResult Local = runClient(*CP, Params, Inputs);

  for (double DropRate : {0.0, 0.1, 0.5}) {
    ExecOptions Opts;
    Opts.Mode = ExecOptions::Placement::Forced;
    Opts.ForcedChoice = Choice;
    Opts.ParamValues = Params;
    Opts.Inputs = Inputs;
    Opts.Link.Seed = 1234;
    Opts.Link.DropRate = DropRate;
    Opts.OnLinkFailure = FaultPolicy::DegradeToLocal;
    ExecResult R = runProgram(*CP, Opts);
    ASSERT_TRUE(R.OK) << "drop " << DropRate << ": " << R.Error;
    EXPECT_EQ(R.Outputs, Local.Outputs) << "drop " << DropRate;
    if (DropRate == 0.0) {
      EXPECT_EQ(R.Timeouts, 0u);
      EXPECT_TRUE(R.FaultTime.isZero());
    } else {
      EXPECT_GT(R.Timeouts, 0u) << "drop " << DropRate;
      EXPECT_GT(R.FaultTime.toDouble(), 0.0);
    }
  }
}

TEST(InterpTest, DisconnectionDegradesToLocalExecution) {
  auto CP = compileOk(kPipelineSource);
  unsigned Choice = offloadingChoice(*CP);
  ASSERT_NE(Choice, KNone);
  std::vector<int64_t> Inputs;
  for (int I = 0; I != 512; ++I)
    Inputs.push_back((I * 13 + 5) & 127);
  std::vector<int64_t> Params = {4, 8, 600};
  ExecResult Local = runClient(*CP, Params, Inputs);

  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Forced;
  Opts.ForcedChoice = Choice;
  Opts.ParamValues = Params;
  Opts.Inputs = Inputs;
  // The link dies for good after a couple of delivered messages.
  Opts.Link.DisconnectAt = 2;
  Opts.Link.DisconnectLength = ~0ull - 2;
  Opts.OnLinkFailure = FaultPolicy::DegradeToLocal;
  ExecResult R = runProgram(*CP, Opts);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.Outputs, Local.Outputs);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.Fallbacks, 1u);
  EXPECT_GT(R.Retries, 0u);
  // Degrading is not free: the failed offload and replay cost time.
  EXPECT_GT(R.Time.toDouble(), Local.Time.toDouble());
}

TEST(InterpTest, FailFastReportsLinkFailureImmediately) {
  auto CP = compileOk(kPipelineSource);
  unsigned Choice = offloadingChoice(*CP);
  ASSERT_NE(Choice, KNone);
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Forced;
  Opts.ForcedChoice = Choice;
  Opts.ParamValues = {2, 4, 600};
  Opts.Inputs = std::vector<int64_t>(64, 7);
  Opts.Link.DisconnectAt = 0;
  Opts.Link.DisconnectLength = ~0ull;
  Opts.OnLinkFailure = FaultPolicy::FailFast;
  ExecResult R = runProgram(*CP, Opts);
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(R.Failure, ExecResult::FailureKind::LinkFailure);
  EXPECT_EQ(R.Retries, 0u); // fail-fast never re-sends
  EXPECT_EQ(R.Timeouts, 1u);
  EXPECT_NE(R.Error.find("link failure"), std::string::npos);
}

TEST(InterpTest, RetryOnlyExhaustsRetriesThenFails) {
  auto CP = compileOk(kPipelineSource);
  unsigned Choice = offloadingChoice(*CP);
  ASSERT_NE(Choice, KNone);
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Forced;
  Opts.ForcedChoice = Choice;
  Opts.ParamValues = {2, 4, 600};
  Opts.Inputs = std::vector<int64_t>(64, 7);
  Opts.Link.DisconnectAt = 0;
  Opts.Link.DisconnectLength = ~0ull;
  Opts.Retry.MaxRetries = 4;
  Opts.OnLinkFailure = FaultPolicy::RetryOnly;
  ExecResult R = runProgram(*CP, Opts);
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(R.Failure, ExecResult::FailureKind::LinkFailure);
  EXPECT_EQ(R.Retries, 4u);
  EXPECT_EQ(R.Timeouts, 5u);
}

TEST(InterpTest, SameSeedReproducesFaultScheduleAndCosts) {
  auto CP = compileOk(kPipelineSource);
  unsigned Choice = offloadingChoice(*CP);
  ASSERT_NE(Choice, KNone);
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Forced;
  Opts.ForcedChoice = Choice;
  Opts.ParamValues = {4, 8, 600};
  Opts.Inputs = std::vector<int64_t>(512, 9);
  Opts.Link.Seed = 77;
  Opts.Link.DropRate = 0.5;
  Opts.Link.JitterUnits = 12;
  Opts.OnLinkFailure = FaultPolicy::DegradeToLocal;
  ExecResult A = runProgram(*CP, Opts);
  ExecResult B = runProgram(*CP, Opts);
  ASSERT_TRUE(A.OK) << A.Error;
  ASSERT_TRUE(B.OK) << B.Error;
  EXPECT_EQ(A.Outputs, B.Outputs);
  EXPECT_EQ(A.Time, B.Time);
  EXPECT_EQ(A.FaultTime, B.FaultTime);
  EXPECT_EQ(A.Timeouts, B.Timeouts);
  EXPECT_EQ(A.Retries, B.Retries);
  EXPECT_EQ(A.Fallbacks, B.Fallbacks);
}

TEST(InterpTest, FaultKnobsAreFreeOnAllClientRuns) {
  // A lossy link cannot touch a run that never uses it: the all-client
  // placement sends no messages, so even a dead link changes nothing.
  auto CP = compileOk(kPipelineSource);
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::AllClient;
  Opts.ParamValues = {2, 4, 100};
  Opts.Inputs = std::vector<int64_t>(64, 3);
  Opts.Link.DropRate = 1.0;
  Opts.OnLinkFailure = FaultPolicy::FailFast;
  ExecResult R = runProgram(*CP, Opts);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.Timeouts, 0u);
  EXPECT_EQ(R.Fallbacks, 0u);
}

TEST(InterpTest, FailureKindsAreStructured) {
  // Instruction-budget runaway.
  auto Runaway = compileOk("void main() { int i = 0;\n"
                           "  @trip(1) while (1) { i++; } }");
  ExecOptions Opts;
  Opts.MaxInstructions = 1000;
  ExecResult R = runProgram(*Runaway, Opts);
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(R.Failure, ExecResult::FailureKind::InstructionLimit);

  // Program-level fault.
  auto DivZero = compileOk("void main() { int z = io_read(); io_write(5 / z); }");
  ExecOptions DivOpts;
  DivOpts.Inputs = {0};
  ExecResult D = runProgram(*DivZero, DivOpts);
  EXPECT_FALSE(D.OK);
  EXPECT_EQ(D.Failure, ExecResult::FailureKind::BadInput);

  // Success resets nothing: the kind stays None.
  auto Fine = compileOk("void main() { io_write(1); }");
  ExecResult F = runProgram(*Fine, ExecOptions());
  EXPECT_TRUE(F.OK);
  EXPECT_EQ(F.Failure, ExecResult::FailureKind::None);
}

TEST(InterpTest, MeasuredTaskInstrsMatchSymbolicCounts) {
  // Prediction check: measured instructions per task equal the symbolic
  // ComputeUnits evaluated at the parameter point (loops here are exactly
  // analyzable).
  auto CP = compileOk("param int n in [1, 200];\n"
                      "int acc;\n"
                      "void work() { for (int i = 0; i < n; i++)\n"
                      "  acc += i; }\n"
                      "void main() { work(); io_write(acc); }");
  std::vector<int64_t> Params = {37};
  ExecResult R = runClient(*CP, Params);
  std::vector<Rational> Point = CP->parameterPoint(Params);
  for (unsigned T = 0; T != CP->Graph.numTasks(); ++T) {
    const TCFG::Task &Task = CP->Graph.Tasks[T];
    if (Task.IsVirtual)
      continue;
    Rational Predicted = Task.ComputeUnits.evaluate(Point);
    uint64_t Measured = 0;
    auto It = R.TaskInstrs.find(T);
    if (It != R.TaskInstrs.end())
      Measured = It->second;
    EXPECT_EQ(Predicted, Rational(static_cast<int64_t>(Measured)))
        << "task " << Task.Label;
  }
}

} // namespace
