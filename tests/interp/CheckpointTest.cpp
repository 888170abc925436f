//===- tests/interp/CheckpointTest.cpp - Task-boundary checkpoints --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A checkpoint costs what changed since the previous one: region copies
// are saved into an undo log before their first change, so a region that
// is only read is never copied. A rollback puts the saved copies back,
// drops the regions allocated since, and hands out region ids again from
// the checkpoint's region count.
//
//===----------------------------------------------------------------------===//

#include "interp/RunLog.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

using namespace paco;

namespace {

std::unique_ptr<CompiledProgram> compileOk(const char *Source) {
  std::string Diags;
  auto CP = compileForOffloading(Source, CostModel::defaults(), {}, &Diags);
  EXPECT_TRUE(CP != nullptr) << Diags;
  return CP;
}

/// A choice that runs some task on the server, or KNone.
unsigned offloadingChoice(const CompiledProgram &CP) {
  for (unsigned C = 0; C != CP.Partition.Choices.size(); ++C)
    for (bool OnServer : CP.Partition.Choices[C].TaskOnServer)
      if (OnServer)
        return C;
  return KNone;
}

ExecOptions forced(unsigned Choice, std::vector<int64_t> Params,
                   std::vector<int64_t> Inputs) {
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Forced;
  Opts.ForcedChoice = Choice;
  Opts.ParamValues = std::move(Params);
  Opts.Inputs = std::move(Inputs);
  return Opts;
}

std::vector<double> allClientOutputs(const CompiledProgram &CP,
                                     const ExecOptions &Like) {
  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::AllClient;
  Opts.ParamValues = Like.ParamValues;
  Opts.Inputs = Like.Inputs;
  ExecResult R = runProgram(CP, Opts);
  EXPECT_TRUE(R.OK) << R.Error;
  return R.Outputs;
}

// The hot loop stays on the client (it writes output) and calls an
// offloaded kernel, so every iteration crosses hosts and checkpoints
// twice; it only reads `table`.
const char *kReadOnlyTable = R"MINIC(
param int n in [1, 262144];
param int z in [1, 4096];

int *table;
int total;

int mix(int v) {
  int s = v;
  @trip(z) for (int k = 0; k < 100000000; k++) {
    if (k >= z) break;
    s = (s * 5 + 7) & 65535;
  }
  return s;
}

void main() {
  table = malloc(n * 4);
  for (int r = 0; r < 48; r++) {
    int v = table[(r * 7) % n] + r;
    total = total + mix(v);
    io_write(total);
  }
  io_write(total);
}
)MINIC";

TEST(CheckpointTest, ReadOnlyArrayIsNeverCopied) {
  auto CP = compileOk(kReadOnlyTable);
  ASSERT_TRUE(CP != nullptr);
  ExecOptions Probe;
  Probe.Mode = ExecOptions::Placement::Dispatch;
  Probe.ParamValues = {4096, 4096};
  ExecResult Dispatched = runProgram(*CP, Probe);
  ASSERT_TRUE(Dispatched.OK) << Dispatched.Error;
  unsigned Choice = Dispatched.ChoiceUsed;
  ASSERT_NE(Choice, KNone);

  auto runAt = [&](int64_t N) {
    ExecOptions Opts = forced(Choice, {N, 4096}, {});
    Opts.Link.Seed = 11;
    Opts.Link.DropRate = 0.1;
    Opts.OnLinkFailure = FaultPolicy::DegradeToLocal;
    ExecResult R = runProgram(*CP, Opts);
    EXPECT_TRUE(R.OK) << R.Error;
    EXPECT_EQ(R.Outputs, allClientOutputs(*CP, Opts));
    EXPECT_GT(R.Migrations, 40u);
    EXPECT_GT(R.Timeouts, 0u);
    return R;
  };
  ExecResult Small = runAt(4096), Large = runAt(8 * 4096);
  // Checkpoints were taken and saved what the loop changed, but the
  // 8x larger array adds nothing: reading a region never copies it.
  EXPECT_GT(Small.CheckpointBytes, 0u);
  EXPECT_EQ(Large.CheckpointBytes, Small.CheckpointBytes);
  EXPECT_EQ(Large.Timeouts, Small.Timeouts);
}

// The kernel allocates a scratch array and returns, freeing its locals;
// the caller then allocates an output cell. A lost message anywhere rolls
// back across some of these frees and allocations.
const char *kAllocatingPipeline = R"MINIC(
param int x in [1, 16];
param int y in [1, 64];
param int z in [1, 4096];

int total;

int work(int seed) {
  int *tmp = malloc(y * 4);
  int s = seed;
  for (int i = 0; i < y; i++) {
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      s = (s * 5 + 7) & 65535;
    }
    tmp[i] = s;
  }
  return tmp[y - 1] + tmp[0];
}

void main() {
  for (int f = 0; f < x; f++) {
    int v = work(io_read());
    int *out = malloc(2 * 4);
    out[0] = v;
    out[1] = f;
    total = total + out[0] * out[1];
    io_write(out[0]);
  }
  io_write(total);
}
)MINIC";

TEST(CheckpointTest, RollbackAcrossFreesAndAllocationsAtEveryMessage) {
  auto CP = compileOk(kAllocatingPipeline);
  ASSERT_TRUE(CP != nullptr);
  unsigned Choice = offloadingChoice(*CP);
  ASSERT_NE(Choice, KNone);
  ExecOptions Clean = forced(Choice, {4, 8, 300}, {3, 141, 59, 26});
  std::vector<double> Local = allClientOutputs(*CP, Clean);
  ExecResult Ref = runProgram(*CP, Clean);
  ASSERT_TRUE(Ref.OK) << Ref.Error;
  ASSERT_EQ(Ref.Outputs, Local);
  uint64_t Messages = Ref.Migrations + Ref.TransferCount + Ref.Registrations;
  ASSERT_GT(Messages, 8u);

  // The link dies for good at message K: the run rolls back to the last
  // task boundary before it and finishes on the client.
  for (uint64_t K = 0; K != Messages; ++K) {
    ExecOptions Opts = Clean;
    Opts.Link.DisconnectAt = K;
    Opts.Link.DisconnectLength = ~0ull - K;
    Opts.OnLinkFailure = FaultPolicy::DegradeToLocal;
    ExecResult R = runProgram(*CP, Opts);
    ASSERT_TRUE(R.OK) << "message " << K << ": " << R.Error;
    EXPECT_EQ(R.Outputs, Local) << "message " << K;
    EXPECT_EQ(R.Fallbacks, 1u) << "message " << K;
    EXPECT_TRUE(R.Degraded) << "message " << K;
  }
}

// Every frame allocates a state array of its own size. The offloaded
// kernel rewrites it for three sub-frames while the client reads input
// in between, so the recovery ledger pins it at those task boundaries;
// the final dump pulls it back, and a zero ledger budget then evicts the
// pin, logging its region id.
const char *kFrameStates = R"MINIC(
param int x in [1, 64];
param int y in [1, 256];
param int z in [1, 4096];

int *inbuf;

void accumulate(int *st) {
  for (int i = 0; i < y; i++) {
    int acc = st[i] + inbuf[i];
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      acc = (acc * 5 + 7) & 65535;
    }
    st[i] = acc;
  }
}

void main() {
  inbuf = malloc(y * 4);
  for (int f = 0; f < x; f++) {
    int *st = malloc((y + f) * 4);
    for (int g = 0; g < 3; g++) {
      for (int i = 0; i < y; i++) inbuf[i] = io_read();
      accumulate(st);
      io_write(g);
    }
    for (int i = 0; i < y; i++) io_write(st[i]);
  }
}
)MINIC";

/// Region id per evicted state array's byte size (at least 128), from a
/// run's event log.
std::map<uint64_t, uint64_t> evictedStates(const obs::EventLog &Log) {
  std::map<uint64_t, uint64_t> Out;
  for (const std::string &Line : Log.lines()) {
    if (Line.find("\"type\": \"ledger-evict\"") == std::string::npos)
      continue;
    auto number = [&](const char *Key) {
      size_t At = Line.find(Key);
      EXPECT_NE(At, std::string::npos) << Line;
      return std::stoull(Line.substr(At + std::strlen(Key)));
    };
    uint64_t Bytes = number("\"bytes\": ");
    if (Bytes >= 128)
      Out[Bytes] = number("\"region\": ");
  }
  return Out;
}

TEST(CheckpointTest, RegionIdsRestartFromTheCheckpointAfterARollback) {
  auto CP = compileOk(kFrameStates);
  ASSERT_TRUE(CP != nullptr);
  std::vector<int64_t> Inputs(6 * 3 * 32);
  for (size_t I = 0; I != Inputs.size(); ++I)
    Inputs[I] = static_cast<int64_t>((I * 37) % 211);
  ExecOptions Base;
  Base.Mode = ExecOptions::Placement::Dispatch;
  Base.ParamValues = {6, 32, 1000};
  Base.Inputs = Inputs;
  Base.Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Base.Adapt.ProbePeriodBoundaries = 1;
  // Arms the ledger; the run never reaches the crash.
  ServerCrash Never;
  Never.At = Rational(int64_t(1) << 50);
  Base.Crash.Events.push_back(Never);
  Base.LedgerBudgetBytes = 0;

  RuntimeRecorder CleanRec;
  ExecOptions Clean = Base;
  Clean.Recorder = &CleanRec;
  ExecResult Ref = runProgram(*CP, Clean);
  ASSERT_TRUE(Ref.OK) << Ref.Error;
  ASSERT_NE(Ref.ChoiceUsed, KNone);
  obs::EventLog CleanLog;
  appendRunLog(CleanLog, *CP, Clean, Ref, CleanRec);
  std::map<uint64_t, uint64_t> Want = evictedStates(CleanLog);
  ASSERT_GE(Want.size(), 4u);

  // Lose every attempt of frame 1's registration of `st`: it follows the
  // malloc, so the region it registers was allocated after the checkpoint
  // the rollback lands on, and a run that kept counting ids would shift
  // every later one. In the fault-free run each message is one link
  // attempt, so a message's index is its attempt index.
  std::map<unsigned, std::vector<uint64_t>> Registrations;
  for (size_t I = 0; I != CleanRec.messages().size(); ++I) {
    const MessageRecord &M = CleanRec.messages()[I];
    if (M.K == MessageRecord::Kind::Registration)
      Registrations[M.LocId].push_back(I);
  }
  uint64_t Lost = ~0ull;
  for (const auto &[Loc, Indices] : Registrations)
    if (Indices.size() == 6)
      Lost = Indices[1];
  ASSERT_NE(Lost, ~0ull);
  RuntimeRecorder Rec;
  ExecOptions Faulted = Base;
  Faulted.Link.DisconnectAt = Lost;
  Faulted.Link.DisconnectLength = RetryPolicy().MaxRetries + 1;
  Faulted.Recorder = &Rec;
  ExecResult R = runProgram(*CP, Faulted);
  ASSERT_TRUE(R.OK) << R.Error;
  obs::EventLog Log;
  appendRunLog(Log, *CP, Faulted, R, Rec);
  EXPECT_EQ(R.Outputs, allClientOutputs(*CP, Base));
  EXPECT_EQ(R.Fallbacks, 1u);
  ASSERT_GE(R.Reoffloads, 1u);
  std::map<uint64_t, uint64_t> Got = evictedStates(Log);
  ASSERT_FALSE(Got.empty());
  for (const auto &[Bytes, Region] : Got) {
    ASSERT_TRUE(Want.count(Bytes)) << Bytes;
    EXPECT_EQ(Region, Want[Bytes]) << "state of " << Bytes << " bytes";
  }
}

} // namespace
