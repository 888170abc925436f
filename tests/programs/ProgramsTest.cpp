//===- tests/programs/ProgramsTest.cpp - Benchmark program tests ----------===//

#include "programs/Programs.h"

#include "interp/Interp.h"
#include "lang/AST.h"
#include "transform/Transform.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace paco;
using namespace paco::programs;

namespace {

/// A heap that places a compile's functions in a chosen address order:
/// while armed, blocks of FuncDecl's size come from a fresh segment of a
/// static pool at rising or falling addresses, never reused; everything
/// else comes from malloc.
namespace ordered_heap {
constexpr size_t Slot = (sizeof(FuncDecl) + 15) / 16 * 16, Slots = 8192;
alignas(16) unsigned char Pool[10 * Slots * Slot];
unsigned char *Segment = nullptr;
bool Falling = false;
std::atomic<bool> Armed{false};
std::atomic<size_t> Taken{0};

void arm(bool FallingOrder) {
  Segment = Segment ? Segment + Slots * Slot : Pool;
  ASSERT_LT(Segment, std::end(Pool));
  Falling = FallingOrder;
  Taken = 0;
  Armed = true;
}

void *take(size_t Bytes) {
  size_t I = Bytes == sizeof(FuncDecl) && Armed ? Taken++ : Slots;
  return I < Slots ? Segment + (Falling ? Slots - 1 - I : I) * Slot : nullptr;
}

bool owns(const void *P) {
  return P >= Pool && P < std::end(Pool);
}
} // namespace ordered_heap

/// Compiles each benchmark once per process: the parametric analysis of
/// the larger programs is deliberately heavy (Table 4 measures it).
std::shared_ptr<CompiledProgram> compileBench(const std::string &Name) {
  static std::map<std::string, std::shared_ptr<CompiledProgram>> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  const BenchProgram &Prog = programByName(Name);
  std::string Diags;
  std::shared_ptr<CompiledProgram> CP =
      compileForOffloading(Prog.Source, CostModel::defaults(), {}, &Diags);
  EXPECT_TRUE(CP != nullptr) << Name << ":\n" << Diags;
  Cache.emplace(Name, CP);
  return CP;
}

ExecResult runBench(const CompiledProgram &CP, std::vector<int64_t> Params,
                    std::vector<int64_t> Inputs,
                    ExecOptions::Placement Mode =
                        ExecOptions::Placement::AllClient,
                    unsigned Forced = 0) {
  ExecOptions Opts;
  Opts.Mode = Mode;
  Opts.ForcedChoice = Forced;
  Opts.ParamValues = std::move(Params);
  Opts.Inputs = std::move(Inputs);
  ExecResult R = runProgram(CP, Opts);
  EXPECT_TRUE(R.OK) << R.Error;
  return R;
}

TEST(ProgramsTest, RegistryHasSixPrograms) {
  ASSERT_EQ(allPrograms().size(), 6u);
  EXPECT_STREQ(allPrograms()[0].Name, "rawcaudio");
  EXPECT_STREQ(allPrograms()[5].Name, "susan");
  for (const BenchProgram &P : allPrograms())
    EXPECT_GT(sourceLineCount(P), 40u) << P.Name;
}

TEST(ProgramsTest, AllSixCompileThroughPipeline) {
  for (const BenchProgram &P : allPrograms()) {
    auto CP = compileBench(P.Name);
    ASSERT_TRUE(CP != nullptr);
    EXPECT_EQ(CP->AST->RuntimeParams.size(), P.ParamNames.size()) << P.Name;
    EXPECT_GE(CP->Partition.Choices.size(), 1u) << P.Name;
    EXPECT_GE(CP->numRealTasks(), 3u) << P.Name;
  }
}

TEST(ProgramsTest, RawcaudioRoundTripsThroughRawdaudio) {
  // Encode then decode; the ADPCM pair must reconstruct the waveform
  // within quantization error.
  auto Enc = compileBench("rawcaudio");
  auto Dec = compileBench("rawdaudio");
  const int64_t N = 512;
  std::vector<int64_t> Samples = makeAudioSamples(N, 42);
  ExecResult EncRun = runBench(*Enc, {N}, Samples);
  // Encoder emits n/2 bytes plus the final predictor state.
  ASSERT_EQ(EncRun.Outputs.size(), size_t(N / 2 + 2));
  std::vector<int64_t> Packed;
  for (size_t I = 0; I + 2 < EncRun.Outputs.size() + 1 &&
                     I < size_t(N / 2 + 1);
       ++I)
    Packed.push_back(static_cast<int64_t>(EncRun.Outputs[I]));
  ExecResult DecRun = runBench(*Dec, {N}, Packed);
  ASSERT_EQ(DecRun.Outputs.size(), size_t(N));
  double ErrSum = 0;
  for (size_t I = 0; I != size_t(N); ++I)
    ErrSum += std::abs(DecRun.Outputs[I] - double(Samples[I]));
  // ADPCM tracks the signal: mean absolute error well under the signal
  // amplitude.
  EXPECT_LT(ErrSum / double(N), 2500.0);
}

TEST(ProgramsTest, EncodeDecodeProduceStableOutput) {
  auto Enc = compileBench("encode");
  const int64_t Frames = 3, Buf = 64;
  std::vector<int64_t> Samples = makeAudioSamples(Frames * Buf, 7);
  // Method -4 (use4), linear format.
  ExecResult R = runBench(*Enc, {0, 1, 0, 0, Frames, Buf}, Samples);
  ASSERT_EQ(R.Outputs.size(), size_t(Frames * Buf + 2));
  // Codes stay in one byte.
  for (size_t I = 0; I != size_t(Frames * Buf); ++I) {
    EXPECT_GE(R.Outputs[I], 0.0);
    EXPECT_LE(R.Outputs[I], 255.0);
  }
  // Decoding the codes yields pcm in range.
  auto Dec = compileBench("decode");
  std::vector<int64_t> Codes;
  for (size_t I = 0; I != size_t(Frames * Buf); ++I)
    Codes.push_back(static_cast<int64_t>(R.Outputs[I]));
  ExecResult D = runBench(*Dec, {0, 1, 0, 0, Frames, Buf}, Codes);
  ASSERT_EQ(D.Outputs.size(), size_t(Frames * Buf + 1));
  for (size_t I = 0; I != size_t(Frames * Buf); ++I) {
    EXPECT_GE(D.Outputs[I], -32768.0);
    EXPECT_LE(D.Outputs[I], 32767.0);
  }
}

TEST(ProgramsTest, EncodeFormatsChangeWorkNotValidity) {
  auto Enc = compileBench("encode");
  const int64_t Frames = 2, Buf = 32;
  std::vector<int64_t> Bytes = makeBytes(Frames * Buf, 11);
  ExecResult Linear = runBench(*Enc, {0, 1, 0, 0, Frames, Buf}, Bytes);
  ExecResult Alaw = runBench(*Enc, {0, 1, 1, 0, Frames, Buf}, Bytes);
  ExecResult Ulaw = runBench(*Enc, {0, 1, 0, 1, Frames, Buf}, Bytes);
  // Different formats expand differently, so outputs differ...
  EXPECT_NE(Alaw.Outputs, Linear.Outputs);
  EXPECT_NE(Ulaw.Outputs, Linear.Outputs);
  // ...and a-law/u-law expansion costs extra client instructions.
  EXPECT_GT(Alaw.ClientInstrs, Linear.ClientInstrs);
}

TEST(ProgramsTest, FftRecoversSinusoidEnergy) {
  auto Fft = compileBench("fft");
  const int64_t M = 64, LogM = 6;
  // One sinusoid with frequency bin 8: freq = 2*pi*8/64 => fr*100 ~ 78.5
  // after the program's /100 scaling.
  std::vector<int64_t> Inputs = {8 /*amp -> 1.0 after /8*/, 79};
  ExecResult R = runBench(*Fft, {1, M, LogM, 0}, Inputs);
  ASSERT_EQ(R.Outputs.size(), size_t(2 * M));
  // Spectrum peaks near bin 8: find the max magnitude bin.
  size_t Best = 0;
  double BestMag = -1;
  for (size_t K = 0; K != size_t(M / 2); ++K) {
    double Re = R.Outputs[K];
    double Im = R.Outputs[size_t(M) + K];
    double Mag = Re * Re + Im * Im;
    if (Mag > BestMag) {
      BestMag = Mag;
      Best = K;
    }
  }
  EXPECT_NEAR(double(Best), 8.0, 1.01);
}

TEST(ProgramsTest, FftInverseRoundTrips) {
  auto Fft = compileBench("fft");
  const int64_t M = 32, LogM = 5;
  std::vector<int64_t> Inputs = {16, 50};
  ExecResult Fwd = runBench(*Fft, {1, M, LogM, 0}, Inputs);
  ExecResult Inv = runBench(*Fft, {1, M, LogM, 1}, Inputs);
  ASSERT_EQ(Fwd.Outputs.size(), Inv.Outputs.size());
  // Forward and inverse differ only by conjugation/scale of the
  // spectrum; both must conserve signal energy (Parseval, scaled).
  double EFwd = 0, EInv = 0;
  for (size_t K = 0; K != size_t(M); ++K) {
    EFwd += Fwd.Outputs[K] * Fwd.Outputs[K] +
            Fwd.Outputs[size_t(M) + K] * Fwd.Outputs[size_t(M) + K];
    EInv += Inv.Outputs[K] * Inv.Outputs[K] +
            Inv.Outputs[size_t(M) + K] * Inv.Outputs[size_t(M) + K];
  }
  EXPECT_NEAR(EFwd, EInv * double(M) * double(M), EFwd * 0.02);
}

TEST(ProgramsTest, SusanFindsTheHardEdge) {
  auto Susan = compileBench("susan");
  const int64_t Px = 48, Py = 32;
  std::vector<int64_t> Img = makeImage(Px, Py, 5);
  // Edges mode, counts only. With the 37-pixel circular mask a clean
  // step edge leaves a USAN of ~20-24 similar pixels, so threshold 25
  // selects it.
  ExecResult R = runBench(
      *Susan, {0, 1, 0, Px, Py, 1, 20, 25, 7, 1, 3, 0}, Img);
  ASSERT_EQ(R.Outputs.size(), 2u);
  // The synthetic image has a hard vertical edge spanning the height.
  EXPECT_GT(R.Outputs[0], double(Py - 2 * 3) * 0.8);
}

TEST(ProgramsTest, SusanSmoothingReducesEdges) {
  auto Susan = compileBench("susan");
  const int64_t Px = 40, Py = 28;
  std::vector<int64_t> Img = makeImage(Px, Py, 9);
  ExecResult Raw = runBench(
      *Susan, {0, 1, 0, Px, Py, 2, 12, 25, 7, 2, 3, 0}, Img);
  ExecResult Smoothed = runBench(
      *Susan, {1, 1, 0, Px, Py, 2, 12, 25, 7, 2, 3, 0}, Img);
  // Smoothing first never finds more edge pixels on this image.
  EXPECT_LE(Smoothed.Outputs[0], Raw.Outputs[0]);
  // And it costs more client work.
  EXPECT_GT(Smoothed.ClientInstrs, Raw.ClientInstrs);
}

TEST(ProgramsTest, DistributedRunsMatchLocalOnAllPrograms) {
  struct Case {
    const char *Name;
    std::vector<int64_t> Params;
    std::vector<int64_t> Inputs;
  };
  std::vector<Case> Cases = {
      {"rawcaudio", {256}, makeAudioSamples(256, 3)},
      {"rawdaudio", {256}, makeBytes(129, 4)},
      {"encode", {0, 1, 0, 0, 2, 48}, makeAudioSamples(96, 5)},
      {"decode", {1, 0, 1, 0, 2, 48}, makeBytes(96, 6)},
      {"fft", {2, 32, 5, 0}, {8, 40, 12, 71}},
      {"susan", {1, 1, 1, 24, 20, 1, 15, 20, 7, 1, 3, 1},
       makeImage(24, 20, 8)},
  };
  for (const Case &C : Cases) {
    auto CP = compileBench(C.Name);
    ASSERT_TRUE(CP != nullptr);
    ExecResult Local = runBench(*CP, C.Params, C.Inputs);
    for (unsigned Choice = 0; Choice != CP->Partition.Choices.size();
         ++Choice) {
      ExecResult R = runBench(*CP, C.Params, C.Inputs,
                              ExecOptions::Placement::Forced, Choice);
      ASSERT_TRUE(R.OK) << C.Name << " choice " << Choice << ": " << R.Error;
      EXPECT_EQ(R.Outputs, Local.Outputs)
          << C.Name << " choice " << Choice;
    }
  }
}

/// What one compile must reproduce byte for byte: the choices with their
/// regions, the transformed program, and the solver's work counters.
std::string compileSnapshot(const CompiledProgram &CP) {
  const ParametricResult &R = CP.Partition;
  std::string Text = R.describe(CP.Space, CP.Graph);
  Text += renderTransformedProgram(CP);
  for (unsigned Count : {R.FullNodes, R.FullArcs, R.SolvedNodes,
                         R.SolvedArcs, R.FlowSolves, R.PointCacheHits,
                         R.CutSignatureHits, R.FastPathSolves, R.BigIntSolves})
    Text += " " + std::to_string(Count);
  return Text;
}

TEST(ProgramsTest, CompilesDoNotDependOnHeapAddresses) {
  // Analysis order must follow the program, not where its AST landed:
  // compile the five non-susan programs on the plain heap, then again
  // with each program's functions at rising and at falling addresses,
  // keeping every compile alive.
  const char *Names[] = {"rawcaudio", "rawdaudio", "encode", "decode", "fft"};
  std::vector<std::shared_ptr<CompiledProgram>> Alive;
  std::vector<std::string> First;
  for (unsigned Pass = 0; Pass != 3; ++Pass) {
    for (unsigned P = 0; P != std::size(Names); ++P) {
      if (Pass)
        ordered_heap::arm(/*FallingOrder=*/Pass == 2);
      std::string Diags;
      auto CP = compileForOffloading(programByName(Names[P]).Source,
                                     CostModel::defaults(), {}, &Diags);
      ordered_heap::Armed = false;
      ASSERT_TRUE(CP != nullptr) << Names[P] << ":\n" << Diags;
      for (const auto &F : CP->AST->Functions)
        EXPECT_EQ(ordered_heap::owns(F.get()), Pass != 0) << F->Name;
      std::string Snapshot = compileSnapshot(*CP);
      if (Pass == 0)
        First.push_back(std::move(Snapshot));
      else
        EXPECT_EQ(Snapshot, First[P]) << Names[P] << ", pass " << Pass;
      Alive.push_back(std::move(CP));
    }
  }
}

} // namespace

void *operator new(size_t Bytes) {
  if (void *P = ordered_heap::take(Bytes))
    return P;
  if (void *P = std::malloc(Bytes ? Bytes : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept {
  if (!ordered_heap::owns(P))
    std::free(P);
}

void operator delete(void *P, size_t) noexcept { operator delete(P); }
