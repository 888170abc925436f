//===- perfbench/Compile.cpp - The compile workload -----------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The compiler user's wait: MiniC source through compileForOffloading,
// ParametricResult::describe and renderTransformedProgram, as
// `offload_explorer <prog> --jobs 1` does, one program at a time in
// whole passes over the shipped programs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Stats.h"
#include "programs/Programs.h"
#include "transform/Transform.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace paco;
using namespace perfbench;

const std::vector<std::string> &perfbench::programNames() {
  static const std::vector<std::string> Names = {"rawcaudio", "rawdaudio",
                                                 "encode", "decode", "fft"};
  return Names;
}

std::unique_ptr<CompiledProgram>
perfbench::compileProgram(const std::string &Source, Tracer &T,
                          LayerMetrics &L, int64_t Op) {
  ParametricOptions Solver;
  Solver.Threads = 1;
  if (!T.enabled())
    return compileForOffloading(Source, CostModel::defaults(), Solver);

  // compileForOffloading's stages, in its order, one span per layer.
  auto CP = std::make_unique<CompiledProgram>();
  CP->Costs = CostModel::defaults();
  {
    Span S(T, "lang", Op);
    CP->AST = parseMiniC(Source, CP->Diags);
    if (CP->AST)
      CP->InlinedSites = inlineSmallFunctions(*CP->AST, InlineOptions());
    if (!CP->AST || !runSema(*CP->AST, CP->Diags))
      return nullptr;
    CP->Symbolic = analyzeSymbolics(*CP->AST, CP->Space, CP->Diags);
    if (CP->Diags.hasErrors())
      return nullptr;
  }
  {
    Span S(T, "ir", Op);
    LowerResult Lowered =
        lowerProgram(*CP->AST, CP->Symbolic, CP->Space, CP->Diags);
    if (!Lowered)
      return nullptr;
    CP->Module = std::move(*Lowered);
    std::optional<PassStats> Stats =
        runPassPipeline(*CP->Module, CP->Space, PassOptions());
    if (!Stats)
      return nullptr;
    CP->OptStats = *Stats;
  }
  {
    Span S(T, "analysis", Op);
    CP->Memory = std::make_unique<MemoryModel>(*CP->Module, CP->Space);
    CP->PT = std::make_unique<PointsToResult>(
        runPointsTo(*CP->Module, *CP->Memory));
  }
  {
    Span S(T, "tcfg", Op);
    CP->Graph = buildTCFG(*CP->Module, *CP->Memory, *CP->PT);
    CP->Access = std::make_unique<TaskAccessInfo>(
        computeTaskAccess(*CP->Module, *CP->Memory, *CP->PT, CP->Graph));
  }
  {
    Span S(T, "cost", Op);
    CP->Problem = buildPartitionProblem(CP->Graph, *CP->Access, *CP->Memory,
                                        CP->Costs, CP->Space);
  }
  {
    Span S(T, "partition", Op);
    uint64_t Before = allocCounts().Allocs;
    CP->Partition = solveParametric(CP->Problem, CP->Space, Solver);
    L.PartitionAllocs += allocCounts().Allocs - Before;
  }
  L.FlowSolves += CP->Partition.FlowSolves;
  L.BigIntSolves += CP->Partition.BigIntSolves;
  L.CacheHits += CP->Partition.PointCacheHits;
  return CP;
}

std::string perfbench::renderProgram(const CompiledProgram &CP, Tracer &T,
                                     LayerMetrics &L) {
  Span S(T, "transform");
  uint64_t Before = allocCounts().Allocs;
  std::string Text = CP.Partition.describe(CP.Space, CP.Graph);
  Text += renderTransformedProgram(CP);
  L.TransformAllocs += allocCounts().Allocs - Before;
  return Text;
}

void perfbench::readDDCounters(uint64_t &RayCombinations,
                               uint64_t &Halfspaces) {
  obs::StatsSnapshot S = obs::StatsRegistry::global().snapshot();
  RayCombinations = S.Counters["poly.dd_ray_combinations"];
  Halfspaces = S.Counters["poly.dd_halfspaces"];
}

namespace {

/// Max-flow oracle points per program and run.
constexpr unsigned OraclePoints = 40;

struct Pass {
  std::vector<std::unique_ptr<CompiledProgram>> Programs;
  std::vector<std::string> Rendered;
  std::vector<double> Seconds;
};

/// One pass over every program: compile, describe and render each. A
/// program that fails to compile counts in R.Failed.
void compilePass(const std::vector<std::string> &Sources, Tracer &T,
                 LayerMetrics &L, Pass &P, Report &R) {
  P.Programs.resize(Sources.size());
  P.Rendered.resize(Sources.size());
  P.Seconds.assign(Sources.size(), 0);
  for (size_t I = 0; I != Sources.size(); ++I) {
    Span Op(T, "op", static_cast<int64_t>(I));
    double Start = now();
    std::unique_ptr<CompiledProgram> CP =
        compileProgram(Sources[I], T, L, static_cast<int64_t>(I));
    std::string Text = CP ? renderProgram(*CP, T, L) : std::string();
    P.Seconds[I] = now() - Start;
    ++R.Attempted;
    R.Failed += !CP;
    P.Programs[I] = std::move(CP);
    P.Rendered[I] = std::move(Text);
  }
}

/// The first line where two texts differ, for a mismatch report.
std::string firstDifference(const std::string &A, const std::string &B) {
  size_t Line = 1, Start = 0;
  for (size_t I = 0; I != std::min(A.size(), B.size()) && A[I] == B[I]; ++I)
    if (A[I] == '\n') {
      ++Line;
      Start = I + 1;
    }
  auto Excerpt = [Start](const std::string &T) {
    return T.substr(Start, std::min<size_t>(160, T.find('\n', Start) - Start));
  };
  return "line " + std::to_string(Line) + ": \"" + Excerpt(A) + "\" vs \"" +
         Excerpt(B) + "\"";
}

/// Two passes over the same sources must render the same programs. Term
/// and constraint order can change between two compiles of one source in
/// one process (see README.md), so renders are compared in order-free
/// form; any other difference fails the run. Returns how many renders are
/// also byte-identical.
unsigned compareRenders(const std::vector<std::string> &First,
                        const std::vector<std::string> &Second,
                        const std::string &What, Report &R) {
  unsigned Identical = 0;
  for (size_t I = 0; I != First.size(); ++I) {
    if (First[I] == Second[I]) {
      ++Identical;
      continue;
    }
    std::string A = canonicalRender(First[I]), B = canonicalRender(Second[I]);
    if (A != B)
      R.mismatch(programNames()[I] + ": " + What + " renders another " +
                 "program, " + firstDifference(A, B));
  }
  return Identical;
}

void runOracle(const Options &O, const Pass &P, Report &R) {
  Rng G(O.Seed ^ 0x6f7261636c65ull);
  for (size_t I = 0; I != P.Programs.size(); ++I) {
    if (!P.Programs[I])
      continue;
    unsigned Checked = 0, Skipped = 0;
    checkMinCuts(programNames()[I], *P.Programs[I], G, OraclePoints,
                 O.Inject == "cost" && I == 0, Checked, Skipped, R);
    std::printf("oracle %-9s %2u points checked against max-flow, %2u "
                "skipped (negative capacity)\n",
                programNames()[I].c_str(), Checked, Skipped);
  }
}

/// Launches of the set-up per run, this process's own included; the
/// set-up figure is their median. A launch takes a few milliseconds, most
/// of it the operating system's process start.
constexpr unsigned SetupLaunches = 51;

/// Launches this binary with --setup-only and returns the child's
/// launch-to-ready time, or a negative number if the launch failed.
double launchSetupOnly() {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return -1;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  char Launch[32];
  std::snprintf(Launch, sizeof Launch, "%.9f", now());
  const char *Argv[] = {"paco_perfbench", "--workload", "compile",
                        "--seed",         "0",          "--setup-only",
                        "--launch-time",  Launch,       nullptr};
  pid_t Child;
  int Error = posix_spawn(&Child, "/proc/self/exe", &Actions, nullptr,
                          const_cast<char *const *>(Argv), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  char Buf[64];
  for (ssize_t N; (N = read(Pipe[0], Buf, sizeof Buf)) > 0;)
    Out.append(Buf, size_t(N));
  close(Pipe[0]);
  int Status = 0;
  if (Error != 0 || waitpid(Child, &Status, 0) != Child ||
      !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return -1;
  return std::strtod(Out.c_str(), nullptr);
}

} // namespace

int perfbench::runCompileWorkload(const Options &O, Report &R) {
  // Set-up: process start and loading the sources.
  std::vector<std::string> Sources;
  for (const std::string &Name : programNames())
    Sources.push_back(programs::programByName(Name).Source);
  double Setup = now() - O.LaunchTime;
  if (O.SetupOnly) {
    std::printf("%.9f\n", Setup);
    return 0;
  }

  Tracer Off(false);
  LayerMetrics Unused;
  if (!O.Trace) {
    std::vector<double> Setups{Setup};
    while (Setups.size() != SetupLaunches) {
      Setups.push_back(launchSetupOnly());
      if (Setups.back() < 0) {
        std::fprintf(stderr, "perfbench: a set-up launch failed\n");
        return 2;
      }
    }
    Pass P;
    std::vector<double> Latencies;
    std::vector<std::vector<std::string>> Renders;
    double Start = now();
    do {
      compilePass(Sources, Off, Unused, P, R);
      Latencies.insert(Latencies.end(), P.Seconds.begin(), P.Seconds.end());
      Renders.push_back(std::move(P.Rendered));
    } while (now() - Start < O.Seconds);
    double Elapsed = now() - Start;
    unsigned Identical = 0;
    for (size_t K = 1; K != Renders.size(); ++K)
      Identical += compareRenders(Renders.front(), Renders[K],
                                  "pass " + std::to_string(K + 1), R);
    std::printf("passes: %zu; %u of %zu later renders byte-identical to the "
                "first pass's\n",
                Renders.size(), Identical,
                (Renders.size() - 1) * Sources.size());
    runOracle(O, P, R);
    R.add("setup_s", median(Setups), "s");
    R.add("ops_per_s", double(Latencies.size()) / Elapsed, "1/s");
    R.add("op_p50_ms", median(Latencies) * 1e3, "ms");
    R.add("peak_rss_mb", peakRssMb(), "MB");
    return 0;
  }

  // Traced: one untraced pass for reference, then the stage-by-stage
  // traced pass, which must render the same programs.
  Pass Untraced, Traced;
  double U0 = now();
  compilePass(Sources, Off, Unused, Untraced, R);
  double UntracedSeconds = now() - U0;

  setAllocCounting(true);
  Tracer T(true);
  LayerMetrics L;
  uint64_t Ray0 = 0, Half0 = 0, Ray1 = 0, Half1 = 0;
  readDDCounters(Ray0, Half0);
  double TracedSeconds = 0;
  {
    Span W(T, "workload");
    double T0 = now();
    {
      Span Round(T, "round");
      compilePass(Sources, T, L, Traced, R);
    }
    TracedSeconds = now() - T0;
    readDDCounters(Ray1, Half1);
    Span S(T, "oracle");
    unsigned Identical =
        compareRenders(Untraced.Rendered, Traced.Rendered, "the traced pass", R);
    std::printf("traced pass: %u of %zu renders byte-identical to the "
                "untraced pass\n",
                Identical, Sources.size());
    runOracle(O, Traced, R);
  }
  setAllocCounting(false);
  L.DDRayCombinations = Ray1 - Ray0;
  L.DDHalfspaces = Half1 - Half0;
  finishTraced(O, T, L, TracedSeconds, UntracedSeconds, R);
  return 0;
}
