//===- perfbench/Bench.h - Shared pieces of the end-to-end benchmark ------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark's workloads: options, the seeded
/// generator, the in-memory span recorder, the allocation counters of the
/// benchmark's own operator new/delete, the result report, and the
/// oracles that check the program's outputs without calling into the
/// layers they check.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_PERFBENCH_BENCH_H
#define PACO_PERFBENCH_BENCH_H

#include "transform/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark invocation.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding callloop.mc.
  std::string DataDir = ".";
  /// Directory the traced run writes its Chrome trace into.
  std::string OutDir = ".";
  /// Deliberate wrong answer for the oracle self-tests: "", "session",
  /// "dispatch" or "cost".
  std::string Inject;
  /// Process launch time on the steady clock (the launcher passes it so
  /// set-up time includes process start).
  double LaunchTime = -1;
  /// Set up, print the set-up time and exit: one launch of the compile
  /// workload's set-up, which that workload repeats to take a median.
  bool SetupOnly = false;
};

/// Seconds on the steady clock (CLOCK_MONOTONIC, the clock the launcher
/// stamps LaunchTime with).
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable and identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo +
           static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  /// Integer in the middle quarter of the \p K -th of \p N equal strata of
  /// [Lo, Hi]: N draws cover the range evenly, and the seed moves each
  /// one only a little, so every seed gets nearly the same mix of sizes.
  int64_t stratum(int64_t Lo, int64_t Hi, unsigned K, unsigned N) {
    int64_t Width = Hi - Lo + 1;
    int64_t Center = Lo + (Width * (2 * K + 1)) / (2 * N);
    int64_t Jitter = Width / (8 * N);
    return range(Center - Jitter, Center + Jitter);
  }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Allocation counting (Alloc.cpp)
//===----------------------------------------------------------------------===//

struct AllocCounts {
  uint64_t Allocs = 0;
  int64_t LiveBytes = 0;
};

/// Turns counting in the replaced operator new/delete on or off. Only the
/// traced mode turns it on.
void setAllocCounting(bool On);
AllocCounts allocCounts();
/// Restarts the live-bytes high-water mark at the current live size.
void resetAllocPeak();
int64_t allocPeakBytes();

//===----------------------------------------------------------------------===//
// Span recording (Trace.cpp)
//===----------------------------------------------------------------------===//

/// Records spans in memory: name, start, end, parent and operation id.
/// Spans nest (one recording thread), so a span's self time is its
/// length minus its children's.
class Tracer {
public:
  struct SpanRec {
    std::string Name;
    double Start = 0, End = 0;
    int Parent = -1;
    int64_t Op = -1;
  };

  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  int open(const std::string &Name, int64_t Op = -1);
  void close(int Id);
  const std::vector<SpanRec> &spans() const { return Spans; }

  /// Self time per span name, in seconds.
  std::vector<std::pair<std::string, double>> selfTimes() const;
  /// Summed self time of every span called \p Name.
  double selfTime(const std::string &Name) const;
  /// Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<SpanRec> Spans;
  std::vector<int> Stack;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
public:
  Span(Tracer &T, const std::string &Name, int64_t Op = -1)
      : T(T), Id(T.enabled() ? T.open(Name, Op) : -1) {}
  ~Span() {
    if (Id >= 0)
      T.close(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// What one workload run reports.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Oracle mismatches, printed to stderr.
  std::vector<std::string> Mismatches;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void mismatch(std::string What) {
    Correct = false;
    Mismatches.push_back(std::move(What));
  }
};

/// Per-layer metrics the traced mode prints for every workload; layers a
/// workload does not exercise read zero. The times (the *Ms fields) are
/// filled from the spans by finishTraced; the workloads fill the rest.
struct LayerMetrics {
  // Compile pipeline (lang, ir, analysis, tcfg, cost, partition,
  // transform), summed over every program the workload compiles.
  double LangMs = 0, IrMs = 0, AnalysisMs = 0, TcfgMs = 0, CostMs = 0;
  double PartitionMs = 0, TransformMs = 0;
  uint64_t PartitionAllocs = 0, TransformAllocs = 0;
  uint64_t FlowSolves = 0, BigIntSolves = 0, CacheHits = 0;
  uint64_t DDRayCombinations = 0, DDHalfspaces = 0;
  /// Self time of the "op" spans: operation time no layer span covers.
  double UnattributedMs = 0;
  // Interpreter and runtime simulator.
  double InterpMs = 0;
  uint64_t Instrs = 0, InterpAllocs = 0;
  int64_t PeakLiveBytes = 0;
  double RuntimeOverheadMs = 0;
  uint64_t Messages = 0, Bytes = 0, Timeouts = 0, Fallbacks = 0,
           CrashRecoveries = 0, Probes = 0, LedgerSyncs = 0,
           Redispatches = 0;
  // Fleet dispatch.
  double DispatchBuildMs = 0, PickNs = 0, BatchP99Ms = 0;
  uint64_t Queries = 0, FastQueries = 0, ExactConfirms = 0,
           DispatchFallbacks = 0, LeafTests = 0, NodeVisits = 0;

  void addTo(Report &R) const;
};

/// Shared tail of every traced run: adds the per-layer metrics, prints
/// the self-time table (summing to the traced section's wall time, with
/// an explicit unattributed row) and the tracing overhead, and writes
/// the Chrome trace.
void finishTraced(const Options &O, const Tracer &T, LayerMetrics L,
                  double TracedSeconds, double UntracedSeconds, Report &R);

//===----------------------------------------------------------------------===//
// Compilation (Compile.cpp)
//===----------------------------------------------------------------------===//

/// The five programs every workload but compile's oracle sees; susan is
/// left out (see README.md).
const std::vector<std::string> &programNames();

/// Compiles \p Source with the solver on one thread. With an enabled
/// tracer, drives the pipeline stage by stage through its public
/// functions in compileForOffloading's order, records a span per stage
/// and accumulates the compile layers of \p L; with a disabled one, calls
/// compileForOffloading. Returns null if the program does not compile.
std::unique_ptr<paco::CompiledProgram>
compileProgram(const std::string &Source, Tracer &T, LayerMetrics &L,
               int64_t Op = -1);

/// describe + renderTransformedProgram, traced as "transform".
std::string renderProgram(const paco::CompiledProgram &CP, Tracer &T,
                          LayerMetrics &L);

/// The StatsRegistry's double-description counters.
void readDDCounters(uint64_t &RayCombinations, uint64_t &Halfspaces);

//===----------------------------------------------------------------------===//
// Oracles (Oracle.cpp)
//===----------------------------------------------------------------------===//

/// One arc of a concrete flow network; Infinite arcs ignore Cap.
struct FlowArc {
  unsigned From, To;
  long double Cap;
  bool Infinite;
};

/// Maximum s-t flow by Edmonds-Karp (shortest augmenting paths) in long
/// double. Written apart from netflow: it shares no code with the solver
/// it checks. Returns +infinity when an all-infinite path joins s and t.
long double maxFlow(unsigned NumNodes, const std::vector<FlowArc> &Arcs,
                    unsigned Source, unsigned Sink);

/// Checks maxFlow on hand-built networks with known minimum cuts, and
/// canonicalRender on hand-written lines; prints each failure and returns
/// false if any.
bool selfTestOracles();

/// \p Text (a ParametricResult::describe plus renderTransformedProgram)
/// with order taken out, line by line: the signed terms of every sum are
/// sorted, and so are the conjuncts of every conjunction and the
/// disjuncts of every disjunction. Two renders of the same partitions
/// that list terms or constraints in another order map to the same text;
/// any other difference survives.
std::string canonicalRender(const std::string &Text);

/// Value of \p E at \p Point in long double, read straight off its terms.
long double evalLong(const paco::LinExpr &E,
                     const std::vector<paco::Rational> &Point);

/// Compile oracle: at \p Points seeded points of the declared box, the
/// max-flow of the unsimplified Theorem-1 network must equal the CostExpr
/// of the choice pickChoice returns. Points where some finite capacity is
/// negative are skipped and counted in \p Skipped.
void checkMinCuts(const std::string &Name, const paco::CompiledProgram &CP,
                  Rng &G, unsigned Points, bool InjectWrongCost,
                  unsigned &Checked, unsigned &Skipped, Report &R);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

int runCompileWorkload(const Options &O, Report &R);
int runSessionWorkload(const Options &O, Report &R); // run and recover
int runServeWorkload(const Options &O, Report &R);

/// Peak resident set of this process, in MB.
double peakRssMb();
/// Median of \p V (sorted in place).
double median(std::vector<double> &V);
/// Nearest-rank percentile \p P (0..100) of \p V (sorted in place).
double percentile(std::vector<double> &V, double P);

} // namespace perfbench

#endif // PACO_PERFBENCH_BENCH_H
