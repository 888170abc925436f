//===- perfbench/Serve.cpp - The serve workload ---------------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The fleet's wait for a partition: one frontend sends fixed-size batches
// of requests to a DispatchService per program, one batch at a time (a
// closed loop), each program in turn. Requests come from three streams in
// equal shares: uniform over the declared box, near a few hot-spot fleet
// profiles, and snapped exactly onto a region facet. 0/1 option flags
// cycle through every combination in the uniform stream, so each seed
// sees the same share of every flag setting.
//
// A seeded sample of answers must equal ParametricResult::pickChoice (the
// exact linear scan), and each sampled answer's cost must be the minimum
// over all choices at that point.
//
// Requests are integers, and DispatchIndex decides every row of an
// integral query exactly in its int64 tier, so the service never enters
// the epsilon band where the double tier asks for an exact confirmation.
// The traced run reaches that band through DispatchIndex::pickFull on the
// facet stream's exact points.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "dispatch/DispatchService.h"
#include "programs/Programs.h"

#include <algorithm>
#include <climits>
#include <cstdio>

using namespace paco;
using namespace perfbench;

namespace {

constexpr size_t BatchSize = 1024;
/// Requests per program, cycled through batch by batch.
constexpr size_t PoolSize = 6 * BatchSize;
constexpr unsigned HotSpots = 32;
/// Workers per service. On a shared 4-core machine, four workers made
/// the same encode batch take 8 to 15 ms from run to run against 17.4 to
/// 18.3 ms with one, too unsteady for a gate; see README.md.
constexpr unsigned Workers = 1;
constexpr unsigned FacetPoints = 256;
/// Batches of the traced section (at least 1000 for the p99).
constexpr unsigned TracedRounds = 200;

struct Range {
  int64_t Lo, Hi;
};

/// One program's compiled index, service and request pool.
struct Fleet {
  std::string Name;
  std::unique_ptr<CompiledProgram> CP;
  std::unique_ptr<DispatchIndex> Index;
  std::unique_ptr<DispatchService> Service;
  size_t NumParams = 0;
  std::vector<int64_t> Requests; // PoolSize x NumParams, row-major
  std::vector<unsigned> Answers; // first answer per request
  unsigned Snapped = 0;          // facet points exactly on a facet
  size_t Next = 0;               // pool offset of the next batch
  std::vector<double> BatchSeconds;
  // Traced run: single-thread pick time of the requests that take the
  // cost-argmin fallback and of the rest, and the pickFull pass.
  size_t FallbackRequests = 0;
  double FallbackPickSeconds = 0, OtherPickSeconds = 0;
  double FullPickNs = 0;
  uint64_t FullPickConfirms = 0;

  const int64_t *request(size_t I) const {
    return Requests.data() + I * NumParams;
  }
};

/// Value of \p Facet at the declared-parameter point \p Vals.
Rational facetValue(const CompiledProgram &CP, const LinConstraint &Facet,
                    const std::vector<int64_t> &Vals) {
  const std::vector<ParamId> &Eff = CP.Partition.EffectiveDims;
  std::vector<Rational> Full = CP.parameterPoint(Vals);
  std::vector<Rational> EffPoint(Eff.size());
  for (size_t K = 0; K != Eff.size(); ++K)
    EffPoint[K] = Full[Eff[K]];
  return Facet.evaluate(EffPoint);
}

/// Moves \p Vals exactly onto the zero set of \p Facet by solving for one
/// runtime parameter \p P. Monomials are products of distinct parameters,
/// so the facet is affine in P with the others fixed; the solution is kept
/// only when it is integral, in range and checks out exactly.
bool snapOntoFacet(const CompiledProgram &CP, const LinConstraint &Facet,
                   const std::vector<Range> &Box, size_t P,
                   std::vector<int64_t> &Vals) {
  std::vector<int64_t> V = Vals;
  V[P] = Box[P].Lo;
  Rational At0 = facetValue(CP, Facet, V);
  V[P] = Box[P].Lo + 1;
  Rational Slope = facetValue(CP, Facet, V) - At0;
  if (Slope.isZero())
    return false;
  Rational Target = Rational(Box[P].Lo) - At0 / Slope;
  if (!Target.isInteger() || !Target.numerator().fitsInt64())
    return false;
  V[P] = Target.numerator().toInt64();
  if (V[P] < Box[P].Lo || V[P] > Box[P].Hi ||
      !facetValue(CP, Facet, V).isZero())
    return false;
  Vals = std::move(V);
  return true;
}

/// Fills \p F's request pool: request I is uniform (I % 3 == 0), near a
/// hot spot (1) or snapped onto a facet (2).
void makeRequests(Fleet &F, Rng &G) {
  const CompiledProgram &CP = *F.CP;
  std::vector<Range> Box;
  std::vector<size_t> Flags;
  for (size_t I = 0; I != F.NumParams; ++I) {
    Box.push_back({CP.Space.lower(ParamId(I)).toInt64(),
                   CP.Space.upper(ParamId(I)).toInt64()});
    if (Box.back().Lo == 0 && Box.back().Hi == 1)
      Flags.push_back(I);
  }
  unsigned FlagCycle = 0;
  auto Uniform = [&] {
    std::vector<int64_t> V(F.NumParams);
    for (size_t I = 0; I != F.NumParams; ++I)
      V[I] = G.range(Box[I].Lo, Box[I].Hi);
    for (size_t B = 0; B != Flags.size(); ++B)
      V[Flags[B]] = (FlagCycle >> B) & 1;
    ++FlagCycle;
    return V;
  };
  std::vector<std::vector<int64_t>> Hot;
  for (unsigned H = 0; H != HotSpots; ++H)
    Hot.push_back(Uniform());
  FlagCycle = 0;
  std::vector<const LinConstraint *> Facets;
  for (const PartitionChoice &C : CP.Partition.Choices)
    for (const LinConstraint &L : C.Region.constraints())
      if (!L.isTautology() && !L.isContradiction())
        Facets.push_back(&L);

  // Distinct facet points, cycled through by the facet stream (snapping
  // is exact rational work, too slow to repeat for every request).
  std::vector<std::vector<int64_t>> OnFacet;
  for (unsigned I = 0; I != FacetPoints; ++I) {
    OnFacet.push_back(Uniform());
    // A few tries: not every facet has an integral solution here.
    for (unsigned Try = 0; !Facets.empty() && Try != 4; ++Try)
      if (snapOntoFacet(CP, *Facets[G.next() % Facets.size()], Box,
                        G.next() % F.NumParams, OnFacet.back())) {
        ++F.Snapped;
        break;
      }
  }

  F.Requests.clear();
  for (size_t I = 0; I != PoolSize; ++I) {
    std::vector<int64_t> V;
    if (I % 3 == 0) {
      V = Uniform();
    } else if (I % 3 == 1) {
      V = Hot[(I / 3) % HotSpots];
      for (size_t P = 0; P != F.NumParams; ++P) {
        if (std::find(Flags.begin(), Flags.end(), P) != Flags.end())
          continue;
        int64_t W = std::max<int64_t>(1, (Box[P].Hi - Box[P].Lo) / 64);
        V[P] = std::clamp(V[P] + G.range(-W, W), Box[P].Lo, Box[P].Hi);
      }
    } else {
      V = OnFacet[(I / 3) % FacetPoints];
    }
    F.Requests.insert(F.Requests.end(), V.begin(), V.end());
  }
  F.Answers.assign(PoolSize, UINT_MAX);
}

/// Sends \p F's next batch and checks it against the first answers.
double sendBatch(Fleet &F, std::vector<unsigned> &Out, Report &R) {
  const int64_t *Vals = F.request(F.Next);
  double Start = now();
  F.Service->dispatchBatch(Vals, BatchSize, F.NumParams, Out.data());
  double Seconds = now() - Start;
  F.BatchSeconds.push_back(Seconds);
  R.Attempted += BatchSize;
  for (size_t I = 0; I != BatchSize; ++I) {
    unsigned &First = F.Answers[F.Next + I];
    if (First == UINT_MAX)
      First = Out[I];
    else if (First != Out[I])
      R.mismatch(F.Name + ": request " + std::to_string(F.Next + I) +
                 " answered differently on a later batch");
  }
  F.Next = (F.Next + BatchSize) % PoolSize;
  return Seconds;
}

/// Checks a seeded sample of first answers against the linear scan and
/// cost minimality.
void checkAnswers(std::vector<Fleet> &Fleets, uint64_t Seed, bool Inject,
                  Report &R) {
  Rng G(Seed ^ 0x7365727665ull);
  for (Fleet &F : Fleets) {
    const ParametricResult &P = F.CP->Partition;
    if (Inject && P.Choices.size() > 1) {
      F.Answers[0] = (F.Answers[0] + 1) % unsigned(P.Choices.size());
      Inject = false;
    }
    unsigned Checked = 0;
    PickScratch Scratch;
    for (size_t I = 0; I != PoolSize; ++I) {
      if (G.next() % 16 != 0 && I != 0)
        continue;
      if (F.Answers[I] == UINT_MAX)
        continue;
      std::vector<int64_t> Vals(F.Requests.begin() + I * F.NumParams,
                                F.Requests.begin() + (I + 1) * F.NumParams);
      std::vector<Rational> Point = F.CP->parameterPoint(Vals);
      unsigned Got = F.Answers[I];
      unsigned Want = P.pickChoice(Point, Scratch);
      ++Checked;
      if (Got != Want) {
        R.mismatch(F.Name + ": request " + std::to_string(I) + " got choice " +
                   std::to_string(Got) + ", the linear scan picks " +
                   std::to_string(Want));
        continue;
      }
      Rational Cost = P.Choices[Got].CostExpr.evaluate(Point);
      for (unsigned C = 0; C != P.Choices.size(); ++C)
        if (P.Choices[C].CostExpr.evaluate(Point) < Cost)
          R.mismatch(F.Name + ": request " + std::to_string(I) +
                     " answered choice " + std::to_string(Got) +
                     " but choice " + std::to_string(C) + " costs less");
    }
    std::printf("oracle %-9s %4u sampled answers checked against the linear "
                "scan and cost minimality\n",
                F.Name.c_str(), Checked);
  }
}

DispatchService::Stats sum(const std::vector<Fleet> &Fleets) {
  DispatchService::Stats S;
  for (const Fleet &F : Fleets) {
    DispatchService::Stats T = F.Service->totals();
    S.Queries += T.Queries;
    S.FastQueries += T.FastQueries;
    S.ExactConfirms += T.ExactConfirms;
    S.Fallbacks += T.Fallbacks;
    S.LeafTests += T.LeafTests;
    S.NodeVisits += T.NodeVisits;
  }
  return S;
}

/// Single-thread DispatchIndex::pick over \p F's pool, the requests that
/// take the cost-argmin fallback timed apart from the rest; every answer
/// must equal the service's. Returns the seconds of the timed picks.
double timePicks(Fleet &F, Report &R) {
  DispatchScratch Scratch;
  std::vector<size_t> Fallback, Other;
  uint64_t Want = 0;
  for (size_t I = 0; I != PoolSize; ++I) {
    uint64_t Before = Scratch.Fallbacks;
    if (F.Index->pick(F.request(I), F.NumParams, Scratch) != F.Answers[I])
      R.mismatch(F.Name + ": single-thread pick differs from the service on "
                          "request " +
                 std::to_string(I));
    (Scratch.Fallbacks != Before ? Fallback : Other).push_back(I);
    Want += F.Answers[I];
  }
  uint64_t Got = 0;
  double Start = now();
  for (size_t I : Other)
    Got += F.Index->pick(F.request(I), F.NumParams, Scratch);
  double Mid = now();
  for (size_t I : Fallback)
    Got += F.Index->pick(F.request(I), F.NumParams, Scratch);
  double End = now();
  if (Got != Want)
    R.mismatch(F.Name + ": timed single-thread picks gave other answers");
  F.FallbackRequests = Fallback.size();
  F.OtherPickSeconds = Mid - Start;
  F.FallbackPickSeconds = End - Mid;
  return End - Start;
}

/// DispatchIndex::pickFull over the exact points of \p F's facet stream
/// (request I with I % 3 == 2); every answer must equal the service's.
/// Returns the exact confirmations it made.
uint64_t timeFullPicks(Fleet &F, Tracer &T, Report &R) {
  // Making and freeing the points is input work; the picks nest inside.
  Span In(T, "inputs");
  std::vector<std::vector<Rational>> Points;
  std::vector<unsigned> Want;
  for (size_t I = 2; I < PoolSize; I += 3) {
    Points.push_back(F.CP->parameterPoint(
        std::vector<int64_t>(F.request(I), F.request(I) + F.NumParams)));
    Want.push_back(F.Answers[I]);
  }
  Span P(T, "dispatch.pick_full");
  DispatchScratch Scratch;
  std::vector<unsigned> Got(Points.size());
  double Start = now();
  for (size_t K = 0; K != Points.size(); ++K)
    Got[K] = F.Index->pickFull(Points[K], Scratch);
  F.FullPickNs = (now() - Start) * 1e9 / double(Points.size());
  if (Got != Want)
    R.mismatch(F.Name + ": pickFull differs from the service on the facet "
                        "stream");
  F.FullPickConfirms = Scratch.ExactConfirms;
  return Scratch.ExactConfirms;
}

void printPicks(const std::vector<Fleet> &Fleets) {
  double Fallback = 0, All = 0;
  for (const Fleet &F : Fleets) {
    double Seconds = F.FallbackPickSeconds + F.OtherPickSeconds;
    Fallback += F.FallbackPickSeconds;
    All += Seconds;
    std::printf("pick  %-9s fallback %5.2f%% of requests, %6.2f%% of "
                "single-thread pick time; pickFull on the facet stream "
                "%8.0f ns/query, %5llu exact confirmations\n",
                F.Name.c_str(), 100 * double(F.FallbackRequests) / PoolSize,
                Seconds > 0 ? 100 * F.FallbackPickSeconds / Seconds : 0.0,
                F.FullPickNs, (unsigned long long)F.FullPickConfirms);
  }
  std::printf("pick  all       fallback %6.2f%% of single-thread pick time\n",
              All > 0 ? 100 * Fallback / All : 0.0);
}

void printMix(std::vector<Fleet> &Fleets) {
  std::printf("serve: batches of %zu, %u worker per service, pool of %zu "
              "requests per program\n",
              BatchSize, Workers, PoolSize);
  for (Fleet &F : Fleets) {
    DispatchService::Stats T = F.Service->totals();
    double Q = T.Queries ? double(T.Queries) : 1;
    std::printf("serve %-9s batch median %7.3f ms  fast %6.2f%%  exact "
                "%6.2f%%  fallback %6.2f%%  on a facet %u of %u\n",
                F.Name.c_str(), median(F.BatchSeconds) * 1e3,
                100 * double(T.FastQueries) / Q,
                100 * double(T.ExactConfirms) / Q,
                100 * double(T.Fallbacks) / Q, F.Snapped, FacetPoints);
  }
}

} // namespace

int perfbench::runServeWorkload(const Options &O, Report &R) {
  Tracer T(O.Trace);
  LayerMetrics L;
  setAllocCounting(O.Trace);
  uint64_t Ray0 = 0, Half0 = 0;
  readDDCounters(Ray0, Half0);
  std::vector<Fleet> Fleets(programNames().size());
  std::vector<unsigned> Out(BatchSize);
  std::vector<double> Latencies;
  double UntracedSeconds = 0, TracedSeconds = 0;
  {
    Span W(T, "workload");
    {
      Span S(T, "setup");
      for (size_t I = 0; I != Fleets.size(); ++I) {
        Fleet &F = Fleets[I];
        F.Name = programNames()[I];
        F.CP = compileProgram(programs::programByName(F.Name).Source, T, L);
        if (!F.CP) {
          std::fprintf(stderr, "perfbench: %s failed to compile\n",
                       F.Name.c_str());
          return 1;
        }
        F.NumParams = F.CP->AST->RuntimeParams.size();
        {
          Span B(T, "dispatch.build");
          F.Index = std::make_unique<DispatchIndex>(
              F.CP->Partition, F.CP->Space, unsigned(F.NumParams));
        }
        F.Service = std::make_unique<DispatchService>(*F.Index, Workers);
      }
      Span In(T, "inputs");
      Rng G(O.Seed);
      for (Fleet &F : Fleets)
        makeRequests(F, G);
    }
    double Setup = now() - O.LaunchTime;
    // No per-layer metric counts allocations past set-up, and counting
    // from every worker would contend on the counters.
    setAllocCounting(false);
    readDDCounters(L.DDRayCombinations, L.DDHalfspaces);
    L.DDRayCombinations -= Ray0;
    L.DDHalfspaces -= Half0;

    if (!O.Trace) {
      double Start = now();
      do
        for (Fleet &F : Fleets)
          Latencies.push_back(sendBatch(F, Out, R));
      while (now() - Start < O.Seconds);
      double Elapsed = now() - Start;
      R.add("setup_s", Setup, "s");
      R.add("ops_per_s", double(Latencies.size() * BatchSize) / Elapsed,
            "1/s");
      R.add("op_p50_ms", median(Latencies) * 1e3, "ms");
      R.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
      {
        Span S(T, "untraced");
        double Start = now();
        for (unsigned Round = 0; Round != TracedRounds; ++Round)
          for (Fleet &F : Fleets)
            sendBatch(F, Out, R);
        UntracedSeconds = now() - Start;
      }
      DispatchService::Stats Before = sum(Fleets);
      {
        Span Rd(T, "round");
        double Start = now();
        int64_t Op = 0;
        for (unsigned Round = 0; Round != TracedRounds; ++Round)
          for (Fleet &F : Fleets) {
            Span B(T, "op", Op++);
            Span D(T, "dispatch");
            Latencies.push_back(sendBatch(F, Out, R));
          }
        TracedSeconds = now() - Start;
      }
      DispatchService::Stats After = sum(Fleets);
      L.Queries = After.Queries - Before.Queries;
      L.FastQueries = After.FastQueries - Before.FastQueries;
      L.ExactConfirms = After.ExactConfirms - Before.ExactConfirms;
      L.DispatchFallbacks = After.Fallbacks - Before.Fallbacks;
      L.LeafTests = After.LeafTests - Before.LeafTests;
      L.NodeVisits = After.NodeVisits - Before.NodeVisits;
      L.BatchP99Ms = percentile(Latencies, 99) * 1e3;
      {
        Span P(T, "dispatch.pick");
        double Seconds = 0;
        for (Fleet &F : Fleets)
          Seconds += timePicks(F, R);
        L.PickNs = Seconds * 1e9 / double(Fleets.size() * PoolSize);
      }
      for (Fleet &F : Fleets)
        L.ExactConfirms += timeFullPicks(F, T, R);
    }
    Span S(T, "oracle");
    checkAnswers(Fleets, O.Seed, O.Inject == "dispatch", R);
  }
  printMix(Fleets);
  if (O.Trace) {
    printPicks(Fleets);
    finishTraced(O, T, L, TracedSeconds, UntracedSeconds, R);
  }
  return 0;
}
