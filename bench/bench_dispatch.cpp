//===- bench/bench_dispatch.cpp - Fleet dispatch stress bench -------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Replays >= 1M synthetic parameter-vector requests per paper program
// through the compiled DispatchIndex and the multi-threaded
// DispatchService, under three request distributions:
//
//   uniform   independent uniform draws over each parameter's range
//   hotspot   80% of requests clustered around one fleet profile
//   facet     requests snapped exactly onto region facets (adversarial:
//             maximizes epsilon-band exact confirmations)
//
// For each distribution the indexed single-thread latency is compared
// against the linear pickChoice scan on a verification subsample (which
// also cross-checks every answer bit-for-bit), then the service is swept
// over 1/2/4/8 threads. Emits BENCH_dispatch.json (--out FILE); --quick
// shrinks the replay for CI. Exits nonzero unless all six programs ran,
// the index and every thread sweep of the service match the scan on
// every verified request, the program with the most choices keeps a
// worst-distribution speedup of at least 10x over the scan, and the
// stats snapshot registers partition.pick_fallback and counts
// dispatch.queries.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "dispatch/DispatchService.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

using namespace paco;
using namespace paco::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

uint64_t xorshift(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

struct ParamRange {
  int64_t Lo, Hi;
};

std::vector<ParamRange> paramRanges(const CompiledProgram &CP) {
  std::vector<ParamRange> R;
  for (unsigned I = 0; I != CP.AST->RuntimeParams.size(); ++I)
    R.push_back({CP.Space.lower(I).toInt64(), CP.Space.upper(I).toInt64()});
  return R;
}

int64_t uniformIn(const ParamRange &R, uint64_t &Seed) {
  uint64_t Span = static_cast<uint64_t>(R.Hi - R.Lo) + 1;
  return R.Lo + static_cast<int64_t>(xorshift(Seed) % Span);
}

/// Runtime parameters not appearing as a factor of any other effective
/// dimension: snapping them preserves monomial consistency.
std::vector<bool> safeParams(const CompiledProgram &CP) {
  unsigned NumRuntime = static_cast<unsigned>(CP.AST->RuntimeParams.size());
  std::vector<bool> Safe(NumRuntime, true);
  for (ParamId Id : CP.Partition.EffectiveDims)
    if (CP.Space.isMonomial(Id))
      for (ParamId F : CP.Space.factors(Id))
        if (F < NumRuntime)
          Safe[F] = false;
  return Safe;
}

/// Moves \p Vals exactly onto the zero set of \p Facet by solving for one
/// safe base parameter (exact rational arithmetic; integral solutions in
/// range only).
void snapToFacet(const CompiledProgram &CP, const LinConstraint &Facet,
                 const std::vector<bool> &Safe,
                 const std::vector<ParamRange> &Ranges,
                 std::vector<int64_t> &Vals) {
  const std::vector<ParamId> &Eff = CP.Partition.EffectiveDims;
  std::vector<Rational> Full = CP.parameterPoint(Vals);
  std::vector<Rational> EffPt(Eff.size());
  for (unsigned K = 0; K != Eff.size(); ++K)
    EffPt[K] = Full[Eff[K]];
  Rational Val = Facet.evaluate(EffPt);
  if (Val.isZero())
    return;
  for (unsigned K = 0; K != Eff.size(); ++K) {
    if (Facet.Coeffs[K].isZero())
      continue;
    ParamId Id = Eff[K];
    if (Id >= Safe.size() || !Safe[Id] || CP.Space.isMonomial(Id))
      continue;
    Rational Target = Full[Id] - Val / Rational(Facet.Coeffs[K]);
    if (!Target.isInteger() || !Target.numerator().fitsInt64())
      continue;
    int64_t T = Target.numerator().toInt64();
    if (T < Ranges[Id].Lo || T > Ranges[Id].Hi)
      continue;
    Vals[Id] = T;
    return;
  }
}

/// Fills \p Flat (row-major, NumParams per request) with \p NumRequests
/// draws from the named distribution. Facet points are drawn from a
/// precomputed pool (snapping is exact-arithmetic, too slow per-request).
void makeRequests(const CompiledProgram &CP, const std::string &Dist,
                  size_t NumRequests, uint64_t Seed,
                  std::vector<int64_t> &Flat) {
  std::vector<ParamRange> Ranges = paramRanges(CP);
  size_t NumParams = Ranges.size();
  Flat.resize(NumRequests * NumParams);
  if (Dist == "uniform") {
    for (size_t I = 0; I != Flat.size(); ++I)
      Flat[I] = uniformIn(Ranges[I % NumParams], Seed);
  } else if (Dist == "hotspot") {
    // One hot fleet profile near the center of the box; 80% of requests
    // jitter tightly around it, the rest are uniform background.
    std::vector<int64_t> Center(NumParams);
    for (size_t P = 0; P != NumParams; ++P)
      Center[P] = (Ranges[P].Lo + Ranges[P].Hi) / 2;
    for (size_t I = 0; I != NumRequests; ++I) {
      int64_t *Req = Flat.data() + I * NumParams;
      if (xorshift(Seed) % 5 == 0) {
        for (size_t P = 0; P != NumParams; ++P)
          Req[P] = uniformIn(Ranges[P], Seed);
      } else {
        for (size_t P = 0; P != NumParams; ++P) {
          int64_t Width =
              std::max<int64_t>(1, (Ranges[P].Hi - Ranges[P].Lo) / 64);
          int64_t V = Center[P] +
                      static_cast<int64_t>(xorshift(Seed) % (2 * Width)) -
                      Width;
          Req[P] = std::min(Ranges[P].Hi, std::max(Ranges[P].Lo, V));
        }
      }
    }
  } else { // facet
    std::vector<bool> Safe = safeParams(CP);
    std::vector<const LinConstraint *> Facets;
    for (const PartitionChoice &Choice : CP.Partition.Choices)
      for (const LinConstraint &C : Choice.Region.constraints())
        if (!C.isTautology() && !C.isContradiction())
          Facets.push_back(&C);
    size_t PoolSize = std::min<size_t>(NumRequests, 20000);
    std::vector<int64_t> Pool(PoolSize * NumParams);
    for (size_t I = 0; I != PoolSize; ++I) {
      std::vector<int64_t> Vals(NumParams);
      for (size_t P = 0; P != NumParams; ++P)
        Vals[P] = uniformIn(Ranges[P], Seed);
      if (!Facets.empty())
        snapToFacet(CP, *Facets[I % Facets.size()], Safe, Ranges, Vals);
      std::copy(Vals.begin(), Vals.end(),
                Pool.begin() + static_cast<ptrdiff_t>(I * NumParams));
    }
    for (size_t I = 0; I != NumRequests; ++I)
      std::copy_n(Pool.begin() +
                      static_cast<ptrdiff_t>((I % PoolSize) * NumParams),
                  NumParams,
                  Flat.begin() + static_cast<ptrdiff_t>(I * NumParams));
  }
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  const char *OutPath = "BENCH_dispatch.json";
  size_t NumRequests = 0;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 != argc)
      OutPath = argv[++I];
    else if (std::strcmp(argv[I], "--requests") == 0 && I + 1 != argc)
      NumRequests = static_cast<size_t>(std::atoll(argv[++I]));
    else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--requests N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (NumRequests == 0)
    NumRequests = Quick ? 20000 : 1000000;
  size_t VerifyCount = std::min<size_t>(NumRequests, Quick ? 2000 : 50000);
  unsigned BatchRepeat = Quick ? 5 : 1;

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"quick\": %s,\n  \"requests\": %zu,\n"
               "  \"hardware_threads\": %u,\n",
               Quick ? "true" : "false", NumRequests,
               ThreadPool::hardwareThreads());

  const char *Dists[] = {"uniform", "hotspot", "facet"};
  std::vector<unsigned> ThreadCounts{1, 2, 4, 8};
  size_t TotalMismatches = 0, ServiceMismatches = 0, NumPrograms = 0;
  // The program with the most choices and its worst-distribution speedup.
  std::string Largest;
  unsigned LargestChoices = 0;
  double LargestWorstSpeedup = 0;

  std::printf("== Fleet dispatch: compiled index vs linear scan ==\n\n");
  std::fprintf(Out, "  \"programs\": [\n");
  bool FirstProgram = true;
  for (const programs::BenchProgram &P : programs::allPrograms()) {
    std::shared_ptr<CompiledProgram> CP = compiled(P.Name);
    auto Start = std::chrono::steady_clock::now();
    DispatchIndex Index(CP->Partition, CP->Space,
                        static_cast<unsigned>(CP->AST->RuntimeParams.size()));
    double BuildSec = secondsSince(Start);
    ++NumPrograms;
    double WorstSpeedup = 1e300;
    std::printf("%s: %s\n", P.Name, Index.describe().c_str());
    std::fprintf(Out,
                 "%s    {\"name\": \"%s\", \"choices\": %u, "
                 "\"dims\": %u, \"hyperplanes\": %u, \"nodes\": %u, "
                 "\"leaves\": %u, \"max_leaf\": %u, \"depth\": %u, "
                 "\"build_ms\": %.3f, \"distributions\": [\n",
                 FirstProgram ? "" : ",\n", P.Name, Index.numChoices(),
                 Index.dimension(), Index.numHyperplanes(),
                 Index.numNodes(), Index.numLeaves(),
                 Index.maxLeafCandidates(), Index.depth(), BuildSec * 1e3);
    FirstProgram = false;

    size_t NumParams = CP->AST->RuntimeParams.size();
    bool FirstDist = true;
    for (const char *Dist : Dists) {
      std::vector<int64_t> Flat;
      makeRequests(*CP, Dist, NumRequests,
                   0x2545F4914F6CDD1Dull ^ std::strlen(P.Name), Flat);

      // Linear-scan baseline on the verification subsample, on prebuilt
      // full points so only pickChoice is timed; every answer is the
      // reference the index must reproduce.
      std::vector<std::vector<Rational>> FullPoints(VerifyCount);
      std::vector<int64_t> Req(NumParams);
      for (size_t I = 0; I != VerifyCount; ++I) {
        std::copy_n(Flat.begin() + static_cast<ptrdiff_t>(I * NumParams),
                    NumParams, Req.begin());
        FullPoints[I] = CP->parameterPoint(Req);
      }
      std::vector<unsigned> Expect(VerifyCount);
      PickScratch Linear;
      Start = std::chrono::steady_clock::now();
      for (size_t I = 0; I != VerifyCount; ++I)
        Expect[I] = CP->Partition.pickChoice(FullPoints[I], Linear);
      double LinearNs = secondsSince(Start) * 1e9 / double(VerifyCount);

      // Indexed single-thread replay over the full request stream.
      DispatchScratch Scratch;
      uint64_t Sink = 0;
      Start = std::chrono::steady_clock::now();
      for (size_t I = 0; I != NumRequests; ++I)
        Sink += Index.pick(Flat.data() + I * NumParams, NumParams, Scratch);
      double IndexNs = secondsSince(Start) * 1e9 / double(NumRequests);

      size_t Mismatches = 0;
      for (size_t I = 0; I != VerifyCount; ++I)
        if (Index.pick(Flat.data() + I * NumParams, NumParams, Scratch) !=
            Expect[I])
          ++Mismatches;
      TotalMismatches += Mismatches;
      double Speedup = IndexNs > 0 ? LinearNs / IndexNs : 0;
      WorstSpeedup = std::min(WorstSpeedup, Speedup);

      std::printf(
          "  %-8s %9zu req  linear %8.0f ns  indexed %7.1f ns  %6.1fx  "
          "fast %5.1f%%  exact %zu  fallback %zu  mismatch %zu\n",
          Dist, NumRequests, LinearNs, IndexNs, Speedup,
          100.0 * double(Scratch.FastQueries) / double(Scratch.Queries),
          size_t(Scratch.ExactConfirms), size_t(Scratch.Fallbacks),
          Mismatches);
      std::fprintf(
          Out,
          "%s      {\"distribution\": \"%s\", \"verify_points\": %zu, "
          "\"mismatches\": %zu, \"linear_ns\": %.1f, \"indexed_ns\": "
          "%.2f, \"speedup\": %.2f, \"fast_path_rate\": %.4f, "
          "\"exact_confirms\": %llu, \"fallbacks\": %llu, \"sink\": %llu, "
          "\"threads\": [\n",
          FirstDist ? "" : ",\n", Dist, VerifyCount, Mismatches, LinearNs,
          IndexNs, Speedup,
          double(Scratch.FastQueries) / double(Scratch.Queries),
          static_cast<unsigned long long>(Scratch.ExactConfirms),
          static_cast<unsigned long long>(Scratch.Fallbacks),
          static_cast<unsigned long long>(Sink));
      FirstDist = false;

      // Thread sweep through the sharded service.
      std::vector<unsigned> Choices(NumRequests);
      double OneThreadSec = 0;
      bool FirstThreads = true;
      for (unsigned Threads : ThreadCounts) {
        DispatchService Service(Index, Threads);
        Start = std::chrono::steady_clock::now();
        for (unsigned R = 0; R != BatchRepeat; ++R)
          Service.dispatchBatch(Flat.data(), NumRequests, NumParams,
                                Choices.data());
        double Sec = secondsSince(Start) / BatchRepeat;
        // Every sweep must answer the verified requests as the scan did.
        ServiceMismatches +=
            !std::equal(Expect.begin(), Expect.end(), Choices.begin());
        if (Threads == 1)
          OneThreadSec = Sec;
        double Mqps = double(NumRequests) / Sec / 1e6;
        double Scaling = Sec > 0 ? OneThreadSec / Sec : 0;
        std::printf("           %u thread%s %8.1f ns/query  %7.2f Mq/s  "
                    "scaling %4.2fx\n",
                    Threads, Threads == 1 ? " " : "s",
                    Sec * 1e9 / double(NumRequests), Mqps, Scaling);
        std::fprintf(Out,
                     "%s        {\"threads\": %u, \"ns_per_query\": %.2f, "
                     "\"mqps\": %.3f, \"scaling\": %.3f}",
                     FirstThreads ? "" : ",\n", Threads,
                     Sec * 1e9 / double(NumRequests), Mqps, Scaling);
        FirstThreads = false;
      }
      std::fprintf(Out, "\n      ]}");
    }
    std::fprintf(Out, "\n    ]}");
    std::printf("\n");
    if (Index.numChoices() > LargestChoices) {
      Largest = P.Name;
      LargestChoices = Index.numChoices();
      LargestWorstSpeedup = WorstSpeedup;
    }
  }
  std::fprintf(Out, "\n  ],\n");
  std::fprintf(Out, "  \"total_mismatches\": %zu,\n", TotalMismatches);
  writeStatsMember(Out);
  std::fprintf(Out, "\n}\n");
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath);

  obs::StatsSnapshot Stats = obs::StatsRegistry::global().snapshot();
  auto Queries = Stats.Counters.find("dispatch.queries");
  std::vector<std::string> Failures;
  if (NumPrograms != 6)
    Failures.push_back(std::to_string(NumPrograms) +
                       " program(s), expected all six paper programs");
  if (TotalMismatches != 0)
    Failures.push_back(std::to_string(TotalMismatches) +
                       " index-vs-scan mismatch(es)");
  if (ServiceMismatches != 0)
    Failures.push_back(std::to_string(ServiceMismatches) +
                       " thread sweep(s) disagreeing with the linear scan");
  if (LargestWorstSpeedup < 10.0) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s: worst speedup %.1fx over the linear scan, below 10x",
                  Largest.c_str(), LargestWorstSpeedup);
    Failures.push_back(Buf);
  }
  if (!Stats.Counters.count("partition.pick_fallback"))
    Failures.push_back("partition.pick_fallback missing from the stats");
  if (Queries == Stats.Counters.end() || Queries->second == 0)
    Failures.push_back("dispatch.queries not published");
  for (const std::string &F : Failures)
    std::fprintf(stderr, "error: %s\n", F.c_str());
  return Failures.empty() ? 0 : 1;
}
