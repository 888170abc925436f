//===- dispatch/DispatchService.cpp - Multi-threaded fleet dispatch -------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "dispatch/DispatchService.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace paco;

namespace {

// Registered at static-init time so the registration (and snapshot
// emission) order is deterministic regardless of which thread serves the
// first batch.
obs::Counter &QueriesC =
    obs::StatsRegistry::global().counter("dispatch.queries");
obs::Counter &FastC =
    obs::StatsRegistry::global().counter("dispatch.fast_path");
obs::Counter &ExactC =
    obs::StatsRegistry::global().counter("dispatch.exact_confirms");
obs::Counter &FallbackC =
    obs::StatsRegistry::global().counter("dispatch.fallbacks");
obs::Counter &BatchesC =
    obs::StatsRegistry::global().counter("dispatch.batches");

/// Queries per wall-clock sample: one steady_clock read per chunk keeps
/// the timing overhead off the per-query path while still giving every
/// shard a dense ns-per-query distribution.
constexpr size_t TimeChunk = 64;

std::string secondsSince(std::chrono::steady_clock::time_point Epoch,
                         std::chrono::steady_clock::time_point Now) {
  double S = std::chrono::duration<double>(Now - Epoch).count();
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", S);
  return Buf;
}

} // namespace

DispatchService::DispatchService(const DispatchIndex &Index, unsigned Threads)
    : Idx(Index), Pool(Threads == 0 ? ThreadPool::hardwareThreads() : Threads),
      Shards(Pool.numThreads()), BatchLatency(Pool.numThreads()),
      Epoch(std::chrono::steady_clock::now()) {
  obs::StatsRegistry::global().gauge("dispatch.threads").set(numThreads());
  ShardLatency.reserve(Shards.size());
  for (size_t S = 0; S != Shards.size(); ++S)
    ShardLatency.push_back(&obs::StatsRegistry::global().histogram(
        "dispatch.shard" + std::to_string(S) + ".latency_ns"));
}

void DispatchService::dispatchBatch(const int64_t *Values, size_t NumRequests,
                                    size_t NumParams, unsigned *ChoicesOut) {
  assert(NumParams == Idx.numRuntimeParams() &&
         "one value per declared parameter");
  Stats Before = totals();
  auto BatchStart = std::chrono::steady_clock::now();
  size_t NumShards = Shards.size();
  size_t Chunk = (NumRequests + NumShards - 1) / NumShards;
  Pool.parallelFor(NumShards, [&](size_t Shard) {
    DispatchScratch &Scratch = Shards[Shard];
    obs::HistogramSnapshot &Local = BatchLatency[Shard];
    Local = obs::HistogramSnapshot();
    size_t Lo = Shard * Chunk;
    size_t Hi = std::min(NumRequests, Lo + Chunk);
    auto Last = std::chrono::steady_clock::now();
    for (size_t I = Lo; I < Hi;) {
      size_t StripeEnd = std::min(Hi, I + TimeChunk);
      size_t StripeLen = StripeEnd - I;
      for (; I < StripeEnd; ++I)
        ChoicesOut[I] =
            Idx.pick(Values + I * NumParams, NumParams, Scratch);
      auto Now = std::chrono::steady_clock::now();
      uint64_t NsPerQuery = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Now - Last)
              .count()) /
          StripeLen;
      Local.record(NsPerQuery);
      Last = Now;
    }
  });
  auto BatchEnd = std::chrono::steady_clock::now();
  uint64_t BatchIndex = Batches++;
  Stats After = totals();
  uint64_t DQueries = After.Queries - Before.Queries;
  QueriesC.add(DQueries);
  FastC.add(After.FastQueries - Before.FastQueries);
  ExactC.add(After.ExactConfirms - Before.ExactConfirms);
  FallbackC.add(After.Fallbacks - Before.Fallbacks);
  BatchesC.add();
  for (size_t S = 0; S != Shards.size(); ++S)
    ShardLatency[S]->mergeSnapshot(BatchLatency[S]);

  if (!TelemetrySeries && !TelemetryEvents)
    return;
  double BatchSeconds =
      std::chrono::duration<double>(BatchEnd - BatchStart).count();
  if (TelemetrySeries) {
    obs::TimeWindow W;
    W.Index = BatchIndex;
    W.Start = secondsSince(Epoch, BatchStart);
    W.End = secondsSince(Epoch, BatchEnd);
    W.counter("queries", DQueries);
    W.counter("fast_path", After.FastQueries - Before.FastQueries);
    W.counter("exact_confirms", After.ExactConfirms - Before.ExactConfirms);
    W.counter("fallbacks", After.Fallbacks - Before.Fallbacks);
    W.value("queries_per_second",
            BatchSeconds > 0 ? static_cast<double>(DQueries) / BatchSeconds
                             : 0.0);
    W.value("ns_per_query",
            DQueries ? BatchSeconds * 1e9 / static_cast<double>(DQueries)
                     : 0.0);
    for (size_t S = 0; S != Shards.size(); ++S)
      if (BatchLatency[S].count())
        W.histogram("shard" + std::to_string(S) + ".latency_ns",
                    BatchLatency[S]);
    TelemetrySeries->push(std::move(W));
  }
  if (TelemetryEvents) {
    for (size_t S = 0; S != Shards.size(); ++S) {
      size_t Lo = S * Chunk;
      size_t Hi = std::min(NumRequests, Lo + Chunk);
      if (Lo >= Hi)
        continue;
      TelemetryEvents->event(obs::LogLevel::Info, "shard-complete")
          .field("batch", BatchIndex)
          .field("shard", static_cast<uint64_t>(S))
          .field("lo", static_cast<uint64_t>(Lo))
          .field("hi", static_cast<uint64_t>(Hi))
          .field("queries", static_cast<uint64_t>(Hi - Lo))
          .field("samples", BatchLatency[S].count())
          .field("p50_ns", BatchLatency[S].percentile(50))
          .field("p99_ns", BatchLatency[S].percentile(99));
    }
  }
}

std::vector<unsigned> DispatchService::dispatchBatch(
    const std::vector<std::vector<int64_t>> &Requests) {
  size_t NumParams = Idx.numRuntimeParams();
  std::vector<int64_t> Flat(Requests.size() * NumParams);
  for (size_t I = 0; I != Requests.size(); ++I) {
    assert(Requests[I].size() == NumParams);
    std::copy(Requests[I].begin(), Requests[I].end(),
              Flat.begin() + static_cast<ptrdiff_t>(I * NumParams));
  }
  std::vector<unsigned> Choices(Requests.size());
  dispatchBatch(Flat.data(), Requests.size(), NumParams, Choices.data());
  return Choices;
}

DispatchService::Stats DispatchService::totals() const {
  Stats T;
  for (const DispatchScratch &S : Shards) {
    T.Queries += S.Queries;
    T.FastQueries += S.FastQueries;
    T.ExactConfirms += S.ExactConfirms;
    T.Fallbacks += S.Fallbacks;
    T.LeafTests += S.LeafTests;
    T.NodeVisits += S.NodeVisits;
  }
  T.Batches = Batches;
  return T;
}
