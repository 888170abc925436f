//===- perfbench/Trace.cpp - Spans, self time and per-layer report --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sys/resource.h>

using namespace perfbench;

int Tracer::open(const std::string &Name, int64_t Op) {
  SpanRec S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = Op < 0 && S.Parent >= 0 ? Spans[S.Parent].Op : Op;
  S.Start = now();
  Spans.push_back(std::move(S));
  Stack.push_back(static_cast<int>(Spans.size() - 1));
  return Stack.back();
}

void Tracer::close(int Id) {
  Spans[Id].End = now();
  Stack.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    Self[I] += Spans[I].End - Spans[I].Start;
    if (Spans[I].Parent >= 0)
      Self[Spans[I].Parent] -= Spans[I].End - Spans[I].Start;
  }
  std::vector<std::pair<std::string, double>> Out;
  std::map<std::string, size_t> Index;
  for (size_t I = 0; I != Spans.size(); ++I) {
    auto [It, New] = Index.emplace(Spans[I].Name, Out.size());
    if (New)
      Out.push_back({Spans[I].Name, 0.0});
    Out[It->second].second += Self[I];
  }
  return Out;
}

double Tracer::selfTime(const std::string &Name) const {
  for (const auto &[N, S] : selfTimes())
    if (N == Name)
      return S;
  return 0;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream F(Path);
  if (!F)
    return false;
  double Origin = Spans.empty() ? 0 : Spans.front().Start;
  F << "{\"traceEvents\": [\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    char Buf[128];
    std::snprintf(Buf, sizeof Buf, "\"ts\": %.3f, \"dur\": %.3f",
                  (S.Start - Origin) * 1e6, (S.End - S.Start) * 1e6);
    F << "  {\"name\": \"" << S.Name << "\", \"ph\": \"X\", " << Buf
      << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << I
      << ", \"parent\": " << S.Parent << ", \"op\": " << S.Op << "}}"
      << (I + 1 == Spans.size() ? "\n" : ",\n");
  }
  F << "]}\n";
  return static_cast<bool>(F);
}

void LayerMetrics::addTo(Report &R) const {
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  R.add("lang.ms", LangMs, "ms");
  R.add("ir.ms", IrMs, "ms");
  R.add("analysis.ms", AnalysisMs, "ms");
  R.add("tcfg.ms", TcfgMs, "ms");
  R.add("cost.ms", CostMs, "ms");
  R.add("partition.ms", PartitionMs, "ms");
  R.add("partition.allocs", double(PartitionAllocs), "count");
  R.add("partition.flow_solves", double(FlowSolves), "count");
  R.add("partition.bigint_solves",
        Ratio(double(BigIntSolves), double(FlowSolves)), "ratio");
  R.add("partition.cache_hit_ratio",
        Ratio(double(CacheHits), double(CacheHits + FlowSolves)), "ratio");
  R.add("poly.dd_ray_combinations", double(DDRayCombinations), "count");
  R.add("poly.dd_halfspaces", double(DDHalfspaces), "count");
  R.add("transform.ms", TransformMs, "ms");
  R.add("transform.allocs", double(TransformAllocs), "count");
  R.add("unattributed.ms", UnattributedMs, "ms");
  R.add("interp.ms", InterpMs, "ms");
  R.add("interp.minstr_per_s", Ratio(double(Instrs) / 1e6, InterpMs / 1e3),
        "Minstr/s");
  R.add("interp.allocs_per_kinstr",
        Ratio(double(InterpAllocs), double(Instrs) / 1e3), "1/kinstr");
  R.add("interp.peak_live_mb", double(PeakLiveBytes) / (1024.0 * 1024.0),
        "MB");
  R.add("runtime.overhead_ms", RuntimeOverheadMs, "ms");
  R.add("interp.instrs", double(Instrs), "count");
  R.add("runtime.messages", double(Messages), "count");
  R.add("runtime.bytes", double(Bytes), "bytes");
  R.add("runtime.timeouts", double(Timeouts), "count");
  R.add("runtime.fallbacks", double(Fallbacks), "count");
  R.add("runtime.crash_recoveries", double(CrashRecoveries), "count");
  R.add("runtime.probes", double(Probes), "count");
  R.add("runtime.ledger_syncs", double(LedgerSyncs), "count");
  R.add("runtime.redispatches", double(Redispatches), "count");
  R.add("dispatch.build_ms", DispatchBuildMs, "ms");
  R.add("dispatch.pick_ns", PickNs, "ns");
  R.add("dispatch.leaf_tests_per_query",
        Ratio(double(LeafTests), double(Queries)), "count/query");
  R.add("dispatch.node_visits_per_query",
        Ratio(double(NodeVisits), double(Queries)), "count/query");
  R.add("dispatch.fast_ratio", Ratio(double(FastQueries), double(Queries)),
        "ratio");
  R.add("dispatch.exact_confirms", double(ExactConfirms), "count");
  R.add("dispatch.fallbacks", double(DispatchFallbacks), "count");
  R.add("dispatch.batch_p99_ms", BatchP99Ms, "ms");
}

void perfbench::finishTraced(const Options &O, const Tracer &T,
                             LayerMetrics L, double TracedSeconds,
                             double UntracedSeconds, Report &R) {
  // Layer times come from the spans alone.
  L.LangMs = T.selfTime("lang") * 1e3;
  L.IrMs = T.selfTime("ir") * 1e3;
  L.AnalysisMs = T.selfTime("analysis") * 1e3;
  L.TcfgMs = T.selfTime("tcfg") * 1e3;
  L.CostMs = T.selfTime("cost") * 1e3;
  L.PartitionMs = T.selfTime("partition") * 1e3;
  L.TransformMs = T.selfTime("transform") * 1e3;
  L.UnattributedMs = T.selfTime("op") * 1e3;
  L.InterpMs = T.selfTime("interp") * 1e3;
  L.DispatchBuildMs = T.selfTime("dispatch.build") * 1e3;
  L.addTo(R);
  // Spans that only group others ("workload", "setup", "round", "op")
  // have no layer: their self time is the unattributed remainder.
  static const char *const Containers[] = {"workload", "setup", "round",
                                           "op"};
  double Wall = 0;
  for (const Tracer::SpanRec &S : T.spans())
    if (S.Parent < 0)
      Wall += S.End - S.Start;
  double Unattributed = 0;
  std::printf("self time by layer (traced section, %.1f ms wall)\n",
              Wall * 1e3);
  for (const auto &[Name, Self] : T.selfTimes()) {
    if (std::find(std::begin(Containers), std::end(Containers), Name) !=
        std::end(Containers)) {
      Unattributed += Self;
      continue;
    }
    std::printf("  %-18s %12.3f ms %6.2f%%\n", Name.c_str(), Self * 1e3,
                Wall > 0 ? 100 * Self / Wall : 0.0);
  }
  std::printf("  %-18s %12.3f ms %6.2f%%\n", "unattributed",
              Unattributed * 1e3, Wall > 0 ? 100 * Unattributed / Wall : 0.0);
  std::printf("  %-18s %12.3f ms\n", "total", Wall * 1e3);
  std::printf("tracing overhead: traced %.3f ms - untraced %.3f ms = %.3f "
              "ms (%+.2f%%)\n",
              TracedSeconds * 1e3, UntracedSeconds * 1e3,
              (TracedSeconds - UntracedSeconds) * 1e3,
              UntracedSeconds > 0
                  ? 100 * (TracedSeconds - UntracedSeconds) / UntracedSeconds
                  : 0.0);
  std::string Path = O.OutDir + "/trace-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  if (T.writeChromeTrace(Path))
    std::printf("chrome trace: %s (%zu spans)\n", Path.c_str(),
                T.spans().size());
  else
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
}

double perfbench::peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

double perfbench::median(std::vector<double> &V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(P / 100.0 * double(V.size()) + 0.999999);
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}
