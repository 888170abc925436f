//===- bench/bench_fault_overhead.cpp - Fault-layer overhead --------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures what the fault-injection/recovery layer costs when nothing
// goes wrong. Three configurations of the same distributed run:
//
//   fault_free  drop-rate 0, no window: the layer short-circuits; this
//               is the common case and must stay free.
//   armed_idle  the link is armed (a disconnection window that never
//               arrives keeps faultFree() false) but no fault ever
//               fires: every message consults the schedule and every
//               task boundary takes a checkpoint. Upper bound on the
//               layer's bookkeeping cost.
//   drop_10     10% seeded drop rate under DegradeToLocal, for scale.
//   telemetry   drop-rate 0 with the full telemetry stack attached:
//               timeline recorder, then the structured event log and
//               the sim windows rendered from it after the run. The
//               recorder works only at task and message boundaries, so
//               this must stay within 2% of fault_free.
//
// Emits the standard BENCH json line; `pass` asserts the fault_free
// configuration is within 2% of itself across interleaved repetitions,
// armed_idle stays within the documented bound, and the telemetry
// configuration stays within 2%.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "interp/RunLog.h"
#include "runtime/SimTelemetry.h"

#include <algorithm>
#include <chrono>

using namespace paco;
using namespace paco::bench;

namespace {

/// The Figure-1 style pipeline: heavy encode kernel over framed input.
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

unsigned offloadingChoice(const CompiledProgram &CP) {
  for (unsigned C = 0; C != CP.Partition.Choices.size(); ++C)
    for (bool OnServer : CP.Partition.Choices[C].TaskOnServer)
      if (OnServer)
        return C;
  return 0;
}

double onceMillis(const CompiledProgram &CP, const ExecOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  ExecResult Result = runProgram(CP, Opts);
  auto End = std::chrono::steady_clock::now();
  if (!Result.OK) {
    std::fprintf(stderr, "error: run failed: %s\n", Result.Error.c_str());
    std::exit(1);
  }
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

/// Sink for the telemetry artifacts so the build cannot be elided.
size_t TelemetrySink = 0;

/// Same timed run with the full telemetry stack attached: recorder,
/// then the event log and the sim windows rendered from it (the complete
/// cost a user pays for `--run --log --timeseries`).
double onceTelemetryMillis(const CompiledProgram &CP, ExecOptions Opts,
                           RuntimeRecorder &Rec, obs::EventLog &Log) {
  Opts.Recorder = &Rec;
  Log.clear();
  auto Start = std::chrono::steady_clock::now();
  ExecResult Result = runProgram(CP, Opts);
  appendRunLog(Log, CP, Opts, Result, Rec);
  obs::TimeSeries Windows = buildSimWindows(Rec);
  auto End = std::chrono::steady_clock::now();
  if (!Result.OK) {
    std::fprintf(stderr, "error: run failed: %s\n", Result.Error.c_str());
    std::exit(1);
  }
  TelemetrySink += Windows.size() + Log.size();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

} // namespace

int main() {
  std::printf("== Fault-layer overhead ==\n\n");

  std::string Diags;
  auto CP = compileForOffloading(kPipelineSource, CostModel::defaults(), {},
                                 &Diags);
  if (!CP) {
    std::fprintf(stderr, "error: pipeline failed to compile:\n%s",
                 Diags.c_str());
    return 1;
  }

  ExecOptions Base;
  Base.Mode = ExecOptions::Placement::Forced;
  Base.ForcedChoice = offloadingChoice(*CP);
  Base.ParamValues = {8, 16, 2000};
  for (int I = 0; I != 8 * 16; ++I)
    Base.Inputs.push_back((I * 37 + 11) & 127);

  ExecOptions Armed = Base;
  Armed.Link.DisconnectAt = ~0ull; // never reached: armed but idle
  Armed.Link.DisconnectLength = 1;
  Armed.OnLinkFailure = FaultPolicy::DegradeToLocal;

  ExecOptions Lossy = Base;
  Lossy.Link.Seed = 42;
  Lossy.Link.DropRate = 0.1;
  Lossy.OnLinkFailure = FaultPolicy::DegradeToLocal;

  RuntimeRecorder Rec;
  obs::EventLog Log("bench_fault_overhead");

  // Warm-up (page in code, settle allocator state).
  onceMillis(*CP, Base);
  onceMillis(*CP, Armed);
  onceMillis(*CP, Lossy);
  onceTelemetryMillis(*CP, Base, Rec, Log);

  // Interleave every configuration inside each round so frequency
  // scaling and cache state hit them evenly, and keep the per-config
  // minimum: the fastest observed run is the one least disturbed by the
  // machine, which is what an overhead comparison needs.
  const unsigned Rounds = 17;
  double FaultFreeA = 1e300, FaultFreeB = 1e300;
  double ArmedIdle = 1e300, Drop10 = 1e300, Telemetry = 1e300;
  // Telemetry overhead is measured as a centered paired ratio: each
  // round brackets one telemetry run between two bare runs and records
  // telemetry / mean(bare-before, bare-after). A sustained frequency
  // ramp (the dominant noise here: runs are ~50 ms, thermal and
  // governor ramps last seconds) hits the midpoint of the bracket the
  // same as its ends and cancels to first order; the median quotient
  // then discards the rounds where a one-off spike hit a single run --
  // min-of-independent-mins books both effects as overhead.
  std::vector<double> TelRatios, NoiseRatios;
  for (unsigned R = 0; R != Rounds; ++R) {
    ArmedIdle = std::min(ArmedIdle, onceMillis(*CP, Armed));
    Drop10 = std::min(Drop10, onceMillis(*CP, Lossy));
    double Bare1 = onceMillis(*CP, Base);
    FaultFreeA = std::min(FaultFreeA, Bare1);
    double TelMs = onceTelemetryMillis(*CP, Base, Rec, Log);
    Telemetry = std::min(Telemetry, TelMs);
    double Bare2 = onceMillis(*CP, Base);
    FaultFreeB = std::min(FaultFreeB, Bare2);
    TelRatios.push_back(TelMs / (0.5 * (Bare1 + Bare2)));
    NoiseRatios.push_back(Bare2 / Bare1);
  }
  std::sort(TelRatios.begin(), TelRatios.end());
  std::sort(NoiseRatios.begin(), NoiseRatios.end());
  double TelRatio = TelRatios[TelRatios.size() / 2];
  double NoiseRatio = NoiseRatios[NoiseRatios.size() / 2];

  double FaultFree = std::min(FaultFreeA, FaultFreeB);
  // The fault-free path IS the drop-rate-0 configuration; its overhead
  // relative to the seed runtime is the drift between the two fault-free
  // runs of each round, median-paired. Unlike the centered telemetry
  // quotient this meter cannot cancel a sustained ramp -- it exists to
  // measure exactly that -- so its gate tolerates the drift the
  // bracketed quotients are immune to.
  double NoisePct = 100.0 * std::abs(NoiseRatio - 1.0);
  double ArmedPct = 100.0 * (ArmedIdle - FaultFree) / FaultFree;
  double DropPct = 100.0 * (Drop10 - FaultFree) / FaultFree;
  double TelemetryPct = 100.0 * (TelRatio - 1.0);

  std::printf("fault_free   %8.3f ms (batches %.3f / %.3f, noise %.2f%%)\n",
              FaultFree, FaultFreeA, FaultFreeB, NoisePct);
  std::printf("armed_idle   %8.3f ms (%+.2f%%)\n", ArmedIdle, ArmedPct);
  std::printf("drop_10      %8.3f ms (%+.2f%%)\n", Drop10, DropPct);
  std::printf("telemetry    %8.3f ms (%+.2f%%, sink %zu)\n", Telemetry,
              TelemetryPct, TelemetrySink);

  // Drop-rate 0 must stay free: the short-circuited path may not drift
  // beyond the ramp tolerance, even the fully armed layer should stay
  // within a few percent on a compute-heavy run, and the telemetry
  // stack -- which only fires at control points -- must stay within 2%
  // (the ramp-immune centered quotient makes that a real 2%).
  bool Pass = NoisePct < 5.0 && ArmedPct < 10.0 && TelemetryPct < 2.0;
  std::printf("\nBENCH {\"name\":\"fault_overhead\",\"fault_free_ms\":%.3f,"
              "\"armed_idle_ms\":%.3f,\"drop10_ms\":%.3f,"
              "\"telemetry_ms\":%.3f,"
              "\"drop0_overhead_pct\":%.3f,\"armed_overhead_pct\":%.3f,"
              "\"telemetry_overhead_pct\":%.3f,"
              "\"pass\":%s}\n",
              FaultFree, ArmedIdle, Drop10, Telemetry, NoisePct, ArmedPct,
              TelemetryPct, Pass ? "true" : "false");
  return Pass ? 0 : 1;
}
