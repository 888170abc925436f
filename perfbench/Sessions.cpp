//===- perfbench/Sessions.cpp - The run and recover workloads -------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The self-scheduling program's wait: seeded lists of sessions, each one
// runProgram of a compiled program at one parameter point with its own
// generated inputs. `run` keeps the link perfect, so the interpreter core
// and the simulator's accounting do all the timed work. `recover` runs
// shorter sessions under injected link drops (degrade policy) and server
// crash/restart schedules (closed-loop policy), which adds checkpoints,
// ledger syncs, probes and repricing at every task boundary.
//
// Every session's outputs must equal the all-client run of the same
// program, point and inputs; the call-loop program's output must also
// equal a native evaluation of its recurrence.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "interp/Interp.h"
#include "programs/Programs.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace paco;
using namespace perfbench;

namespace {

/// Index of the call-loop program, after the five shipped ones.
constexpr unsigned CallLoop = 5;

enum class Fault { None, Drops, Crash };

struct Session {
  unsigned Prog = 0;
  Fault Kind = Fault::None;
  /// Crash instant as a share (in sixteenths) of the clean session's
  /// simulated time; the schedule is fixed in the reference phase.
  unsigned CrashSixteenths = 0;
  ExecOptions Opts;
  std::vector<double> Expected;
  double CleanSeconds = 0;
};

/// The recurrence callloop.mc computes, evaluated natively.
int64_t callLoopNative(int64_t Acc, int64_t N) {
  for (int64_t K = 0; K < N; ++K) {
    int64_t A = (Acc * 31 + K) & 65535;
    int64_t B = ((A ^ (A >> 3)) * 13 + 7) & 65535;
    B = B > 32768 ? B - 32768 : B + (K & 4095);
    Acc = ((((B ^ (B << 2)) & 65535) + A * 5) ^ (K & 255)) & 65535;
  }
  return Acc;
}

std::string programName(unsigned Prog) {
  return Prog == CallLoop ? "callloop" : programNames()[Prog];
}

/// A session of \p Prog at \p Params with inputs generated from \p G.
Session makeSession(unsigned Prog, std::vector<int64_t> Params, Rng &G) {
  Session S;
  S.Prog = Prog;
  ExecOptions &O = S.Opts;
  O.Mode = ExecOptions::Placement::Dispatch;
  const std::string Name = programName(Prog);
  if (Name == "rawcaudio") {
    O.Inputs = programs::makeAudioSamples(size_t(Params[0]), G.next());
  } else if (Name == "rawdaudio") {
    O.Inputs = programs::makeBytes(size_t(Params[0] / 2 + 1), G.next());
  } else if (Name == "encode" || Name == "decode") {
    // Linear-format encoder input is speech; everything else is bytes
    // (a-law/u-law samples or ADPCM codes).
    size_t Count = size_t(Params[4] * Params[5]);
    bool Linear = Name == "encode" && Params[2] == 0 && Params[3] == 0;
    O.Inputs = Linear ? programs::makeAudioSamples(Count, G.next())
                      : programs::makeBytes(Count, G.next());
  } else if (Name == "fft") {
    for (int64_t W = 0; W != Params[0]; ++W) {
      O.Inputs.push_back(G.range(1, 16));  // amplitude, in eighths
      O.Inputs.push_back(G.range(1, 400)); // frequency, in hundredths
    }
  } else {
    O.Inputs = {G.range(0, 65535)};
  }
  O.ParamValues = std::move(Params);
  return S;
}

/// \p K codec sessions. Session I gets quantizer setting I % 4 (use3,
/// use4) and sample format I % 3 (linear, a-law, u-law), nframes from
/// stratum I and bufsize from stratum (3I + 1) % K of their ranges, so
/// every seed gets the same mix of settings and nearly the same sizes.
void addCodec(std::vector<Session> &L, unsigned Prog, unsigned K,
              int64_t FramesLo, int64_t FramesHi, int64_t BufLo,
              int64_t BufHi, Fault Kind, Rng &G) {
  for (unsigned I = 0; I != K; ++I) {
    int64_t Fmt = I % 3;
    Session S = makeSession(
        Prog,
        {int64_t(I % 4 & 1), int64_t(I % 4 >> 1), Fmt == 1, Fmt == 2,
         G.stratum(FramesLo, FramesHi, I, K),
         G.stratum(BufLo, BufHi, (3 * I + 1) % K, K)},
        G);
    S.Kind = Kind;
    L.push_back(std::move(S));
  }
}

void addRaw(std::vector<Session> &L, unsigned Prog, unsigned K, int64_t Lo,
            int64_t Hi, Fault Kind, Rng &G) {
  for (unsigned I = 0; I != K; ++I) {
    Session S = makeSession(Prog, {G.stratum(Lo, Hi, I, K)}, G);
    S.Kind = Kind;
    L.push_back(std::move(S));
  }
}

void addFft(std::vector<Session> &L, unsigned K, int64_t LogLo,
            int64_t LogHi, Fault Kind, Rng &G) {
  for (unsigned I = 0; I != K; ++I) {
    int64_t LogM = G.stratum(LogLo, LogHi, I, K);
    Session S = makeSession(4,
                            {G.stratum(1, 8, (3 * I + 1) % K, K),
                             int64_t(1) << LogM, LogM, int64_t(I % 2)},
                            G);
    S.Kind = Kind;
    L.push_back(std::move(S));
  }
}

/// `run`: a perfect link; sizes chosen so a round takes a few seconds.
std::vector<Session> runList(Rng &G) {
  std::vector<Session> L;
  addRaw(L, 0, 4, 8192, 32768, Fault::None, G);
  addRaw(L, 1, 4, 8192, 32768, Fault::None, G);
  addCodec(L, 2, 8, 2, 8, 64, 320, Fault::None, G);
  addCodec(L, 3, 8, 2, 8, 64, 320, Fault::None, G);
  addFft(L, 6, 7, 11, Fault::None, G);
  L.push_back(makeSession(CallLoop, {G.range(38000, 40000)}, G));
  return L;
}

/// `recover`: short sessions, since today's checkpoint cost grows with
/// the square of session length.
std::vector<Session> recoverList(Rng &G) {
  std::vector<Session> L;
  addCodec(L, 2, 4, 1, 1, 64, 128, Fault::Drops, G);
  addCodec(L, 3, 4, 1, 1, 64, 128, Fault::Drops, G);
  addRaw(L, 0, 2, 2048, 8192, Fault::Drops, G);
  addRaw(L, 1, 2, 2048, 8192, Fault::Drops, G);
  addFft(L, 2, 8, 10, Fault::Drops, G);
  addFft(L, 2, 8, 9, Fault::Crash, G);
  addRaw(L, 0, 2, 1024, 4096, Fault::Crash, G);
  unsigned Crashes = 0;
  for (Session &S : L) {
    if (S.Kind == Fault::Drops) {
      S.Opts.Link.Seed = G.next();
      S.Opts.Link.DropRate = 0.1;
      S.Opts.Link.JitterUnits = 4;
      S.Opts.OnLinkFailure = FaultPolicy::DegradeToLocal;
    } else {
      S.Opts.Adapt.Policy = AdaptationPolicy::ClosedLoop;
      S.Opts.OnLinkFailure = FaultPolicy::DegradeToLocal;
      // 3/4, 1/2, 1/4, 3/4: the later crashes leave fft a ledger to sync.
      S.CrashSixteenths = 12 - 4 * (Crashes++ % 3);
    }
  }
  return L;
}

bool offloads(const CompiledProgram &CP, unsigned Choice) {
  if (Choice >= CP.Partition.Choices.size())
    return false;
  for (bool OnServer : CP.Partition.Choices[Choice].TaskOnServer)
    if (OnServer)
      return true;
  return false;
}

/// Reference phase (outside the timed phase): the all-client outputs of
/// every session, and for `recover` the clean-link run that fixes each
/// crash schedule and gives the clean time.
void prepareReferences(std::vector<Session> &L,
                       const std::vector<std::unique_ptr<CompiledProgram>> &CPs,
                       bool Recover, Report &R) {
  for (Session &S : L) {
    const CompiledProgram &CP = *CPs[S.Prog];
    ExecOptions Local;
    Local.Mode = ExecOptions::Placement::AllClient;
    Local.ParamValues = S.Opts.ParamValues;
    Local.Inputs = S.Opts.Inputs;
    ExecResult Ref = runProgram(CP, Local);
    if (!Ref.OK)
      R.mismatch(programName(S.Prog) + ": all-client reference failed: " +
                 Ref.Error);
    S.Expected = std::move(Ref.Outputs);
    if (S.Prog == CallLoop) {
      int64_t Native =
          callLoopNative(S.Opts.Inputs[0], S.Opts.ParamValues[0]);
      if (S.Expected.size() != 1 || S.Expected[0] != double(Native))
        R.mismatch("callloop: interpreter output differs from the native "
                   "recurrence " +
                   std::to_string(Native));
    }
    if (!Recover)
      continue;
    ExecOptions Clean;
    Clean.Mode = ExecOptions::Placement::Dispatch;
    Clean.ParamValues = S.Opts.ParamValues;
    Clean.Inputs = S.Opts.Inputs;
    double Start = now();
    ExecResult C = runProgram(CP, Clean);
    S.CleanSeconds = now() - Start;
    if (S.Kind == Fault::Crash) {
      ServerCrash E;
      E.At = C.Time * Rational::fraction(S.CrashSixteenths, 16);
      E.Restarts = true;
      E.RestartAt = E.At + C.Time * Rational::fraction(1, 64);
      S.Opts.Crash.Events = {E};
    }
  }
}

struct RoundStats {
  std::vector<double> Latencies;
  /// Per session of the list, its time in this round.
  std::vector<double> SessionSeconds;
  /// Per program: session seconds and offloaded sessions.
  std::map<unsigned, std::vector<double>> PerProgram;
  std::map<unsigned, unsigned> Offloaded;
};

/// One round over the list: every session once, checked on the spot.
void runRound(std::vector<Session> &L,
              const std::vector<std::unique_ptr<CompiledProgram>> &CPs,
              Tracer &T, LayerMetrics *Layers, bool InjectWrongOutput,
              RoundStats &Stats, Report &R) {
  Stats.SessionSeconds.assign(L.size(), 0);
  for (size_t I = 0; I != L.size(); ++I) {
    Session &S = L[I];
    const CompiledProgram &CP = *CPs[S.Prog];
    Span Op(T, "op", int64_t(I));
    AllocCounts Before = allocCounts();
    if (Layers)
      resetAllocPeak();
    double Start = now();
    ExecResult Res;
    {
      Span In(T, "interp");
      Res = runProgram(CP, S.Opts);
    }
    double Seconds = now() - Start;
    ++R.Attempted;
    if (!Res.OK) {
      ++R.Failed;
      std::fprintf(stderr, "%s session failed: %s\n",
                   programName(S.Prog).c_str(), Res.Error.c_str());
      continue;
    }
    Stats.Latencies.push_back(Seconds);
    Stats.SessionSeconds[I] = Seconds;
    Stats.PerProgram[S.Prog].push_back(Seconds);
    Stats.Offloaded[S.Prog] += offloads(CP, Res.ChoiceUsed);
    if (InjectWrongOutput && I == 0 && !Res.Outputs.empty())
      Res.Outputs[0] += 1;
    if (Res.Outputs != S.Expected)
      R.mismatch(programName(S.Prog) + " session " + std::to_string(I) +
                 ": outputs differ from the all-client run");
    if (!Layers)
      continue;
    AllocCounts After = allocCounts();
    LayerMetrics &M = *Layers;
    M.Instrs += Res.ClientInstrs + Res.ServerInstrs;
    M.InterpAllocs += After.Allocs - Before.Allocs;
    M.PeakLiveBytes =
        std::max(M.PeakLiveBytes, allocPeakBytes() - Before.LiveBytes);
    M.Messages += Res.Migrations + Res.TransferCount + Res.Registrations;
    M.Bytes += Res.BytesToServer + Res.BytesToClient;
    M.Timeouts += Res.Timeouts;
    M.Fallbacks += Res.Fallbacks;
    M.CrashRecoveries += Res.CrashRecoveries;
    M.Probes += Res.Probes;
    M.LedgerSyncs += Res.LedgerSyncs;
    M.Redispatches += Res.Redispatches.size();
  }
}

void printMakeup(const std::vector<Session> &L, RoundStats &Stats) {
  std::map<unsigned, unsigned> Count;
  for (const Session &S : L)
    ++Count[S.Prog];
  for (auto &[Prog, Seconds] : Stats.PerProgram)
    std::printf("sessions %-9s %2u per round, median %8.2f ms, "
                "offloaded %u of %zu\n",
                programName(Prog).c_str(), Count[Prog],
                median(Seconds) * 1e3, Stats.Offloaded[Prog],
                Seconds.size());
}

} // namespace

int perfbench::runSessionWorkload(const Options &O, Report &R) {
  const bool Recover = O.Workload == "recover";
  std::ifstream File(O.DataDir + "/callloop.mc");
  std::stringstream CallLoopSource;
  CallLoopSource << File.rdbuf();
  if (!File) {
    std::fprintf(stderr, "perfbench: cannot read %s/callloop.mc\n",
                 O.DataDir.c_str());
    return 2;
  }

  Tracer T(O.Trace);
  LayerMetrics L;
  setAllocCounting(O.Trace);
  uint64_t Ray0 = 0, Half0 = 0, Ray1 = 0, Half1 = 0;
  readDDCounters(Ray0, Half0);
  std::vector<std::unique_ptr<CompiledProgram>> CPs;
  std::vector<Session> List;
  double UntracedSeconds = 0, TracedSeconds = 0;
  RoundStats Stats;
  {
    Span W(T, "workload");
    // Set-up: compile the programs and generate the session list.
    {
      Span S(T, "setup");
      std::vector<std::string> Sources;
      for (const std::string &Name : programNames())
        Sources.push_back(programs::programByName(Name).Source);
      Sources.push_back(CallLoopSource.str());
      for (const std::string &Src : Sources) {
        CPs.push_back(compileProgram(Src, T, L));
        if (!CPs.back()) {
          std::fprintf(stderr, "perfbench: a program failed to compile\n");
          return 1;
        }
      }
      Span In(T, "inputs");
      Rng G(O.Seed);
      List = Recover ? recoverList(G) : runList(G);
    }
    double Setup = now() - O.LaunchTime;
    readDDCounters(Ray1, Half1);
    // Only the traced set-up and the traced round count allocations, so
    // the clean-link and untraced times carry no counting cost.
    setAllocCounting(false);
    {
      Span S(T, "oracle");
      prepareReferences(List, CPs, Recover, R);
    }

    if (!O.Trace) {
      double Start = now();
      do
        runRound(List, CPs, T, nullptr, O.Inject == "session", Stats, R);
      while (now() - Start < O.Seconds);
      double Elapsed = now() - Start;
      R.add("setup_s", Setup, "s");
      R.add("ops_per_s", double(Stats.Latencies.size()) / Elapsed, "1/s");
      R.add("op_p50_ms", median(Stats.Latencies) * 1e3, "ms");
      R.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
      // One untraced round, for the tracing overhead and the runtime's
      // overhead, then the traced one.
      RoundStats Untraced;
      Tracer Off(false);
      {
        Span S(T, "untraced");
        double Start = now();
        runRound(List, CPs, Off, nullptr, false, Untraced, R);
        UntracedSeconds = now() - Start;
      }
      for (size_t I = 0; I != List.size(); ++I)
        if (List[I].Kind != Fault::None)
          L.RuntimeOverheadMs +=
              (Untraced.SessionSeconds[I] - List[I].CleanSeconds) * 1e3;
      setAllocCounting(true);
      Span Round(T, "round");
      double Start = now();
      runRound(List, CPs, T, &L, O.Inject == "session", Stats, R);
      TracedSeconds = now() - Start;
    }
  }
  setAllocCounting(false);
  printMakeup(List, Stats);
  if (O.Trace) {
    L.DDRayCombinations = Ray1 - Ray0;
    L.DDHalfspaces = Half1 - Half0;
    finishTraced(O, T, L, TracedSeconds, UntracedSeconds, R);
  }
  return 0;
}
