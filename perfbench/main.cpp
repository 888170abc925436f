//===- perfbench/main.cpp - End-to-end benchmark entry point --------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
//   paco_perfbench --workload compile|run|recover|serve --seed N
//       --seconds S --trace 0|1 [--data-dir DIR] [--out-dir DIR]
//       [--launch-time T] [--setup-only] [--inject session|dispatch|cost]
//   paco_perfbench --selftest
//
// Runs one workload per invocation and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; --trace 1 runs the workload once with
// spans and allocation counting on and reports the per-layer metrics.
// Exits 1 when an oracle finds a wrong output (the JSON then says
// "correct": false) and 2 on a usage error. run.py builds this binary and
// passes the launch time, data and output directories.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "paco_perfbench: %s\nusage: paco_perfbench --workload "
               "compile|run|recover|serve --seed N --seconds S --trace 0|1 "
               "[--data-dir DIR] [--out-dir DIR] [--launch-time T] "
               "[--setup-only] [--inject session|dispatch|cost]\n"
               "       paco_perfbench "
               "--selftest\n",
               Why);
  return 2;
}

void printReport(const Report &R) {
  for (size_t I = 0; I != R.Mismatches.size() && I != 20; ++I)
    std::fprintf(stderr, "MISMATCH %s\n", R.Mismatches[I].c_str());
  if (R.Mismatches.size() > 20)
    std::fprintf(stderr, "... %zu mismatches in all\n", R.Mismatches.size());
  std::string Out = std::string("{\"correct\": ") +
                    (R.Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    char Value[64];
    std::snprintf(Value, sizeof Value, "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Value +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.LaunchTime = now();
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--selftest")
      return selfTestOracles() ? 0 : 1;
    if (Flag == "--setup-only") {
      O.SetupOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value after " + Flag).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value && !*End;
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value, &End);
      if (!*Value || *End || !(O.Seconds > 0))
        return usage("--seconds takes a positive number");
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1"))
        return usage("--trace takes 0 or 1");
      O.Trace = Value[0] == '1';
    } else if (Flag == "--data-dir") {
      O.DataDir = Value;
    } else if (Flag == "--out-dir") {
      O.OutDir = Value;
    } else if (Flag == "--launch-time") {
      O.LaunchTime = std::strtod(Value, &End);
      if (!*Value || *End)
        return usage("--launch-time takes a steady-clock time in seconds");
    } else if (Flag == "--inject") {
      O.Inject = Value;
      if (O.Inject != "session" && O.Inject != "dispatch" &&
          O.Inject != "cost")
        return usage("--inject takes session, dispatch or cost");
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    return usage("--workload and --seed are required");

  Report R;
  int Status = 0;
  if (O.Workload == "compile")
    Status = runCompileWorkload(O, R);
  else if (O.Workload == "run" || O.Workload == "recover")
    Status = runSessionWorkload(O, R);
  else if (O.Workload == "serve")
    Status = runServeWorkload(O, R);
  else
    return usage(("unknown workload " + O.Workload).c_str());
  if (Status != 0 || O.SetupOnly)
    return Status;
  printReport(R);
  return R.Correct ? 0 : 1;
}
