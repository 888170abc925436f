//===- tools/obs_diff.cpp - Cross-run telemetry differ --------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Diffs two machine-written JSON artifacts -- stats snapshots or
// BENCH_*.json files -- by flattening both to dotted-path -> number maps
// and comparing each shared path's value against a relative-error
// threshold. Silent with exit 0 when everything
// is within tolerance; prints one line per out-of-tolerance path and
// exits 1 otherwise, which makes it usable directly as a CI gate:
//
//   obs_diff --rel=0.10 baseline/BENCH_dispatch.json BENCH_dispatch.json
//
// Options:
//   --rel=F         relative-error threshold (default 0.10)
//   --abs=F         ignore paths where both |values| <= F (default 0)
//   --match=S       only compare paths containing S (repeatable)
//   --ignore=S      skip paths containing S (repeatable)
//   --all           also print in-tolerance paths and a summary
//
// Exit codes: 0 in tolerance, 1 out of tolerance, 2 usage or I/O error.
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace paco;

namespace {

struct Options {
  double Rel = 0.10;
  double Abs = 0;
  std::vector<std::string> Match;
  std::vector<std::string> Ignore;
  bool All = false;
  std::string PathA, PathB;
};

/// The label of array element \p Index in a flattened path: the value of
/// an identifying string field (`name`, `program`, `scenario`,
/// `distribution`) when the element is an object carrying one, so BENCH
/// rows and stats snapshots produce stable, human-readable keys; the
/// index otherwise.
std::string elementLabel(const json::Value &V, size_t Index) {
  if (V.isObject())
    for (const char *Field : {"name", "program", "scenario", "distribution"}) {
      const json::Value *Id = V.find(Field);
      if (Id && Id->isString())
        return Id->text();
    }
  return std::to_string(Index);
}

/// Flattens \p V into dotted-path -> number entries of \p Out: object
/// members append their key, array elements their label. The last write
/// wins on duplicate paths; non-numeric leaves are skipped.
void flattenInto(const json::Value &V, const std::string &Path,
                 std::map<std::string, double> &Out) {
  switch (V.kind()) {
  case json::Value::Kind::Number:
    Out[Path] = V.number();
    break;
  case json::Value::Kind::Object:
    for (const json::Member &M : V.object())
      flattenInto(M.second, Path.empty() ? M.first : Path + "." + M.first,
                  Out);
    break;
  case json::Value::Kind::Array: {
    const json::Array &A = V.array();
    for (size_t I = 0; I != A.size(); ++I) {
      std::string Label = elementLabel(A[I], I);
      flattenInto(A[I], Path.empty() ? Label : Path + "." + Label, Out);
    }
    break;
  }
  default: // null / bool / string leaves carry no comparable number
    break;
  }
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  std::vector<std::string> Positional;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--rel=", 0) == 0)
      Opts.Rel = std::atof(Arg.c_str() + 6);
    else if (Arg.rfind("--abs=", 0) == 0)
      Opts.Abs = std::atof(Arg.c_str() + 6);
    else if (Arg.rfind("--match=", 0) == 0)
      Opts.Match.push_back(Arg.substr(8));
    else if (Arg.rfind("--ignore=", 0) == 0)
      Opts.Ignore.push_back(Arg.substr(9));
    else if (Arg == "--all")
      Opts.All = true;
    else if (Arg.rfind("--", 0) == 0)
      return false;
    else
      Positional.push_back(std::move(Arg));
  }
  if (Positional.size() != 2)
    return false;
  Opts.PathA = Positional[0];
  Opts.PathB = Positional[1];
  return true;
}

bool selected(const std::string &Path, const Options &Opts) {
  for (const std::string &S : Opts.Ignore)
    if (Path.find(S) != std::string::npos)
      return false;
  if (Opts.Match.empty())
    return true;
  for (const std::string &S : Opts.Match)
    if (Path.find(S) != std::string::npos)
      return true;
  return false;
}

bool loadFlat(const std::string &Path, std::map<std::string, double> &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "obs_diff: cannot open %s\n", Path.c_str());
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  json::ParseResult R = json::parse(Buf.str());
  if (!R.Ok) {
    std::fprintf(stderr, "obs_diff: %s: %s\n", Path.c_str(),
                 R.Error.c_str());
    return false;
  }
  flattenInto(R.V, "", Out);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::fprintf(stderr,
                 "usage: obs_diff [--rel=F] [--abs=F] [--match=S] "
                 "[--ignore=S] [--all] A.json B.json\n");
    return 2;
  }
  std::map<std::string, double> A, B;
  if (!loadFlat(Opts.PathA, A) || !loadFlat(Opts.PathB, B))
    return 2;

  size_t Compared = 0, Flagged = 0, OnlyA = 0, OnlyB = 0;
  for (const auto &[Path, ValueA] : A) {
    if (!selected(Path, Opts))
      continue;
    auto It = B.find(Path);
    if (It == B.end()) {
      ++OnlyA;
      if (Opts.All)
        std::printf("ONLY-A     %s: %g\n", Path.c_str(), ValueA);
      continue;
    }
    double ValueB = It->second;
    ++Compared;
    double Scale = std::max(std::fabs(ValueA), std::fabs(ValueB));
    if (Scale <= Opts.Abs)
      continue;
    double RelErr = Scale == 0 ? 0 : std::fabs(ValueB - ValueA) / Scale;
    if (RelErr > Opts.Rel) {
      ++Flagged;
      std::printf("DRIFT      %s: %g -> %g (%+.1f%%)\n", Path.c_str(), ValueA,
                  ValueB,
                  ValueA == 0 ? 100.0 : (ValueB - ValueA) / ValueA * 100.0);
    } else if (Opts.All) {
      std::printf("OK         %s: %g -> %g\n", Path.c_str(), ValueA, ValueB);
    }
  }
  for (const auto &[Path, ValueB] : B) {
    if (!selected(Path, Opts) || A.count(Path))
      continue;
    ++OnlyB;
    if (Opts.All)
      std::printf("ONLY-B     %s: %g\n", Path.c_str(), ValueB);
  }

  if (Flagged || Opts.All)
    std::printf("obs_diff: %zu compared, %zu out of tolerance (rel > %g), "
                "%zu only in A, %zu only in B\n",
                Compared, Flagged, Opts.Rel, OnlyA, OnlyB);
  return Flagged ? 1 : 0;
}
