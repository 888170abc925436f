//===- obs/Export.cpp - Telemetry exporters -------------------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

using namespace paco;
using namespace paco::obs;

namespace {

/// Sanitizes one metric-name fragment into Prometheus charset
/// [a-zA-Z0-9_].
std::string sanitize(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name)
    Out += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  if (!Out.empty() && std::isdigit(static_cast<unsigned char>(Out[0])))
    Out.insert(Out.begin(), '_');
  return Out;
}

/// Splits `<area>.shard<N>.<rest>` into a shard-labeled family; any other
/// name becomes an unlabeled family.
struct FamilyName {
  std::string Family; ///< Sanitized, without prefix or suffix.
  std::string Labels; ///< `shard="N"` or empty.
};

FamilyName splitName(const std::string &Name) {
  // `<area>.shard<N>.<rest>`, or `shard<N>.<rest>` for window-local
  // names that carry no area prefix.
  size_t Pos = Name.find(".shard");
  size_t DigitsBegin;
  if (Pos != std::string::npos)
    DigitsBegin = Pos + 6;
  else if (Name.compare(0, 5, "shard") == 0)
    DigitsBegin = (Pos = 0) + 5;
  else
    return {sanitize(Name), ""};
  size_t DigitsEnd = DigitsBegin;
  while (DigitsEnd < Name.size() &&
         std::isdigit(static_cast<unsigned char>(Name[DigitsEnd])))
    ++DigitsEnd;
  if (DigitsEnd > DigitsBegin && DigitsEnd < Name.size() &&
      Name[DigitsEnd] == '.') {
    FamilyName F;
    F.Family = sanitize(Name.substr(0, Pos) + (Pos ? ".shard." : "shard.") +
                        Name.substr(DigitsEnd + 1));
    F.Labels =
        "shard=\"" + Name.substr(DigitsBegin, DigitsEnd - DigitsBegin) + "\"";
    return F;
  }
  return {sanitize(Name), ""};
}

std::string promDouble(double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

/// Collects samples per family in first-appearance order, then renders
/// each family under one TYPE header.
class Exposition {
public:
  explicit Exposition(std::string Prefix) : Prefix(std::move(Prefix)) {}

  struct Sample {
    std::string Labels; ///< Comma-joined `k="v"` pairs, no braces.
    std::string Value;  ///< Pre-rendered number.
    std::string Suffix; ///< Appended to the family name (e.g. "_sum").
  };

  void add(const std::string &Family, const char *Type, Sample S) {
    auto [It, Inserted] = Families.try_emplace(Family);
    if (Inserted) {
      Order.push_back(Family);
      It->second.Type = Type;
    }
    It->second.Samples.push_back(std::move(S));
  }

  std::string render() const {
    std::string Out;
    for (const std::string &Name : Order) {
      const FamilyData &F = Families.at(Name);
      Out += "# TYPE ";
      Out += Prefix + Name;
      Out += " ";
      Out += F.Type;
      Out += "\n";
      for (const Sample &S : F.Samples) {
        Out += Prefix + Name + S.Suffix;
        if (!S.Labels.empty()) {
          Out += "{";
          Out += S.Labels;
          Out += "}";
        }
        Out += " ";
        Out += S.Value;
        Out += "\n";
      }
    }
    return Out;
  }

private:
  struct FamilyData {
    const char *Type = "untyped";
    std::vector<Sample> Samples;
  };
  std::string Prefix;
  std::map<std::string, FamilyData> Families;
  std::vector<std::string> Order;
};

void addSummary(Exposition &Exp, const std::string &Family,
                const std::string &Labels, const HistogramSnapshot &H) {
  static const struct {
    const char *Label;
    double P;
  } Quantiles[] = {{"0.5", 50}, {"0.95", 95}, {"0.99", 99}};
  for (const auto &Q : Quantiles) {
    std::string L = Labels.empty() ? std::string() : Labels + ",";
    L += "quantile=\"";
    L += Q.Label;
    L += "\"";
    Exp.add(Family, "summary",
            {std::move(L), promDouble(H.percentile(Q.P)), ""});
  }
  Exp.add(Family, "summary", {Labels, std::to_string(H.Sum), "_sum"});
  Exp.add(Family, "summary", {Labels, std::to_string(H.count()), "_count"});
}

} // namespace

std::string paco::obs::toPrometheusText(const StatsSnapshot &Snap,
                                        const PrometheusOptions &Opts) {
  Exposition Exp(Opts.Prefix);
  for (const std::string &Name : Snap.CounterOrder) {
    FamilyName F = splitName(Name);
    Exp.add(F.Family + "_total", "counter",
            {F.Labels, std::to_string(Snap.Counters.at(Name)), ""});
  }
  for (const std::string &Name : Snap.GaugeOrder) {
    FamilyName F = splitName(Name);
    Exp.add(F.Family, "gauge",
            {F.Labels, std::to_string(Snap.Gauges.at(Name)), ""});
  }
  for (const std::string &Name : Snap.TimerOrder) {
    FamilyName F = splitName(Name);
    const StatsSnapshot::TimerValue &V = Snap.Timers.at(Name);
    Exp.add(F.Family + "_seconds_total", "counter",
            {F.Labels, promDouble(V.Seconds), ""});
    Exp.add(F.Family + "_calls_total", "counter",
            {F.Labels, std::to_string(V.Count), ""});
  }
  for (const std::string &Name : Snap.HistogramOrder) {
    FamilyName F = splitName(Name);
    addSummary(Exp, F.Family, F.Labels, Snap.Histograms.at(Name));
  }
  return Exp.render();
}

std::string paco::obs::windowPrometheusText(const TimeSeries &Series,
                                            const PrometheusOptions &Opts) {
  if (Series.size() == 0)
    return "";
  const TimeWindow &W = Series.latest();
  std::string Base = sanitize(Series.name()) + "_window";
  Exposition Exp(Opts.Prefix);
  Exp.add(Base + "_index", "gauge", {"", std::to_string(W.Index), ""});
  for (const auto &[Name, V] : W.Counters) {
    FamilyName F = splitName(Name);
    Exp.add(Base + "_" + F.Family, "gauge",
            {F.Labels, std::to_string(V), ""});
  }
  for (const auto &[Name, V] : W.Values) {
    FamilyName F = splitName(Name);
    Exp.add(Base + "_" + F.Family, "gauge", {F.Labels, promDouble(V), ""});
  }
  for (const auto &[Name, H] : W.Histograms) {
    FamilyName F = splitName(Name);
    addSummary(Exp, Base + "_" + F.Family, F.Labels, H);
  }
  return Exp.render();
}

bool paco::obs::writeTextFile(const std::string &Path, const std::string &Text,
                              std::string *Err) {
  auto fail = [&](const char *Fallback) {
    if (Err) {
      *Err = Path + ": ";
      *Err += errno ? std::strerror(errno) : Fallback;
    }
    return false;
  };
  errno = 0;
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return fail("cannot open");
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), Out);
  if (Written != Text.size() || std::fflush(Out) != 0 || std::ferror(Out)) {
    bool Ignored = fail("short write");
    (void)Ignored;
    std::fclose(Out);
    return false;
  }
  if (std::fclose(Out) != 0)
    return fail("close failed");
  return true;
}
