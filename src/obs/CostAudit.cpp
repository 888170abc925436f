//===- obs/CostAudit.cpp - Predicted-vs-actual cost audit -----------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/CostAudit.h"

#include "obs/JSONText.h"
#include "partition/Reprice.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

using namespace paco;
using namespace paco::obs;

double AuditEntry::relErrorPct() const {
  Rational Err = (Actual - Predicted).abs();
  if (Err.isZero())
    return 0;
  Rational Scale = std::max(Predicted.abs(), Actual.abs());
  return 100.0 * (Err / Scale).toDouble();
}

namespace {

std::string fmtUnits(const Rational &V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V.toDouble());
  return Buf;
}

std::string jsonNum(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

std::string entryJSON(const AuditEntry &E, bool WithWhat) {
  std::string Out = "{";
  if (WithWhat) {
    Out += "\"what\": \"";
    appendJSONEscaped(Out, E.What);
    Out += "\", ";
  }
  Out += "\"predicted\": " + jsonNum(E.Predicted.toDouble()) +
         ", \"actual\": " + jsonNum(E.Actual.toDouble()) +
         ", \"error_units\": " + jsonNum(E.errorUnits()) +
         ", \"rel_error_pct\": " + jsonNum(E.relErrorPct()) +
         ", \"exact\": " + (E.exact() ? "true" : "false") + "}";
  return Out;
}

} // namespace

std::vector<const AuditEntry *>
CostAuditReport::worstOffenders(size_t N) const {
  std::vector<const AuditEntry *> Rows;
  for (const AuditEntry &E : Tasks)
    if (!E.exact())
      Rows.push_back(&E);
  for (const AuditEntry &E : Messages)
    if (!E.exact())
      Rows.push_back(&E);
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const AuditEntry *A, const AuditEntry *B) {
                     Rational EA = (A->Actual - A->Predicted).abs();
                     Rational EB = (B->Actual - B->Predicted).abs();
                     int Cmp = EA.compare(EB);
                     if (Cmp != 0)
                       return Cmp > 0;
                     return A->What < B->What;
                   });
  if (Rows.size() > N)
    Rows.resize(N);
  return Rows;
}

double CostAuditReport::worstRelErrorPct() const {
  double Worst = 0;
  for (const AuditEntry &E : Tasks)
    Worst = std::max(Worst, E.relErrorPct());
  for (const AuditEntry &E : Messages)
    Worst = std::max(Worst, E.relErrorPct());
  return Worst;
}

std::string CostAuditReport::toJSON() const {
  std::string Out = "{\n";
  Out += "  \"valid\": " + std::string(Valid ? "true" : "false") + ",\n";
  Out += "  \"note\": \"";
  appendJSONEscaped(Out, Note);
  Out += "\",\n";
  Out += "  \"choice\": " +
         (Choice == KNone ? std::string("null") : std::to_string(Choice)) +
         ",\n";
  Out += "  \"degraded\": " + std::string(Degraded ? "true" : "false") +
         ",\n";
  Out += "  \"params\": [";
  for (size_t I = 0; I != ParamValues.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(ParamValues[I]);
  Out += "],\n";
  Out += "  \"total\": " + entryJSON(Total, false) + ",\n";
  Out += "  \"components\": {\n";
  const std::pair<const char *, const AuditEntry *> Components[] = {
      {"client_compute", &ClientCompute}, {"server_compute", &ServerCompute},
      {"scheduling", &Scheduling},        {"communication", &Communication},
      {"registration", &Registration}};
  for (size_t I = 0; I != 5; ++I)
    Out += "    \"" + std::string(Components[I].first) +
           "\": " + entryJSON(*Components[I].second, false) +
           (I + 1 != 5 ? ",\n" : "\n");
  Out += "  },\n";
  Out += "  \"redispatches\": [";
  const std::vector<RunMark> &Redispatches = Counters.Redispatches;
  for (size_t I = 0; I != Redispatches.size(); ++I) {
    const RunMark &E = Redispatches[I];
    auto choice = [](unsigned C) {
      return C == KNone ? std::string("null") : std::to_string(C);
    };
    Out += (I ? ",\n    " : "\n    ");
    Out += "{\"at\": " + jsonNum(E.At.toDouble()) +
           ", \"at_task\": " + choice(E.AtTask) +
           ", \"from_choice\": " + choice(E.FromChoice) +
           ", \"to_choice\": " + choice(E.ToChoice) +
           ", \"predicted_stay\": " + jsonNum(E.PredictedStay.toDouble()) +
           ", \"predicted_switch\": " +
           jsonNum(E.PredictedSwitch.toDouble()) + "}";
  }
  Out += Redispatches.empty() ? "],\n" : "\n  ],\n";
  Out += "  \"recovery\": {";
  if (recoveryActive()) {
    const RunCounters &C = Counters;
    Out += "\n    \"crashes\": " + std::to_string(C.Crashes) +
           ",\n    \"restarts\": " + std::to_string(C.Restarts) +
           ",\n    \"crash_rollbacks\": " + std::to_string(C.CrashRecoveries) +
           ",\n    \"ledger_restores\": " + std::to_string(C.LedgerRestores) +
           ",\n    \"probes\": " + std::to_string(C.Probes) +
           ",\n    \"probe_failures\": " + std::to_string(C.ProbeFailures) +
           ",\n    \"reoffloads\": " + std::to_string(C.Reoffloads) +
           ",\n    \"ledger_syncs\": " + std::to_string(C.LedgerSyncs) +
           ",\n    \"ledger_sync_bytes\": " +
           std::to_string(C.LedgerSyncBytes) +
           ",\n    \"ledger_evictions\": " +
           std::to_string(C.LedgerEvictions) +
           ",\n    \"ledger_refetches\": " +
           std::to_string(C.LedgerRefetches) +
           ",\n    \"ledger_peak_bytes\": " +
           std::to_string(C.LedgerPeakBytes) +
           ",\n    \"probe_units\": " + jsonNum(C.ProbeTime.toDouble()) +
           ",\n    \"ledger_units\": " + jsonNum(C.LedgerTime.toDouble()) +
           "\n  },\n";
  } else {
    Out += "},\n";
  }
  Out += "  \"fault_units\": " + jsonNum(Counters.FaultTime.toDouble()) +
         ",\n";
  Out += "  \"cut_value\": " + jsonNum(CutValue.toDouble()) + ",\n";
  Out += "  \"cut_matches_components\": " +
         std::string(CutMatchesComponents ? "true" : "false") + ",\n";
  auto rows = [&](const char *Name, const std::vector<AuditEntry> &Rows) {
    Out += "  \"" + std::string(Name) + "\": [";
    for (size_t I = 0; I != Rows.size(); ++I)
      Out += (I ? ",\n    " : "\n    ") + entryJSON(Rows[I], true);
    Out += Rows.empty() ? "],\n" : "\n  ],\n";
  };
  rows("tasks", Tasks);
  rows("messages", Messages);
  Out += "  \"worst_offenders\": [";
  std::vector<const AuditEntry *> Worst = worstOffenders(5);
  for (size_t I = 0; I != Worst.size(); ++I)
    Out += (I ? ",\n    " : "\n    ") + entryJSON(*Worst[I], true);
  Out += Worst.empty() ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

std::string CostAuditReport::toText() const {
  std::string Out;
  Out += "== cost audit: " +
         (Choice == KNone ? std::string("all-client baseline")
                          : "choice " + std::to_string(Choice)) +
         ", params [";
  for (size_t I = 0; I != ParamValues.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(ParamValues[I]);
  Out += "] ==\n";
  if (!Note.empty())
    Out += "note: " + Note + "\n";
  auto line = [&](const std::string &Name, const AuditEntry &E) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%-16s %-14s %-14s %+-12.3f %6.2f%%%s\n",
                  Name.c_str(), fmtUnits(E.Predicted).c_str(),
                  fmtUnits(E.Actual).c_str(), E.errorUnits(),
                  E.relErrorPct(), E.exact() ? "  exact" : "");
    Out += Buf;
  };
  Out += "component        predicted      actual         err          "
         "rel\n";
  line("client_compute", ClientCompute);
  line("server_compute", ServerCompute);
  line("scheduling", Scheduling);
  line("communication", Communication);
  line("registration", Registration);
  line("total", Total);
  if (!Counters.Redispatches.empty()) {
    Out += "re-dispatches:\n";
    auto choice = [](unsigned C) {
      return C == KNone ? std::string("local")
                        : "choice " + std::to_string(C);
    };
    for (const RunMark &E : Counters.Redispatches) {
      char Buf[192];
      std::snprintf(Buf, sizeof(Buf),
                    "  t=%s task %u: %s -> %s (predicted %s -> %s)\n",
                    fmtUnits(E.At).c_str(), E.AtTask,
                    choice(E.FromChoice).c_str(),
                    choice(E.ToChoice).c_str(),
                    fmtUnits(E.PredictedStay).c_str(),
                    fmtUnits(E.PredictedSwitch).c_str());
      Out += Buf;
    }
  }
  if (recoveryActive()) {
    const RunCounters &C = Counters;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "recovery: %llu crash(es), %llu restart(s), %llu "
                  "rollback(s), %llu item(s) restored, %llu probe(s) (%llu "
                  "lost, %s units), %llu re-offload(s)\n",
                  static_cast<unsigned long long>(C.Crashes),
                  static_cast<unsigned long long>(C.Restarts),
                  static_cast<unsigned long long>(C.CrashRecoveries),
                  static_cast<unsigned long long>(C.LedgerRestores),
                  static_cast<unsigned long long>(C.Probes),
                  static_cast<unsigned long long>(C.ProbeFailures),
                  fmtUnits(C.ProbeTime).c_str(),
                  static_cast<unsigned long long>(C.Reoffloads));
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "recovery ledger: %llu sync(s), %llu byte(s), %s units, "
                  "%llu eviction(s), %llu refetch(es), peak %llu byte(s)\n",
                  static_cast<unsigned long long>(C.LedgerSyncs),
                  static_cast<unsigned long long>(C.LedgerSyncBytes),
                  fmtUnits(C.LedgerTime).c_str(),
                  static_cast<unsigned long long>(C.LedgerEvictions),
                  static_cast<unsigned long long>(C.LedgerRefetches),
                  static_cast<unsigned long long>(C.LedgerPeakBytes));
    Out += Buf;
  }
  Out += "fault time (unpredicted): " + fmtUnits(Counters.FaultTime) +
         " units\n";
  Out += "cut value at h: " + fmtUnits(CutValue) +
         " (components match: " + (CutMatchesComponents ? "yes" : "NO") +
         ")\n";
  if (!Tasks.empty()) {
    Out += "\nper-task computation:\n";
    for (const AuditEntry &E : Tasks)
      line("  " + E.What, E);
  }
  if (!Messages.empty()) {
    Out += "\nper-message costs:\n";
    for (const AuditEntry &E : Messages)
      line("  " + E.What, E);
  }
  std::vector<const AuditEntry *> Worst = worstOffenders(5);
  if (!Worst.empty()) {
    Out += "\nworst offenders:\n";
    for (size_t I = 0; I != Worst.size(); ++I) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "  %zu. %s  err=%+.3f (%.2f%%)\n",
                    I + 1, Worst[I]->What.c_str(), Worst[I]->errorUnits(),
                    Worst[I]->relErrorPct());
      Out += Buf;
    }
  }
  return Out;
}

CostAuditReport paco::obs::auditRun(const CompiledProgram &CP,
                                    const ExecResult &Run,
                                    const std::vector<int64_t> &ParamValues,
                                    const RuntimeRecorder *Rec) {
  CostAuditReport R;
  R.Choice = Run.ChoiceUsed;
  R.Degraded = Run.Degraded;
  R.ParamValues = ParamValues;
  R.Counters = Run;
  if (!Run.OK) {
    R.Note = "run failed: " + Run.Error;
    return R;
  }
  R.Valid = true;
  if (R.Choice == KNone)
    R.Note = "all-client baseline: no messages predicted or sent";
  else if (R.Degraded)
    R.Note = "run degraded to local execution mid-way; the static "
             "prediction assumes the partition ran to completion";
  else if (!Run.Redispatches.empty())
    R.Note = "closed-loop run re-dispatched " +
             std::to_string(Run.Redispatches.size()) +
             " time(s); the static prediction assumes the initial "
             "choice ran to completion";

  const std::vector<Rational> Point = CP.parameterPoint(ParamValues);
  const CostModel &C = CP.Costs;

  //===------------------------------------------------------------------===//
  // Rows. The prediction fills per-task rows and keyed message rows, and
  // the recorder's actuals merge into the message rows; ordered map keys
  // make emission order deterministic.
  //===------------------------------------------------------------------===//
  // (kind, from, to, loc, toServer) -> row. Kind: 0 sched, 1 xfer, 2 reg,
  // 3 recovery probe, 4 ledger sync.
  using MsgKey = std::tuple<int, unsigned, unsigned, unsigned, bool>;
  std::map<MsgKey, AuditEntry> Msg;
  auto taskLabel = [&](unsigned T) {
    return T < CP.Graph.Tasks.size() ? CP.Graph.Tasks[T].Label
                                     : "task" + std::to_string(T);
  };
  auto locLabel = [&](unsigned D) {
    return D < CP.Memory->numLocs() ? CP.Memory->loc(D).Name
                                    : "loc" + std::to_string(D);
  };
  auto msgRow = [&](int Kind, unsigned From, unsigned To, unsigned Loc,
                    bool ToServer) -> AuditEntry & {
    auto [It, Inserted] =
        Msg.try_emplace(MsgKey{Kind, From, To, Loc, ToServer});
    if (Inserted) {
      const char *Dir = ToServer ? " c2s" : " s2c";
      if (Kind == 0)
        It->second.What =
            "schedule " + taskLabel(From) + "->" + taskLabel(To) + Dir;
      else if (Kind == 1)
        It->second.What = "transfer " + locLabel(Loc) + " " +
                          taskLabel(From) + "->" + taskLabel(To) + Dir;
      else if (Kind == 2)
        It->second.What = "register " + locLabel(Loc);
      else if (Kind == 3)
        It->second.What = "probe @" + taskLabel(From) + Dir;
      else
        It->second.What = "ledger-sync " + locLabel(Loc) + " @" +
                          taskLabel(From) + Dir;
    }
    return It->second;
  };

  // The prediction: the chosen cut's priced arcs, the walk the closed
  // loop reprices with. Computation arcs come per task, in task order.
  for (const PricedArc &A : pricedArcs(CP.Graph, *CP.Memory, CP.Problem,
                                       CP.Partition, R.Choice, Point)) {
    Rational Cost = arcCost(A, C);
    switch (A.K) {
    case PricedArc::Kind::Compute: {
      auto It = Run.TaskInstrs.find(A.From);
      uint64_t Instrs = It == Run.TaskInstrs.end() ? 0 : It->second;
      AuditEntry E;
      E.What = "compute " + CP.Graph.Tasks[A.From].Label +
               (A.Server ? " @server" : " @client");
      E.Predicted = std::move(Cost);
      E.Actual =
          Rational(static_cast<int64_t>(Instrs)) * (A.Server ? C.Ts : C.Tc);
      (A.Server ? R.ServerCompute : R.ClientCompute).Predicted += E.Predicted;
      if (!E.Predicted.isZero() || !E.Actual.isZero())
        R.Tasks.push_back(std::move(E));
      break;
    }
    case PricedArc::Kind::Schedule:
      msgRow(0, A.From, A.To, KNone, A.Server).Predicted += Cost;
      break;
    case PricedArc::Kind::Transfer:
      msgRow(1, A.From, A.To, A.Item, A.Server).Predicted += Cost;
      break;
    case PricedArc::Kind::Registration:
      msgRow(2, KNone, KNone, A.Item, true).Predicted += Cost;
      break;
    }
  }
  R.ClientCompute.Actual =
      Rational(static_cast<int64_t>(Run.ClientInstrs)) * C.Tc;
  R.ServerCompute.Actual =
      Rational(static_cast<int64_t>(Run.ServerInstrs)) * C.Ts;

  // Actual message costs, reconstructed from the recorder exactly as the
  // Simulator charged them (lost attempts charge only fault time, which
  // is reported separately).
  if (Rec) {
    for (const MessageRecord &M : Rec->messages()) {
      if (!M.Delivered)
        continue;
      switch (M.K) {
      case MessageRecord::Kind::Schedule:
        msgRow(0, M.FromTask, M.ToTask, KNone, M.ToServer).Actual +=
            M.ToServer ? C.Tcst : C.Tsct;
        break;
      case MessageRecord::Kind::Transfer: {
        Rational Bytes(static_cast<int64_t>(M.Bytes));
        msgRow(1, M.FromTask, M.ToTask, M.LocId, M.ToServer).Actual +=
            M.ToServer ? C.Tcsh + Bytes * C.Tcsu : C.Tsch + Bytes * C.Tscu;
        break;
      }
      case MessageRecord::Kind::Registration:
        msgRow(2, KNone, KNone, M.LocId, true).Actual += C.Ta;
        break;
      case MessageRecord::Kind::Probe: {
        // Recovery traffic: nothing predicted, priced like a c2s
        // transfer header + payload.
        Rational Bytes(static_cast<int64_t>(M.Bytes));
        msgRow(3, M.FromTask, M.ToTask, KNone, true).Actual +=
            C.Tcsh + Bytes * C.Tcsu;
        break;
      }
      case MessageRecord::Kind::LedgerSync: {
        Rational Bytes(static_cast<int64_t>(M.Bytes));
        msgRow(4, M.FromTask, M.ToTask, M.LocId, false).Actual +=
            C.Tsch + Bytes * C.Tscu;
        break;
      }
      }
    }
  }

  for (auto &[Key, E] : Msg) {
    switch (std::get<0>(Key)) {
    case 0: R.Scheduling.Predicted += E.Predicted; break;
    case 1: R.Communication.Predicted += E.Predicted; break;
    default: R.Registration.Predicted += E.Predicted; break;
    }
    R.Messages.push_back(std::move(E));
  }
  R.Scheduling.Actual = Run.SchedulingTime;
  R.Communication.Actual = Run.TransferTime;
  R.Registration.Actual = Run.RegistrationTime;

  //===------------------------------------------------------------------===//
  // Totals and the cut-value cross-check.
  //===------------------------------------------------------------------===//
  R.Total.Predicted = R.ClientCompute.Predicted + R.ServerCompute.Predicted +
                      R.Scheduling.Predicted + R.Communication.Predicted +
                      R.Registration.Predicted;
  R.Total.Actual = Run.Time;
  R.CutValue =
      R.Choice == KNone
          ? R.Total.Predicted
          : CP.Partition.Choices[R.Choice].CostExpr.evaluate(Point);
  R.CutMatchesComponents = R.CutValue == R.Total.Predicted;
  return R;
}
