//===- runtime/Timeline.cpp - Simulated-run timeline recorder -------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "runtime/Timeline.h"

#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>

using namespace paco;

void RuntimeRecorder::clear() {
  Segments.clear();
  Messages.clear();
  Marks.clear();
}

Rational RuntimeRecorder::clientUnits() const {
  Rational Total;
  for (const TaskSegment &S : Segments)
    if (!S.OnServer)
      Total += S.End - S.Start;
  return Total;
}

Rational RuntimeRecorder::serverUnits() const {
  Rational Total;
  for (const TaskSegment &S : Segments)
    if (S.OnServer)
      Total += S.End - S.Start;
  return Total;
}

Rational RuntimeRecorder::channelUnits() const {
  Rational Total;
  for (const MessageRecord &M : Messages)
    Total += M.End - M.Start;
  return Total;
}

namespace {

std::string labelOf(const std::vector<std::string> &Labels, unsigned Id,
                    const char *Prefix) {
  if (Id < Labels.size() && !Labels[Id].empty())
    return Labels[Id];
  if (Id == ~0u)
    return std::string(Prefix) + "?";
  return std::string(Prefix) + std::to_string(Id);
}

std::string describeMessage(const MessageRecord &M,
                            const std::vector<std::string> &TaskLabels,
                            const std::vector<std::string> &DataLabels) {
  std::string What;
  switch (M.K) {
  case MessageRecord::Kind::Schedule:
    What = "schedule";
    break;
  case MessageRecord::Kind::Transfer:
    What = "transfer " + labelOf(DataLabels, M.LocId, "loc");
    break;
  case MessageRecord::Kind::Registration:
    What = "register " + labelOf(DataLabels, M.LocId, "loc");
    break;
  case MessageRecord::Kind::Probe:
    What = "probe";
    break;
  case MessageRecord::Kind::LedgerSync:
    What = "ledger-sync " + labelOf(DataLabels, M.LocId, "loc");
    break;
  }
  What += M.ToServer ? " c2s " : " s2c ";
  What += labelOf(TaskLabels, M.FromTask, "task") + "->" +
          labelOf(TaskLabels, M.ToTask, "task");
  if (M.K == MessageRecord::Kind::Transfer ||
      M.K == MessageRecord::Kind::Probe ||
      M.K == MessageRecord::Kind::LedgerSync)
    What += " " + std::to_string(M.Bytes) + "B";
  if (M.Timeouts)
    What += " [" + std::to_string(M.Timeouts) + " timeout(s), " +
            std::to_string(M.Retries) + " retry(s)]";
  if (!M.Delivered)
    What += " LOST";
  return What;
}

/// Fixed-point rendering of a Rational with three decimals; exact inputs
/// make the output deterministic.
std::string units(const Rational &V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V.toDouble());
  return Buf;
}

std::string choiceName(unsigned Choice) {
  return Choice == ~0u ? std::string("local")
                       : "choice " + std::to_string(Choice);
}

/// The timeline name of a server-failure mark; null for the other kinds.
const char *recoveryName(RunMark::Kind K) {
  switch (K) {
  case RunMark::Kind::Crash:
    return "server-crash";
  case RunMark::Kind::Restart:
    return "server-restart";
  case RunMark::Kind::Fallback:
    return "crash-fallback";
  case RunMark::Kind::Reoffload:
    return "re-offload";
  case RunMark::Kind::Exhausted:
    return "probe-budget-exhausted";
  default:
    return nullptr;
  }
}

struct Row {
  Rational Start, End;
  int Lane = 0; ///< 0 client, 1 server, 2 channel; tie-break key.
  std::string Text;
};

} // namespace

std::string RuntimeRecorder::renderTimeline(
    const std::vector<std::string> &TaskLabels,
    const std::vector<std::string> &DataLabels) const {
  std::vector<Row> Rows;
  Rows.reserve(Segments.size() + Messages.size());
  for (const TaskSegment &S : Segments) {
    Row R;
    R.Start = S.Start;
    R.End = S.End;
    R.Lane = S.OnServer ? 1 : 0;
    R.Text = "run " + labelOf(TaskLabels, S.Task, "task") + " [" +
             std::to_string(S.Instrs) + " instr(s)]";
    Rows.push_back(std::move(R));
  }
  // Marks precede messages so a re-dispatch row sorts ahead of the
  // reconciliation messages it triggered at the same instant; re-dispatch
  // rows precede server-failure rows.
  size_t Redispatches = 0, Recoveries = 0;
  for (const RunMark &A : Marks) {
    if (A.K != RunMark::Kind::Redispatch)
      continue;
    ++Redispatches;
    Row R;
    R.Start = A.At;
    R.End = A.At;
    R.Lane = 2;
    R.Text = "redispatch " + choiceName(A.FromChoice) + "->" +
             choiceName(A.ToChoice) + " at " +
             labelOf(TaskLabels, A.AtTask, "task") + " (predicted " +
             units(A.PredictedStay) + " -> " + units(A.PredictedSwitch) +
             ")";
    Rows.push_back(std::move(R));
  }
  for (const RunMark &M : Marks) {
    const char *Name = recoveryName(M.K);
    if (!Name)
      continue;
    ++Recoveries;
    Row R;
    R.Start = M.At;
    R.End = M.At;
    R.Lane = 2;
    R.Text = Name;
    if (M.AtTask != ~0u)
      R.Text += " at " + labelOf(TaskLabels, M.AtTask, "task");
    if (M.K == RunMark::Kind::Fallback)
      R.Text += " [" + std::to_string(M.Restored) +
                " item(s) restored from ledger]";
    Rows.push_back(std::move(R));
  }
  for (const MessageRecord &M : Messages) {
    Row R;
    R.Start = M.Start;
    R.End = M.End;
    R.Lane = 2;
    R.Text = describeMessage(M, TaskLabels, DataLabels);
    Rows.push_back(std::move(R));
  }
  // Events never overlap (one host or the link is active at a time), so
  // start order is total up to zero-length spans; lane breaks the tie.
  std::stable_sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    int Cmp = A.Start.compare(B.Start);
    if (Cmp != 0)
      return Cmp < 0;
    return A.Lane < B.Lane;
  });

  static const char *LaneName[] = {"client ", "server ", "channel"};
  std::string Out = "lane    start        end          dur          what\n";
  for (const Row &R : Rows) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%s %-12s %-12s %-12s ", LaneName[R.Lane],
                  units(R.Start).c_str(), units(R.End).c_str(),
                  units(R.End - R.Start).c_str());
    Out += Buf;
    Out += R.Text;
    Out += "\n";
  }
  Rational Client = clientUnits(), Server = serverUnits(),
           Channel = channelUnits();
  Rational Elapsed = Client + Server + Channel;
  auto pct = [&](const Rational &V) -> std::string {
    if (Elapsed.isZero())
      return "0.0";
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.1f",
                  100.0 * (V / Elapsed).toDouble());
    return Buf;
  };
  Out += "total " + units(Elapsed) + " units: client " + units(Client) +
         " (" + pct(Client) + "%), server " + units(Server) + " (" +
         pct(Server) + "%), channel " + units(Channel) + " (" +
         pct(Channel) + "%); " + std::to_string(Segments.size()) +
         " segment(s), " + std::to_string(Messages.size()) + " message(s)";
  if (Redispatches)
    Out += ", " + std::to_string(Redispatches) + " redispatch(es)";
  if (Recoveries)
    Out += ", " + std::to_string(Recoveries) + " recovery event(s)";
  Out += "\n";
  return Out;
}

void RuntimeRecorder::emitChromeLanes(
    obs::Tracer &T, const std::vector<std::string> &TaskLabels,
    const std::vector<std::string> &DataLabels) const {
  if (!T.enabled())
    return;
  constexpr uint32_t ClientTid = 1, ServerTid = 2, ChannelTid = 3;
  T.nameProcess(TracePid, "simulated run (1us = 1 cost unit)");
  // Explicit sort indices: viewers otherwise interleave the synthetic
  // sim-clock lanes with the wall-clock pipeline process (pid 1) when
  // sorting by name/pid heuristics. Pin pid 1 above the sim lanes.
  T.sortProcess(1, 1);
  T.sortProcess(TracePid, 2);
  T.nameThread(TracePid, ClientTid, "client");
  T.nameThread(TracePid, ServerTid, "server");
  T.nameThread(TracePid, ChannelTid, "channel");
  for (const TaskSegment &S : Segments) {
    double Start = S.Start.toDouble();
    double Dur = (S.End - S.Start).toDouble();
    T.laneEvent(labelOf(TaskLabels, S.Task, "task"), "simtime", TracePid,
                S.OnServer ? ServerTid : ClientTid, Start, Dur,
                {{"instrs", S.Instrs},
                 {"task", static_cast<uint64_t>(S.Task)}});
  }
  for (const MessageRecord &M : Messages) {
    double Start = M.Start.toDouble();
    double Dur = (M.End - M.Start).toDouble();
    std::vector<obs::TraceArg> Args = {
        {"dir", M.ToServer ? "c2s" : "s2c"},
        {"from_task", labelOf(TaskLabels, M.FromTask, "task")},
        {"to_task", labelOf(TaskLabels, M.ToTask, "task")}};
    const char *Name = "schedule";
    if (M.K == MessageRecord::Kind::Transfer) {
      Name = "transfer";
      Args.emplace_back("data", labelOf(DataLabels, M.LocId, "loc"));
      Args.emplace_back("bytes", M.Bytes);
    } else if (M.K == MessageRecord::Kind::Registration) {
      Name = "register";
      Args.emplace_back("data", labelOf(DataLabels, M.LocId, "loc"));
    } else if (M.K == MessageRecord::Kind::Probe) {
      Name = "probe";
      Args.emplace_back("bytes", M.Bytes);
    } else if (M.K == MessageRecord::Kind::LedgerSync) {
      Name = "ledger-sync";
      Args.emplace_back("data", labelOf(DataLabels, M.LocId, "loc"));
      Args.emplace_back("bytes", M.Bytes);
    }
    if (M.Timeouts) {
      Args.emplace_back("timeouts", M.Timeouts);
      Args.emplace_back("retries", M.Retries);
    }
    if (!M.Delivered)
      Args.emplace_back("lost", "true");
    T.laneEvent(Name, "simtime", TracePid, ChannelTid, Start, Dur,
                std::move(Args));
  }
  for (const RunMark &A : Marks) {
    if (A.K != RunMark::Kind::Redispatch)
      continue;
    T.laneEvent("redispatch", "simtime", TracePid, ChannelTid,
                A.At.toDouble(), 0.0,
                {{"at_task", labelOf(TaskLabels, A.AtTask, "task")},
                 {"from", choiceName(A.FromChoice)},
                 {"to", choiceName(A.ToChoice)},
                 {"predicted_stay", A.PredictedStay.toString()},
                 {"predicted_switch", A.PredictedSwitch.toString()}});
  }
  for (const RunMark &M : Marks) {
    const char *Name = recoveryName(M.K);
    if (!Name)
      continue;
    std::vector<obs::TraceArg> Args = {
        {"at_task", labelOf(TaskLabels, M.AtTask, "task")}};
    if (M.K == RunMark::Kind::Fallback)
      Args.emplace_back("restored", M.Restored);
    T.laneEvent(Name, "simtime", TracePid, ChannelTid, M.At.toDouble(), 0.0,
                std::move(Args));
  }
}
