//===- interp/RunLog.cpp - Structured event log of one run ----------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "interp/RunLog.h"

using namespace paco;

namespace {

std::string choiceArg(unsigned C) {
  return C == KNone ? std::string("local") : std::to_string(C);
}

const char *modeName(ExecOptions::Placement Mode) {
  switch (Mode) {
  case ExecOptions::Placement::AllClient:
    return "all-client";
  case ExecOptions::Placement::Dispatch:
    return "dispatch";
  case ExecOptions::Placement::Forced:
    return "forced";
  }
  return "?";
}

} // namespace

void paco::appendRunLog(obs::EventLog &Log, const CompiledProgram &CP,
                        const ExecOptions &Opts, const ExecResult &Result,
                        const RuntimeRecorder &Rec) {
  using obs::LogLevel;
  // Starts one event at simulated time \p At, stamped with the exact
  // (Rational) time and the task active then, if any (none is before the
  // entry task, at run start); fields chain onto it.
  auto event = [&](LogLevel L, const char *Type, const Rational &At,
                   unsigned Task) {
    obs::EventLog::EventBuilder B = Log.event(L, Type);
    B.field("t_units", At.toString());
    if (Task != KNone)
      B.field("task", Task).field("task_label", CP.Graph.Tasks[Task].Label);
    return B;
  };
  auto locName = [&](unsigned LocId) {
    return LocId == KNone ? std::string("?") : CP.Memory->loc(LocId).Name;
  };

  // A probe is a message; its line goes among the marks by message order.
  const std::vector<MessageRecord> &Messages = Rec.messages();
  size_t NextMessage = 0;
  uint64_t Probes = 0;
  auto probesBefore = [&](size_t End) {
    for (; NextMessage != End; ++NextMessage) {
      const MessageRecord &M = Messages[NextMessage];
      if (M.K == MessageRecord::Kind::Probe)
        event(LogLevel::Info, "probe", M.End, M.FromTask)
            .field("delivered", M.Delivered)
            .field("probes_sent", ++Probes)
            .field("probe_bytes", M.Bytes);
    }
  };

  for (const RunMark &M : Rec.marks()) {
    probesBefore(M.AfterMessages);
    switch (M.K) {
    case RunMark::Kind::RunStart:
      event(LogLevel::Info, "run-start", M.At, M.AtTask)
          .field("choice", choiceArg(Result.ChoiceUsed))
          .field("mode", modeName(Opts.Mode))
          .field("closed_loop",
                 Opts.Adapt.Policy == AdaptationPolicy::ClosedLoop);
      break;
    case RunMark::Kind::Redispatch:
      event(LogLevel::Info, "redispatch", M.At, M.AtTask)
          .field("from_choice", choiceArg(M.FromChoice))
          .field("to_choice", choiceArg(M.ToChoice))
          .field("predicted_stay", M.PredictedStay.toString())
          .field("predicted_switch", M.PredictedSwitch.toString());
      break;
    case RunMark::Kind::Crash:
      event(LogLevel::Warn, "server-crash", M.At, M.AtTask);
      break;
    case RunMark::Kind::Restart:
      event(LogLevel::Info, "server-restart", M.At, M.AtTask);
      break;
    case RunMark::Kind::Fallback:
      event(LogLevel::Info, "fallback", M.At, M.AtTask)
          .field("restored", M.Restored)
          .field("permanent", M.Permanent);
      break;
    case RunMark::Kind::Reoffload:
      event(LogLevel::Info, "re-offload", M.At, M.AtTask)
          .field("to_choice", M.ToChoice);
      break;
    case RunMark::Kind::Exhausted:
      event(LogLevel::Warn, "probe-exhausted", M.At, M.AtTask)
          .field("probes", M.Probes);
      break;
    case RunMark::Kind::LedgerEvict:
      event(LogLevel::Info, "ledger-evict", M.At, M.AtTask)
          .field("region", M.Region)
          .field("loc", locName(M.LocId))
          .field("bytes", M.Bytes)
          .field("pinned_bytes", M.PinnedBytes);
      break;
    case RunMark::Kind::LedgerRefetch:
      event(LogLevel::Info, "ledger-refetch", M.At, M.AtTask)
          .field("region", M.Region)
          .field("loc", locName(M.LocId))
          .field("bytes", M.Bytes);
      break;
    case RunMark::Kind::RunEnd:
      event(LogLevel::Info, "run-end", M.At, M.AtTask)
          .field("ok", Result.OK)
          .field("degraded", Result.Degraded)
          .field("final_choice", choiceArg(Result.FinalChoice))
          .field("crashes", Result.Crashes)
          .field("redispatches",
                 static_cast<uint64_t>(Result.Redispatches.size()))
          .field("reoffloads", Result.Reoffloads)
          .field("transfers", Result.TransferCount)
          .field("timeouts", Result.Timeouts)
          .field("retries", Result.Retries);
      break;
    }
  }
  probesBefore(Messages.size());
}
