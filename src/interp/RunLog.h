//===- interp/RunLog.h - Structured event log of one run --------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders one run's structured event log from the run's RuntimeRecorder,
/// the run's only event record: one event per run start, re-dispatch,
/// probe, crash, restart, fallback, re-offload, probe exhaustion, ledger
/// eviction and refetch, and run end, in the order the run emitted them.
/// Each event carries the exact simulated time (`t_units`) and the task
/// active at the time. Failed runs render too.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_INTERP_RUNLOG_H
#define PACO_INTERP_RUNLOG_H

#include "interp/Interp.h"
#include "obs/EventLog.h"

namespace paco {

/// Appends the events of the run \p Opts described and \p Result reports
/// to \p Log. \p Rec must be the recorder the run executed with.
void appendRunLog(obs::EventLog &Log, const CompiledProgram &CP,
                  const ExecOptions &Opts, const ExecResult &Result,
                  const RuntimeRecorder &Rec);

} // namespace paco

#endif // PACO_INTERP_RUNLOG_H
