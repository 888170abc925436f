//===- obs/CostAudit.h - Predicted-vs-actual cost audit --------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closes the loop between the parametric analysis and the runtime: given
/// a completed run at concrete parameter values h, evaluates the chosen
/// partitioning's predicted computation / scheduling / communication /
/// registration costs from the ParametricResult (the Theorem-1 arcs the
/// min cut priced, walked by partition/Reprice.h's pricedArcs as the
/// closed loop's repricing walks them) and diffs them against what the
/// Simulator actually charged -- per component, per task, and (when a
/// RuntimeRecorder was attached) per message class. The report carries
/// exact Rational costs, absolute and relative errors, the worst
/// offenders, and an internal cross-check that the component
/// decomposition reproduces the cut-value expression at h.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_OBS_COSTAUDIT_H
#define PACO_OBS_COSTAUDIT_H

#include "interp/Interp.h"

namespace paco {
namespace obs {

/// One predicted-vs-actual pair in cost units.
struct AuditEntry {
  std::string What;
  Rational Predicted;
  Rational Actual;

  /// Signed actual - predicted (positive: the run cost more than the
  /// model said).
  double errorUnits() const { return (Actual - Predicted).toDouble(); }

  /// |actual - predicted| / max(|predicted|, |actual|) * 100; zero when
  /// both are zero. Symmetric and bounded by 100 for non-negative costs.
  double relErrorPct() const;

  /// True when the model was exact (Rational equality, not a tolerance).
  bool exact() const { return Predicted == Actual; }
};

/// The audit of one run.
struct CostAuditReport {
  /// False when the run cannot be audited (it failed before finishing).
  bool Valid = false;
  /// Human-readable caveat: why the report is invalid, or that the run
  /// degraded / used the all-client baseline.
  std::string Note;

  unsigned Choice = KNone; ///< Partitioning choice, KNone = all-client.
  bool Degraded = false;   ///< Run fell back to the client mid-way.
  std::vector<int64_t> ParamValues;

  /// The run's counters, copied once from the result. Three of them are
  /// time the static prediction has none of, all part of Total.Actual:
  /// FaultTime (timeouts, backoff and jitter), ProbeTime and LedgerTime.
  /// Redispatches lists the closed-loop switches in order; the prediction
  /// below is the *initial* choice's, so a re-dispatched run legitimately
  /// diverges from it -- that divergence is the drift the adaptation
  /// reacted to.
  RunCounters Counters;

  /// Component totals (the paper's cost taxonomy) plus the grand total.
  AuditEntry ClientCompute, ServerCompute, Scheduling, Communication,
      Registration, Total;

  /// True when the run saw any crash/probe/ledger activity at all;
  /// false keeps the recovery lines out of the rendered reports.
  bool recoveryActive() const {
    return Counters.Crashes || Counters.Restarts || Counters.Probes ||
           Counters.LedgerSyncs || Counters.Reoffloads;
  }

  /// The chosen region's cut-value expression evaluated at h, and whether
  /// the component decomposition reproduces it exactly (it must -- a
  /// mismatch is an analysis bug, not a model error).
  Rational CutValue;
  bool CutMatchesComponents = false;

  /// Per-task computation rows; per-message-class rows (scheduling /
  /// transfer / registration, aggregated by task pair, data item and
  /// direction -- requires a RuntimeRecorder, empty otherwise).
  std::vector<AuditEntry> Tasks;
  std::vector<AuditEntry> Messages;

  /// Rows (from Tasks and Messages) with the largest absolute error,
  /// worst first; rows with zero error are omitted.
  std::vector<const AuditEntry *> worstOffenders(size_t N) const;

  /// Largest per-row relative error across Tasks and Messages.
  double worstRelErrorPct() const;

  /// Structured report (one JSON object, machine-parseable).
  std::string toJSON() const;
  /// Aligned human-readable table.
  std::string toText() const;
};

/// Builds the audit for one completed run of \p CP. \p ParamValues are
/// the declared runtime parameters in declaration order (the h the run
/// executed with); \p Rec, when non-null, must be the recorder the run
/// executed with and enables the per-message rows.
CostAuditReport auditRun(const CompiledProgram &CP, const ExecResult &Run,
                         const std::vector<int64_t> &ParamValues,
                         const RuntimeRecorder *Rec = nullptr);

} // namespace obs
} // namespace paco

#endif // PACO_OBS_COSTAUDIT_H
