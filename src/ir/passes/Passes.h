//===- ir/passes/Passes.h - Optimizing IR pass pipeline --------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizing pass pipeline that runs between lowering and the
/// memory/TCFG stages. Every pass is *cost-neutral by construction*: a
/// transformation is only applied when it provably leaves the per-task
/// data-access summaries, the points-to solution, the task formation and
/// every block's symbolic workload (count x units) bit-identical, so the
/// Theorem-1 capacities -- and therefore the Table-4 cut costs and every
/// simulated time -- do not depend on whether the pipeline ran.
///
/// The neutrality calculus the instruction passes obey:
///  * A location whose accesses all sit in one basic block belongs to a
///    single task, and single-task data contributes no nodes to the flow
///    network at all; such locations may gain or lose accesses freely.
///  * Removing a read is neutral when an earlier read or write of the
///    same location survives in the block: within-block write coverage is
///    monotone, so the earlier access subsumes the removed one's flag
///    contribution.
///  * Only AddrOfVar/Malloc/Copy/PtrAdd/Load/Store/Call/Ret feed the
///    Andersen solver; passes never delete or rewrite a points-to
///    constraint unless it provably adds nothing to the solution.
///
/// Deleted instructions fold their cost-model weight (Instr::Units) into
/// a surviving instruction of the same block, keeping block workloads
/// exact rather than approximately equal.
///
/// The CostSimplify pass is the one pass that changes analysis inputs on
/// purpose -- value-preservingly: monomial dimensions that co-occur in a
/// fixed proportional ratio across *all* cost expressions merge into one
/// composite ParamSpace dimension, shrinking the parametric dimension of
/// the flag slices (this is what turns susan's sampled Approximate
/// regions into exact certified ones).
///
//===----------------------------------------------------------------------===//

#ifndef PACO_IR_PASSES_PASSES_H
#define PACO_IR_PASSES_PASSES_H

#include "ir/IR.h"

#include <optional>
#include <string>

namespace paco {

/// Configuration of one pipeline run.
struct PassOptions {
  /// Master switch; when false runPassPipeline is a no-op (the
  /// `--no-opt` escape hatch).
  bool Enabled = true;
  /// Re-verify the module after every individual pass, failing the
  /// pipeline on the first broken invariant.
  bool VerifyEachPass = false;
  /// Run the cost-expression simplification (monomial merge) stage.
  bool CostSimplify = true;
};

/// Aggregate statistics of one pipeline run (also mirrored into the
/// obs StatsRegistry under ir.pass.*).
struct PassStats {
  unsigned FixpointIterations = 0;
  unsigned ConstFolded = 0;       ///< Instructions folded to constants.
  unsigned ConstOperands = 0;     ///< Operands replaced by constants.
  unsigned CSEReplaced = 0;       ///< Instructions rewritten to copies.
  unsigned CopiesPropagated = 0;  ///< Operands forwarded through copies.
  unsigned InstrsRemoved = 0;     ///< Dead instructions deleted.
  unsigned BlocksRemoved = 0;     ///< Unreachable blocks deleted.
  unsigned BlocksMerged = 0;      ///< Forwarding blocks merged away.
  unsigned MonomialsMerged = 0;   ///< Cost monomials folded into composites.
  unsigned MergedDims = 0;        ///< Composite dimensions created.
  unsigned InstrsBefore = 0, InstrsAfter = 0;
  unsigned BlocksBefore = 0, BlocksAfter = 0;
  unsigned CostTermsBefore = 0, CostTermsAfter = 0;
};

/// Structural invariant check: every block non-empty with exactly one
/// trailing terminator, all successor/operand/callee/alloc-site indices
/// in range, all units positive, all edge-count keys valid.
/// \returns a description of the first violation, or nullopt when the
/// module is well-formed.
std::optional<std::string> verifyModule(const IRModule &M);

/// Runs the pipeline in place: [ConstProp, CSE, Cleanup, DCE] to a
/// fixpoint, then CostSimplify once. \returns the run's statistics, or
/// a verifier message when \p Options.VerifyEachPass catches a broken
/// module (the module may be partially transformed in that case).
/// On entry the module must pass verifyModule.
std::optional<PassStats> runPassPipeline(IRModule &M, ParamSpace &Space,
                                         const PassOptions &Options,
                                         std::string *ErrorOut = nullptr);

} // namespace paco

#endif // PACO_IR_PASSES_PASSES_H
