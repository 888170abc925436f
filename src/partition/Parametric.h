//===- partition/Parametric.h - Parametric min-cut (Algorithm 2) -*- C++ -*-=//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parametric partitioning algorithm (paper Algorithm 2): computes a
/// finite set of pairs (P, H) where P is a partitioning (a minimum cut of
/// the Theorem-1 network) and H is the polyhedral set of parameter values
/// for which P is optimal. At run time, the current parameter values
/// select the pair whose region contains them.
///
/// Region computation substitutes the paper's Theorem-2 flow projection
/// with an equivalent *cut-domination* certification: H(P) = X intersected
/// with {h : val(P,h) <= val(Q,h)} over discovered cuts Q, certified
/// exact by checking optimality of P at every vertex of H -- the min-cut
/// value is a concave piecewise-affine function of h, so a cut optimal at
/// all vertices of a polytope is optimal on the whole polytope. This
/// requires the parameter domain X (the declared ranges) to be a bounded
/// box, and computes exactly the paper's region {h in X : P minimal}.
///
/// Nonlinear capacities are affine in interned monomial dimensions; the
/// box is relaxed over those dimensions exactly as in the paper
/// (section 4.2), which can only produce unreachable (harmless) regions.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_PARTITION_PARAMETRIC_H
#define PACO_PARTITION_PARAMETRIC_H

#include "cost/PartitionProblem.h"
#include "poly/Polyhedron.h"

namespace paco {

/// Tuning knobs, mainly for the ablation benchmarks.
struct ParametricOptions {
  /// Apply the paper's flow-network simplification (section 5.4) first.
  bool Simplify = true;
  /// Apply the degeneracy heuristic (section 5.2): drop a choice whose
  /// region is contained in another choice's region.
  bool PruneContained = true;
  /// Slices with more effective dimensions than this are solved by
  /// sampling (approximate regions) instead of exact certification.
  unsigned MaxExactDims = 9;
  /// Number of random parameter samples per approximate slice.
  unsigned SampleBudget = 300;
  /// Threads for the parallel solver: flag slices solve concurrently and
  /// the vertices of each certification round are probed through the same
  /// pool. 0 means hardware concurrency; 1 solves serially. The result is
  /// bit-identical for every thread count (slices are independent, merged
  /// in slice order, and all shared state is read-only while solving).
  unsigned Threads = 0;
};

/// One optimal partitioning choice with its parameter region.
struct PartitionChoice {
  /// Minimum cut on the solved (possibly simplified) network.
  CutResult Cut;
  /// Per TCFG task: true if assigned to the server.
  std::vector<bool> TaskOnServer;
  /// Total cost of this partitioning as a function of the parameters.
  LinExpr CostExpr;
  /// Region of parameter values (over the effective dimensions) where
  /// this choice is optimal.
  Polyhedron Region;

  PartitionChoice() : Region(0) {}
};

/// Reusable scratch for ParametricResult::pickChoice. Dispatch-heavy
/// callers (the dispatch service, benchmarks) pass one per worker so the
/// effective-point projection is not reallocated on every query.
struct PickScratch {
  std::vector<Rational> Eff;
};

/// Result of the parametric analysis.
struct ParametricResult {
  std::vector<PartitionChoice> Choices;
  /// Polyhedron dimension k corresponds to parameter EffectiveDims[k]
  /// (parameters appearing in some capacity, plus option flags and their
  /// residual monomials).
  std::vector<ParamId> EffectiveDims;
  /// Flags and residual monomials added beyond the capacity parameters.
  std::vector<ParamId> GlobalExtraDims;
  /// Dummy parameters that survive into some region's constraints: the
  /// places where the paper says a user annotation is required.
  std::vector<ParamId> RequiredAnnotations;

  /// The solved network (after optional simplification) and the node map
  /// from the full network into it, for reading validity values.
  SimplifiedNetwork Solved;

  unsigned FullNodes = 0, FullArcs = 0;
  unsigned SolvedNodes = 0, SolvedArcs = 0;
  double AnalysisSeconds = 0;
  bool VertexLimitHit = false;
  /// True when some slice used sampled (approximate) region discovery.
  bool Approximate = false;

  /// Threads the solver ran with (after resolving Threads == 0).
  unsigned ThreadsUsed = 1;
  /// Solver work counters; deterministic across thread counts.
  /// Min-cut solver invocations (point-cache misses).
  unsigned FlowSolves = 0;
  /// Sample points answered from a per-slice point cache.
  unsigned PointCacheHits = 0;
  /// Solved points whose cut matched an already-discovered source-side
  /// signature, so the cut value expression was reused, not rebuilt.
  unsigned CutSignatureHits = 0;
  /// Flow solves that ran in checked int64 arithmetic / the BigInt
  /// fallback.
  unsigned FastPathSolves = 0;
  unsigned BigIntSolves = 0;

  /// Value of full-network node \p N under choice \p C.
  bool nodeValue(unsigned C, NodeId N) const {
    return Choices[C].Cut.SourceSide[Solved.NodeMap[N]];
  }

  /// Selects the choice for concrete parameter values (full-space point,
  /// monomials filled in). Falls back to direct cost comparison if no
  /// region matches; every fallback is counted on the
  /// `partition.pick_fallback` stats counter.
  unsigned pickChoice(const std::vector<Rational> &FullPoint) const;

  /// As above with caller-provided scratch, avoiding the per-call
  /// effective-point allocation.
  unsigned pickChoice(const std::vector<Rational> &FullPoint,
                      PickScratch &Scratch) const;

  /// Number of distinct task assignments among the choices (the paper's
  /// Table-4 "No. of Partitioning Choices"; option slices can rediscover
  /// the same assignment).
  unsigned numDistinctPartitionings() const;

  /// Human-readable report: one block per choice with its region.
  std::string describe(const ParamSpace &Space, const TCFG &Graph) const;
};

/// Runs Algorithm 2 on the reduction \p Problem. \p Space is extended
/// with the residual monomials of the option-flag case analysis.
ParametricResult solveParametric(const PartitionProblem &Problem,
                                 ParamSpace &Space,
                                 const ParametricOptions &Options = {});

} // namespace paco

#endif // PACO_PARTITION_PARAMETRIC_H
