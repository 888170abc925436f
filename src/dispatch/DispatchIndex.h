//===- dispatch/DispatchIndex.h - O(log n) choice point location -*- C++ -*-=//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A point-location index compiled once from a ParametricResult so that
/// run-time choice selection ("which (P, H) pair contains h") no longer
/// scans every region in exact rational arithmetic.
///
/// The index is a BSP tree over hyperplanes harvested from the regions'
/// own certified facets (the poly/Constraint rows the regions are made
/// of). Descending the tree narrows the candidate set to the few regions
/// touching the query point's cell; the leaf then tests those candidates
/// in choice order with compiled constraint rows. Three evaluation tiers
/// keep the answer bit-identical to ParametricResult::pickChoice:
///
///  1. int64 fast path: when every effective dimension of the query is an
///     integer below 2^52 and a row's coefficients are small, the sign of
///     `a.x + c` is computed exactly in 128-bit integer arithmetic.
///  2. double fast path with a certified error band: |value| greater than
///     Eps * (sum of term magnitudes) proves the sign; Eps over-estimates
///     every rounding step of the compiled evaluation.
///  3. exact confirmation: only points inside the epsilon band of a row
///     (geometrically: within a vanishing band around the hyperplane)
///     fall through to the exact Rational evaluation of the original
///     LinConstraint.
///
/// When no candidate region contains the point the index reproduces
/// pickChoice's cost-comparison fallback -- again double-first with a
/// certified argmin and exact tie-breaking -- and bumps the same
/// `partition.pick_fallback` stats counter as the linear scan.
///
/// Queries are thread-safe: the index is immutable after construction and
/// all per-query state lives in a caller-provided DispatchScratch.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_DISPATCH_DISPATCHINDEX_H
#define PACO_DISPATCH_DISPATCHINDEX_H

#include "partition/Parametric.h"

#include <cstdint>
#include <optional>

namespace paco {

/// Per-worker query scratch: reused buffers plus per-shard statistics.
/// One instance per thread; a scratch must not be shared concurrently.
struct DispatchScratch {
  /// Query point projected onto the effective dimensions (double tier).
  std::vector<double> EffD;
  /// Same projection in exact int64 (valid only when AllInt).
  std::vector<int64_t> EffI;
  /// True when every effective coordinate fits the int64 fast path.
  bool AllInt = false;
  /// Exact effective point, materialized lazily on first confirmation.
  std::vector<Rational> EffQ;
  bool EffQValid = false;
  /// Fallback cost bounds scratch.
  std::vector<double> CostVal, CostAbs;
  std::vector<uint32_t> CandBuf;

  /// Query source: exactly one of Vals/Full is set per query.
  const int64_t *Vals = nullptr;
  const std::vector<Rational> *Full = nullptr;

  /// Shard statistics (monotonic; merged by DispatchService).
  uint64_t Queries = 0;
  /// Queries answered without any exact (Rational) arithmetic.
  uint64_t FastQueries = 0;
  /// Exact sign/argmin confirmations (epsilon-band hits).
  uint64_t ExactConfirms = 0;
  /// Queries that fell back to the cost comparison (no region hit).
  uint64_t Fallbacks = 0;
  /// Compiled region containment tests at leaves.
  uint64_t LeafTests = 0;
  /// Interior BSP nodes visited.
  uint64_t NodeVisits = 0;
};

/// Immutable point-location index over a ParametricResult's choices.
///
/// The referenced ParametricResult and ParamSpace must outlive the index.
/// Construction is single-threaded (it walks the regions' cached
/// generators); queries are lock-free and thread-safe with one
/// DispatchScratch per thread.
class DispatchIndex {
public:
  /// Compiles the index. \p NumRuntimeParams is the number of declared
  /// runtime parameters (ParamSpace ids 0 .. NumRuntimeParams-1), i.e.
  /// CompiledProgram::AST->RuntimeParams.size().
  DispatchIndex(const ParametricResult &Partition, const ParamSpace &Space,
                unsigned NumRuntimeParams);

  /// Selects the choice for declared-parameter values, bit-identical to
  /// pickChoice(CompiledProgram::parameterPoint(Values)).
  unsigned pick(const int64_t *Values, size_t NumValues,
                DispatchScratch &Scratch) const;
  unsigned pick(const std::vector<int64_t> &Values,
                DispatchScratch &Scratch) const {
    return pick(Values.data(), Values.size(), Scratch);
  }

  /// Selects the choice for an arbitrary full-space point (monomial slots
  /// as given, consistent or not), bit-identical to pickChoice(FullPoint).
  unsigned pickFull(const std::vector<Rational> &FullPoint,
                    DispatchScratch &Scratch) const;

  unsigned numChoices() const {
    return static_cast<unsigned>(Partition.Choices.size());
  }
  unsigned dimension() const { return Dim; }
  unsigned numRuntimeParams() const { return NumRuntime; }
  unsigned numHyperplanes() const {
    return static_cast<unsigned>(Hyperplanes.size());
  }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  unsigned numLeaves() const { return NumLeaves; }
  unsigned depth() const { return Depth; }
  /// Largest candidate list among the leaves (the residual linear work).
  unsigned maxLeafCandidates() const { return MaxLeaf; }
  double buildSeconds() const { return BuildSeconds; }
  /// True when region classification used exact vertex/ray/line geometry
  /// (only non-Approximate partitions pay for generator enumeration).
  bool usesExactGeometry() const { return UseGeometry; }

  /// One-line structural summary for logs and benches.
  std::string describe() const;

private:
  /// One compiled linear row `Coeffs . eff + Const` with all three
  /// evaluation tiers.
  struct Term {
    uint32_t Dim;
    double CoeffD;
    int64_t CoeffI;
  };
  struct Row {
    std::vector<Term> Terms;
    double ConstD = 0;
    int64_t ConstI = 0;
    /// True when the int64/int128 tier is applicable (small coefficients).
    bool IntOK = false;
    /// The original exact constraint (IsEquality ignored for hyperplanes).
    LinConstraint Exact;
  };
  struct RegionConstraint {
    Row R;
    bool IsEquality;
  };
  struct CompiledRegion {
    std::vector<RegionConstraint> Constrs;
    /// Provably empty region: never contains a point, skipped everywhere.
    bool Dead = false;
  };
  /// Interior node (Hyper >= 0) or leaf (Hyper < 0; candidate range into
  /// LeafCands, ascending choice order).
  struct Node {
    int32_t Hyper = -1;
    uint32_t Plus = 0, Minus = 0;
    uint32_t FirstCand = 0, NumCands = 0;
  };
  /// One product in a dimension's evaluation plan: the runtime factors
  /// times a folded constant (merged-member weight and non-runtime
  /// factors' lower bounds).
  struct DimProduct {
    std::vector<uint32_t> RuntimeFactors;
    Rational ConstQ;
    double ConstD = 1;
    int64_t ConstI = 1;
    bool ConstIntOK = true;
  };
  /// How to compute effective dimension K from declared values,
  /// replicating parameterPoint + extendPoint: a sum of products. A plain
  /// monomial dimension compiles to a single product; a dimension whose
  /// factors include a Kind::Merged parameter expands into one product
  /// per merged member (the weighted sum distributed over the enclosing
  /// product).
  struct DimPlan {
    std::vector<DimProduct> Products;
  };
  /// Compiled cost expression over the effective dimensions.
  struct CostRow {
    std::vector<std::pair<uint32_t, double>> Terms;
    double ConstD = 0;
    std::vector<std::pair<uint32_t, Rational>> ExactTerms;
    Rational ExactConst;
  };

  /// Build-time per-region facts for side classification: per-dimension
  /// bounds implied by the region's own single-variable constraints, plus
  /// lazily computed generators (exact-geometry refinement). Cleared once
  /// the tree is built.
  struct BuildRegionInfo {
    std::vector<std::optional<Rational>> Lo, Hi;
    const Generators *Gens = nullptr;
  };

  Row compileRow(const LinConstraint &C) const;
  void buildPlans();
  void compileRegions();
  void buildHyperplanePool();
  void compileCostRows();
  void precomputeBuildInfo();
  uint32_t buildTree(std::vector<uint32_t> Cands, unsigned DepthIn,
                     std::vector<uint8_t> &Memo);
  uint32_t makeLeaf(const std::vector<uint32_t> &Cands);
  /// Side classification of region \p C against hyperplane \p H:
  /// bit 0 = region touches {f >= 0}, bit 1 = touches {f < 0}. Sound
  /// over-approximation; exact when vertex geometry is available.
  uint8_t classify(uint32_t H, uint32_t C, std::vector<uint8_t> &Memo);

  int rowSign(const Row &R, DispatchScratch &S, bool &UsedExact) const;
  bool containsCompiled(const CompiledRegion &Reg, DispatchScratch &S,
                        bool &UsedExact) const;
  void ensureExactEff(DispatchScratch &S) const;
  unsigned fallbackPick(DispatchScratch &S, bool &UsedExact) const;
  /// Exact argmin over \p Cands (ascending) in effective space.
  unsigned exactArgminEff(DispatchScratch &S,
                          const std::vector<uint32_t> &Cands) const;
  unsigned run(DispatchScratch &S) const;

  const ParametricResult &Partition;
  const ParamSpace &Space;
  unsigned NumRuntime;
  unsigned Dim;
  /// Certified relative error band for the double tier.
  double Eps;

  std::vector<DimPlan> Plans;
  std::vector<CompiledRegion> Regions;
  std::vector<Row> Hyperplanes;
  std::vector<Node> Nodes;
  std::vector<uint32_t> LeafCands;
  uint32_t Root = 0;

  std::vector<CostRow> CostRows;

  /// Region vertex/ray geometry usable for exact classification (disabled
  /// for sampled/approximate results, whose regions may be expensive to
  /// enumerate).
  bool UseGeometry;
  std::vector<BuildRegionInfo> BuildInfo;

  unsigned NumLeaves = 0;
  unsigned MaxLeaf = 0;
  unsigned Depth = 0;
  double BuildSeconds = 0;
};

} // namespace paco

#endif // PACO_DISPATCH_DISPATCHINDEX_H
