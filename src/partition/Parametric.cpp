//===- partition/Parametric.cpp - Parametric min-cut (Algorithm 2) --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "partition/Parametric.h"

#include "obs/Trace.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>

using namespace paco;

namespace {

// Registered at static-init time (single-threaded) so the registry's
// registration order -- and therefore snapshot emission order -- stays
// deterministic, and so the counter shows up in every --stats snapshot
// even when no query ever falls off the certified regions.
obs::Counter &PickFallbacks =
    obs::StatsRegistry::global().counter("partition.pick_fallback");

/// Safety valve: abort certification when a region's vertex count
/// explodes (documented approximation; never hit by the benchmarks).
constexpr unsigned kMaxVertices = 50000;
/// Safety valve on the number of optimal partitioning choices.
constexpr unsigned kMaxChoices = 256;
/// Maximum number of 0/1 option parameters to case-split on; beyond
/// this the solver works in the joint space.
constexpr unsigned kMaxFlagSplit = 8;

} // namespace

namespace {

/// Maps LinExprs into the effective-dimension space and back.
class DimMapper {
public:
  /// \p ExtraDims are appended to the dimensions found in \p Net's
  /// capacities (used for the global space, which must also cover option
  /// flags and their residual monomials). When \p Reuse is given and its
  /// dimension set matches, the bound and coupling constraints -- which
  /// depend only on the dimension set, but cost O(D^2) multiset diffs to
  /// rebuild -- are copied from it instead of recomputed.
  DimMapper(const FlowNetwork &Net, const ParamSpace &Space,
            const std::vector<ParamId> &ExtraDims = {},
            const DimMapper *Reuse = nullptr) {
    std::set<ParamId> Seen(ExtraDims.begin(), ExtraDims.end());
    for (const Arc &A : Net.arcs()) {
      if (A.Cap.Infinite)
        continue;
      for (const auto &[Id, Coeff] : A.Cap.Expr.terms()) {
        (void)Coeff;
        Seen.insert(Id);
      }
    }
    Dims.assign(Seen.begin(), Seen.end());
    for (unsigned K = 0; K != Dims.size(); ++K)
      DimOf[Dims[K]] = K;
    if (Reuse && Reuse->Dims == Dims) {
      CoreBox = Reuse->CoreBox;
    } else {
      CoreBox = Polyhedron(dim());
      for (unsigned K = 0; K != Dims.size(); ++K) {
        std::vector<BigInt> Lower(dim()), Upper(dim());
        Lower[K] = BigInt(1);
        Upper[K] = BigInt(-1);
        CoreBox.addConstraint(
            LinConstraint(std::move(Lower), -Space.lower(Dims[K])));
        CoreBox.addConstraint(
            LinConstraint(std::move(Upper), Space.upper(Dims[K])));
      }
      // Linear coupling between a monomial dimension and its sub-products:
      // for m = f * rest with every parameter non-negative,
      // restLower * f <= m <= restUpper * f. This trims the worst of the
      // relaxation's unrealizable corners (the paper accepts them as
      // harmless "false solutions"; the couplings simply discharge most of
      // them up front).
      for (unsigned K = 0; K != Dims.size(); ++K) {
        if (!Space.isMonomial(Dims[K]))
          continue;
        const std::vector<ParamId> &MF = Space.factors(Dims[K]);
        for (unsigned J = 0; J != Dims.size(); ++J) {
          if (J == K)
            continue;
          const std::vector<ParamId> &FF = Space.factors(Dims[J]);
          // Multiset difference Rest = MF - FF; FF must be consumed fully
          // and leave a non-empty rest to be a proper sub-product.
          std::vector<ParamId> Rest;
          size_t Fi = 0;
          for (ParamId P : MF) {
            if (Fi < FF.size() && FF[Fi] == P)
              ++Fi;
            else
              Rest.push_back(P);
          }
          if (Fi != FF.size() || Rest.empty() ||
              Space.lower(Dims[J]).isNegative())
            continue;
          BigInt RestLo(1), RestHi(1);
          bool NonNeg = true;
          for (ParamId P : Rest) {
            if (Space.lower(P).isNegative())
              NonNeg = false;
            RestLo = RestLo * Space.lower(P);
            RestHi = RestHi * Space.upper(P);
          }
          if (!NonNeg)
            continue;
          // m - RestLo * f >= 0.
          std::vector<BigInt> LowerC(dim());
          LowerC[K] = BigInt(1);
          LowerC[J] = -RestLo;
          CoreBox.addConstraint(LinConstraint(std::move(LowerC), BigInt(0)));
          // RestHi * f - m >= 0.
          std::vector<BigInt> UpperC(dim());
          UpperC[K] = BigInt(-1);
          UpperC[J] = RestHi;
          CoreBox.addConstraint(LinConstraint(std::move(UpperC), BigInt(0)));
        }
      }
    }
    Box = CoreBox;
    // The monomial relaxation (paper section 4.2) admits corners where
    // capacity expressions would be negative; such points are never
    // realizable, so restrict the domain to where every capacity is
    // non-negative. This keeps min-cut values well defined over X.
    std::set<std::string> SeenConstraints;
    for (const Arc &A : Net.arcs()) {
      if (A.Cap.Infinite || A.Cap.Expr.isConstant())
        continue;
      // Capacities provably non-negative over the box need no constraint.
      if (alwaysGE(A.Cap.Expr, LinExpr(), Space))
        continue;
      LinConstraint C = constraintGE(A.Cap.Expr);
      if (C.isTautology())
        continue;
      std::string Key =
          C.toString([](unsigned K) { return "d" + std::to_string(K); });
      if (SeenConstraints.insert(Key).second)
        Box.addConstraint(std::move(C));
    }
  }

  unsigned dim() const { return static_cast<unsigned>(Dims.size()); }
  const std::vector<ParamId> &dims() const { return Dims; }
  const Polyhedron &box() const { return Box; }
  bool hasDim(ParamId Id) const { return DimOf.count(Id) != 0; }
  unsigned dimOf(ParamId Id) const { return DimOf.at(Id); }

  /// Constraint Expr >= 0 over the effective dimensions.
  LinConstraint constraintGE(const LinExpr &Expr) const {
    std::vector<Rational> Coeffs(dim());
    for (const auto &[Id, Coeff] : Expr.terms()) {
      auto It = DimOf.find(Id);
      assert(It != DimOf.end() && "expression uses ineffective parameter");
      Coeffs[It->second] = Coeff;
    }
    return makeConstraint(Coeffs, Expr.constantTerm(), /*IsEquality=*/false);
  }

  /// Expands an effective-space point into a full parameter point;
  /// parameters outside the effective set take their lower bound (they
  /// cannot influence any capacity).
  std::vector<Rational> fullPoint(const std::vector<Rational> &EffPoint,
                                  const ParamSpace &Space) const {
    std::vector<Rational> Full(Space.size());
    for (unsigned Id = 0; Id != Space.size(); ++Id)
      Full[Id] = Rational(Space.lower(Id));
    for (unsigned K = 0; K != Dims.size(); ++K)
      Full[Dims[K]] = EffPoint[K];
    return Full;
  }

private:
  std::vector<ParamId> Dims;
  std::map<ParamId, unsigned> DimOf;
  /// Bounds + monomial couplings only: a function of the dimension set,
  /// kept so the next slice with the same dimensions can copy it (and its
  /// cached double-description state) instead of rebuilding.
  Polyhedron CoreBox{0};
  Polyhedron Box{0};
};

std::string pointKey(const std::vector<Rational> &Point) {
  std::string Key;
  for (const Rational &R : Point) {
    Key += R.toString();
    Key += ",";
  }
  return Key;
}

/// Substitutes fixed 0/1 option values into an affine capacity: terms
/// whose monomial contains a zero-valued flag vanish; flags valued one
/// are divided out, leaving the residual monomial.
LinExpr substituteFlags(const LinExpr &Expr,
                        const std::map<ParamId, int64_t> &FlagVals,
                        ParamSpace &Space) {
  LinExpr Out(Expr.constantTerm());
  std::vector<ParamId> Residual;
  for (const auto &[Id, Coeff] : Expr.terms()) {
    Residual.clear();
    bool Zero = false;
    for (ParamId F : Space.factors(Id)) {
      auto It = FlagVals.find(F);
      if (It == FlagVals.end())
        Residual.push_back(F);
      else if (It->second == 0)
        Zero = true;
    }
    if (Zero)
      continue;
    if (Residual.empty())
      Out.addConstant(Coeff);
    else
      Out.addTerm(Space.internMonomial(Residual), Coeff);
  }
  return Out;
}

/// Value of the cut with source side \p SourceSide on \p Net.
LinExpr cutValueOn(const FlowNetwork &Net,
                   const std::vector<bool> &SourceSide) {
  LinExpr Value;
  for (const Arc &A : Net.arcs()) {
    if (!SourceSide[A.From] || SourceSide[A.To])
      continue;
    assert(!A.Cap.Infinite && "infinite arc crosses a finite cut");
    Value += A.Cap.Expr;
  }
  return Value;
}

/// One flag-assignment slice of the parametric analysis: inputs built
/// serially up front, caches and outputs filled while the slice solves
/// (each slice is touched by exactly one thread at a time).
struct SliceState {
  unsigned CaseBits = 0;
  std::map<ParamId, int64_t> FlagVals;
  FlowNetwork SubNet;
  std::optional<DimMapper> Mapper;

  // Outputs, merged into the ParametricResult in case order.
  std::vector<PartitionChoice> Choices;
  bool Approximate = false;
  bool VertexLimitHit = false;
  unsigned FlowSolves = 0, PointCacheHits = 0, CutSignatureHits = 0,
           FastPathSolves = 0, BigIntSolves = 0;

  /// Canonical cut per source-side signature; the deque keeps addresses
  /// stable so cache entries and KnownCuts lists can hold pointers.
  std::deque<CutResult> CutStore;
  std::map<std::vector<bool>, CutResult *> BySignature;
  /// Sample-point memo (keyed on the effective-space point rendering).
  std::map<std::string, CutResult *> PointCache;

  /// Canonicalizes a solved structure: a rediscovered signature reuses
  /// the stored cut (and its already-built value expression); a fresh one
  /// gets its parametric value summed exactly once. Second result is
  /// true when the signature was new.
  std::pair<CutResult *, bool> internStructure(CutStructure &&St) {
    ++FlowSolves;
    if (St.UsedFastPath)
      ++FastPathSolves;
    else
      ++BigIntSolves;
    auto It = BySignature.find(St.SourceSide);
    if (It != BySignature.end()) {
      ++CutSignatureHits;
      return {It->second, false};
    }
    CutStore.emplace_back();
    CutResult &Cut = CutStore.back();
    Cut.SourceSide = std::move(St.SourceSide);
    Cut.CutArcs = std::move(St.CutArcs);
    Cut.Finite = St.Finite;
    const std::vector<Arc> &Arcs = SubNet.arcs();
    for (unsigned I : Cut.CutArcs)
      if (!Arcs[I].Cap.Infinite)
        Cut.Value += Arcs[I].Cap.Expr;
    BySignature.emplace(Cut.SourceSide, &Cut);
    return {&Cut, true};
  }

  /// Min cut at an effective-space point, through both caches.
  CutResult &minCutAt(const std::vector<Rational> &EffPoint,
                      const ParamSpace &Space) {
    std::string Key = pointKey(EffPoint);
    auto It = PointCache.find(Key);
    if (It != PointCache.end()) {
      ++PointCacheHits;
      return *It->second;
    }
    CutStructure St =
        solveMinCutStructure(SubNet, Mapper->fullPoint(EffPoint, Space));
    CutResult *Cut = internStructure(std::move(St)).first;
    assert(Cut->Finite && "no finite cut: every program can run locally");
    PointCache.emplace(std::move(Key), Cut);
    return *Cut;
  }

  /// Solves every not-yet-cached vertex of a certification round through
  /// the pool, so the subsequent in-order scan only reads the cache. The
  /// set of solved points depends only on the cache state, never on the
  /// thread count, which keeps results and counters deterministic.
  void presolveVertices(const std::vector<std::vector<Rational>> &Vertices,
                        const ParamSpace &Space, ThreadPool &Pool) {
    std::vector<std::string> Keys;
    std::vector<const std::vector<Rational> *> Missing;
    for (const std::vector<Rational> &V : Vertices) {
      std::string Key = pointKey(V);
      if (PointCache.count(Key))
        continue;
      Keys.push_back(std::move(Key));
      Missing.push_back(&V);
    }
    if (Missing.size() < 2)
      return; // nothing to overlap; the scan solves it inline
    std::vector<std::vector<Rational>> FullPts(Missing.size());
    for (size_t J = 0; J != Missing.size(); ++J)
      FullPts[J] = Mapper->fullPoint(*Missing[J], Space);
    std::vector<CutStructure> Structs(Missing.size());
    Pool.parallelFor(Missing.size(), [&](size_t J) {
      Structs[J] = solveMinCutStructure(SubNet, FullPts[J]);
    });
    // Serial, in vertex order: cache layout stays deterministic.
    for (size_t J = 0; J != Missing.size(); ++J) {
      CutResult *Cut = internStructure(std::move(Structs[J])).first;
      assert(Cut->Finite && "no finite cut: every program can run locally");
      PointCache.emplace(std::move(Keys[J]), Cut);
    }
  }
};

} // namespace

unsigned
ParametricResult::pickChoice(const std::vector<Rational> &FullPoint) const {
  PickScratch Scratch;
  return pickChoice(FullPoint, Scratch);
}

unsigned ParametricResult::pickChoice(const std::vector<Rational> &FullPoint,
                                      PickScratch &Scratch) const {
  std::vector<Rational> &Eff = Scratch.Eff;
  Eff.resize(EffectiveDims.size());
  for (unsigned K = 0; K != EffectiveDims.size(); ++K)
    Eff[K] = FullPoint[EffectiveDims[K]];
  for (unsigned C = 0; C != Choices.size(); ++C)
    if (Choices[C].Region.contains(Eff))
      return C;
  // Boundary/relaxation corner case: pick the cheapest choice directly.
  PickFallbacks.add();
  unsigned Best = 0;
  Rational BestCost = Choices[0].CostExpr.evaluate(FullPoint);
  for (unsigned C = 1; C != Choices.size(); ++C) {
    Rational Cost = Choices[C].CostExpr.evaluate(FullPoint);
    if (Cost < BestCost) {
      Best = C;
      BestCost = Cost;
    }
  }
  return Best;
}

unsigned ParametricResult::numDistinctPartitionings() const {
  std::set<std::vector<bool>> Unique;
  for (const PartitionChoice &Choice : Choices)
    Unique.insert(Choice.TaskOnServer);
  return static_cast<unsigned>(Unique.size());
}

std::string ParametricResult::describe(const ParamSpace &Space,
                                       const TCFG &Graph) const {
  std::string Out;
  auto DimName = [this, &Space](unsigned K) {
    return Space.displayName(EffectiveDims[K]);
  };
  for (unsigned C = 0; C != Choices.size(); ++C) {
    Out += "partitioning " + std::to_string(C + 1) + ": server={";
    bool First = true;
    for (unsigned T = 0; T != Choices[C].TaskOnServer.size(); ++T) {
      if (!Choices[C].TaskOnServer[T])
        continue;
      if (!First)
        Out += ", ";
      Out += Graph.Tasks[T].Label;
      First = false;
    }
    Out += "}\n  cost: " + Choices[C].CostExpr.toString(Space);
    Out += "\n  region: " + Choices[C].Region.toString(DimName);
    Out += "\n";
  }
  if (!RequiredAnnotations.empty()) {
    Out += "required annotations:";
    for (ParamId Id : RequiredAnnotations)
      Out += " " + Space.name(Id);
    Out += "\n";
  }
  return Out;
}

ParametricResult paco::solveParametric(const PartitionProblem &Problem,
                                       ParamSpace &Space,
                                       const ParametricOptions &Options) {
  auto StartTime = std::chrono::steady_clock::now();
  obs::ScopedSpan Span("partition.solve", "partition");
  ParametricResult Result;
  Result.FullNodes = Problem.Net.numNodes();
  Result.FullArcs = Problem.Net.numArcs();

  if (Options.Simplify) {
    Result.Solved = simplifyNetwork(Problem.Net, Space);
  } else {
    Result.Solved.Net = Problem.Net;
    Result.Solved.NodeMap.resize(Problem.Net.numNodes());
    for (unsigned N = 0; N != Problem.Net.numNodes(); ++N)
      Result.Solved.NodeMap[N] = N;
  }
  const FlowNetwork &Net = Result.Solved.Net;
  Result.SolvedNodes = Net.numNodes();
  Result.SolvedArcs = Net.numArcs();

  // Identify 0/1 option parameters ("flags") among the capacity factors.
  // Each assignment of the flags is analyzed as its own slice with the
  // flags substituted into the capacities, which keeps the certification
  // polytopes low-dimensional; the paper's evaluation likewise reports
  // partitionings per command-option combination.
  std::set<ParamId> BaseSeen;
  std::set<ParamId> FlagSet;
  std::vector<ParamId> ResidualDims;
  for (const Arc &A : Net.arcs()) {
    if (A.Cap.Infinite)
      continue;
    for (const auto &[Id, Coeff] : A.Cap.Expr.terms()) {
      (void)Coeff;
      for (ParamId F : Space.factors(Id))
        if (Space.kind(F) == ParamSpace::Kind::Base &&
            Space.lower(F).isZero() && Space.upper(F).isOne())
          FlagSet.insert(F);
    }
  }
  if (FlagSet.size() > kMaxFlagSplit)
    FlagSet.clear();
  std::vector<ParamId> Flags(FlagSet.begin(), FlagSet.end());

  // Global dimension set: capacity dims + flags + residual monomials (so
  // every per-slice region can be expressed in one space).
  {
    std::set<ParamId> Extra(Flags.begin(), Flags.end());
    // Snapshot the dims first; interning residuals extends the space.
    std::vector<ParamId> CapDims;
    {
      DimMapper Probe(Net, Space);
      CapDims = Probe.dims();
    }
    for (ParamId Id : CapDims) {
      std::vector<ParamId> Residual;
      for (ParamId F : Space.factors(Id))
        if (!FlagSet.count(F))
          Residual.push_back(F);
      if (!Residual.empty() && Residual.size() != Space.factors(Id).size())
        Extra.insert(Space.internMonomial(Residual));
    }
    Result.GlobalExtraDims.assign(Extra.begin(), Extra.end());
  }
  DimMapper GlobalMapper(Net, Space, Result.GlobalExtraDims);
  Result.EffectiveDims = GlobalMapper.dims();

  unsigned Threads =
      Options.Threads == 0 ? ThreadPool::hardwareThreads() : Options.Threads;
  Result.ThreadsUsed = Threads;

  // Phase 1 (serial): construct one slice per flag assignment (a single
  // empty assignment when no flags exist) -- the substituted network and
  // its dimension mapper. Every ParamSpace mutation (monomial interning)
  // happens in this phase; while slices solve, the space is only read
  // (the residual monomials emitChoice interns were all interned for
  // GlobalExtraDims above, so those calls are cache hits).
  unsigned NumCases = 1u << Flags.size();
  std::vector<SliceState> Slices;
  Slices.reserve(NumCases);
  for (unsigned CaseBits = 0; CaseBits != NumCases; ++CaseBits) {
    Slices.emplace_back();
    SliceState &S = Slices.back();
    S.CaseBits = CaseBits;
    for (unsigned F = 0; F != Flags.size(); ++F)
      S.FlagVals[Flags[F]] = (CaseBits >> F) & 1;

    // Substituted network (same node ids; zero capacities drop out).
    for (unsigned N = 2; N < Net.numNodes(); ++N)
      S.SubNet.addNode(Net.label(N));
    for (const Arc &A : Net.arcs()) {
      if (A.Cap.Infinite) {
        S.SubNet.addArc(A.From, A.To, Capacity::infinite());
        continue;
      }
      LinExpr Sub = substituteFlags(A.Cap.Expr, S.FlagVals, Space);
      if (!Sub.isZero())
        S.SubNet.addArc(A.From, A.To, Capacity::finite(std::move(Sub)));
    }
    const DimMapper *Prev =
        CaseBits == 0 ? nullptr : &Slices[CaseBits - 1].Mapper.value();
    S.Mapper.emplace(S.SubNet, Space, std::vector<ParamId>{}, Prev);
  }

  // Phase 2: solve the slices, concurrently when Threads > 1. Slices are
  // fully independent (separate networks, mappers, caches, outputs), so
  // each one computes exactly what it would compute serially.
  ThreadPool Pool(Threads);
  auto solveSlice = [&](SliceState &S) {
    obs::ScopedSpan SliceSpan("partition.slice", "partition");
    SliceSpan.arg("case", S.CaseBits);
    SliceSpan.arg("dims", S.Mapper->dim());
    SliceSpan.arg("arcs", S.SubNet.numArcs());
    const DimMapper &Mapper = *S.Mapper;
    const std::map<ParamId, int64_t> &FlagVals = S.FlagVals;

    // Lifts a slice-local cut into a global PartitionChoice.
    auto emitChoice = [&](const CutResult &Cut, const Polyhedron &Region,
                          bool SimplifyRegion) {
      Polyhedron Lifted(GlobalMapper.dim());
      Polyhedron Simplified =
          SimplifyRegion ? Region.simplified() : Region;
      for (const LinConstraint &C : Simplified.constraints()) {
        std::vector<BigInt> Coeffs(GlobalMapper.dim());
        for (unsigned K = 0; K != Mapper.dim(); ++K)
          Coeffs[GlobalMapper.dimOf(Mapper.dims()[K])] = C.Coeffs[K];
        Lifted.addConstraint(
            LinConstraint(std::move(Coeffs), C.Const, C.IsEquality));
      }
      for (const auto &[Flag, Val] : FlagVals) {
        if (!GlobalMapper.hasDim(Flag))
          continue;
        std::vector<BigInt> Coeffs(GlobalMapper.dim());
        Coeffs[GlobalMapper.dimOf(Flag)] = BigInt(1);
        Lifted.addConstraint(LinConstraint(std::move(Coeffs), BigInt(-Val),
                                           /*Equality=*/true));
      }
      for (ParamId Id : GlobalMapper.dims()) {
        if (!Space.isMonomial(Id))
          continue;
        std::vector<ParamId> Residual;
        bool Zero = false, HasFlag = false;
        for (ParamId F : Space.factors(Id)) {
          auto It = FlagVals.find(F);
          if (It == FlagVals.end()) {
            Residual.push_back(F);
          } else {
            HasFlag = true;
            Zero |= It->second == 0;
          }
        }
        if (!HasFlag)
          continue;
        // Id == 0, or Id == residual monomial (or the constant 1).
        std::vector<BigInt> Coeffs(GlobalMapper.dim());
        Coeffs[GlobalMapper.dimOf(Id)] = BigInt(1);
        BigInt Const(0);
        if (!Zero) {
          if (Residual.empty()) {
            Const = BigInt(-1);
          } else {
            ParamId Res = Space.internMonomial(Residual);
            assert(GlobalMapper.hasDim(Res) && "residual dim missing");
            Coeffs[GlobalMapper.dimOf(Res)] = BigInt(-1);
          }
        }
        Lifted.addConstraint(LinConstraint(std::move(Coeffs),
                                           std::move(Const),
                                           /*Equality=*/true));
      }
      PartitionChoice Choice;
      Choice.Cut = Cut;
      Choice.CostExpr = cutValueOn(Net, Cut.SourceSide);
      Choice.Region = std::move(Lifted);
      Choice.TaskOnServer.resize(Problem.MNode.size());
      for (unsigned T = 0; T != Problem.MNode.size(); ++T)
        Choice.TaskOnServer[T] =
            Cut.SourceSide[Result.Solved.NodeMap[Problem.MNode[T]]];
      S.Choices.push_back(std::move(Choice));
    };

    // High-dimensional slices (deeply nested parametric loops produce
    // quadratic monomials) are solved approximately: discover cuts by
    // sampling the domain, then emit each cut with its dominance region
    // over the discovered set. Documented approximation; the benchmarks'
    // option slices stay below the threshold.
    if (Mapper.dim() > Options.MaxExactDims) {
      S.Approximate = true;
      uint64_t Seed = 0x9e3779b97f4a7c15ull + S.CaseBits;
      auto NextRand = [&Seed]() {
        Seed ^= Seed << 13;
        Seed ^= Seed >> 7;
        Seed ^= Seed << 17;
        return Seed;
      };
      std::vector<const CutResult *> Cuts;
      auto tryPoint = [&](std::vector<Rational> Full) {
        // Reject points with negative capacities (relaxation corners).
        for (const Arc &A : S.SubNet.arcs())
          if (!A.Cap.Infinite && A.Cap.Expr.evaluate(Full).isNegative())
            return;
        auto [Cut, Fresh] =
            S.internStructure(solveMinCutStructure(S.SubNet, Full));
        if (Fresh)
          Cuts.push_back(Cut);
      };
      // Realizable samples: random base parameters with monomials
      // computed consistently.
      for (unsigned Sample = 0; Sample != Options.SampleBudget; ++Sample) {
        std::vector<Rational> Full(Space.size());
        for (unsigned Id = 0; Id != Space.size(); ++Id) {
          if (Space.isMonomial(Id))
            continue;
          BigInt Lo = Space.lower(Id), Hi = Space.upper(Id);
          auto It = FlagVals.find(Id);
          if (It != FlagVals.end()) {
            Full[Id] = Rational(It->second);
            continue;
          }
          // Log-uniform-ish sampling over the range.
          BigInt Width = Hi - Lo + BigInt(1);
          BigInt Offset =
              Width.fitsInt64()
                  ? BigInt(int64_t(NextRand() %
                                   uint64_t(Width.toInt64())))
                  : BigInt(int64_t(NextRand() % (uint64_t(1) << 62)));
          if (NextRand() % 2 && Width > BigInt(16))
            Offset = Offset % (Width / BigInt(16) + BigInt(1));
          Full[Id] = Rational(Lo + Offset);
        }
        Space.extendPoint(Full);
        tryPoint(std::move(Full));
      }
      for (const CutResult *Cut : Cuts) {
        Polyhedron Region = Mapper.box();
        for (const CutResult *Other : Cuts) {
          if (Other == Cut)
            continue;
          Region.addConstraint(
              Mapper.constraintGE(Other->Value - Cut->Value));
        }
        emitChoice(*Cut, Region, /*SimplifyRegion=*/false);
      }
      return;
    }

    std::vector<const CutResult *> KnownCuts;
    auto isKnown = [&KnownCuts](const CutResult &Cut) {
      return std::find(KnownCuts.begin(), KnownCuts.end(), &Cut) !=
             KnownCuts.end();
    };

    std::deque<Polyhedron> Frontier;
    Frontier.push_back(Mapper.box());

    while (!Frontier.empty() && S.Choices.size() < kMaxChoices) {
      Polyhedron Domain = std::move(Frontier.front());
      Frontier.pop_front();
      if (Domain.isEmpty())
        continue;
      std::optional<std::vector<Rational>> Sample = Domain.samplePoint();
      if (!Sample)
        continue;
      const CutResult &Cut = S.minCutAt(*Sample, Space);
      if (!isKnown(Cut))
        KnownCuts.push_back(&Cut);

      // Region where this cut dominates every discovered cut, refined
      // until it is optimal at each vertex (and hence everywhere: the
      // min-cut value is concave piecewise-affine).
      Polyhedron Region = Mapper.box();
      for (const CutResult *Other : KnownCuts) {
        if (Other == &Cut)
          continue;
        Region.addConstraint(Mapper.constraintGE(Other->Value - Cut.Value));
      }
      bool Certified = false;
      while (!Certified) {
        Certified = true;
        const Generators &Gens = Region.generators();
        if (Gens.Vertices.size() > kMaxVertices) {
          S.VertexLimitHit = true;
          break;
        }
        S.presolveVertices(Gens.Vertices, Space, Pool);
        for (const std::vector<Rational> &Vertex : Gens.Vertices) {
          const CutResult &AtVertex = S.minCutAt(Vertex, Space);
          std::vector<Rational> FullVertex =
              Mapper.fullPoint(Vertex, Space);
          if (AtVertex.Value.evaluate(FullVertex) <
              Cut.Value.evaluate(FullVertex)) {
            if (!isKnown(AtVertex))
              KnownCuts.push_back(&AtVertex);
            Region.addConstraint(
                Mapper.constraintGE(AtVertex.Value - Cut.Value));
            Certified = false;
            break;
          }
        }
      }
      if (Region.isEmpty())
        continue;

      emitChoice(Cut, Region, /*SimplifyRegion=*/true);

      // Remove the certified region from the sampled domain and the rest
      // of the frontier.
      std::deque<Polyhedron> NextFrontier;
      auto pushRemainder = [&NextFrontier,
                            &Region](const Polyhedron &Piece) {
        for (Polyhedron &Rest : Piece.subtractIntegral(Region))
          NextFrontier.push_back(std::move(Rest));
      };
      pushRemainder(Domain);
      for (const Polyhedron &Piece : Frontier)
        pushRemainder(Piece);
      Frontier = std::move(NextFrontier);
    }
  };

  Pool.parallelFor(Slices.size(),
                   [&](size_t I) { solveSlice(Slices[I]); });

  // Merge slice results in case order: identical to the serial traversal
  // for every thread count. An exact slice obeys the global choice cap --
  // the serial solver stops emitting once the cap is reached, and a
  // slice's emission stream does not depend on the cap, so truncating the
  // merged stream reproduces the serial result. (Sampled slices ignore
  // the cap, exactly as they do serially.)
  for (SliceState &S : Slices) {
    Result.FlowSolves += S.FlowSolves;
    Result.PointCacheHits += S.PointCacheHits;
    Result.CutSignatureHits += S.CutSignatureHits;
    Result.FastPathSolves += S.FastPathSolves;
    Result.BigIntSolves += S.BigIntSolves;
    if (S.Approximate) {
      Result.Approximate = true;
      for (PartitionChoice &Choice : S.Choices)
        Result.Choices.push_back(std::move(Choice));
      continue;
    }
    if (Result.Choices.size() >= kMaxChoices)
      continue;
    Result.VertexLimitHit |= S.VertexLimitHit;
    for (PartitionChoice &Choice : S.Choices) {
      if (Result.Choices.size() >= kMaxChoices)
        break;
      Result.Choices.push_back(std::move(Choice));
    }
  }

  // Degeneracy heuristic (paper section 5.2): drop choices whose region
  // is covered by another choice's region. Containment needs generator
  // representations, so it is skipped for sampled (high-dimensional)
  // results.
  if (Options.PruneContained && !Result.Approximate &&
      Result.Choices.size() > 1) {
    std::vector<bool> Pruned(Result.Choices.size(), false);
    for (unsigned I = 0; I != Result.Choices.size(); ++I) {
      for (unsigned J = 0; J != Result.Choices.size(); ++J) {
        if (I == J || Pruned[J] || Pruned[I])
          continue;
        if (!Result.Choices[J].Region.containsPolyhedron(
                Result.Choices[I].Region))
          continue;
        bool Mutual = Result.Choices[I].Region.containsPolyhedron(
            Result.Choices[J].Region);
        if (!Mutual || J < I)
          Pruned[I] = true;
      }
    }
    std::vector<PartitionChoice> Kept;
    for (unsigned I = 0; I != Result.Choices.size(); ++I)
      if (!Pruned[I])
        Kept.push_back(std::move(Result.Choices[I]));
    Result.Choices = std::move(Kept);
  }

  // Dummies surviving into region constraints require user annotations.
  // Plain domain bounds and flag bindings carry no decision information.
  std::vector<LinConstraint> BoxConstraints =
      GlobalMapper.box().constraints();
  auto isBoxBound = [&BoxConstraints](const LinConstraint &C) {
    for (const LinConstraint &B : BoxConstraints)
      if (B == C)
        return true;
    return false;
  };
  std::set<ParamId> Needed;
  std::vector<ParamId> Support;
  for (const PartitionChoice &Choice : Result.Choices)
    for (const LinConstraint &C : Choice.Region.constraints()) {
      if (C.IsEquality || isBoxBound(C))
        continue;
      for (unsigned K = 0; K != C.Coeffs.size(); ++K) {
        if (C.Coeffs[K].isZero())
          continue;
        // Transitive support so dummies hidden inside merged members of
        // a cost-simplified dimension still demand their annotation.
        Support.clear();
        Space.baseSupport(Result.EffectiveDims[K], Support);
        for (ParamId Factor : Support)
          if (Space.isDummy(Factor))
            Needed.insert(Factor);
      }
    }
  Result.RequiredAnnotations.assign(Needed.begin(), Needed.end());

  Result.AnalysisSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    StartTime)
          .count();

  // Publish the solver work counters (PR 2's ad-hoc fields) into the
  // process-wide registry: the ParametricResult fields stay authoritative
  // per solve (and deterministic across thread counts); the registry
  // aggregates across every solve in the process for --stats and the
  // bench snapshots.
  obs::StatsRegistry &Reg = obs::StatsRegistry::global();
  Reg.counter("partition.solves").add();
  Reg.counter("partition.flow_solves").add(Result.FlowSolves);
  Reg.counter("partition.point_cache_hits").add(Result.PointCacheHits);
  Reg.counter("partition.cut_signature_hits").add(Result.CutSignatureHits);
  Reg.counter("partition.fast_path_solves").add(Result.FastPathSolves);
  Reg.counter("partition.bigint_solves").add(Result.BigIntSolves);
  Reg.counter("partition.choices").add(Result.Choices.size());
  Reg.gauge("partition.threads_used").set(Result.ThreadsUsed);
  Span.arg("choices", static_cast<uint64_t>(Result.Choices.size()));
  Span.arg("flow_solves", Result.FlowSolves);
  Span.arg("threads", Result.ThreadsUsed);
  return Result;
}
