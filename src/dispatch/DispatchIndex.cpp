//===- dispatch/DispatchIndex.cpp - O(log n) choice point location --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Correctness argument (DESIGN.md section 5h):
//
// Descent invariant. Interior nodes route the query to the Plus child
// when f(p) >= 0 (exactly decided: int128, certified double, or exact
// Rational) and to Minus otherwise. Construction puts a region into the
// Plus set iff it touches {f >= 0} and into Minus iff it touches
// {f < 0}, both computed soundly (over-approximated). So if a region
// contains p, it is present in the child p descends to -- by induction
// every region containing p survives to the leaf. The leaf tests its
// candidates in ascending choice order with an exactly-decided
// containment test, so it returns the same first-containing choice as
// the linear scan; if none contains p, the compiled fallback reproduces
// the linear scan's cost argmin (first index attaining the minimum).
//
// Certified double tier. Every compiled input (constraint coefficient,
// monomial product of int64 values, Rational-to-double projection) is a
// nearest rounding with relative error <= DBL_EPSILON per operation, and
// the row evaluation performs Dim multiply-adds. The accumulated error
// of the computed value V against the exact value is therefore bounded
// by C * DBL_EPSILON * AbsSum where AbsSum is the sum of the rounded
// term magnitudes and C counts the rounding steps; Eps uses
// 16 * (Dim + MaxDeg + 2) which over-counts C by an order of magnitude.
// Hence |V| > Eps * AbsSum proves the exact sign, and only points inside
// that vanishing band around the hyperplane pay for exact arithmetic.
// NaN/inf values fail every band comparison and fall through to the
// exact tier, so overflow is safe, not wrong.
//
//===----------------------------------------------------------------------===//

#include "dispatch/DispatchIndex.h"

#include "obs/Stats.h"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

using namespace paco;

namespace {

// Shares the linear scan's fallback accounting (see Parametric.cpp);
// registered at static-init time for deterministic snapshot order.
obs::Counter &PickFallbacks =
    obs::StatsRegistry::global().counter("partition.pick_fallback");

/// Exact sign of Coeffs . Direction for an integer ray/line direction.
int dotSign(const std::vector<BigInt> &Coeffs,
            const std::vector<BigInt> &Dir) {
  BigInt Sum;
  for (unsigned K = 0; K != Coeffs.size(); ++K) {
    if (Coeffs[K].isZero() || Dir[K].isZero())
      continue;
    Sum += Coeffs[K] * Dir[K];
  }
  return Sum.sign();
}

bool isNegationOf(const std::vector<BigInt> &A, const std::vector<BigInt> &B) {
  for (unsigned K = 0; K != A.size(); ++K)
    if (A[K] != -B[K])
      return false;
  return true;
}

} // namespace

DispatchIndex::DispatchIndex(const ParametricResult &Partition,
                             const ParamSpace &Space,
                             unsigned NumRuntimeParams)
    : Partition(Partition), Space(Space), NumRuntime(NumRuntimeParams),
      Dim(static_cast<unsigned>(Partition.EffectiveDims.size())) {
  assert(!Partition.Choices.empty() && "nothing to dispatch over");
  auto Start = std::chrono::steady_clock::now();
  // Sampled (approximate) results may hold regions whose generator
  // enumeration was never paid for; classify those from constraints only.
  UseGeometry = !Partition.Approximate;
  buildPlans();
  compileRegions();
  buildHyperplanePool();
  compileCostRows();
  precomputeBuildInfo();

  std::vector<uint8_t> Memo(Hyperplanes.size() * Partition.Choices.size(), 0);
  std::vector<uint32_t> All;
  for (uint32_t C = 0; C != Partition.Choices.size(); ++C)
    if (!Regions[C].Dead)
      All.push_back(C);
  Root = buildTree(std::move(All), 0, Memo);
  BuildInfo.clear();
  BuildInfo.shrink_to_fit();
  BuildSeconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
}

void DispatchIndex::buildPlans() {
  Plans.resize(Dim);
  unsigned MaxDeg = 1;
  for (unsigned K = 0; K != Dim; ++K) {
    ParamId Id = Partition.EffectiveDims[K];
    std::vector<DimProduct> Prods(1);
    Prods[0].ConstQ = Rational(BigInt(1));
    auto mulFactor = [&](DimProduct &P, ParamId F) {
      if (F < NumRuntime)
        P.RuntimeFactors.push_back(F);
      else
        P.ConstQ *= Rational(Space.lower(F)); // parameterPoint semantics
    };
    for (ParamId F : Space.factors(Id)) {
      if (Space.isMerged(F)) {
        // Distribute the merged slot's weighted member sum over the
        // enclosing product, one product per member.
        std::vector<DimProduct> Next;
        for (const auto &[Member, Weight] : Space.mergedTerms(F))
          for (DimProduct P : Prods) {
            P.ConstQ *= Rational(Weight);
            for (ParamId G : Space.factors(Member)) {
              assert(!Space.isMerged(G) && "merged members are flat");
              mulFactor(P, G);
            }
            Next.push_back(std::move(P));
          }
        Prods = std::move(Next);
      } else {
        for (DimProduct &P : Prods)
          mulFactor(P, F);
      }
    }
    // Rounding-step budget for this dimension's compiled evaluation: per
    // product its multiplies plus the accumulating add.
    unsigned Ops = 1;
    for (DimProduct &P : Prods) {
      P.ConstD = P.ConstQ.toDouble();
      P.ConstIntOK = P.ConstQ.isInteger() && P.ConstQ.numerator().fitsInt64();
      P.ConstI = P.ConstIntOK ? P.ConstQ.numerator().toInt64() : 0;
      Ops += static_cast<unsigned>(P.RuntimeFactors.size()) + 1;
    }
    MaxDeg = std::max(MaxDeg, Ops);
    Plans[K].Products = std::move(Prods);
  }
  Eps = 16.0 * (Dim + MaxDeg + 2) * DBL_EPSILON;
}

DispatchIndex::Row DispatchIndex::compileRow(const LinConstraint &C) const {
  Row R;
  R.Exact = C;
  bool IntOK = C.Const.fitsInt64();
  R.ConstD = C.Const.toDouble();
  R.ConstI = IntOK ? C.Const.toInt64() : 0;
  double AbsCoeffSum = 0;
  for (unsigned K = 0; K != C.Coeffs.size(); ++K) {
    if (C.Coeffs[K].isZero())
      continue;
    Term T;
    T.Dim = K;
    T.CoeffD = C.Coeffs[K].toDouble();
    bool Fits = C.Coeffs[K].fitsInt64();
    T.CoeffI = Fits ? C.Coeffs[K].toInt64() : 0;
    IntOK = IntOK && Fits;
    AbsCoeffSum += std::fabs(T.CoeffD);
    R.Terms.push_back(T);
  }
  // |sum CoeffI * EffI| <= AbsCoeffSum * 2^52 stays far inside int128
  // range as long as the coefficient magnitudes sum below 2^62.
  R.IntOK = IntOK && AbsCoeffSum <= 4.6e18;
  return R;
}

void DispatchIndex::compileRegions() {
  Regions.resize(Partition.Choices.size());
  for (unsigned C = 0; C != Partition.Choices.size(); ++C) {
    for (const LinConstraint &LC :
         Partition.Choices[C].Region.constraints()) {
      if (LC.isTautology())
        continue;
      if (LC.isContradiction()) {
        Regions[C].Dead = true;
        Regions[C].Constrs.clear();
        break;
      }
      Regions[C].Constrs.push_back({compileRow(LC), LC.IsEquality});
    }
  }
}

void DispatchIndex::buildHyperplanePool() {
  std::map<std::string, uint32_t> Seen;
  for (const CompiledRegion &Reg : Regions) {
    if (Reg.Dead)
      continue;
    for (const RegionConstraint &RC : Reg.Constrs) {
      LinConstraint Canon = RC.R.Exact;
      Canon.IsEquality = false;
      // Canonical orientation: first nonzero coefficient positive, so a
      // facet shared by two regions (one with a.x + c >= 0, the other
      // with -a.x - c >= 0) dedups to one splitting hyperplane.
      int Flip = 0;
      for (const BigInt &Coeff : Canon.Coeffs) {
        if (Coeff.isZero())
          continue;
        Flip = Coeff.isNegative() ? -1 : 1;
        break;
      }
      if (Flip == 0)
        continue;
      if (Flip < 0) {
        for (BigInt &Coeff : Canon.Coeffs)
          Coeff = -Coeff;
        Canon.Const = -Canon.Const;
      }
      // Scale-normalize by the gcd of every coefficient and the constant
      // so scaled copies of one facet (2a.x + 2c vs a.x + c) dedup to a
      // single splitting hyperplane.
      BigInt G = Canon.Const.isNegative() ? -Canon.Const : Canon.Const;
      for (const BigInt &Coeff : Canon.Coeffs)
        G = BigInt::gcd(G, Coeff);
      if (!G.isZero() && !G.isOne()) {
        for (BigInt &Coeff : Canon.Coeffs)
          Coeff = Coeff / G;
        Canon.Const = Canon.Const / G;
      }
      std::string Key = Canon.Const.toString();
      for (const BigInt &Coeff : Canon.Coeffs) {
        Key += ',';
        Key += Coeff.toString();
      }
      if (Seen.emplace(Key, static_cast<uint32_t>(Hyperplanes.size()))
              .second)
        Hyperplanes.push_back(compileRow(Canon));
    }
  }
}

void DispatchIndex::compileCostRows() {
  std::vector<int32_t> EffIdx(Space.size(), -1);
  for (unsigned K = 0; K != Dim; ++K)
    EffIdx[Partition.EffectiveDims[K]] = static_cast<int32_t>(K);
  CostRows.resize(Partition.Choices.size());
  for (unsigned C = 0; C != Partition.Choices.size(); ++C) {
    const LinExpr &E = Partition.Choices[C].CostExpr;
    CostRow &R = CostRows[C];
    R.ExactConst = E.constantTerm();
    R.ConstD = R.ExactConst.toDouble();
    for (const auto &[Id, Coeff] : E.terms()) {
      // A CostExpr is a cut value of the solved network, a sum of its
      // finite capacities, and EffectiveDims holds every term of those.
      assert(Id < Space.size() && EffIdx[Id] >= 0 &&
             "cost term outside the effective dimensions");
      R.Terms.emplace_back(static_cast<uint32_t>(EffIdx[Id]),
                           Coeff.toDouble());
      R.ExactTerms.emplace_back(static_cast<uint32_t>(EffIdx[Id]), Coeff);
    }
  }
}

void DispatchIndex::precomputeBuildInfo() {
  BuildInfo.resize(Partition.Choices.size());
  for (unsigned C = 0; C != Partition.Choices.size(); ++C) {
    BuildRegionInfo &Info = BuildInfo[C];
    Info.Lo.assign(Dim, std::nullopt);
    Info.Hi.assign(Dim, std::nullopt);
    if (Regions[C].Dead)
      continue;
    // Bounds implied by the region's own single-variable constraints
    // (box rows, flag pins). Using only the region's constraints keeps
    // the classification sound for points outside the declared box too.
    for (const RegionConstraint &RC : Regions[C].Constrs) {
      const LinConstraint &LC = RC.R.Exact;
      int Nonzero = -1;
      bool Single = true;
      for (unsigned K = 0; K != LC.Coeffs.size(); ++K) {
        if (LC.Coeffs[K].isZero())
          continue;
        if (Nonzero >= 0) {
          Single = false;
          break;
        }
        Nonzero = static_cast<int>(K);
      }
      if (!Single || Nonzero < 0)
        continue;
      unsigned K = static_cast<unsigned>(Nonzero);
      Rational Bound = Rational(-LC.Const) / Rational(LC.Coeffs[K]);
      bool IsLower = LC.Coeffs[K].isPositive();
      if (IsLower || LC.IsEquality)
        Info.Lo[K] = Info.Lo[K] ? std::max(*Info.Lo[K], Bound) : Bound;
      if (!IsLower || LC.IsEquality)
        Info.Hi[K] = Info.Hi[K] ? std::min(*Info.Hi[K], Bound) : Bound;
    }
  }
}

uint8_t DispatchIndex::classify(uint32_t H, uint32_t C,
                                std::vector<uint8_t> &Memo) {
  uint8_t &Slot = Memo[size_t(H) * Partition.Choices.size() + C];
  if (Slot & 4)
    return Slot & 3;
  const LinConstraint &F = Hyperplanes[H].Exact;
  const BuildRegionInfo &Info = BuildInfo[C];

  // Range of f over the region from per-dimension bounds.
  Rational LB(F.Const), UB(F.Const);
  bool HasLB = true, HasUB = true;
  for (unsigned K = 0; K != Dim; ++K) {
    const BigInt &A = F.Coeffs[K];
    if (A.isZero())
      continue;
    const std::optional<Rational> &ForLB = A.isPositive() ? Info.Lo[K]
                                                          : Info.Hi[K];
    const std::optional<Rational> &ForUB = A.isPositive() ? Info.Hi[K]
                                                          : Info.Lo[K];
    if (HasLB && ForLB)
      LB += Rational(A) * *ForLB;
    else
      HasLB = false;
    if (HasUB && ForUB)
      UB += Rational(A) * *ForUB;
    else
      HasUB = false;
  }
  // Parallel-facet rule: a region constraint with the same (or negated)
  // normal bounds f directly. In particular the region's own facet that
  // spawned this hyperplane pins it to one side.
  for (const RegionConstraint &RC : Regions[C].Constrs) {
    const LinConstraint &G = RC.R.Exact;
    Rational Val;
    bool Lower;
    if (G.Coeffs == F.Coeffs) {
      // G: a.x + d >= 0  =>  f = a.x + c >= c - d.
      Val = Rational(F.Const - G.Const);
      Lower = true;
    } else if (isNegationOf(G.Coeffs, F.Coeffs)) {
      // G: -a.x + d >= 0  =>  f = a.x + c <= c + d.
      Val = Rational(F.Const + G.Const);
      Lower = false;
    } else {
      continue;
    }
    if (Lower || RC.IsEquality) {
      LB = HasLB ? std::max(LB, Val) : Val;
      HasLB = true;
    }
    if (!Lower || RC.IsEquality) {
      UB = HasUB ? std::min(UB, Val) : Val;
      HasUB = true;
    }
  }
  bool MayPos = !HasUB || UB.sign() >= 0;
  bool MayNeg = !HasLB || LB.sign() < 0;

  // Exact refinement from the region's vertices/rays when available.
  if (MayPos && MayNeg && UseGeometry) {
    BuildRegionInfo &MutInfo = BuildInfo[C];
    if (!MutInfo.Gens)
      MutInfo.Gens = &Partition.Choices[C].Region.generators();
    const Generators &G = *MutInfo.Gens;
    if (G.empty()) {
      MayPos = MayNeg = false; // empty region touches nothing
    } else {
      bool VPos = false, VNeg = false;
      for (const std::vector<Rational> &V : G.Vertices) {
        (F.evaluate(V).sign() >= 0 ? VPos : VNeg) = true;
        if (VPos && VNeg)
          break;
      }
      for (const std::vector<BigInt> &Ray : G.Rays) {
        int S = dotSign(F.Coeffs, Ray);
        VPos = VPos || S > 0;
        VNeg = VNeg || S < 0;
      }
      for (const std::vector<BigInt> &Line : G.Lines)
        if (dotSign(F.Coeffs, Line) != 0)
          VPos = VNeg = true;
      MayPos = VPos;
      MayNeg = VNeg;
    }
  }
  uint8_t Bits =
      static_cast<uint8_t>((MayPos ? 1 : 0) | (MayNeg ? 2 : 0));
  Slot = static_cast<uint8_t>(Bits | 4);
  return Bits;
}

uint32_t DispatchIndex::makeLeaf(const std::vector<uint32_t> &Cands) {
  Node L;
  L.Hyper = -1;
  L.FirstCand = static_cast<uint32_t>(LeafCands.size());
  L.NumCands = static_cast<uint32_t>(Cands.size());
  LeafCands.insert(LeafCands.end(), Cands.begin(), Cands.end());
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(L);
  ++NumLeaves;
  MaxLeaf = std::max(MaxLeaf, static_cast<unsigned>(Cands.size()));
  return Idx;
}

uint32_t DispatchIndex::buildTree(std::vector<uint32_t> Cands,
                                  unsigned DepthIn,
                                  std::vector<uint8_t> &Memo) {
  Depth = std::max(Depth, DepthIn);
  if (Cands.size() <= 1)
    return makeLeaf(Cands);
  // Greedy split: minimize the larger side, then the total duplication.
  int32_t BestH = -1;
  size_t BestScore = Cands.size(), BestTotal = 0;
  for (uint32_t H = 0; H != Hyperplanes.size(); ++H) {
    size_t P = 0, M = 0;
    for (uint32_t C : Cands) {
      uint8_t Bits = classify(H, C, Memo);
      P += (Bits & 1) != 0;
      M += (Bits & 2) != 0;
    }
    size_t Score = std::max(P, M);
    if (Score >= Cands.size())
      continue; // no progress on at least one side: would not terminate
    size_t Total = P + M;
    if (BestH < 0 || Score < BestScore ||
        (Score == BestScore && Total < BestTotal)) {
      BestH = static_cast<int32_t>(H);
      BestScore = Score;
      BestTotal = Total;
    }
  }
  if (BestH < 0)
    return makeLeaf(Cands);
  std::vector<uint32_t> Plus, Minus;
  for (uint32_t C : Cands) {
    uint8_t Bits = classify(static_cast<uint32_t>(BestH), C, Memo);
    if (Bits & 1)
      Plus.push_back(C);
    if (Bits & 2)
      Minus.push_back(C);
  }
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  Nodes.emplace_back();
  uint32_t PlusChild = buildTree(std::move(Plus), DepthIn + 1, Memo);
  uint32_t MinusChild = buildTree(std::move(Minus), DepthIn + 1, Memo);
  Nodes[Idx].Hyper = BestH;
  Nodes[Idx].Plus = PlusChild;
  Nodes[Idx].Minus = MinusChild;
  return Idx;
}

//===----------------------------------------------------------------------===//
// Query path
//===----------------------------------------------------------------------===//

void DispatchIndex::ensureExactEff(DispatchScratch &S) const {
  if (S.EffQValid)
    return;
  S.EffQ.resize(Dim);
  if (S.Full) {
    for (unsigned K = 0; K != Dim; ++K)
      S.EffQ[K] = (*S.Full)[Partition.EffectiveDims[K]];
  } else {
    for (unsigned K = 0; K != Dim; ++K) {
      Rational V;
      for (const DimProduct &Pr : Plans[K].Products) {
        Rational PV = Pr.ConstQ;
        for (uint32_t F : Pr.RuntimeFactors)
          PV *= Rational(S.Vals[F]);
        V += PV;
      }
      S.EffQ[K] = std::move(V);
    }
  }
  S.EffQValid = true;
}

int DispatchIndex::rowSign(const Row &R, DispatchScratch &S,
                           bool &UsedExact) const {
  if (S.AllInt && R.IntOK) {
    __int128 V = R.ConstI;
    for (const Term &T : R.Terms)
      V += static_cast<__int128>(T.CoeffI) * S.EffI[T.Dim];
    return V > 0 ? 1 : V < 0 ? -1 : 0;
  }
  double V = R.ConstD, Abs = std::fabs(R.ConstD);
  for (const Term &T : R.Terms) {
    double P = T.CoeffD * S.EffD[T.Dim];
    V += P;
    Abs += std::fabs(P);
  }
  double Band = Eps * Abs;
  if (V > Band)
    return 1;
  if (V < -Band)
    return -1;
  // Inside the epsilon band (or non-finite): confirm exactly.
  ++S.ExactConfirms;
  UsedExact = true;
  ensureExactEff(S);
  return R.Exact.evaluate(S.EffQ).sign();
}

bool DispatchIndex::containsCompiled(const CompiledRegion &Reg,
                                     DispatchScratch &S,
                                     bool &UsedExact) const {
  if (Reg.Dead)
    return false;
  for (const RegionConstraint &RC : Reg.Constrs) {
    int Sign = rowSign(RC.R, S, UsedExact);
    if (RC.IsEquality ? Sign != 0 : Sign < 0)
      return false;
  }
  return true;
}

unsigned DispatchIndex::exactArgminEff(
    DispatchScratch &S, const std::vector<uint32_t> &Cands) const {
  ensureExactEff(S);
  auto CostOf = [&](uint32_t C) {
    Rational Cost = CostRows[C].ExactConst;
    for (const auto &[D, Coeff] : CostRows[C].ExactTerms)
      Cost += Coeff * S.EffQ[D];
    return Cost;
  };
  unsigned Best = Cands[0];
  Rational BestCost = CostOf(Cands[0]);
  for (size_t I = 1; I != Cands.size(); ++I) {
    Rational Cost = CostOf(Cands[I]);
    if (Cost < BestCost) {
      Best = Cands[I];
      BestCost = Cost;
    }
  }
  return Best;
}

unsigned DispatchIndex::fallbackPick(DispatchScratch &S,
                                     bool &UsedExact) const {
  unsigned N = static_cast<unsigned>(Partition.Choices.size());
  S.CostVal.resize(N);
  S.CostAbs.resize(N);
  const double *X = S.EffD.data();
  bool Finite = true;
  for (unsigned C = 0; C != N; ++C) {
    double V = CostRows[C].ConstD, Abs = std::fabs(CostRows[C].ConstD);
    for (const auto &[D, Coeff] : CostRows[C].Terms) {
      double P = Coeff * X[D];
      V += P;
      Abs += std::fabs(P);
    }
    S.CostVal[C] = V;
    S.CostAbs[C] = Abs;
    Finite = Finite && std::isfinite(V) && std::isfinite(Abs);
  }
  S.CandBuf.clear();
  if (Finite) {
    double MinUpper = std::numeric_limits<double>::infinity();
    for (unsigned C = 0; C != N; ++C)
      MinUpper = std::min(MinUpper, S.CostVal[C] + Eps * S.CostAbs[C]);
    // Every index whose certified lower bound reaches MinUpper might be
    // the argmin; the true argmin set is always among them.
    for (unsigned C = 0; C != N; ++C)
      if (S.CostVal[C] - Eps * S.CostAbs[C] <= MinUpper)
        S.CandBuf.push_back(C);
    if (S.CandBuf.size() == 1)
      return S.CandBuf[0];
  } else {
    for (unsigned C = 0; C != N; ++C)
      S.CandBuf.push_back(C);
  }
  ++S.ExactConfirms;
  UsedExact = true;
  return exactArgminEff(S, S.CandBuf);
}

unsigned DispatchIndex::run(DispatchScratch &S) const {
  ++S.Queries;
  bool UsedExact = false;
  uint32_t N = Root;
  while (Nodes[N].Hyper >= 0) {
    ++S.NodeVisits;
    int Sign = rowSign(Hyperplanes[Nodes[N].Hyper], S, UsedExact);
    N = Sign >= 0 ? Nodes[N].Plus : Nodes[N].Minus;
  }
  const Node &Leaf = Nodes[N];
  for (uint32_t I = 0; I != Leaf.NumCands; ++I) {
    uint32_t C = LeafCands[Leaf.FirstCand + I];
    ++S.LeafTests;
    if (containsCompiled(Regions[C], S, UsedExact)) {
      if (!UsedExact)
        ++S.FastQueries;
      return C;
    }
  }
  ++S.Fallbacks;
  PickFallbacks.add(); // same accounting as the linear scan's fallback
  unsigned C = fallbackPick(S, UsedExact);
  if (!UsedExact)
    ++S.FastQueries;
  return C;
}

unsigned DispatchIndex::pick(const int64_t *Values, size_t NumValues,
                             DispatchScratch &S) const {
  assert(NumValues == NumRuntime && "one value per declared parameter");
  (void)NumValues;
  S.Vals = Values;
  S.Full = nullptr;
  S.EffQValid = false;
  S.EffD.resize(Dim);
  S.EffI.resize(Dim);
  bool AllInt = true;
  for (unsigned K = 0; K != Dim; ++K) {
    double VD = 0;
    int64_t VI = 0;
    bool Ok = true;
    for (const DimProduct &Pr : Plans[K].Products) {
      double PD = Pr.ConstD;
      int64_t PI = Pr.ConstI;
      bool POk = Pr.ConstIntOK;
      for (uint32_t F : Pr.RuntimeFactors) {
        int64_t X = Values[F];
        PD *= static_cast<double>(X);
        if (POk)
          POk = !__builtin_mul_overflow(PI, X, &PI);
      }
      VD += PD;
      Ok = Ok && POk && !__builtin_add_overflow(VI, PI, &VI);
    }
    if (Ok && VI > -(int64_t(1) << 52) && VI < (int64_t(1) << 52)) {
      S.EffI[K] = VI;
      S.EffD[K] = static_cast<double>(VI); // exact below 2^52
    } else {
      AllInt = false;
      S.EffI[K] = 0;
      S.EffD[K] = VD;
    }
  }
  S.AllInt = AllInt;
  return run(S);
}

unsigned DispatchIndex::pickFull(const std::vector<Rational> &FullPoint,
                                 DispatchScratch &S) const {
  assert(FullPoint.size() == Space.size() && "full-space point expected");
  S.Full = &FullPoint;
  S.Vals = nullptr;
  S.EffQValid = false;
  S.AllInt = false;
  S.EffD.resize(Dim);
  for (unsigned K = 0; K != Dim; ++K)
    S.EffD[K] = FullPoint[Partition.EffectiveDims[K]].toDouble();
  return run(S);
}

std::string DispatchIndex::describe() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "dispatch index: %u choices over %u dims, %u hyperplanes, "
                "%u nodes (%u leaves, max leaf %u), depth %u, built in "
                "%.2f ms",
                numChoices(), Dim, numHyperplanes(), numNodes(), NumLeaves,
                MaxLeaf, Depth, BuildSeconds * 1e3);
  return Buf;
}
