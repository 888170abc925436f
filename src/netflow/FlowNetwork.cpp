//===- netflow/FlowNetwork.cpp - Parametric-capacity flow networks -------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "netflow/FlowNetwork.h"

#include <algorithm>
#include <limits>

using namespace paco;

void Capacity::accumulate(const Capacity &Other) {
  if (Other.Infinite)
    Infinite = true;
  if (Infinite) {
    Expr = LinExpr();
    return;
  }
  Expr += Other.Expr;
}

NodeId FlowNetwork::addNode(std::string Label) {
  NodeId Id = static_cast<NodeId>(Labels.size());
  Labels.push_back(std::move(Label));
  return Id;
}

void FlowNetwork::addArc(NodeId From, NodeId To, Capacity Cap) {
  assert(From < Labels.size() && To < Labels.size() && "arc endpoint oob");
  if (From == To)
    return;
  if (!Cap.Infinite && Cap.Expr.isZero())
    return;
  auto Key = std::make_pair(From, To);
  auto It = ArcIndex.find(Key);
  if (It != ArcIndex.end()) {
    Arcs[It->second].Cap.accumulate(Cap);
    return;
  }
  ArcIndex.emplace(Key, static_cast<unsigned>(Arcs.size()));
  Arcs.push_back({From, To, std::move(Cap)});
}

std::string FlowNetwork::dump(const ParamSpace &Space) const {
  std::string Result;
  for (const Arc &A : Arcs) {
    Result += Labels[A.From] + " -> " + Labels[A.To] + " [";
    Result += A.Cap.Infinite ? "inf" : A.Cap.Expr.toString(Space);
    Result += "]\n";
  }
  return Result;
}

namespace {

/// Residual edge for the Dinic solver; CapT is BigInt (exact path) or
/// int64_t (machine-arithmetic fast path).
template <typename CapT> struct ResidualEdge {
  unsigned To;
  CapT Cap;
  unsigned Rev; ///< Index of the reverse edge in Adj[To].
};

/// Capacity-type policy: how each solver represents the "unbounded"
/// augmentation limit. int64_t uses INT64_MAX, which exceeds every
/// residual capacity on the fast path, so min() leaves it intact exactly
/// like the BigInt -1 sentinel.
template <typename CapT> struct CapOps;

template <> struct CapOps<BigInt> {
  static BigInt unbounded() { return BigInt(-1); }
  static bool isUnbounded(const BigInt &C) { return C.isNegative(); }
  static bool isZero(const BigInt &C) { return C.isZero(); }
};

template <> struct CapOps<int64_t> {
  static int64_t unbounded() { return std::numeric_limits<int64_t>::max(); }
  static bool isUnbounded(int64_t C) { return C == unbounded(); }
  static bool isZero(int64_t C) { return C == 0; }
};

/// Dinic max-flow over exact integer capacities. The solver is reusable:
/// reset() keeps the adjacency, level, iterator and queue buffers alive so
/// repeated solves (one per sample point of the parametric algorithm) stop
/// paying allocation costs.
template <typename CapT> class DinicSolver {
public:
  void reset(unsigned NumNodes) {
    if (Adj.size() < NumNodes)
      Adj.resize(NumNodes);
    for (unsigned I = 0; I != NumNodes; ++I)
      Adj[I].clear();
    N = NumNodes;
    Level.assign(NumNodes, -1);
    Iter.assign(NumNodes, 0);
    Queue.clear();
    Queue.reserve(NumNodes);
  }

  void addEdge(unsigned From, unsigned To, CapT Cap) {
    Adj[From].push_back(
        {To, std::move(Cap), static_cast<unsigned>(Adj[To].size())});
    Adj[To].push_back(
        {From, CapT(0), static_cast<unsigned>(Adj[From].size()) - 1});
  }

  void run(unsigned Source, unsigned Sink) {
    while (bfs(Source, Sink)) {
      std::fill(Iter.begin(), Iter.end(), 0u);
      while (true) {
        CapT Pushed = dfs(Source, Sink, CapOps<CapT>::unbounded());
        if (CapOps<CapT>::isZero(Pushed))
          break;
      }
    }
  }

  /// Nodes reachable from \p Source in the residual graph.
  std::vector<bool> residualReachable(unsigned Source) {
    std::vector<bool> Seen(N, false);
    Queue.clear();
    Seen[Source] = true;
    Queue.push_back(Source);
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      for (const ResidualEdge<CapT> &E : Adj[Queue[Head]]) {
        if (CapOps<CapT>::isZero(E.Cap) || Seen[E.To])
          continue;
        Seen[E.To] = true;
        Queue.push_back(E.To);
      }
    }
    return Seen;
  }

private:
  bool bfs(unsigned Source, unsigned Sink) {
    std::fill(Level.begin(), Level.end(), -1);
    Queue.clear();
    Level[Source] = 0;
    Queue.push_back(Source);
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      unsigned Node = Queue[Head];
      for (const ResidualEdge<CapT> &E : Adj[Node]) {
        if (CapOps<CapT>::isZero(E.Cap) || Level[E.To] >= 0)
          continue;
        Level[E.To] = Level[Node] + 1;
        Queue.push_back(E.To);
      }
    }
    return Level[Sink] >= 0;
  }

  /// Pushes a blocking-flow augmenting path.
  CapT dfs(unsigned Node, unsigned Sink, CapT Limit) {
    if (Node == Sink)
      return Limit;
    for (unsigned &I = Iter[Node]; I < Adj[Node].size(); ++I) {
      ResidualEdge<CapT> &E = Adj[Node][I];
      if (CapOps<CapT>::isZero(E.Cap) || Level[E.To] != Level[Node] + 1)
        continue;
      CapT NextLimit = E.Cap;
      if (!CapOps<CapT>::isUnbounded(Limit) && Limit < NextLimit)
        NextLimit = Limit;
      CapT Pushed = dfs(E.To, Sink, NextLimit);
      if (CapOps<CapT>::isZero(Pushed))
        continue;
      E.Cap -= Pushed;
      Adj[E.To][E.Rev].Cap += Pushed;
      return Pushed;
    }
    return CapT(0);
  }

  unsigned N = 0;
  std::vector<std::vector<ResidualEdge<CapT>>> Adj;
  std::vector<int> Level;
  std::vector<unsigned> Iter;
  std::vector<unsigned> Queue;
};

/// Per-thread scratch: both solvers plus the capacity-evaluation buffers
/// survive across solveMinCutStructure calls.
struct SolverWorkspace {
  DinicSolver<int64_t> Small;
  DinicSolver<BigInt> Big;
  std::vector<Rational> Values;
  std::vector<BigInt> IntCaps;
};

SolverWorkspace &workspace() {
  thread_local SolverWorkspace WS;
  return WS;
}

} // namespace

CutStructure paco::solveMinCutStructure(const FlowNetwork &Net,
                                        const std::vector<Rational> &Point,
                                        bool ForceBigInt) {
  // Evaluate finite capacities and clear denominators so the solver works
  // on exact integers.
  const std::vector<Arc> &Arcs = Net.arcs();
  SolverWorkspace &WS = workspace();
  std::vector<Rational> &Values = WS.Values;
  Values.assign(Arcs.size(), Rational());
  BigInt Lcm(1);
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    if (Arcs[I].Cap.Infinite)
      continue;
    Values[I] = Arcs[I].Cap.Expr.evaluate(Point);
    assert(!Values[I].isNegative() && "negative capacity at sample point");
    const BigInt &Den = Values[I].denominator();
    Lcm = Lcm / BigInt::gcd(Lcm, Den) * Den;
  }
  BigInt FiniteTotal(0);
  std::vector<BigInt> &IntCaps = WS.IntCaps;
  IntCaps.assign(Arcs.size(), BigInt());
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    if (Arcs[I].Cap.Infinite)
      continue;
    IntCaps[I] = Values[I].numerator() * (Lcm / Values[I].denominator());
    FiniteTotal += IntCaps[I];
  }
  // Any value strictly above the sum of all finite capacities acts as
  // infinity: a minimum cut uses such an arc only if no finite cut exists.
  BigInt Huge = FiniteTotal + BigInt(1);

  // The fast path is sound whenever no intermediate value can overflow:
  // every residual capacity stays below twice the largest edge capacity,
  // and each edge capacity is at most Huge = FiniteTotal + 1, so
  // FiniteTotal <= INT64_MAX / 4 bounds everything by INT64_MAX / 2.
  bool FastPath =
      !ForceBigInt && FiniteTotal.fitsInt64() &&
      FiniteTotal.toInt64() <= std::numeric_limits<int64_t>::max() / 4;

  CutStructure Result;
  if (FastPath) {
    DinicSolver<int64_t> &Solver = WS.Small;
    Solver.reset(Net.numNodes());
    int64_t SmallHuge = FiniteTotal.toInt64() + 1;
    for (unsigned I = 0; I != Arcs.size(); ++I)
      Solver.addEdge(Arcs[I].From, Arcs[I].To,
                     Arcs[I].Cap.Infinite ? SmallHuge : IntCaps[I].toInt64());
    Solver.run(Net.source(), Net.sink());
    Result.SourceSide = Solver.residualReachable(Net.source());
    Result.UsedFastPath = true;
  } else {
    DinicSolver<BigInt> &Solver = WS.Big;
    Solver.reset(Net.numNodes());
    for (unsigned I = 0; I != Arcs.size(); ++I)
      Solver.addEdge(Arcs[I].From, Arcs[I].To,
                     Arcs[I].Cap.Infinite ? Huge : IntCaps[I]);
    Solver.run(Net.source(), Net.sink());
    Result.SourceSide = Solver.residualReachable(Net.source());
  }
  assert(!Result.SourceSide[Net.sink()] && "sink reachable after max flow");
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    if (!Result.SourceSide[Arcs[I].From] || Result.SourceSide[Arcs[I].To])
      continue;
    Result.CutArcs.push_back(I);
    if (Arcs[I].Cap.Infinite)
      Result.Finite = false;
  }
  return Result;
}

CutResult paco::solveMinCut(const FlowNetwork &Net,
                            const std::vector<Rational> &Point) {
  CutStructure S = solveMinCutStructure(Net, Point);
  CutResult Result;
  Result.SourceSide = std::move(S.SourceSide);
  Result.CutArcs = std::move(S.CutArcs);
  Result.Finite = S.Finite;
  const std::vector<Arc> &Arcs = Net.arcs();
  for (unsigned I : Result.CutArcs)
    if (!Arcs[I].Cap.Infinite)
      Result.Value += Arcs[I].Cap.Expr;
  return Result;
}

bool paco::alwaysGE(const LinExpr &A, const LinExpr &B,
                    const ParamSpace &Space) {
  LinExpr Diff = A - B;
  // Minimum of an affine function over the parameter box.
  Rational Min = Diff.constantTerm();
  for (const auto &[Id, Coeff] : Diff.terms()) {
    const BigInt &Bound =
        Coeff.isPositive() ? Space.lower(Id) : Space.upper(Id);
    Min += Coeff * Rational(Bound);
  }
  return !Min.isNegative();
}

namespace {

/// Sum of capacities that may include infinity.
struct CapSum {
  bool Infinite = false;
  LinExpr Expr;

  void add(const Capacity &C) {
    if (C.Infinite)
      Infinite = true;
    else
      Expr += C.Expr;
  }
};

/// \returns true if capacity \p A dominates the sum \p B over the box.
bool capDominates(const Capacity &A, const CapSum &B,
                  const ParamSpace &Space) {
  if (A.Infinite)
    return true;
  if (B.Infinite)
    return false;
  return alwaysGE(A.Expr, B.Expr, Space);
}

} // namespace

SimplifiedNetwork paco::simplifyNetwork(const FlowNetwork &Net,
                                        const ParamSpace &Space) {
  unsigned N = Net.numNodes();
  std::vector<NodeId> Parent(N);
  for (unsigned I = 0; I != N; ++I)
    Parent[I] = I;
  auto find = [&Parent](NodeId X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };

  // Merged adjacency: Out[n][m] / In[n][m] hold the accumulated capacity
  // between representatives n and m. Kept in sync across merges so each
  // dominance check is proportional to the degree of the candidate node.
  std::vector<std::map<NodeId, Capacity>> Out(N), In(N);
  for (const Arc &A : Net.arcs()) {
    Out[A.From][A.To].accumulate(A.Cap);
    In[A.To][A.From].accumulate(A.Cap);
  }

  auto sumExcept = [](const std::map<NodeId, Capacity> &Side, NodeId Skip) {
    CapSum Sum;
    for (const auto &[Other, Cap] : Side)
      if (Other != Skip)
        Sum.add(Cap);
    return Sum;
  };

  // Folds node Gone into node Rep, rebuilding Gone's adjacency onto Rep.
  auto mergeInto = [&](NodeId Rep, NodeId Gone) {
    Parent[Gone] = Rep;
    for (auto &[To, Cap] : Out[Gone]) {
      In[To].erase(Gone);
      if (To == Rep)
        continue;
      Out[Rep][To].accumulate(Cap);
      In[To][Rep].accumulate(Cap);
    }
    for (auto &[From, Cap] : In[Gone]) {
      Out[From].erase(Gone);
      if (From == Rep)
        continue;
      In[Rep][From].accumulate(Cap);
      Out[From][Rep].accumulate(Cap);
    }
    Out[Rep].erase(Gone);
    In[Rep].erase(Gone);
    Out[Gone].clear();
    In[Gone].clear();
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NodeId Ni = 0; Ni != N; ++Ni) {
      if (find(Ni) != Ni)
        continue;
      // Take a snapshot of the successors: mergeInto mutates Out[Ni].
      std::vector<NodeId> Succs;
      for (const auto &[To, Cap] : Out[Ni]) {
        (void)Cap;
        Succs.push_back(To);
      }
      for (NodeId Nj : Succs) {
        if (find(Ni) != Ni)
          break; // Ni itself got merged away.
        if (find(Nj) != Nj || Nj == Ni)
          continue;
        // The merge argument relocates nj to the other side of a cut, so
        // nj must be a free node: never the source or the sink.
        NodeId S = find(Net.source()), T = find(Net.sink());
        if (Nj == S || Nj == T)
          continue;
        auto FwdIt = Out[Ni].find(Nj);
        if (FwdIt == Out[Ni].end())
          continue;
        // Condition 1: c(ni,nj) >= sum of other out-arcs of nj.
        if (!capDominates(FwdIt->second, sumExcept(Out[Nj], Ni), Space))
          continue;
        // Condition 2: c(nj,ni) >= sum of other in-arcs of nj.
        Capacity BackCap = Capacity::finite(LinExpr());
        auto BwdIt = Out[Nj].find(Ni);
        if (BwdIt != Out[Nj].end())
          BackCap = BwdIt->second;
        if (!capDominates(BackCap, sumExcept(In[Nj], Ni), Space))
          continue;
        // Merge nj into ni, preferring source/sink as representative.
        NodeId Rep = Ni, Gone = Nj;
        if (Gone == S || Gone == T)
          std::swap(Rep, Gone);
        mergeInto(Rep, Gone);
        Changed = true;
      }
    }
  }

  SimplifiedNetwork Result;
  Result.NodeMap.assign(N, 0);
  std::vector<NodeId> RepToNew(N, ~0u);
  // Source and sink keep their positions 0 and 1 in the new network.
  RepToNew[find(Net.source())] = Result.Net.source();
  RepToNew[find(Net.sink())] = Result.Net.sink();
  for (unsigned I = 0; I != N; ++I) {
    NodeId Rep = find(I);
    if (RepToNew[Rep] == ~0u)
      RepToNew[Rep] = Result.Net.addNode(Net.label(Rep));
    Result.NodeMap[I] = RepToNew[Rep];
  }
  for (const Arc &A : Net.arcs())
    Result.Net.addArc(Result.NodeMap[A.From], Result.NodeMap[A.To], A.Cap);
  return Result;
}
