//===- partition/Reprice.cpp - Re-price choices under a cost model --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "partition/Reprice.h"

using namespace paco;

std::vector<PricedArc> paco::pricedArcs(const TCFG &Graph,
                                        const MemoryModel &Memory,
                                        const PartitionProblem &Problem,
                                        const ParametricResult &Partition,
                                        unsigned Choice,
                                        const std::vector<Rational> &Point) {
  // Source side = server = logic value 1.
  auto onServer = [&](unsigned Task) {
    return Choice != KNone && Partition.Choices[Choice].TaskOnServer[Task];
  };
  auto value = [&](NodeId N) { return Partition.nodeValue(Choice, N); };
  using Kind = PricedArc::Kind;

  // Computation: every task runs at its host's rate.
  std::vector<PricedArc> Arcs;
  for (unsigned V = 0; V != Graph.numTasks(); ++V)
    Arcs.push_back({Kind::Compute, V, V, KNone, onServer(V),
                    Graph.Tasks[V].ComputeUnits.evaluate(Point), {}});
  if (Choice == KNone)
    return Arcs;

  for (const auto &[Edge, CountExpr] : Graph.Edges) {
    if (CountExpr.isZero())
      continue;
    auto [U, V] = Edge;
    bool MU = onServer(U), MV = onServer(V);
    Rational Count = CountExpr.evaluate(Point);
    // Scheduling arcs M(v)->M(u) (c2s) / M(u)->M(v) (s2c).
    if (MU != MV)
      Arcs.push_back({Kind::Schedule, U, V, KNone, MV, Count, {}});
    // The data items with validity nodes at both ends: VNodes is sorted by
    // (task, item), so merge U's and V's runs by item.
    auto UIt = Problem.VNodes.lower_bound({U, 0});
    auto UEnd = Problem.VNodes.lower_bound({U + 1, 0});
    auto VIt = Problem.VNodes.lower_bound({V, 0});
    auto VEnd = Problem.VNodes.lower_bound({V + 1, 0});
    while (UIt != UEnd && VIt != VEnd) {
      unsigned D = UIt->first.second;
      if (D != VIt->first.second) {
        if (D < VIt->first.second)
          ++UIt;
        else
          ++VIt;
        continue;
      }
      const ValidityNodes &UN = (UIt++)->second, &VN = (VIt++)->second;
      // Arc Vsi(v)->Vso(u): cut when Vsi(v)=1 and Vso(u)=0. Arc
      // nVco(u)->nVci(v): cut when nVco(u)=1 and nVci(v)=0.
      bool ToServer = value(VN.Vsi) && !value(UN.Vso);
      bool ToClient = value(UN.NVco) && !value(VN.NVci);
      if (!ToServer && !ToClient)
        continue;
      Rational Bytes = Memory.byteSize(D).evaluate(Point);
      if (ToServer)
        Arcs.push_back({Kind::Transfer, U, V, D, true, Count, Bytes});
      if (ToClient)
        Arcs.push_back({Kind::Transfer, U, V, D, false, Count, Bytes});
    }
  }
  // Registration arcs Ns(d)->nNc(d): cut when Ns=1 and nNc=0.
  for (const auto &[D, Nodes] : Problem.AccessNodes)
    if (value(Nodes.first) && !value(Nodes.second))
      Arcs.push_back({Kind::Registration, KNone, KNone, D, true,
                      Memory.loc(D).AllocCount.evaluate(Point), {}});
  return Arcs;
}

Rational paco::arcCost(const PricedArc &A, const CostModel &Costs) {
  switch (A.K) {
  case PricedArc::Kind::Compute:
    return A.Count * (A.Server ? Costs.Ts : Costs.Tc);
  case PricedArc::Kind::Schedule:
    return A.Count * (A.Server ? Costs.Tcst : Costs.Tsct);
  case PricedArc::Kind::Transfer:
    return A.Count * (A.Server ? Costs.Tcsh + A.Bytes * Costs.Tcsu
                               : Costs.Tsch + A.Bytes * Costs.Tscu);
  case PricedArc::Kind::Registration:
    return A.Count * Costs.Ta;
  }
  return Rational();
}

PriceCoefficients paco::priceCoefficients(const TCFG &Graph,
                                          const MemoryModel &Memory,
                                          const PartitionProblem &Problem,
                                          const ParametricResult &Partition,
                                          unsigned Choice,
                                          const std::vector<Rational> &Point) {
  enum { Tc, Ts, Tcst, Tsct, Tcsh, Tcsu, Tsch, Tscu, Ta };
  PriceCoefficients C;
  for (const PricedArc &A :
       pricedArcs(Graph, Memory, Problem, Partition, Choice, Point)) {
    switch (A.K) {
    case PricedArc::Kind::Compute:
      C[A.Server ? Ts : Tc] += A.Count;
      break;
    case PricedArc::Kind::Schedule:
      C[A.Server ? Tcst : Tsct] += A.Count;
      break;
    case PricedArc::Kind::Transfer:
      C[A.Server ? Tcsh : Tsch] += A.Count;
      C[A.Server ? Tcsu : Tscu] += A.Count * A.Bytes;
      break;
    case PricedArc::Kind::Registration:
      C[Ta] += A.Count;
      break;
    }
  }
  return C;
}

Rational paco::price(const PriceCoefficients &C, const CostModel &Costs) {
  const Rational *Constants[] = {&Costs.Tc,   &Costs.Ts,   &Costs.Tcst,
                                 &Costs.Tsct, &Costs.Tcsh, &Costs.Tcsu,
                                 &Costs.Tsch, &Costs.Tscu, &Costs.Ta};
  Rational Total;
  for (size_t I = 0; I != C.size(); ++I)
    Total += C[I] * *Constants[I];
  return Total;
}
