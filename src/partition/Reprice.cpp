//===- partition/Reprice.cpp - Re-price choices under a cost model --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "partition/Reprice.h"

using namespace paco;

std::vector<ItemTransfer>
paco::edgeTransfers(const PartitionProblem &Problem,
                    const ParametricResult &Partition, unsigned Choice,
                    unsigned U, unsigned V) {
  auto value = [&](NodeId N) { return Partition.nodeValue(Choice, N); };
  std::vector<ItemTransfer> Moves;
  // U's validity groups in ascending item order; each item with a group
  // at V too can move on the edge.
  for (auto UIt = Problem.VNodes.lower_bound({U, 0});
       UIt != Problem.VNodes.end() && UIt->first.first == U; ++UIt) {
    unsigned D = UIt->first.second;
    auto VIt = Problem.VNodes.find({V, D});
    if (VIt == Problem.VNodes.end())
      continue;
    const ValidityNodes &UN = UIt->second, &VN = VIt->second;
    if (value(VN.Vsi) && !value(UN.Vso))
      Moves.push_back({D, /*ToServer=*/true});
    if (value(UN.NVco) && !value(VN.NVci))
      Moves.push_back({D, /*ToServer=*/false});
  }
  return Moves;
}

bool paco::registersItem(const PartitionProblem &Problem,
                         const ParametricResult &Partition, unsigned Choice,
                         unsigned D) {
  auto It = Problem.AccessNodes.find(D);
  return It != Problem.AccessNodes.end() &&
         Partition.nodeValue(Choice, It->second.first) &&
         !Partition.nodeValue(Choice, It->second.second);
}

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
    for (const ItemTransfer &T :
         edgeTransfers(Problem, Partition, Choice, U, V))
      Arcs.push_back({Kind::Transfer, U, V, T.Item, T.ToServer, Count,
                      Memory.byteSize(T.Item).evaluate(Point)});
  }
  for (const auto &[D, Nodes] : Problem.AccessNodes)
    if (registersItem(Problem, Partition, Choice, D))
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
