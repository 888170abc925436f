//===- partition/Reprice.cpp - Re-price choices under a cost model --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "partition/Reprice.h"

using namespace paco;

PriceCoefficients paco::priceCoefficients(const TCFG &Graph,
                                          const MemoryModel &Memory,
                                          const PartitionProblem &Problem,
                                          const ParametricResult &Partition,
                                          unsigned Choice,
                                          const std::vector<Rational> &Point) {
  enum { Tc, Ts, Tcst, Tsct, Tcsh, Tcsu, Tsch, Tscu, Ta };
  auto onServer = [&](unsigned Task) {
    return Choice != KNone && Partition.Choices[Choice].TaskOnServer[Task];
  };
  auto value = [&](NodeId N) { return Partition.nodeValue(Choice, N); };

  // Computation: every task runs at its host's rate.
  PriceCoefficients C;
  for (unsigned V = 0; V != Graph.numTasks(); ++V)
    C[onServer(V) ? Ts : Tc] += Graph.Tasks[V].ComputeUnits.evaluate(Point);
  if (Choice == KNone)
    return C;

  // Messages, mirroring the audit's arc semantics: scheduling on
  // placement-crossing edges, transfers where an item becomes valid on
  // the other host, registration where both hosts access a dynamic
  // item.
  for (const auto &[Edge, CountExpr] : Graph.Edges) {
    if (CountExpr.isZero())
      continue;
    auto [U, V] = Edge;
    bool MU = onServer(U), MV = onServer(V);
    Rational Count = CountExpr.evaluate(Point);
    if (!MU && MV)
      C[Tcst] += Count;
    else if (MU && !MV)
      C[Tsct] += Count;
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
      bool ToServer = value(VN.Vsi) && !value(UN.Vso);
      bool ToClient = value(UN.NVco) && !value(VN.NVci);
      if (!ToServer && !ToClient)
        continue;
      Rational Bytes = Memory.byteSize(D).evaluate(Point);
      if (ToServer) {
        C[Tcsh] += Count;
        C[Tcsu] += Count * Bytes;
      }
      if (ToClient) {
        C[Tsch] += Count;
        C[Tscu] += Count * Bytes;
      }
    }
  }
  for (const auto &[D, Nodes] : Problem.AccessNodes)
    if (value(Nodes.first) && !value(Nodes.second))
      C[Ta] += Memory.loc(D).AllocCount.evaluate(Point);
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
