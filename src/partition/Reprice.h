//===- partition/Reprice.h - Re-price choices under a cost model *- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prices a partitioning choice at a concrete parameter point under an
/// *arbitrary* cost model, using the Theorem-1 arc decomposition the min
/// cut prices: per-task computation, scheduling messages on
/// placement-crossing TCFG edges, validity-dictated data transfers, and
/// dynamic-data registrations. One walk (pricedArcs) reports those arcs;
/// the closed loop sums it into coefficients and the cost audit into its
/// rows. Every capacity is linear in the platform constants, so swapping
/// the constants re-prices a cut exactly without re-running any flow
/// computation -- this is what lets the closed-loop adaptation layer ask
/// "under the link I am *actually* seeing, which of the already-computed
/// cuts is cheapest?" at a task boundary: the arc walk yields nine
/// coefficients once per choice and parameter point, and each price after
/// that is a dot product.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_PARTITION_REPRICE_H
#define PACO_PARTITION_REPRICE_H

#include "partition/Parametric.h"

#include <array>

namespace paco {

/// One arc of the Theorem-1 network that a cut prices, evaluated at a
/// parameter point. A partition's cost is the sum of its priced arcs.
struct PricedArc {
  enum class Kind {
    Compute,      ///< Task From runs on its host (s->M(v) or M(v)->t).
    Schedule,     ///< Scheduling messages on TCFG edge (From, To).
    Transfer,     ///< Transfers of data item Item on edge (From, To).
    Registration, ///< Dynamic data item Item is registered on both hosts.
  };
  Kind K = Kind::Compute;
  unsigned From = KNone;
  unsigned To = KNone;
  unsigned Item = KNone;
  /// Compute: the task runs on the server. Schedule and Transfer: the
  /// messages go client-to-server.
  bool Server = false;
  /// Compute units, messages on the edge, or allocations.
  Rational Count;
  Rational Bytes; ///< Transfer: the item's size.
};

/// One data movement on a TCFG edge: item Item becomes valid on the
/// ToServer host.
struct ItemTransfer {
  unsigned Item = KNone;
  bool ToServer = false;
};

/// The transfers the validity states of \p Choice (not KNone) dictate on
/// TCFG edge (\p U, \p V), in ascending item order, client-to-server
/// first for an item: client-to-server when Vsi(v) && !Vso(u) (the arc
/// Vsi(v)->Vso(u) is cut), server-to-client when nVco(u) && !nVci(v) (the
/// arc nVco(u)->nVci(v) is cut). pricedArcs prices exactly these and the
/// interpreter sends exactly these.
std::vector<ItemTransfer> edgeTransfers(const PartitionProblem &Problem,
                                        const ParametricResult &Partition,
                                        unsigned Choice, unsigned U,
                                        unsigned V);

/// Whether the cut of \p Choice (not KNone) registers dynamic data item
/// \p D on both hosts: the arc Ns(d)->nNc(d) is cut, Ns && !nNc. False
/// for an item without access nodes.
bool registersItem(const PartitionProblem &Problem,
                   const ParametricResult &Partition, unsigned Choice,
                   unsigned D);

/// The arcs the cut of \p Choice (an index into \p Partition's choices,
/// or KNone for the all-client baseline, which prices computation only)
/// prices at full-space parameter point \p Point: one compute arc per
/// task in task order, then per TCFG edge its scheduling arc and the
/// transfers its validity states require, then the registrations.
std::vector<PricedArc> pricedArcs(const TCFG &Graph,
                                  const MemoryModel &Memory,
                                  const PartitionProblem &Problem,
                                  const ParametricResult &Partition,
                                  unsigned Choice,
                                  const std::vector<Rational> &Point);

/// The cost of \p A under \p Costs.
Rational arcCost(const PricedArc &A, const CostModel &Costs);

/// The coefficients of a whole-program price in the nine CostModel
/// constants it is linear in, in this order: Tc, Ts, Tcst, Tsct, Tcsh,
/// Tcsu, Tsch, Tscu, Ta.
using PriceCoefficients = std::array<Rational, 9>;

/// The coefficients of the total predicted whole-program cost of running
/// \p Choice at \p Point: the sum of its pricedArcs.
PriceCoefficients priceCoefficients(const TCFG &Graph,
                                    const MemoryModel &Memory,
                                    const PartitionProblem &Problem,
                                    const ParametricResult &Partition,
                                    unsigned Choice,
                                    const std::vector<Rational> &Point);

/// The price under \p Costs: the dot product of \p C with its constants.
/// Exact, so it equals pricing the arcs one by one.
Rational price(const PriceCoefficients &C, const CostModel &Costs);

} // namespace paco

#endif // PACO_PARTITION_REPRICE_H
