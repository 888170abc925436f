//===- partition/Reprice.h - Re-price choices under a cost model *- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prices a partitioning choice at a concrete parameter point under an
/// *arbitrary* cost model, using the same Theorem-1 arc decomposition
/// the min cut and the cost audit use: per-task computation, scheduling
/// messages on placement-crossing TCFG edges, validity-dictated data
/// transfers, and dynamic-data registrations. Every capacity is linear
/// in the platform constants, so swapping the constants re-prices a cut
/// exactly without re-running any flow computation -- this is what lets
/// the closed-loop adaptation layer ask "under the link I am *actually*
/// seeing, which of the already-computed cuts is cheapest?" at a task
/// boundary: the arc walk yields nine coefficients once per choice and
/// parameter point, and each price after that is a dot product.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_PARTITION_REPRICE_H
#define PACO_PARTITION_REPRICE_H

#include "partition/Parametric.h"

#include <array>

namespace paco {

/// The coefficients of a whole-program price in the nine CostModel
/// constants it is linear in, in this order: Tc, Ts, Tcst, Tsct, Tcsh,
/// Tcsu, Tsch, Tscu, Ta.
using PriceCoefficients = std::array<Rational, 9>;

/// The coefficients of the total predicted whole-program cost of running
/// \p Choice (an index into \p Partition's choices, or KNone for the
/// all-client baseline) at full-space parameter point \p Point.
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
