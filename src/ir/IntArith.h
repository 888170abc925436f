//===- ir/IntArith.h - MiniC integer arithmetic ----------------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniC's int is a two's-complement 64-bit integer whose +, -, * and
/// unary - wrap on overflow. The interpreter computes with these helpers
/// and the constant folder folds with them, so a folded program computes
/// exactly what the unfolded one would, with no signed overflow in the
/// host. Division and remainder of INT64_MIN by -1 are a run failure,
/// like division by zero; divisionTraps names both cases.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_IR_INTARITH_H
#define PACO_IR_INTARITH_H

#include <cstdint>

namespace paco {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// True when A / B and A % B have no int64 result: B = 0, or the
/// quotient of INT64_MIN by -1 overflows.
inline bool divisionTraps(int64_t A, int64_t B) {
  return B == 0 || (B == -1 && A == INT64_MIN);
}

} // namespace paco

#endif // PACO_IR_INTARITH_H
