//===- ir/passes/ConstProp.cpp - Local constant propagation + folding -----===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-block constant tracking and folding. Folding mirrors the
/// interpreter's arithmetic bit for bit (wrapping int64, IEEE doubles,
/// the same shift masking and division guards), so a folded program
/// computes exactly what the unfolded one would.
///
//===----------------------------------------------------------------------===//

#include "ir/IntArith.h"
#include "ir/passes/PassInternal.h"

#include <cstdint>
#include <optional>

using namespace paco;
using namespace paco::passes;

namespace {

bool isInt(const Operand &O) { return O.K == Operand::Kind::ConstInt; }
bool isFloat(const Operand &O) { return O.K == Operand::Kind::ConstFloat; }

/// Three-way comparison matching Machine::execArith exactly (NaN
/// compares "equal" there because both orderings fail).
int cmp3(double A, double B) { return A < B ? -1 : (A > B ? 1 : 0); }
int cmp3(int64_t A, int64_t B) { return A < B ? -1 : (A > B ? 1 : 0); }

std::optional<Operand> applyCmp(Opcode Op, int Cmp) {
  bool R = false;
  switch (Op) {
  case Opcode::CmpLt: R = Cmp < 0; break;
  case Opcode::CmpLe: R = Cmp <= 0; break;
  case Opcode::CmpGt: R = Cmp > 0; break;
  case Opcode::CmpGe: R = Cmp >= 0; break;
  case Opcode::CmpEq: R = Cmp == 0; break;
  case Opcode::CmpNe: R = Cmp != 0; break;
  default: return std::nullopt;
  }
  return Operand::constInt(R);
}

/// Evaluates a pure-arith instruction whose read operands are constants.
/// Returns nullopt when the operation might trap or the operand kinds do
/// not match the operating type (then the instruction is left alone).
std::optional<Operand> foldInstr(const Instr &I) {
  bool IsD = I.Ty == TypeKind::Double;
  switch (I.Op) {
  case Opcode::IntToFloat:
    if (!isInt(I.A))
      return std::nullopt;
    return Operand::constFloat(static_cast<double>(I.A.IntVal));
  case Opcode::FloatToInt:
    if (!isFloat(I.A))
      return std::nullopt;
    return Operand::constInt(static_cast<int64_t>(I.A.FloatVal));
  case Opcode::Neg:
    if (IsD)
      return isFloat(I.A) ? std::optional(Operand::constFloat(-I.A.FloatVal))
                          : std::nullopt;
    return isInt(I.A) ? std::optional(Operand::constInt(wrapNeg(I.A.IntVal)))
                      : std::nullopt;
  case Opcode::Not:
    if (!isInt(I.A))
      return std::nullopt;
    return Operand::constInt(I.A.IntVal == 0);
  case Opcode::BitNot:
    if (!isInt(I.A))
      return std::nullopt;
    return Operand::constInt(~I.A.IntVal);
  default:
    break;
  }

  // Binary operations and comparisons.
  if (IsD) {
    if (!isFloat(I.A) || !isFloat(I.B))
      return std::nullopt;
    double A = I.A.FloatVal, B = I.B.FloatVal;
    switch (I.Op) {
    case Opcode::Add: return Operand::constFloat(A + B);
    case Opcode::Sub: return Operand::constFloat(A - B);
    case Opcode::Mul: return Operand::constFloat(A * B);
    case Opcode::Div: return Operand::constFloat(B == 0.0 ? 0.0 : A / B);
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
      return applyCmp(I.Op, cmp3(A, B));
    default:
      return std::nullopt;
    }
  }
  if (I.Ty != TypeKind::Int || !isInt(I.A) || !isInt(I.B))
    return std::nullopt;
  int64_t A = I.A.IntVal, B = I.B.IntVal;
  switch (I.Op) {
  case Opcode::Add: return Operand::constInt(wrapAdd(A, B));
  case Opcode::Sub: return Operand::constInt(wrapSub(A, B));
  case Opcode::Mul: return Operand::constInt(wrapMul(A, B));
  case Opcode::Div:
    if (divisionTraps(A, B))
      return std::nullopt; // keep the run-time failure observable
    return Operand::constInt(A / B);
  case Opcode::Rem:
    if (divisionTraps(A, B))
      return std::nullopt;
    return Operand::constInt(A % B);
  case Opcode::And: return Operand::constInt(A & B);
  case Opcode::Or:  return Operand::constInt(A | B);
  case Opcode::Xor: return Operand::constInt(A ^ B);
  case Opcode::Shl:
    return Operand::constInt(static_cast<int64_t>(
        static_cast<uint64_t>(A) << (B & 63)));
  case Opcode::Shr: return Operand::constInt(A >> (B & 63));
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
    return applyCmp(I.Op, cmp3(A, B));
  default:
    return std::nullopt;
  }
}

} // namespace

bool passes::runConstProp(IRFunction &F, const FuncInfo &Info,
                          PassStats &Stats) {
  bool Changed = false;
  std::vector<std::optional<Operand>> Known(F.Locals.size());
  for (BasicBlock &B : F.Blocks) {
    for (auto &K : Known)
      K.reset();
    for (unsigned P = 0; P != B.Instrs.size(); ++P) {
      Instr &I = B.Instrs[P];
      // 1. Substitute known constants into eligible operand slots.
      forEachSubstitutableRead(I, [&](Operand &O, bool PtrConstraint) {
        if (O.K != Operand::Kind::Local || !Known[O.Index])
          return;
        if (PtrConstraint && !Info.NoPtrDefs[O.Index])
          return;
        if (!canDropRead(Info, B, P, O))
          return;
        O = *Known[O.Index];
        ++Stats.ConstOperands;
        Changed = true;
      });
      // 2. Fold fully-constant pure arithmetic into a constant copy.
      if (isPureArith(I.Op)) {
        if (std::optional<Operand> R = foldInstr(I)) {
          I.Op = Opcode::Copy;
          I.A = *R;
          I.B = Operand::none();
          I.C = Operand::none();
          ++Stats.ConstFolded;
          Changed = true;
        }
      }
      // 3. Track the value the destination now holds.
      if (I.Dst != KNone) {
        Known[I.Dst].reset();
        if (I.Op == Opcode::Copy && !Info.AddrTaken[I.Dst] &&
            ((I.Ty == TypeKind::Int && isInt(I.A)) ||
             (I.Ty == TypeKind::Double && isFloat(I.A))))
          Known[I.Dst] = I.A;
      }
    }
  }
  return Changed;
}
