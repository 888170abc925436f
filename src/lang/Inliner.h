//===- lang/Inliner.h - Small-function inlining (section 5.3) --*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST-level inlining of small functions, the paper's section-5.3 device:
/// "we alleviate our limitation of path insensitivity by inlining small
/// functions based on heuristics". Inlining a leaf helper also removes
/// the per-call task boundary from hot loops, which keeps the number of
/// cross-task transfer arcs (and hence the parametric dimensionality of
/// the partitioning problem) small.
///
/// The pass runs on the *parsed* (pre-sema) AST and substitutes by name,
/// renaming every callee-local variable to a fresh unique name.
///
/// A call site is inlined when:
///  * the callee body has at most MaxNodes AST nodes,
///  * the callee is not (mutually) recursive through inlinable calls,
///  * the callee either has no return statements (void), or exactly one
///    `return expr;` as the lexically last statement of its body,
///  * the call appears as a whole expression statement, as a declaration
///    initializer, or as the right-hand side of a plain assignment.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_LANG_INLINER_H
#define PACO_LANG_INLINER_H

#include "lang/AST.h"

namespace paco {

/// Options for the inlining pass.
struct InlineOptions {
  /// Master switch (checked by the pipeline, not by the pass itself).
  bool Enabled = true;
  /// Maximum AST node count of an inlinable callee body.
  unsigned MaxNodes = 48;
};

/// Runs the pass in place. \returns the number of call sites inlined.
unsigned inlineSmallFunctions(Program &Prog,
                              const InlineOptions &Options = {});

/// Deep copy of an expression (shared with the parser's desugaring).
ExprPtr cloneExpr(const Expr &E);

/// Deep copy of a statement tree (annotations included).
StmtPtr cloneStmt(const Stmt &S);

} // namespace paco

#endif // PACO_LANG_INLINER_H
