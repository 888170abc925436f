//===- lang/Symbolics.cpp - Symbolic count/size analysis ------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/Symbolics.h"

#include "obs/Trace.h"

#include <algorithm>
#include <set>

using namespace paco;

std::string SymbolicInfo::dummyDescription(ParamId Id) const {
  for (const DummyOrigin &D : Dummies)
    if (D.Id == Id)
      return D.Description;
  return std::string();
}

namespace {

/// Facts about a statement subtree used for environment kills and the
/// branch-balance policy.
struct SubtreeFacts {
  std::set<const VarDecl *> Assigned;
  bool HasPointerStore = false;
  bool HasCall = false;
  bool HasLoop = false;
  bool HasBreak = false; ///< break not nested in an inner loop
  unsigned NodeCount = 0;
};

void collectExprFacts(const Expr *E, SubtreeFacts &Facts) {
  if (!E)
    return;
  ++Facts.NodeCount;
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::FloatLit:
    return;
  case Expr::Kind::VarRef:
    return;
  case Expr::Kind::Unary:
    collectExprFacts(static_cast<const UnaryExpr *>(E)->Operand.get(), Facts);
    return;
  case Expr::Kind::Binary: {
    const auto *B = static_cast<const BinaryExpr *>(E);
    collectExprFacts(B->LHS.get(), Facts);
    collectExprFacts(B->RHS.get(), Facts);
    return;
  }
  case Expr::Kind::Assign: {
    const auto *A = static_cast<const AssignExpr *>(E);
    collectExprFacts(A->Value.get(), Facts);
    if (A->Target->getKind() == Expr::Kind::VarRef) {
      const auto *Ref = static_cast<const VarRefExpr *>(A->Target.get());
      if (Ref->Var)
        Facts.Assigned.insert(Ref->Var);
    } else {
      Facts.HasPointerStore = true;
      collectExprFacts(A->Target.get(), Facts);
    }
    return;
  }
  case Expr::Kind::Call: {
    const auto *C = static_cast<const CallExpr *>(E);
    Facts.HasCall = true;
    for (const ExprPtr &Arg : C->Args)
      collectExprFacts(Arg.get(), Facts);
    return;
  }
  case Expr::Kind::Index: {
    const auto *I = static_cast<const IndexExpr *>(E);
    collectExprFacts(I->Base.get(), Facts);
    collectExprFacts(I->Index.get(), Facts);
    return;
  }
  case Expr::Kind::Deref:
    collectExprFacts(static_cast<const DerefExpr *>(E)->Pointer.get(), Facts);
    return;
  case Expr::Kind::AddrOf:
    collectExprFacts(static_cast<const AddrOfExpr *>(E)->Operand.get(), Facts);
    return;
  case Expr::Kind::Ternary: {
    const auto *T = static_cast<const TernaryExpr *>(E);
    collectExprFacts(T->Cond.get(), Facts);
    collectExprFacts(T->Then.get(), Facts);
    collectExprFacts(T->Else.get(), Facts);
    return;
  }
  }
}

void collectStmtFacts(const Stmt *S, SubtreeFacts &Facts, bool InInnerLoop) {
  if (!S)
    return;
  ++Facts.NodeCount;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : static_cast<const BlockStmt *>(S)->Body)
      collectStmtFacts(Child.get(), Facts, InInnerLoop);
    return;
  case Stmt::Kind::DeclStmt: {
    const auto *D = static_cast<const DeclStmt *>(S);
    collectExprFacts(D->InitExpr.get(), Facts);
    Facts.Assigned.insert(D->Var.get());
    return;
  }
  case Stmt::Kind::ExprStmt:
    collectExprFacts(static_cast<const ExprStmt *>(S)->E.get(), Facts);
    return;
  case Stmt::Kind::If: {
    const auto *I = static_cast<const IfStmt *>(S);
    collectExprFacts(I->Cond.get(), Facts);
    collectStmtFacts(I->Then.get(), Facts, InInnerLoop);
    collectStmtFacts(I->Else.get(), Facts, InInnerLoop);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = static_cast<const WhileStmt *>(S);
    Facts.HasLoop = true;
    collectExprFacts(W->Cond.get(), Facts);
    collectStmtFacts(W->Body.get(), Facts, /*InInnerLoop=*/true);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = static_cast<const ForStmt *>(S);
    Facts.HasLoop = true;
    collectStmtFacts(F->Init.get(), Facts, InInnerLoop);
    collectExprFacts(F->Cond.get(), Facts);
    collectExprFacts(F->Step.get(), Facts);
    collectStmtFacts(F->Body.get(), Facts, /*InInnerLoop=*/true);
    return;
  }
  case Stmt::Kind::Return:
    collectExprFacts(static_cast<const ReturnStmt *>(S)->Value.get(), Facts);
    return;
  case Stmt::Kind::Break:
    if (!InInnerLoop)
      Facts.HasBreak = true;
    return;
  case Stmt::Kind::Continue:
    return;
  }
}

SubtreeFacts factsOf(const Stmt *S) {
  SubtreeFacts Facts;
  collectStmtFacts(S, Facts, /*InInnerLoop=*/false);
  return Facts;
}

class SymbolicAnalyzer {
public:
  SymbolicAnalyzer(const Program &Prog, ParamSpace &Space, DiagEngine &Diags)
      : Prog(Prog), Space(Space), Diags(Diags) {}

  SymbolicInfo run();

private:
  using Env = std::map<const VarDecl *, LinExpr>;

  void collectProgramFacts();
  void processFunction(const FuncDecl &Func);
  void walkStmt(const Stmt *S, Env &E, const LinExpr &Count);
  void applyExprEffects(const Expr *E, Env &Environment,
                        const LinExpr &Count);
  std::optional<LinExpr> evalExpr(const Expr *E, const Env &Environment) const;
  LinExpr annotationToLin(const Expr &E) const;
  std::optional<LinExpr> recognizeForTrip(const ForStmt &For, const Env &E);
  LinExpr makeDummy(const std::string &Kind, SourceLoc Loc, int64_t Lower,
                    int64_t Upper, const std::string &What);
  void killVars(Env &Environment, const std::set<const VarDecl *> &Vars,
                bool Globals, bool AddressTaken);
  void recordCall(const FuncDecl *Callee, const std::vector<ExprPtr> &Args,
                  const Env &Environment, const LinExpr &Count);
  void handleMalloc(const CallExpr &Call, const Expr *SizeAnnot,
                    const Env &Environment);

  const Program &Prog;
  ParamSpace &Space;
  DiagEngine &Diags;
  SymbolicInfo Info;

  std::set<const VarDecl *> AddressTakenVars;
  /// Each function's position in Prog.Functions. The call-graph sets hold
  /// these, so their walks, which fix when monomials are interned (and so
  /// the ParamIds), follow declaration order, not AST addresses.
  std::map<const FuncDecl *, unsigned> DeclIndex;
  std::set<unsigned> AddressTakenFuncs;
  std::vector<std::set<unsigned>> Callees; ///< Per caller.
  /// Argument bindings accumulated from call sites; the inner optional is
  /// empty once two call sites disagree or a value is not expressible.
  std::map<const FuncDecl *, std::vector<std::optional<LinExpr>>> ArgValues;
  std::map<const FuncDecl *, bool> ArgValuesSeeded;
  unsigned DummyCounter = 0;
};

SymbolicInfo SymbolicAnalyzer::run() {
  // Declared run-time parameters occupy ParamIds 0..N-1 in order.
  for (const RuntimeParamDecl &P : Prog.RuntimeParams) {
    ParamId Id = Space.addParam(P.Name, BigInt(P.Lower), BigInt(P.Upper));
    (void)Id;
    assert(Id + 1 == Space.size() && "parameter registered out of order");
  }
  collectProgramFacts();

  // Process functions callers-first starting from main; recursion is not
  // analyzed (members of call-graph cycles get dummy entry counts).
  const FuncDecl *Main = Prog.findFunction("main");
  assert(Main && "sema guarantees main exists");
  Info.EntryCount[Main] = LinExpr::constant(1);

  std::vector<const FuncDecl *> Order;
  std::set<const FuncDecl *> Visited;
  // Iterative DFS over the call graph for a callers-first order; cycles
  // are broken arbitrarily and flagged below.
  std::vector<std::pair<const FuncDecl *, bool>> Stack = {{Main, false}};
  std::set<const FuncDecl *> OnStack;
  std::set<const FuncDecl *> Recursive;
  while (!Stack.empty()) {
    auto [F, Done] = Stack.back();
    Stack.pop_back();
    if (Done) {
      OnStack.erase(F);
      Order.push_back(F);
      continue;
    }
    if (Visited.count(F)) {
      if (OnStack.count(F))
        Recursive.insert(F);
      continue;
    }
    Visited.insert(F);
    OnStack.insert(F);
    Stack.push_back({F, true});
    for (unsigned Callee : Callees[DeclIndex.at(F)])
      Stack.push_back({Prog.Functions[Callee].get(), false});
  }
  std::reverse(Order.begin(), Order.end()); // callers before callees

  for (const FuncDecl *F : Order) {
    if (Recursive.count(F)) {
      Info.EntryCount[F] =
          makeDummy("calls", F->Loc, 0, 1000000,
                    "entry count of recursive function '" + F->Name + "'");
      ArgValues[F].assign(F->Params.size(), std::nullopt);
    }
    if (!Info.EntryCount.count(F))
      Info.EntryCount[F] = LinExpr(); // unreachable from main
    processFunction(*F);
  }
  // Unreachable functions still get entries so lowering can query them.
  for (const auto &F : Prog.Functions)
    if (!Info.EntryCount.count(F.get())) {
      Info.EntryCount[F.get()] = LinExpr();
      processFunction(*F);
    }
  return std::move(Info);
}

void SymbolicAnalyzer::collectProgramFacts() {
  // Address-taken variables and functions, and the direct call graph.
  struct Collector {
    SymbolicAnalyzer &A;
    const FuncDecl *Current = nullptr;
    std::set<const FuncDecl *> HasIndirectCall;

    void expr(const Expr *E) {
      if (!E)
        return;
      switch (E->getKind()) {
      case Expr::Kind::AddrOf: {
        const auto *Ref = static_cast<const VarRefExpr *>(
            static_cast<const AddrOfExpr *>(E)->Operand.get());
        if (Ref->Var)
          A.AddressTakenVars.insert(Ref->Var);
        return;
      }
      case Expr::Kind::VarRef: {
        const auto *Ref = static_cast<const VarRefExpr *>(E);
        if (Ref->Function)
          A.AddressTakenFuncs.insert(A.DeclIndex.at(Ref->Function));
        return;
      }
      case Expr::Kind::Call: {
        const auto *C = static_cast<const CallExpr *>(E);
        const auto *Callee = static_cast<const VarRefExpr *>(C->Callee.get());
        if (Callee->Function)
          A.Callees[A.DeclIndex.at(Current)].insert(
              A.DeclIndex.at(Callee->Function));
        else if (C->BuiltinKind == CallExpr::Builtin::None)
          HasIndirectCall.insert(Current);
        // Note: the callee VarRef is deliberately not visited, so naming
        // a function in call position does not count as address-taken.
        for (const ExprPtr &Arg : C->Args)
          expr(Arg.get());
        return;
      }
      case Expr::Kind::Unary:
        expr(static_cast<const UnaryExpr *>(E)->Operand.get());
        return;
      case Expr::Kind::Binary:
        expr(static_cast<const BinaryExpr *>(E)->LHS.get());
        expr(static_cast<const BinaryExpr *>(E)->RHS.get());
        return;
      case Expr::Kind::Assign:
        expr(static_cast<const AssignExpr *>(E)->Target.get());
        expr(static_cast<const AssignExpr *>(E)->Value.get());
        return;
      case Expr::Kind::Index:
        expr(static_cast<const IndexExpr *>(E)->Base.get());
        expr(static_cast<const IndexExpr *>(E)->Index.get());
        return;
      case Expr::Kind::Deref:
        expr(static_cast<const DerefExpr *>(E)->Pointer.get());
        return;
      case Expr::Kind::Ternary:
        expr(static_cast<const TernaryExpr *>(E)->Cond.get());
        expr(static_cast<const TernaryExpr *>(E)->Then.get());
        expr(static_cast<const TernaryExpr *>(E)->Else.get());
        return;
      case Expr::Kind::IntLit:
      case Expr::Kind::FloatLit:
        return;
      }
    }

    void stmt(const Stmt *S) {
      if (!S)
        return;
      switch (S->getKind()) {
      case Stmt::Kind::Block:
        for (const StmtPtr &Child : static_cast<const BlockStmt *>(S)->Body)
          stmt(Child.get());
        return;
      case Stmt::Kind::DeclStmt:
        expr(static_cast<const DeclStmt *>(S)->InitExpr.get());
        return;
      case Stmt::Kind::ExprStmt:
        expr(static_cast<const ExprStmt *>(S)->E.get());
        return;
      case Stmt::Kind::If: {
        const auto *I = static_cast<const IfStmt *>(S);
        expr(I->Cond.get());
        stmt(I->Then.get());
        stmt(I->Else.get());
        return;
      }
      case Stmt::Kind::While: {
        const auto *W = static_cast<const WhileStmt *>(S);
        expr(W->Cond.get());
        stmt(W->Body.get());
        return;
      }
      case Stmt::Kind::For: {
        const auto *F = static_cast<const ForStmt *>(S);
        stmt(F->Init.get());
        expr(F->Cond.get());
        expr(F->Step.get());
        stmt(F->Body.get());
        return;
      }
      case Stmt::Kind::Return:
        expr(static_cast<const ReturnStmt *>(S)->Value.get());
        return;
      case Stmt::Kind::Break:
      case Stmt::Kind::Continue:
        return;
      }
    }
  };
  for (unsigned F = 0; F != Prog.Functions.size(); ++F)
    DeclIndex[Prog.Functions[F].get()] = F;
  Callees.resize(Prog.Functions.size());
  Collector C{*this, nullptr, {}};
  for (const auto &F : Prog.Functions) {
    C.Current = F.get();
    C.stmt(F->Body.get());
  }
  // An indirect call can reach any address-taken function; give the call
  // graph those edges so the processing order still visits callers first.
  for (const FuncDecl *Caller : C.HasIndirectCall)
    Callees[DeclIndex.at(Caller)].insert(AddressTakenFuncs.begin(),
                                         AddressTakenFuncs.end());
}

LinExpr SymbolicAnalyzer::makeDummy(const std::string &Kind, SourceLoc Loc,
                                    int64_t Lower, int64_t Upper,
                                    const std::string &What) {
  std::string Name = "d_" + Kind + "_" + std::to_string(Loc.Line) + "_" +
                     std::to_string(++DummyCounter);
  ParamId Id = Space.addDummy(Name, BigInt(Lower), BigInt(Upper));
  Info.Dummies.push_back({Id, What});
  return LinExpr::param(Id);
}

void SymbolicAnalyzer::killVars(Env &Environment,
                                const std::set<const VarDecl *> &Vars,
                                bool Globals, bool AddressTaken) {
  for (auto It = Environment.begin(); It != Environment.end();) {
    const VarDecl *Var = It->first;
    bool Kill = Vars.count(Var) || (Globals && Var->IsGlobal) ||
                (AddressTaken && AddressTakenVars.count(Var));
    It = Kill ? Environment.erase(It) : ++It;
  }
}

std::optional<LinExpr>
SymbolicAnalyzer::evalExpr(const Expr *E, const Env &Environment) const {
  if (!E)
    return std::nullopt;
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    return LinExpr::constant(static_cast<const IntLitExpr *>(E)->Value);
  case Expr::Kind::VarRef: {
    const auto *Ref = static_cast<const VarRefExpr *>(E);
    if (Ref->ParamIndex >= 0)
      return LinExpr::param(static_cast<ParamId>(Ref->ParamIndex));
    if (Ref->Var) {
      auto It = Environment.find(Ref->Var);
      if (It != Environment.end())
        return It->second;
    }
    return std::nullopt;
  }
  case Expr::Kind::Unary: {
    const auto *U = static_cast<const UnaryExpr *>(E);
    if (U->Op != UnaryOp::Neg)
      return std::nullopt;
    std::optional<LinExpr> Operand = evalExpr(U->Operand.get(), Environment);
    if (!Operand)
      return std::nullopt;
    return -*Operand;
  }
  case Expr::Kind::Binary: {
    const auto *B = static_cast<const BinaryExpr *>(E);
    std::optional<LinExpr> L = evalExpr(B->LHS.get(), Environment);
    std::optional<LinExpr> R = evalExpr(B->RHS.get(), Environment);
    if (!L || !R)
      return std::nullopt;
    switch (B->Op) {
    case BinaryOp::Add:
      return *L + *R;
    case BinaryOp::Sub:
      return *L - *R;
    case BinaryOp::Mul:
      return LinExpr::mul(*L, *R, Space);
    case BinaryOp::Div: {
      std::optional<Rational> Divisor = R->asConstant();
      if (!Divisor || Divisor->isZero())
        return std::nullopt;
      return *L * (Rational(1) / *Divisor);
    }
    case BinaryOp::Shl: {
      std::optional<Rational> Amount = R->asConstant();
      if (!Amount || !Amount->isInteger() || Amount->isNegative() ||
          Amount->numerator() > BigInt(62))
        return std::nullopt;
      return *L * Rational(int64_t(1) << Amount->numerator().toInt64());
    }
    default:
      return std::nullopt;
    }
  }
  default:
    return std::nullopt;
  }
}

LinExpr SymbolicAnalyzer::annotationToLin(const Expr &E) const {
  Env Empty;
  std::optional<LinExpr> Value = evalExpr(&E, Empty);
  if (!Value) {
    Diags.error(E.loc(), "annotation expression is not affine over the "
                         "run-time parameters (use +, -, *, / by constant)");
    return LinExpr();
  }
  return *Value;
}

void SymbolicAnalyzer::recordCall(const FuncDecl *Callee,
                                  const std::vector<ExprPtr> &Args,
                                  const Env &Environment,
                                  const LinExpr &Count) {
  auto [It, Inserted] = Info.EntryCount.emplace(Callee, Count);
  if (!Inserted)
    It->second += Count;
  std::vector<std::optional<LinExpr>> &Bindings = ArgValues[Callee];
  if (!ArgValuesSeeded[Callee]) {
    ArgValuesSeeded[Callee] = true;
    Bindings.clear();
    for (const ExprPtr &Arg : Args)
      Bindings.push_back(evalExpr(Arg.get(), Environment));
  } else {
    for (size_t I = 0; I != Bindings.size() && I != Args.size(); ++I) {
      if (!Bindings[I])
        continue;
      std::optional<LinExpr> Value = evalExpr(Args[I].get(), Environment);
      if (!Value || !(*Value == *Bindings[I]))
        Bindings[I] = std::nullopt;
    }
  }
}

void SymbolicAnalyzer::handleMalloc(const CallExpr &Call,
                                    const Expr *SizeAnnot,
                                    const Env &Environment) {
  if (SizeAnnot) {
    Info.MallocSize[&Call] = annotationToLin(*SizeAnnot);
    return;
  }
  if (std::optional<LinExpr> Size =
          evalExpr(Call.Args[0].get(), Environment)) {
    Info.MallocSize[&Call] = *Size;
    return;
  }
  Info.MallocSize[&Call] =
      makeDummy("size", Call.loc(), 0, 1000000,
                "allocation size of malloc at " + Call.loc().toString());
}

void SymbolicAnalyzer::applyExprEffects(const Expr *E, Env &Environment,
                                        const LinExpr &Count) {
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::FloatLit:
  case Expr::Kind::VarRef:
    return;
  case Expr::Kind::Unary:
    applyExprEffects(static_cast<const UnaryExpr *>(E)->Operand.get(),
                     Environment, Count);
    return;
  case Expr::Kind::Binary: {
    const auto *B = static_cast<const BinaryExpr *>(E);
    applyExprEffects(B->LHS.get(), Environment, Count);
    if (B->Op == BinaryOp::LAnd || B->Op == BinaryOp::LOr) {
      // The RHS runs conditionally: keep its value updates out of the
      // environment but kill whatever it may assign.
      SubtreeFacts Facts;
      collectExprFacts(B->RHS.get(), Facts);
      killVars(Environment, Facts.Assigned, Facts.HasCall,
               Facts.HasPointerStore || Facts.HasCall);
      // Calls on the conditional path still contribute (over-counted by
      // at most the short-circuit factor; acceptable for cost analysis).
      applyExprEffects(B->RHS.get(), Environment, Count);
      return;
    }
    applyExprEffects(B->RHS.get(), Environment, Count);
    return;
  }
  case Expr::Kind::Assign: {
    const auto *A = static_cast<const AssignExpr *>(E);
    applyExprEffects(A->Value.get(), Environment, Count);
    if (A->Value->getKind() == Expr::Kind::Call) {
      const auto *Call = static_cast<const CallExpr *>(A->Value.get());
      if (Call->BuiltinKind == CallExpr::Builtin::Malloc &&
          !Info.MallocSize.count(Call))
        handleMalloc(*Call, nullptr, Environment);
    }
    if (A->Target->getKind() == Expr::Kind::VarRef) {
      const auto *Ref = static_cast<const VarRefExpr *>(A->Target.get());
      if (Ref->Var) {
        std::optional<LinExpr> Value = evalExpr(A->Value.get(), Environment);
        if (Value)
          Environment[Ref->Var] = *Value;
        else
          Environment.erase(Ref->Var);
      }
      return;
    }
    // Store through a pointer or array: invalidate globals and anything
    // address-taken.
    applyExprEffects(A->Target.get(), Environment, Count);
    killVars(Environment, {}, /*Globals=*/true, /*AddressTaken=*/true);
    return;
  }
  case Expr::Kind::Call: {
    const auto *C = static_cast<const CallExpr *>(E);
    for (const ExprPtr &Arg : C->Args)
      applyExprEffects(Arg.get(), Environment, Count);
    const auto *Callee = static_cast<const VarRefExpr *>(C->Callee.get());
    if (C->BuiltinKind == CallExpr::Builtin::Malloc) {
      if (!Info.MallocSize.count(C))
        handleMalloc(*C, nullptr, Environment);
      return;
    }
    if (C->BuiltinKind != CallExpr::Builtin::None)
      return; // io_* builtins have no symbolic effects
    if (Callee->Function) {
      recordCall(Callee->Function, C->Args, Environment, Count);
    } else {
      // Indirect call: any address-taken function may run.
      for (unsigned Target : AddressTakenFuncs)
        recordCall(Prog.Functions[Target].get(), {}, Environment, Count);
    }
    killVars(Environment, {}, /*Globals=*/true, /*AddressTaken=*/true);
    return;
  }
  case Expr::Kind::Index: {
    const auto *I = static_cast<const IndexExpr *>(E);
    applyExprEffects(I->Base.get(), Environment, Count);
    applyExprEffects(I->Index.get(), Environment, Count);
    return;
  }
  case Expr::Kind::Deref:
    applyExprEffects(static_cast<const DerefExpr *>(E)->Pointer.get(),
                     Environment, Count);
    return;
  case Expr::Kind::AddrOf:
    return;
  case Expr::Kind::Ternary: {
    const auto *T = static_cast<const TernaryExpr *>(E);
    applyExprEffects(T->Cond.get(), Environment, Count);
    SubtreeFacts Facts;
    collectExprFacts(T->Then.get(), Facts);
    collectExprFacts(T->Else.get(), Facts);
    killVars(Environment, Facts.Assigned, Facts.HasCall,
             Facts.HasPointerStore || Facts.HasCall);
    applyExprEffects(T->Then.get(), Environment, Count);
    applyExprEffects(T->Else.get(), Environment, Count);
    return;
  }
  }
}

std::optional<LinExpr>
SymbolicAnalyzer::recognizeForTrip(const ForStmt &For, const Env &E) {
  // Pattern: for (i = A; i <cmp> B; i = i +/- C) with C a positive
  // integer constant, A and B affine over the parameters, and i not
  // otherwise assigned in the loop.
  const VarDecl *IndVar = nullptr;
  std::optional<LinExpr> Start;
  if (!For.Init || !For.Cond || !For.Step)
    return std::nullopt;
  if (For.Init->getKind() == Stmt::Kind::DeclStmt) {
    const auto *D = static_cast<const DeclStmt *>(For.Init.get());
    IndVar = D->Var.get();
    Start = evalExpr(D->InitExpr.get(), E);
  } else if (For.Init->getKind() == Stmt::Kind::ExprStmt) {
    const auto *ES = static_cast<const ExprStmt *>(For.Init.get());
    if (ES->E->getKind() != Expr::Kind::Assign)
      return std::nullopt;
    const auto *A = static_cast<const AssignExpr *>(ES->E.get());
    if (A->Target->getKind() != Expr::Kind::VarRef)
      return std::nullopt;
    IndVar = static_cast<const VarRefExpr *>(A->Target.get())->Var;
    Start = evalExpr(A->Value.get(), E);
  }
  if (!IndVar || !Start)
    return std::nullopt;

  if (For.Cond->getKind() != Expr::Kind::Binary)
    return std::nullopt;
  const auto *Cond = static_cast<const BinaryExpr *>(For.Cond.get());
  if (Cond->LHS->getKind() != Expr::Kind::VarRef ||
      static_cast<const VarRefExpr *>(Cond->LHS.get())->Var != IndVar)
    return std::nullopt;
  std::optional<LinExpr> Bound = evalExpr(Cond->RHS.get(), E);
  if (!Bound)
    return std::nullopt;

  // Step: i = i + C or i = i - C (++/-- desugar to this form).
  if (For.Step->getKind() != Expr::Kind::Assign)
    return std::nullopt;
  const auto *Step = static_cast<const AssignExpr *>(For.Step.get());
  if (Step->Target->getKind() != Expr::Kind::VarRef ||
      static_cast<const VarRefExpr *>(Step->Target.get())->Var != IndVar)
    return std::nullopt;
  if (Step->Value->getKind() != Expr::Kind::Binary)
    return std::nullopt;
  const auto *Inc = static_cast<const BinaryExpr *>(Step->Value.get());
  if (Inc->LHS->getKind() != Expr::Kind::VarRef ||
      static_cast<const VarRefExpr *>(Inc->LHS.get())->Var != IndVar ||
      Inc->RHS->getKind() != Expr::Kind::IntLit)
    return std::nullopt;
  int64_t StepBy = static_cast<const IntLitExpr *>(Inc->RHS.get())->Value;
  if (Inc->Op == BinaryOp::Sub)
    StepBy = -StepBy;
  else if (Inc->Op != BinaryOp::Add)
    return std::nullopt;
  if (StepBy == 0)
    return std::nullopt;

  // The induction variable must not be assigned in the body, and the
  // body must not break out early.
  SubtreeFacts Facts = factsOf(For.Body.get());
  if (Facts.Assigned.count(IndVar) || Facts.HasBreak)
    return std::nullopt;

  Rational StepMag(StepBy > 0 ? StepBy : -StepBy);
  switch (Cond->Op) {
  case BinaryOp::Lt:
    if (StepBy < 0)
      return std::nullopt;
    return (*Bound - *Start) * (Rational(1) / StepMag);
  case BinaryOp::Le:
    if (StepBy < 0)
      return std::nullopt;
    return (*Bound - *Start + LinExpr(StepMag)) * (Rational(1) / StepMag);
  case BinaryOp::Gt:
    if (StepBy > 0)
      return std::nullopt;
    return (*Start - *Bound) * (Rational(1) / StepMag);
  case BinaryOp::Ge:
    if (StepBy > 0)
      return std::nullopt;
    return (*Start - *Bound + LinExpr(StepMag)) * (Rational(1) / StepMag);
  default:
    return std::nullopt;
  }
}

void SymbolicAnalyzer::walkStmt(const Stmt *S, Env &E, const LinExpr &Count) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : static_cast<const BlockStmt *>(S)->Body)
      walkStmt(Child.get(), E, Count);
    return;
  case Stmt::Kind::DeclStmt: {
    const auto *D = static_cast<const DeclStmt *>(S);
    if (D->InitExpr && D->InitExpr->getKind() == Expr::Kind::Call) {
      const auto *Call = static_cast<const CallExpr *>(D->InitExpr.get());
      if (Call->BuiltinKind == CallExpr::Builtin::Malloc)
        handleMalloc(*Call, D->SizeAnnot.get(), E);
    }
    applyExprEffects(D->InitExpr.get(), E, Count);
    if (D->InitExpr) {
      if (std::optional<LinExpr> Value = evalExpr(D->InitExpr.get(), E))
        E[D->Var.get()] = *Value;
    }
    return;
  }
  case Stmt::Kind::ExprStmt:
    applyExprEffects(static_cast<const ExprStmt *>(S)->E.get(), E, Count);
    return;
  case Stmt::Kind::If: {
    const auto *I = static_cast<const IfStmt *>(S);
    applyExprEffects(I->Cond.get(), E, Count);
    LinExpr Freq;
    if (I->CondAnnot) {
      Freq = annotationToLin(*I->CondAnnot);
    } else if (std::optional<LinExpr> CondVal = evalExpr(I->Cond.get(), E);
               CondVal && CondVal->isConstant()) {
      Freq = LinExpr::constant(CondVal->asConstant()->isZero() ? 0 : 1);
    } else {
      // Balanced branches barely affect partitioning (paper section 3.4);
      // assume an even split for them and introduce a dummy frequency
      // only when a branch carries a call, a loop, or much more code.
      SubtreeFacts ThenFacts = factsOf(I->Then.get());
      SubtreeFacts ElseFacts = factsOf(I->Else.get());
      bool Heavy = ThenFacts.HasCall || ThenFacts.HasLoop ||
                   ElseFacts.HasCall || ElseFacts.HasLoop;
      unsigned Big = std::max(ThenFacts.NodeCount, ElseFacts.NodeCount);
      unsigned Small = std::min(ThenFacts.NodeCount, ElseFacts.NodeCount);
      if (Heavy || Big > Small + 8)
        Freq = makeDummy("freq", S->loc(), 0, 100,
                         "true-branch frequency of if at " +
                             S->loc().toString()) *
               Rational::fraction(1, 100);
      else
        Freq = LinExpr(Rational::fraction(1, 2));
    }
    Info.IfFreq[S] = Freq;
    LinExpr ThenCount = LinExpr::mul(Count, Freq, Space);
    LinExpr ElseCount =
        LinExpr::mul(Count, LinExpr::constant(1) - Freq, Space);
    Env ThenEnv = E, ElseEnv = E;
    walkStmt(I->Then.get(), ThenEnv, ThenCount);
    walkStmt(I->Else.get(), ElseEnv, ElseCount);
    // Keep only bindings both paths agree on.
    Env Merged;
    for (const auto &[Var, Value] : ThenEnv) {
      auto It = ElseEnv.find(Var);
      if (It != ElseEnv.end() && It->second == Value)
        Merged.emplace(Var, Value);
    }
    E = std::move(Merged);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = static_cast<const WhileStmt *>(S);
    LinExpr Trip = W->TripAnnot
                       ? annotationToLin(*W->TripAnnot)
                       : makeDummy("trip", S->loc(), 0, 1000000,
                                   "trip count of while loop at " +
                                       S->loc().toString());
    Info.LoopTrip[S] = Trip;
    SubtreeFacts Facts = factsOf(W->Body.get());
    SubtreeFacts CondFacts;
    collectExprFacts(W->Cond.get(), CondFacts);
    killVars(E, Facts.Assigned, Facts.HasCall || CondFacts.HasCall,
             Facts.HasPointerStore || Facts.HasCall);
    killVars(E, CondFacts.Assigned, false, CondFacts.HasPointerStore);
    LinExpr BodyCount = LinExpr::mul(Count, Trip, Space);
    applyExprEffects(W->Cond.get(), E, Count);
    walkStmt(W->Body.get(), E, BodyCount);
    killVars(E, Facts.Assigned, Facts.HasCall,
             Facts.HasPointerStore || Facts.HasCall);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = static_cast<const ForStmt *>(S);
    if (F->Init)
      walkStmt(F->Init.get(), E, Count);
    LinExpr Trip;
    if (F->TripAnnot) {
      Trip = annotationToLin(*F->TripAnnot);
    } else if (std::optional<LinExpr> Known = recognizeForTrip(*F, E)) {
      Trip = *Known;
    } else {
      Trip = makeDummy("trip", S->loc(), 0, 1000000,
                       "trip count of for loop at " + S->loc().toString());
    }
    Info.LoopTrip[S] = Trip;
    SubtreeFacts Facts = factsOf(F->Body.get());
    SubtreeFacts StepFacts;
    collectExprFacts(F->Step.get(), StepFacts);
    collectExprFacts(F->Cond.get(), StepFacts);
    killVars(E, Facts.Assigned, Facts.HasCall || StepFacts.HasCall,
             Facts.HasPointerStore || Facts.HasCall);
    killVars(E, StepFacts.Assigned, false, StepFacts.HasPointerStore);
    LinExpr BodyCount = LinExpr::mul(Count, Trip, Space);
    walkStmt(F->Body.get(), E, BodyCount);
    if (F->Step) {
      Env Scratch = E;
      applyExprEffects(F->Step.get(), Scratch, BodyCount);
    }
    killVars(E, Facts.Assigned, Facts.HasCall,
             Facts.HasPointerStore || Facts.HasCall);
    killVars(E, StepFacts.Assigned, false, StepFacts.HasPointerStore);
    return;
  }
  case Stmt::Kind::Return:
    applyExprEffects(static_cast<const ReturnStmt *>(S)->Value.get(), E,
                     Count);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void SymbolicAnalyzer::processFunction(const FuncDecl &Func) {
  Env E;
  const std::vector<std::optional<LinExpr>> &Bindings = ArgValues[&Func];
  for (size_t I = 0; I != Func.Params.size() && I != Bindings.size(); ++I)
    if (Bindings[I])
      E[Func.Params[I].get()] = *Bindings[I];
  walkStmt(Func.Body.get(), E, Info.EntryCount[&Func]);
}

} // namespace

SymbolicInfo paco::analyzeSymbolics(const Program &Prog, ParamSpace &Space,
                                    DiagEngine &Diags) {
  obs::ScopedSpan Span("lang.symbolics", "lang");
  SymbolicAnalyzer Analyzer(Prog, Space, Diags);
  return Analyzer.run();
}
