//===- lang/Inliner.cpp - Small-function inlining (section 5.3) -----------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/Inliner.h"

#include <map>
#include <set>

using namespace paco;

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

ExprPtr paco::cloneExpr(const Expr &E) {
  switch (E.getKind()) {
  case Expr::Kind::IntLit: {
    const auto &Lit = static_cast<const IntLitExpr &>(E);
    return std::make_unique<IntLitExpr>(Lit.Value, E.loc());
  }
  case Expr::Kind::FloatLit: {
    const auto &Lit = static_cast<const FloatLitExpr &>(E);
    return std::make_unique<FloatLitExpr>(Lit.Value, E.loc());
  }
  case Expr::Kind::VarRef: {
    const auto &Ref = static_cast<const VarRefExpr &>(E);
    return std::make_unique<VarRefExpr>(Ref.Name, E.loc());
  }
  case Expr::Kind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    return std::make_unique<UnaryExpr>(U.Op, cloneExpr(*U.Operand), E.loc());
  }
  case Expr::Kind::Binary: {
    const auto &B = static_cast<const BinaryExpr &>(E);
    return std::make_unique<BinaryExpr>(B.Op, cloneExpr(*B.LHS),
                                        cloneExpr(*B.RHS), E.loc());
  }
  case Expr::Kind::Assign: {
    const auto &A = static_cast<const AssignExpr &>(E);
    return std::make_unique<AssignExpr>(cloneExpr(*A.Target),
                                        cloneExpr(*A.Value), E.loc());
  }
  case Expr::Kind::Call: {
    const auto &C = static_cast<const CallExpr &>(E);
    std::vector<ExprPtr> Args;
    Args.reserve(C.Args.size());
    for (const ExprPtr &Arg : C.Args)
      Args.push_back(cloneExpr(*Arg));
    return std::make_unique<CallExpr>(cloneExpr(*C.Callee), std::move(Args),
                                      E.loc());
  }
  case Expr::Kind::Index: {
    const auto &I = static_cast<const IndexExpr &>(E);
    return std::make_unique<IndexExpr>(cloneExpr(*I.Base),
                                       cloneExpr(*I.Index), E.loc());
  }
  case Expr::Kind::Deref: {
    const auto &D = static_cast<const DerefExpr &>(E);
    return std::make_unique<DerefExpr>(cloneExpr(*D.Pointer), E.loc());
  }
  case Expr::Kind::AddrOf: {
    const auto &A = static_cast<const AddrOfExpr &>(E);
    return std::make_unique<AddrOfExpr>(cloneExpr(*A.Operand), E.loc());
  }
  case Expr::Kind::Ternary: {
    const auto &T = static_cast<const TernaryExpr &>(E);
    return std::make_unique<TernaryExpr>(cloneExpr(*T.Cond),
                                         cloneExpr(*T.Then),
                                         cloneExpr(*T.Else), E.loc());
  }
  }
  assert(false && "unhandled expression kind in clone");
  return nullptr;
}

StmtPtr paco::cloneStmt(const Stmt &S) {
  StmtPtr Result;
  switch (S.getKind()) {
  case Stmt::Kind::Block: {
    const auto &B = static_cast<const BlockStmt &>(S);
    auto Clone = std::make_unique<BlockStmt>(S.loc());
    for (const StmtPtr &Child : B.Body)
      Clone->Body.push_back(cloneStmt(*Child));
    Result = std::move(Clone);
    break;
  }
  case Stmt::Kind::DeclStmt: {
    const auto &D = static_cast<const DeclStmt &>(S);
    auto Var = std::make_unique<VarDecl>();
    Var->Name = D.Var->Name;
    Var->Type = D.Var->Type;
    Var->Loc = D.Var->Loc;
    Var->IsArray = D.Var->IsArray;
    Var->ArraySize = D.Var->ArraySize;
    auto Clone = std::make_unique<DeclStmt>(
        std::move(Var), D.InitExpr ? cloneExpr(*D.InitExpr) : nullptr,
        S.loc());
    if (D.SizeAnnot)
      Clone->SizeAnnot = cloneExpr(*D.SizeAnnot);
    Result = std::move(Clone);
    break;
  }
  case Stmt::Kind::ExprStmt: {
    const auto &E = static_cast<const ExprStmt &>(S);
    Result = std::make_unique<ExprStmt>(cloneExpr(*E.E), S.loc());
    break;
  }
  case Stmt::Kind::If: {
    const auto &I = static_cast<const IfStmt &>(S);
    Result = std::make_unique<IfStmt>(
        cloneExpr(*I.Cond), cloneStmt(*I.Then),
        I.Else ? cloneStmt(*I.Else) : nullptr, S.loc());
    break;
  }
  case Stmt::Kind::While: {
    const auto &W = static_cast<const WhileStmt &>(S);
    Result = std::make_unique<WhileStmt>(cloneExpr(*W.Cond),
                                         cloneStmt(*W.Body), S.loc());
    break;
  }
  case Stmt::Kind::For: {
    const auto &F = static_cast<const ForStmt &>(S);
    Result = std::make_unique<ForStmt>(
        F.Init ? cloneStmt(*F.Init) : nullptr,
        F.Cond ? cloneExpr(*F.Cond) : nullptr,
        F.Step ? cloneExpr(*F.Step) : nullptr, cloneStmt(*F.Body), S.loc());
    break;
  }
  case Stmt::Kind::Return: {
    const auto &R = static_cast<const ReturnStmt &>(S);
    Result = std::make_unique<ReturnStmt>(
        R.Value ? cloneExpr(*R.Value) : nullptr, S.loc());
    break;
  }
  case Stmt::Kind::Break:
    Result = std::make_unique<BreakStmt>(S.loc());
    break;
  case Stmt::Kind::Continue:
    Result = std::make_unique<ContinueStmt>(S.loc());
    break;
  }
  if (S.TripAnnot)
    Result->TripAnnot = cloneExpr(*S.TripAnnot);
  if (S.CondAnnot)
    Result->CondAnnot = cloneExpr(*S.CondAnnot);
  return Result;
}

//===----------------------------------------------------------------------===//
// The pass
//===----------------------------------------------------------------------===//

namespace {

/// Hard cap on inlined call sites (guards pathological growth).
constexpr unsigned kMaxSites = 256;

/// Structural facts about a callee body.
struct BodyFacts {
  unsigned NodeCount = 0;
  unsigned ReturnCount = 0;
  bool TopLevelBreakOrContinue = false;
  std::set<std::string> DeclaredNames; ///< Locals declared in the body.
  std::set<std::string> UsedNames;     ///< All identifiers referenced.
  std::set<std::string> CalledNames;   ///< Direct call targets.
};

void collectExpr(const Expr *E, BodyFacts &Facts) {
  if (!E)
    return;
  ++Facts.NodeCount;
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::FloatLit:
    return;
  case Expr::Kind::VarRef:
    Facts.UsedNames.insert(static_cast<const VarRefExpr *>(E)->Name);
    return;
  case Expr::Kind::Unary:
    collectExpr(static_cast<const UnaryExpr *>(E)->Operand.get(), Facts);
    return;
  case Expr::Kind::Binary:
    collectExpr(static_cast<const BinaryExpr *>(E)->LHS.get(), Facts);
    collectExpr(static_cast<const BinaryExpr *>(E)->RHS.get(), Facts);
    return;
  case Expr::Kind::Assign:
    collectExpr(static_cast<const AssignExpr *>(E)->Target.get(), Facts);
    collectExpr(static_cast<const AssignExpr *>(E)->Value.get(), Facts);
    return;
  case Expr::Kind::Call: {
    const auto *C = static_cast<const CallExpr *>(E);
    const auto *Callee = static_cast<const VarRefExpr *>(C->Callee.get());
    Facts.CalledNames.insert(Callee->Name);
    Facts.UsedNames.insert(Callee->Name);
    for (const ExprPtr &Arg : C->Args)
      collectExpr(Arg.get(), Facts);
    return;
  }
  case Expr::Kind::Index:
    collectExpr(static_cast<const IndexExpr *>(E)->Base.get(), Facts);
    collectExpr(static_cast<const IndexExpr *>(E)->Index.get(), Facts);
    return;
  case Expr::Kind::Deref:
    collectExpr(static_cast<const DerefExpr *>(E)->Pointer.get(), Facts);
    return;
  case Expr::Kind::AddrOf:
    collectExpr(static_cast<const AddrOfExpr *>(E)->Operand.get(), Facts);
    return;
  case Expr::Kind::Ternary:
    collectExpr(static_cast<const TernaryExpr *>(E)->Cond.get(), Facts);
    collectExpr(static_cast<const TernaryExpr *>(E)->Then.get(), Facts);
    collectExpr(static_cast<const TernaryExpr *>(E)->Else.get(), Facts);
    return;
  }
}

void collectStmt(const Stmt *S, BodyFacts &Facts, bool InLoop) {
  if (!S)
    return;
  ++Facts.NodeCount;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : static_cast<const BlockStmt *>(S)->Body)
      collectStmt(Child.get(), Facts, InLoop);
    return;
  case Stmt::Kind::DeclStmt: {
    const auto *D = static_cast<const DeclStmt *>(S);
    Facts.DeclaredNames.insert(D->Var->Name);
    collectExpr(D->InitExpr.get(), Facts);
    return;
  }
  case Stmt::Kind::ExprStmt:
    collectExpr(static_cast<const ExprStmt *>(S)->E.get(), Facts);
    return;
  case Stmt::Kind::If: {
    const auto *I = static_cast<const IfStmt *>(S);
    collectExpr(I->Cond.get(), Facts);
    collectStmt(I->Then.get(), Facts, InLoop);
    collectStmt(I->Else.get(), Facts, InLoop);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = static_cast<const WhileStmt *>(S);
    collectExpr(W->Cond.get(), Facts);
    collectStmt(W->Body.get(), Facts, /*InLoop=*/true);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = static_cast<const ForStmt *>(S);
    collectStmt(F->Init.get(), Facts, InLoop);
    collectExpr(F->Cond.get(), Facts);
    collectExpr(F->Step.get(), Facts);
    collectStmt(F->Body.get(), Facts, /*InLoop=*/true);
    return;
  }
  case Stmt::Kind::Return:
    ++Facts.ReturnCount;
    collectExpr(static_cast<const ReturnStmt *>(S)->Value.get(), Facts);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    if (!InLoop)
      Facts.TopLevelBreakOrContinue = true;
    return;
  }
}

/// Renames variable references and declarations per \p Map, in place.
void renameExpr(Expr *E, const std::map<std::string, std::string> &Map);

void renameStmt(Stmt *S, const std::map<std::string, std::string> &Map) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (StmtPtr &Child : static_cast<BlockStmt *>(S)->Body)
      renameStmt(Child.get(), Map);
    return;
  case Stmt::Kind::DeclStmt: {
    auto *D = static_cast<DeclStmt *>(S);
    auto It = Map.find(D->Var->Name);
    if (It != Map.end())
      D->Var->Name = It->second;
    renameExpr(D->InitExpr.get(), Map);
    return;
  }
  case Stmt::Kind::ExprStmt:
    renameExpr(static_cast<ExprStmt *>(S)->E.get(), Map);
    return;
  case Stmt::Kind::If: {
    auto *I = static_cast<IfStmt *>(S);
    renameExpr(I->Cond.get(), Map);
    renameStmt(I->Then.get(), Map);
    renameStmt(I->Else.get(), Map);
    return;
  }
  case Stmt::Kind::While: {
    auto *W = static_cast<WhileStmt *>(S);
    renameExpr(W->Cond.get(), Map);
    renameStmt(W->Body.get(), Map);
    return;
  }
  case Stmt::Kind::For: {
    auto *F = static_cast<ForStmt *>(S);
    renameStmt(F->Init.get(), Map);
    renameExpr(F->Cond.get(), Map);
    renameExpr(F->Step.get(), Map);
    renameStmt(F->Body.get(), Map);
    return;
  }
  case Stmt::Kind::Return:
    renameExpr(static_cast<ReturnStmt *>(S)->Value.get(), Map);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void renameExpr(Expr *E, const std::map<std::string, std::string> &Map) {
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::FloatLit:
    return;
  case Expr::Kind::VarRef: {
    auto *Ref = static_cast<VarRefExpr *>(E);
    auto It = Map.find(Ref->Name);
    if (It != Map.end())
      Ref->Name = It->second;
    return;
  }
  case Expr::Kind::Unary:
    renameExpr(static_cast<UnaryExpr *>(E)->Operand.get(), Map);
    return;
  case Expr::Kind::Binary:
    renameExpr(static_cast<BinaryExpr *>(E)->LHS.get(), Map);
    renameExpr(static_cast<BinaryExpr *>(E)->RHS.get(), Map);
    return;
  case Expr::Kind::Assign:
    renameExpr(static_cast<AssignExpr *>(E)->Target.get(), Map);
    renameExpr(static_cast<AssignExpr *>(E)->Value.get(), Map);
    return;
  case Expr::Kind::Call: {
    auto *C = static_cast<CallExpr *>(E);
    renameExpr(C->Callee.get(), Map);
    for (ExprPtr &Arg : C->Args)
      renameExpr(Arg.get(), Map);
    return;
  }
  case Expr::Kind::Index:
    renameExpr(static_cast<IndexExpr *>(E)->Base.get(), Map);
    renameExpr(static_cast<IndexExpr *>(E)->Index.get(), Map);
    return;
  case Expr::Kind::Deref:
    renameExpr(static_cast<DerefExpr *>(E)->Pointer.get(), Map);
    return;
  case Expr::Kind::AddrOf:
    renameExpr(static_cast<AddrOfExpr *>(E)->Operand.get(), Map);
    return;
  case Expr::Kind::Ternary:
    renameExpr(static_cast<TernaryExpr *>(E)->Cond.get(), Map);
    renameExpr(static_cast<TernaryExpr *>(E)->Then.get(), Map);
    renameExpr(static_cast<TernaryExpr *>(E)->Else.get(), Map);
    return;
  }
}

class InlinerPass {
public:
  InlinerPass(Program &Prog, const InlineOptions &Options)
      : Prog(Prog), Options(Options) {}

  unsigned run();

private:
  struct CalleeInfo {
    FuncDecl *Func = nullptr;
    BodyFacts Facts;
    bool Eligible = false;
    /// Snapshot of the body at analysis time: expansions within one round
    /// must all come from the same pre-round body, or names introduced by
    /// earlier inlining would escape the rename map.
    std::unique_ptr<BlockStmt> Snapshot;
    /// The trailing `return expr;` (within Snapshot) for non-void callees.
    const ReturnStmt *FinalReturn = nullptr;
  };

  void analyzeCallees();
  void processFunction(FuncDecl &Func);
  void processBlock(BlockStmt &Block);
  /// Wraps non-block child statements so expansions have a place to go.
  void ensureBlocks(Stmt &S);

  /// If \p S is an inlinable call site, returns the expansion.
  bool expandSite(Stmt &S, std::vector<StmtPtr> &Out);
  std::vector<StmtPtr> expandCall(const CallExpr &Call,
                                  const CalleeInfo &Info,
                                  ExprPtr *ValueOut);

  Program &Prog;
  InlineOptions Options;
  std::map<std::string, CalleeInfo> Callees;
  std::set<std::string> CallerLocalNames;
  unsigned InlinedSites = 0;
  unsigned NameCounter = 0;
};

void InlinerPass::analyzeCallees() {
  Callees.clear();
  for (const auto &Func : Prog.Functions) {
    CalleeInfo Info;
    Info.Func = Func.get();
    collectStmt(Func->Body.get(), Info.Facts, /*InLoop=*/false);
    for (const auto &Param : Func->Params)
      Info.Facts.DeclaredNames.insert(Param->Name);
    StmtPtr Snapshot = cloneStmt(*Func->Body);
    Info.Snapshot.reset(static_cast<BlockStmt *>(Snapshot.release()));
    Callees[Func->Name] = std::move(Info);
  }
  // Functions involved in call cycles are never inlined: iteratively
  // mark functions whose callees are all acyclic.
  std::set<std::string> OnCycle;
  bool Changed = true;
  std::set<std::string> Safe;
  while (Changed) {
    Changed = false;
    for (auto &[Name, Info] : Callees) {
      if (Safe.count(Name))
        continue;
      bool AllSafe = true;
      for (const std::string &Callee : Info.Facts.CalledNames) {
        auto It = Callees.find(Callee);
        if (It != Callees.end() && !Safe.count(Callee))
          AllSafe = false;
      }
      if (AllSafe) {
        Safe.insert(Name);
        Changed = true;
      }
    }
  }
  for (auto &[Name, Info] : Callees) {
    if (!Safe.count(Name))
      continue; // recursive (directly or mutually)
    if (Info.Facts.NodeCount > Options.MaxNodes)
      continue;
    if (Info.Facts.TopLevelBreakOrContinue)
      continue;
    const std::vector<StmtPtr> &Body = Info.Func->Body->Body;
    if (Info.Func->ReturnType == TypeKind::Void) {
      if (Info.Facts.ReturnCount != 0)
        continue;
      Info.Eligible = true;
    } else {
      if (Info.Facts.ReturnCount != 1 || Body.empty() ||
          Body.back()->getKind() != Stmt::Kind::Return)
        continue;
      Info.FinalReturn = static_cast<const ReturnStmt *>(
          Info.Snapshot->Body.back().get());
      if (!Info.FinalReturn->Value)
        continue;
      Info.Eligible = true;
    }
  }
}

std::vector<StmtPtr> InlinerPass::expandCall(const CallExpr &Call,
                                             const CalleeInfo &Info,
                                             ExprPtr *ValueOut) {
  const FuncDecl &Callee = *Info.Func;
  const BlockStmt &Body = *Info.Snapshot;
  std::string Prefix = "__inl" + std::to_string(++NameCounter) + "_";
  std::map<std::string, std::string> Rename;
  for (const std::string &Name : Info.Facts.DeclaredNames)
    Rename[Name] = Prefix + Name;

  std::vector<StmtPtr> Out;
  // Bind arguments to fresh parameter copies.
  for (size_t A = 0; A != Callee.Params.size(); ++A) {
    auto Var = std::make_unique<VarDecl>();
    Var->Name = Rename[Callee.Params[A]->Name];
    Var->Type = Callee.Params[A]->Type;
    Var->Loc = Call.loc();
    Out.push_back(std::make_unique<DeclStmt>(
        std::move(Var), cloneExpr(*Call.Args[A]), Call.loc()));
  }
  // Body, minus the trailing return for value-producing callees.
  size_t BodyCount = Body.Body.size();
  if (Info.FinalReturn)
    --BodyCount;
  for (size_t S = 0; S != BodyCount; ++S) {
    StmtPtr Clone = cloneStmt(*Body.Body[S]);
    renameStmt(Clone.get(), Rename);
    Out.push_back(std::move(Clone));
  }
  if (ValueOut) {
    assert(Info.FinalReturn && "value requested from a void callee");
    ExprPtr Value = cloneExpr(*Info.FinalReturn->Value);
    renameExpr(Value.get(), Rename);
    *ValueOut = std::move(Value);
  }
  ++InlinedSites;
  return Out;
}

bool InlinerPass::expandSite(Stmt &S, std::vector<StmtPtr> &Out) {
  if (InlinedSites >= kMaxSites)
    return false;

  // Identifies an inlinable direct call and checks name hygiene: a free
  // (global) name the callee uses must not collide with a caller local,
  // which would re-bind it at the inline site.
  auto inlinable = [this](const Expr &E) -> const CalleeInfo * {
    if (E.getKind() != Expr::Kind::Call)
      return nullptr;
    const auto &Call = static_cast<const CallExpr &>(E);
    const auto &Name =
        static_cast<const VarRefExpr &>(*Call.Callee).Name;
    auto It = Callees.find(Name);
    if (It == Callees.end() || !It->second.Eligible)
      return nullptr;
    for (const std::string &Used : It->second.Facts.UsedNames)
      if (!It->second.Facts.DeclaredNames.count(Used) &&
          CallerLocalNames.count(Used))
        return nullptr;
    return &It->second;
  };

  if (S.getKind() == Stmt::Kind::ExprStmt) {
    Expr &E = *static_cast<ExprStmt &>(S).E;
    // Whole-statement call: f(args);
    if (const CalleeInfo *Info = inlinable(E)) {
      const auto &Call = static_cast<const CallExpr &>(E);
      ExprPtr Value;
      Out = expandCall(Call, *Info,
                       Info->FinalReturn ? &Value : nullptr);
      // A discarded return value may still have side effects: keep the
      // evaluation as an expression statement.
      if (Value)
        Out.push_back(std::make_unique<ExprStmt>(std::move(Value), S.loc()));
      return true;
    }
    // Assignment from a call: x = f(args);
    if (E.getKind() == Expr::Kind::Assign) {
      auto &Assign = static_cast<AssignExpr &>(E);
      if (const CalleeInfo *Info = inlinable(*Assign.Value)) {
        if (!Info->FinalReturn)
          return false;
        const auto &Call = static_cast<const CallExpr &>(*Assign.Value);
        ExprPtr Value;
        Out = expandCall(Call, *Info, &Value);
        Out.push_back(std::make_unique<ExprStmt>(
            std::make_unique<AssignExpr>(cloneExpr(*Assign.Target),
                                         std::move(Value), S.loc()),
            S.loc()));
        return true;
      }
    }
    return false;
  }

  if (S.getKind() == Stmt::Kind::DeclStmt) {
    auto &Decl = static_cast<DeclStmt &>(S);
    if (!Decl.InitExpr)
      return false;
    if (const CalleeInfo *Info = inlinable(*Decl.InitExpr)) {
      if (!Info->FinalReturn)
        return false;
      const auto &Call = static_cast<const CallExpr &>(*Decl.InitExpr);
      ExprPtr Value;
      Out = expandCall(Call, *Info, &Value);
      auto Var = std::make_unique<VarDecl>();
      Var->Name = Decl.Var->Name;
      Var->Type = Decl.Var->Type;
      Var->Loc = Decl.Var->Loc;
      Out.push_back(std::make_unique<DeclStmt>(std::move(Var),
                                               std::move(Value), S.loc()));
      return true;
    }
  }
  return false;
}

void InlinerPass::ensureBlocks(Stmt &S) {
  auto wrap = [](StmtPtr &Slot) {
    if (!Slot || Slot->getKind() == Stmt::Kind::Block)
      return;
    auto Block = std::make_unique<BlockStmt>(Slot->loc());
    Block->Body.push_back(std::move(Slot));
    Slot = std::move(Block);
  };
  switch (S.getKind()) {
  case Stmt::Kind::If: {
    auto &I = static_cast<IfStmt &>(S);
    wrap(I.Then);
    wrap(I.Else);
    return;
  }
  case Stmt::Kind::While:
    wrap(static_cast<WhileStmt &>(S).Body);
    return;
  case Stmt::Kind::For:
    wrap(static_cast<ForStmt &>(S).Body);
    return;
  default:
    return;
  }
}

void InlinerPass::processBlock(BlockStmt &Block) {
  std::vector<StmtPtr> NewBody;
  NewBody.reserve(Block.Body.size());
  for (StmtPtr &Child : Block.Body) {
    std::vector<StmtPtr> Expansion;
    if (expandSite(*Child, Expansion)) {
      for (StmtPtr &E : Expansion)
        NewBody.push_back(std::move(E));
      continue;
    }
    ensureBlocks(*Child);
    switch (Child->getKind()) {
    case Stmt::Kind::Block:
      processBlock(static_cast<BlockStmt &>(*Child));
      break;
    case Stmt::Kind::If: {
      auto &I = static_cast<IfStmt &>(*Child);
      processBlock(static_cast<BlockStmt &>(*I.Then));
      if (I.Else)
        processBlock(static_cast<BlockStmt &>(*I.Else));
      break;
    }
    case Stmt::Kind::While:
      processBlock(
          static_cast<BlockStmt &>(*static_cast<WhileStmt &>(*Child).Body));
      break;
    case Stmt::Kind::For:
      processBlock(
          static_cast<BlockStmt &>(*static_cast<ForStmt &>(*Child).Body));
      break;
    default:
      break;
    }
    NewBody.push_back(std::move(Child));
  }
  Block.Body = std::move(NewBody);
}

void InlinerPass::processFunction(FuncDecl &Func) {
  // Name hygiene needs every local the caller will ever declare,
  // including ones introduced by earlier inlining.
  BodyFacts Facts;
  collectStmt(Func.Body.get(), Facts, /*InLoop=*/false);
  CallerLocalNames = std::move(Facts.DeclaredNames);
  for (const auto &Param : Func.Params)
    CallerLocalNames.insert(Param->Name);
  processBlock(*Func.Body);
}

unsigned InlinerPass::run() {
  // Iterate: inlining f into g can expose g's own calls for the next
  // round (e.g. helpers calling helpers).
  unsigned Before;
  do {
    Before = InlinedSites;
    analyzeCallees();
    for (const auto &Func : Prog.Functions)
      processFunction(*Func);
  } while (InlinedSites != Before && InlinedSites < kMaxSites);
  return InlinedSites;
}

} // namespace

unsigned paco::inlineSmallFunctions(Program &Prog,
                                    const InlineOptions &Options) {
  InlinerPass Pass(Prog, Options);
  return Pass.run();
}
