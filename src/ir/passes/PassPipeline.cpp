//===- ir/passes/PassPipeline.cpp - Fixpoint pass driver ------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/passes/PassInternal.h"

#include "obs/Stats.h"
#include "obs/Trace.h"

using namespace paco;
using namespace paco::passes;

namespace {

/// Upper bound on instruction-pass fixpoint rounds.
constexpr unsigned kMaxFixpointIterations = 16;

unsigned countInstrs(const IRModule &M) {
  unsigned N = 0;
  for (const auto &F : M.Functions)
    for (const BasicBlock &B : F->Blocks)
      N += static_cast<unsigned>(B.Instrs.size());
  return N;
}

unsigned countBlocks(const IRModule &M) {
  unsigned N = 0;
  for (const auto &F : M.Functions)
    N += static_cast<unsigned>(F->Blocks.size());
  return N;
}

unsigned countCostTerms(const IRModule &M) {
  unsigned N = 0;
  auto add = [&N](const LinExpr &E) {
    N += static_cast<unsigned>(E.terms().size());
  };
  for (const auto &F : M.Functions) {
    add(F->EntryCount);
    for (const BasicBlock &B : F->Blocks)
      add(B.Count);
    for (const auto &[Edge, Count] : F->EdgeCounts) {
      (void)Edge;
      add(Count);
    }
  }
  for (const AllocSiteInfo &S : M.AllocSites) {
    add(S.SizeElems);
    add(S.ExecCount);
  }
  return N;
}

} // namespace

std::optional<PassStats> paco::runPassPipeline(IRModule &M, ParamSpace &Space,
                                               const PassOptions &Options,
                                               std::string *ErrorOut) {
  PassStats Stats;
  Stats.InstrsBefore = Stats.InstrsAfter = countInstrs(M);
  Stats.BlocksBefore = Stats.BlocksAfter = countBlocks(M);
  Stats.CostTermsBefore = Stats.CostTermsAfter = countCostTerms(M);
  if (!Options.Enabled)
    return Stats;
  obs::ScopedSpan Span("ir.opt", "ir");

  auto verified = [&](const char *Pass) {
    if (!Options.VerifyEachPass)
      return true;
    if (std::optional<std::string> Err = verifyModule(M)) {
      if (ErrorOut)
        *ErrorOut = std::string("after ") + Pass + ": " + *Err;
      return false;
    }
    return true;
  };

  struct Stage {
    const char *Name;
    const char *SpanName;
    bool (*Run)(IRFunction &, const FuncInfo &, PassStats &);
  };
  static constexpr Stage Stages[] = {
      {"constprop", "ir.opt.constprop", runConstProp},
      {"cse", "ir.opt.cse", runCSE},
      {"cleanup", "ir.opt.cleanup", runCleanup},
      {"dce", "ir.opt.dce", runDCE},
  };

  bool Changed = true;
  while (Changed && Stats.FixpointIterations < kMaxFixpointIterations) {
    Changed = false;
    ++Stats.FixpointIterations;
    for (const Stage &S : Stages) {
      obs::ScopedSpan StageSpan(S.SpanName, "ir");
      for (auto &F : M.Functions) {
        FuncInfo Info;
        Info.compute(*F);
        Changed |= S.Run(*F, Info, Stats);
      }
      if (!verified(S.Name))
        return std::nullopt;
    }
  }

  if (Options.CostSimplify) {
    obs::ScopedSpan StageSpan("ir.opt.cost_simplify", "ir");
    runCostSimplify(M, Space, Stats);
    if (!verified("cost_simplify"))
      return std::nullopt;
  }

  Stats.InstrsAfter = countInstrs(M);
  Stats.BlocksAfter = countBlocks(M);
  Stats.CostTermsAfter = countCostTerms(M);

  auto &Registry = obs::StatsRegistry::global();
  Registry.counter("ir.pass.fixpoint_iterations")
      .add(Stats.FixpointIterations);
  Registry.counter("ir.pass.constprop.folded").add(Stats.ConstFolded);
  Registry.counter("ir.pass.constprop.operands").add(Stats.ConstOperands);
  Registry.counter("ir.pass.cse.replaced").add(Stats.CSEReplaced);
  Registry.counter("ir.pass.cleanup.copies_propagated")
      .add(Stats.CopiesPropagated);
  Registry.counter("ir.pass.cleanup.blocks_merged").add(Stats.BlocksMerged);
  Registry.counter("ir.pass.dce.removed_instrs").add(Stats.InstrsRemoved);
  Registry.counter("ir.pass.dce.removed_blocks").add(Stats.BlocksRemoved);
  Registry.counter("ir.pass.cost_simplify.monomials_merged")
      .add(Stats.MonomialsMerged);
  Registry.counter("ir.pass.cost_simplify.merged_dims")
      .add(Stats.MergedDims);
  Span.arg("instrs_before", Stats.InstrsBefore);
  Span.arg("instrs_after", Stats.InstrsAfter);
  Span.arg("cost_terms_before", Stats.CostTermsBefore);
  Span.arg("cost_terms_after", Stats.CostTermsAfter);
  return Stats;
}
