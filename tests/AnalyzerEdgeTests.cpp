//===- tests/AnalyzerEdgeTests.cpp - Edge cases and invariants --*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression properties for the trickiest analyzer machinery:
///
///  * memoization transparency — the memo table (with its provisional-
///    result tracking around Section 4.4 cuts) must never change an
///    answer, only the cost;
///  * rerun determinism;
///  * budget exhaustion still yields a sound (cut-valued) answer;
///  * initial-store closures extend the variable and closure universes.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "analysis/Witnesses.h"
#include "gen/Generator.h"
#include "gen/Workloads.h"
#include "syntax/Builder.h"
#include "syntax/Printer.h"

#include <gtest/gtest.h>

using namespace cpsflow;
using namespace cpsflow::analysis;
using cpsflow::test::mustParse;
using CD = domain::ConstantDomain;

namespace {

class MemoTransparency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemoTransparency, MemoizationNeverChangesAnswers) {
  Context Ctx;
  gen::GenOptions GOpts;
  GOpts.Seed = GetParam();
  GOpts.ChainLength = 8;
  GOpts.MaxDepth = 2;
  gen::ProgramGenerator Gen(Ctx, GOpts);

  AnalyzerOptions On;
  AnalyzerOptions Off;
  Off.UseMemo = false;
  // Keep the no-memo runs affordable.
  Off.MaxGoals = On.MaxGoals = 3'000'000;

  for (int I = 0; I < 15; ++I) {
    const syntax::Term *T = Gen.generate();
    std::vector<DirectBinding<CD>> Init;
    for (Symbol S : syntax::freeVars(T))
      Init.push_back({S, domain::AbsVal<CD>::number(CD::top())});

    auto D1 = DirectAnalyzer<CD>(Ctx, T, Init, On).run();
    auto D2 = DirectAnalyzer<CD>(Ctx, T, Init, Off).run();
    if (!D1.Stats.BudgetExhausted && !D2.Stats.BudgetExhausted) {
      EXPECT_TRUE(D1.Answer == D2.Answer) << syntax::print(Ctx, T);
    }

    auto S1 = SemanticCpsAnalyzer<CD>(Ctx, T, Init, On).run();
    auto S2 = SemanticCpsAnalyzer<CD>(Ctx, T, Init, Off).run();
    if (!S1.Stats.BudgetExhausted && !S2.Stats.BudgetExhausted) {
      EXPECT_TRUE(S1.Answer == S2.Answer) << syntax::print(Ctx, T);
    }

    Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
    ASSERT_TRUE(P.hasValue());
    std::vector<CpsBinding<CD>> CInit;
    for (const DirectBinding<CD> &B : Init)
      CInit.push_back({B.Var, deltaE<CD>(B.Value, *P)});
    auto C1 = SyntacticCpsAnalyzer<CD>(Ctx, *P, CInit, On).run();
    auto C2 = SyntacticCpsAnalyzer<CD>(Ctx, *P, CInit, Off).run();
    if (!C1.Stats.BudgetExhausted && !C2.Stats.BudgetExhausted) {
      EXPECT_TRUE(C1.Answer == C2.Answer) << syntax::print(Ctx, T);
    }

    auto U1 = DupAnalyzer<CD>(Ctx, T, Init, 2, On).run();
    auto U2 = DupAnalyzer<CD>(Ctx, T, Init, 2, Off).run();
    if (!U1.Stats.BudgetExhausted && !U2.Stats.BudgetExhausted) {
      EXPECT_TRUE(U1.Answer == U2.Answer) << syntax::print(Ctx, T);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoTransparency,
                         ::testing::Values(2101, 2102, 2103, 2104));

TEST(MemoTransparency, OnRecursiveWorkloads) {
  // The provisional-result machinery exists exactly for recursion through
  // the Section 4.4 cuts; the answers must agree memo-on and memo-off.
  Context Ctx;
  AnalyzerOptions Off;
  Off.UseMemo = false;
  for (Witness W : {gen::omega(Ctx), gen::counterLoop(Ctx, 4)}) {
    auto On = DirectAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
    auto NoMemo =
        DirectAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Off).run();
    EXPECT_TRUE(On.Answer == NoMemo.Answer) << W.Name;

    auto SOn =
        SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
    auto SOff =
        SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Off)
            .run();
    EXPECT_TRUE(SOn.Answer == SOff.Answer) << W.Name;
  }
}

TEST(Determinism, RerunsProduceIdenticalResults) {
  Context Ctx;
  Witness W = gen::callMergeChain(Ctx, 3);
  auto A = SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
  auto B = SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
  EXPECT_TRUE(A.Answer == B.Answer);
  EXPECT_EQ(A.Stats.Goals, B.Stats.Goals);
  EXPECT_EQ(A.Stats.Cuts, B.Stats.Cuts);
}

TEST(BudgetExhaustion, AnswersRemainSoundOverApproximations) {
  // With a tiny goal budget the analysis bails with cut values; the
  // answer must still cover the concrete result.
  Context Ctx;
  Witness W = gen::closureTower(Ctx, 6); // concrete value: 6
  AnalyzerOptions Opts;
  Opts.MaxGoals = 5;
  auto R = DirectAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Opts).run();
  EXPECT_TRUE(R.Stats.BudgetExhausted);
  EXPECT_TRUE(CD::leq(CD::constant(6), R.Answer.Value.Num));
}

TEST(InitialStore, ClosureBindingsExtendTheUniverses) {
  Context Ctx;
  syntax::Builder B(Ctx);
  // A lambda that lives only in the initial store, with its own bound
  // variables, must be analyzable (its variables join the store universe,
  // its lambdas join CL_T).
  Symbol P = Ctx.intern("pp");
  Symbol Q = Ctx.intern("qq");
  const syntax::Term *LamBody =
      B.let(Q, B.appVV(B.add1(), B.var(P)), B.varTerm(Q));
  const syntax::LamValue *Lam = B.lam(P, LamBody);

  const syntax::Term *T = mustParse(Ctx, "(let (r (f 41)) r)");
  std::vector<DirectBinding<CD>> Init = {
      {Ctx.intern("f"),
       domain::AbsVal<CD>::closures(
           domain::CloSet::single(domain::CloRef::lam(Lam)))}};
  DirectAnalyzer<CD> A(Ctx, T, Init);
  EXPECT_TRUE(A.closureUniverse().contains(domain::CloRef::lam(Lam)));
  auto R = A.run();
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "42");
  EXPECT_EQ(CD::str(R.valueOf(Q).Num), "42");
  EXPECT_EQ(CD::str(R.valueOf(P).Num), "41");
}

TEST(DeadPaths, PropagateThroughSingleFeasibleBranches) {
  Context Ctx;
  // The only feasible branch dies (applies a number), so the whole chain
  // after the conditional is dead.
  auto R = DirectAnalyzer<CD>(
               Ctx, mustParse(Ctx, "(let (a (if0 0 (let (d (1 2)) d) 9)) "
                                   "(let (b 5) b))"))
               .run();
  EXPECT_GT(R.Stats.DeadPaths, 0u);
  EXPECT_TRUE(R.Answer.Value.isBot());
  EXPECT_TRUE(R.valueOf(Ctx.intern("b")).isBot());
}

TEST(DeadPaths, OneLiveCalleeKeepsTheChainAlive) {
  Context Ctx;
  // f is either a closure or a number; the number path contributes
  // nothing but the closure path survives.
  auto R = DirectAnalyzer<CD>(
               Ctx,
               mustParse(Ctx, "(let (f (if0 z (lambda (p) 7) 1)) "
                              "(let (a (f 0)) a))"),
               {{Ctx.intern("z"), domain::AbsVal<CD>::number(CD::top())}})
               .run();
  EXPECT_EQ(CD::str(R.Answer.Value.Num), "7");
}

} // namespace
