//===- tests/SummaryEquivalenceTests.cpp - Summary exactness ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Continuation summarization is an exact optimization: the syntactic-CPS
/// analyzer must produce bitwise-identical answers (value AND final
/// store) with summaries on or off, and both must match the pinned
/// reference analyzer — on every committed corpus program, in all five
/// numeric domains. The summaries-off leg additionally pins the full
/// work-counter profile (goals, cache hits, cuts, ...), because the flat
/// label-arena IR engine claims observational identity with the
/// pointer-tree reference walker, not just answer equality.
///
/// Two perf smoke tests keep the point of the whole exercise honest: with
/// summaries on, arithmetic.scm — the corpus cliff program — must stay
/// well under the pre-summarization goal count (14,149 at the time this
/// was written), and a conditional chain whose closure universe is too
/// wide for two-word sets must cost about what the narrow chain costs.
///
//===----------------------------------------------------------------------===//

#include "analysis/Compare.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "analysis/Witnesses.h"
#include "anf/Anf.h"
#include "cps/Transform.h"
#include "gen/Workloads.h"
#include "reference/RefSyntacticCpsAnalyzer.h"
#include "syntax/Analysis.h"
#include "syntax/Sugar.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cpsflow;

namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(
           fs::path(CPSFLOW_SOURCE_DIR) / "examples/corpus"))
    if (E.is_regular_file() && E.path().extension() == ".scm")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string slurp(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Both analyzers on one program/domain: the reference walker, the new
/// analyzer with summaries off (answers and work counters must agree),
/// and with summaries on (answers must agree; the counters then satisfy
/// the accounting identity hits + misses + cacheHits + cuts = goals).
template <typename D> void checkDomain(Context &Ctx, const cps::CpsProgram &P,
                                       const syntax::Term *T) {
  std::vector<analysis::CpsBinding<D>> CInit;
  for (Symbol X : syntax::freeVars(T)) {
    domain::AbsVal<D> V = domain::AbsVal<D>::number(D::top());
    CInit.push_back({X, analysis::deltaE<D>(V, P)});
  }

  analysis::AnalyzerOptions Ref;
  Ref.MaxGoals = 5'000'000;
  auto RefRes = refimpl::RefSyntacticCpsAnalyzer<D>(Ctx, P, CInit, Ref).run();

  analysis::AnalyzerOptions Off = Ref;
  Off.UseSummaries = false;
  auto OffRes = analysis::SyntacticCpsAnalyzer<D>(Ctx, P, CInit, Off).run();
  EXPECT_TRUE(OffRes.Answer == RefRes.Answer)
      << "summaries-off answer/store differs from the reference";
  EXPECT_EQ(OffRes.Stats.Goals, RefRes.Stats.Goals);
  EXPECT_EQ(OffRes.Stats.CacheHits, RefRes.Stats.CacheHits);
  EXPECT_EQ(OffRes.Stats.Cuts, RefRes.Stats.Cuts);
  EXPECT_EQ(OffRes.Stats.MaxDepth, RefRes.Stats.MaxDepth);
  EXPECT_EQ(OffRes.Stats.DeadPaths, RefRes.Stats.DeadPaths);
  EXPECT_EQ(OffRes.Stats.PrunedBranches, RefRes.Stats.PrunedBranches);
  EXPECT_EQ(OffRes.Stats.BudgetExhausted, RefRes.Stats.BudgetExhausted);
  EXPECT_EQ(OffRes.Stats.LoopBounded, RefRes.Stats.LoopBounded);

  analysis::AnalyzerOptions On = Ref;
  On.UseSummaries = true;
  auto OnRes = analysis::SyntacticCpsAnalyzer<D>(Ctx, P, CInit, On).run();
  EXPECT_TRUE(OnRes.Answer == RefRes.Answer)
      << "summarized answer/store differs from the reference";
  // Every counted goal lands in exactly one bucket, except the single
  // goal that trips the governor: it is counted, then answered with a
  // cut before classification (all later goals return pre-count).
  EXPECT_EQ(OnRes.Stats.SummaryHits + OnRes.Stats.SummaryMisses +
                OnRes.Stats.CacheHits + OnRes.Stats.Cuts +
                (OnRes.Stats.BudgetExhausted ? 1 : 0),
            OnRes.Stats.Goals)
      << "summary accounting identity violated";
  EXPECT_LE(OnRes.Stats.Goals, OffRes.Stats.Goals)
      << "summarization must never do MORE work";
}

void checkProgram(const fs::path &Path) {
  SCOPED_TRACE(Path.filename().string());
  Context Ctx;
  Result<const syntax::Term *> Raw =
      syntax::parseSugaredProgram(Ctx, slurp(Path));
  ASSERT_TRUE(Raw.hasValue())
      << (Raw.hasValue() ? "" : Raw.error().str());
  const syntax::Term *T = anf::normalizeProgram(Ctx, *Raw);
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue()) << (P.hasValue() ? "" : P.error().str());

  checkDomain<domain::ConstantDomain>(Ctx, *P, T);
  checkDomain<domain::UnitDomain>(Ctx, *P, T);
  checkDomain<domain::SignDomain>(Ctx, *P, T);
  checkDomain<domain::ParityDomain>(Ctx, *P, T);
  checkDomain<domain::IntervalDomain>(Ctx, *P, T);
}

TEST(SummaryEquivalence, CorpusAllDomainsOnAndOff) {
  std::vector<fs::path> Files = corpusFiles();
  ASSERT_FALSE(Files.empty());
  for (const fs::path &P : Files)
    checkProgram(P);
}

/// The cliff program. Before summarization + the arena IR the syntactic
/// leg walked 14,149 goals; with summaries on it lands near the
/// exactness floor of ~8,700 (DESIGN.md §12), and this smoke test trips
/// well before a regression could erode the win back to the old cliff.
TEST(SummaryEquivalence, ArithmeticGoalsStayUnderSmokeCeiling) {
  Context Ctx;
  std::string Src =
      slurp(fs::path(CPSFLOW_SOURCE_DIR) / "examples/corpus/arithmetic.scm");
  Result<const syntax::Term *> Raw = syntax::parseSugaredProgram(Ctx, Src);
  ASSERT_TRUE(Raw.hasValue());
  const syntax::Term *T = anf::normalizeProgram(Ctx, *Raw);
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue());

  using D = domain::ConstantDomain;
  std::vector<analysis::CpsBinding<D>> CInit;
  for (Symbol X : syntax::freeVars(T))
    CInit.push_back(
        {X, analysis::deltaE<D>(domain::AbsVal<D>::number(D::top()), *P)});

  analysis::AnalyzerOptions On;
  On.MaxGoals = 5'000'000;
  On.UseSummaries = true;
  auto R = analysis::SyntacticCpsAnalyzer<D>(Ctx, *P, CInit, On).run();
  EXPECT_FALSE(R.Stats.BudgetExhausted);
  // Measured floor is ~8,700 goals: fixpoint confirmation re-walks
  // read genuinely different accumulator values, and an answer-exact
  // engine may not skip them (DESIGN.md §12). The ceiling guards a
  // wholesale return of the 14,149-goal cliff.
  EXPECT_LE(R.Stats.Goals, 9500u)
      << "the arithmetic.scm syntactic cliff is back";
  EXPECT_GT(R.Stats.SummaryHits, 0u);
}

/// Summaries at any universe width. examples/wide/ holds
/// conditional-chain-12 behind 140 unused lambdas: its 142-closure
/// universe takes word-vector sets, and its summarized syntactic leg
/// must stay within 2x of the unpadded chain's goals (the unsummarized
/// walk of all 2^12 paths takes 24,712), with the reference analyzer's
/// answer and store.
TEST(SummaryEquivalence, WidePaddedChainStaysSummarized) {
  using D = domain::ConstantDomain;
  analysis::AnalyzerOptions On;
  On.MaxGoals = 5'000'000;
  On.UseSummaries = true;

  Context Ctx;
  std::string Src = slurp(fs::path(CPSFLOW_SOURCE_DIR) /
                          "examples/wide/conditional_chain_padded.scm");
  Result<const syntax::Term *> Raw = syntax::parseSugaredProgram(Ctx, Src);
  ASSERT_TRUE(Raw.hasValue());
  const syntax::Term *T = anf::normalizeProgram(Ctx, *Raw);
  Result<cps::CpsProgram> P = cps::cpsTransform(Ctx, T);
  ASSERT_TRUE(P.hasValue());
  std::vector<analysis::CpsBinding<D>> CInit;
  for (Symbol X : syntax::freeVars(T))
    CInit.push_back(
        {X, analysis::deltaE<D>(domain::AbsVal<D>::number(D::top()), *P)});

  analysis::SyntacticCpsAnalyzer<D> Padded(Ctx, *P, CInit, On);
  ASSERT_GT(Padded.closureUniverse().size(), 128u);
  auto R = Padded.run();
  EXPECT_FALSE(R.Stats.BudgetExhausted);
  auto Ref = refimpl::RefSyntacticCpsAnalyzer<D>(Ctx, *P, CInit, On).run();
  EXPECT_TRUE(R.Answer == Ref.Answer)
      << "summarized wide answer/store differs from the reference";

  Context NarrowCtx;
  analysis::Witness W = gen::conditionalChain(NarrowCtx, 12);
  auto Narrow = analysis::SyntacticCpsAnalyzer<D>(
                    NarrowCtx, W.Cps, analysis::cpsBindings<D>(W), On)
                    .run();
  EXPECT_LE(R.Stats.Goals, 2 * Narrow.Stats.Goals)
      << "the wide chain lost its continuation summaries";
}

} // namespace
