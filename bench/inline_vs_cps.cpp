//===- bench/inline_vs_cps.cpp - E12: the Section 6.3 coda ------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E12 — the paper's closing sentence, made measurable: "a more practical
/// alternative is to combine heuristic in-lining with a direct-style
/// analysis." Compares plain Figure 4, the CPS analyzers, and
/// inline-then-Figure-4 on the witness shapes (with the closures
/// let-bound so the inliner can see them) and on the scaling families.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "anf/Anf.h"
#include "clients/Inline.h"
#include "gen/Workloads.h"
#include "syntax/Analysis.h"
#include "syntax/Parser.h"

using namespace cpsflow;
using namespace cpsflow::bench;
using namespace cpsflow::analysis;

namespace {

const syntax::Term *prepare(Context &Ctx, const char *Text) {
  Result<const syntax::Term *> T = syntax::parseTerm(Ctx, Text);
  return anf::normalizeProgram(Ctx, *T);
}

struct Row {
  std::string Probe1, Probe2;
  uint64_t Goals;
};

Row probeTwo(const DirectResult<CD> &R, Symbol A, Symbol B) {
  return Row{CD::str(R.valueOf(A).Num), CD::str(R.valueOf(B).Num),
             R.Stats.Goals};
}

Row probeTwo(const SemanticResult<CD> &R, Symbol A, Symbol B) {
  return Row{CD::str(R.valueOf(A).Num), CD::str(R.valueOf(B).Num),
             R.Stats.Goals};
}

} // namespace

int main() {
  Context Ctx;
  printHeader("E12: heuristic inlining + direct analysis (Section 6.3)");

  {
    // Theorem 5.1 with the identity let-bound.
    const syntax::Term *T = prepare(
        Ctx,
        "(let (f (lambda (x) x)) (let (a1 (f 1)) (let (a2 (f 2)) a2)))");
    Symbol A1 = Ctx.intern("a1"), A2 = Ctx.intern("a2");

    auto Plain = DirectAnalyzer<CD>(Ctx, T).run();
    auto Sem = SemanticCpsAnalyzer<CD>(Ctx, T).run();
    clients::InlineResult I = clients::inlineCalls(Ctx, T);
    auto Inl = DirectAnalyzer<CD>(Ctx, I.Inlined).run();

    std::printf("theorem 5.1 shape (f let-bound):\n");
    std::printf("  analyzer        | a1 | a2 | goals\n");
    std::printf("  ----------------+----+----+------\n");
    Row RP = probeTwo(Plain, A1, A2);
    Row RS = probeTwo(Sem, A1, A2);
    std::printf("  direct (fig 4)  | %-2s | %-2s | %llu\n", RP.Probe1.c_str(),
                RP.Probe2.c_str(), (unsigned long long)RP.Goals);
    std::printf("  semantic (fig 5)| %-2s | %-2s | %llu\n", RS.Probe1.c_str(),
                RS.Probe2.c_str(), (unsigned long long)RS.Goals);
    // Inlining renames; report the answer value instead of a2's slot.
    std::printf("  inline + direct | answer %s (per-site copies: a1 = 1, "
                "a2 = 2) | %llu goals, %zu calls inlined\n",
                CD::str(Inl.Answer.Value.Num).c_str(),
                (unsigned long long)Inl.Stats.Goals, I.InlinedCalls);
    std::printf("\n  every paper analyzer merges x across the two calls "
                "(a2 = T at best); inlining separates the call sites "
                "outright.\n\n");
  }

  {
    // Theorem 5.2b's call-merge shape with the two closures let-bound and
    // selected by an unknown conditional.
    const syntax::Term *T = prepare(
        Ctx, "(let (k0 (lambda (d0) 0))"
             " (let (k1 (lambda (d1) 1))"
             "  (let (f (if0 z k0 k1))"
             "   (let (a1 (f 3))"
             "    (let (a2 (if0 a1 5 (if0 (sub1 a1) 5 6)))"
             "     a2)))))");
    std::vector<DirectBinding<CD>> Init = {
        {Ctx.intern("z"), domain::AbsVal<CD>::number(CD::top())}};

    auto Plain = DirectAnalyzer<CD>(Ctx, T, Init).run();
    auto Sem = SemanticCpsAnalyzer<CD>(Ctx, T, Init).run();
    clients::InlineResult I = clients::inlineCalls(Ctx, T);
    std::vector<DirectBinding<CD>> Init2 = Init;
    auto Inl = DirectAnalyzer<CD>(Ctx, I.Inlined, Init2).run();

    std::printf("theorem 5.2b shape (closures let-bound, unknown "
                "selector) — an honest negative:\n");
    std::printf("  direct (fig 4):  answer %s, %llu goals\n",
                CD::str(Plain.Answer.Value.Num).c_str(),
                (unsigned long long)Plain.Stats.Goals);
    std::printf("  semantic (fig 5): answer %s, %llu goals\n",
                CD::str(Sem.Answer.Value.Num).c_str(),
                (unsigned long long)Sem.Stats.Goals);
    std::printf("  inline + direct: answer %s, %llu goals, %zu calls "
                "inlined\n",
                CD::str(Inl.Answer.Value.Num).c_str(),
                (unsigned long long)Inl.Stats.Goals, I.InlinedCalls);
    std::printf("\n  here f is bound to a conditional, not a lambda, and "
                "k0/k1 escape through it, so the inliner (correctly) "
                "declines: call-site splitting cannot separate *data-"
                "dependent* callees. That is the case the Section 6.3 "
                "duplication budget handles (bench E9) — the two "
                "mechanisms are complementary.\n\n");
  }

  {
    // Scaling: closure towers — inlining eliminates the calls entirely.
    std::printf("closure towers (single-callee; all analyzers exact):\n");
    std::printf("   n | direct goals | inline+direct goals | calls "
                "inlined\n");
    for (uint32_t N : {4u, 8u, 12u}) {
      Witness W = gen::closureTower(Ctx, N);
      auto Plain = DirectAnalyzer<CD>(Ctx, W.Anf).run();
      clients::InlineResult I = clients::inlineCalls(Ctx, W.Anf);
      auto Inl = DirectAnalyzer<CD>(Ctx, I.Inlined).run();
      std::printf("  %2u | %12llu | %19llu | %zu\n", N,
                  (unsigned long long)Plain.Stats.Goals,
                  (unsigned long long)Inl.Stats.Goals, I.InlinedCalls);
    }
  }

  std::printf("\nexpected shape: on call-site-splitting shapes (theorem "
              "5.1, towers) inline+direct surpasses every paper analyzer "
              "at lower cost; on data-dependent-callee shapes it falls "
              "back to Figure 4 and the duplication budget (E9) is the "
              "right tool — together they realize the paper's closing "
              "recommendation.\n");
  return 0;
}
