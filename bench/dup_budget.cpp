//===- bench/dup_budget.cpp - E9: bounded duplication -----------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E9 — Section 6.3's conclusion: "in practice, a direct data flow
/// analysis that relies on some amount of duplication would be as
/// satisfactory as a CPS analysis". Sweeps the duplication budget d of the
/// DupAnalyzer on the Theorem 5.2 witnesses and the call-merge chains,
/// reporting precision (the probe variables) and cost (proof goals)
/// against the Figure 4 and Figure 5 endpoints.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/Workloads.h"

using namespace cpsflow;
using namespace cpsflow::bench;
using namespace cpsflow::analysis;

namespace {

template <typename ResultT>
int probesExact(const ResultT &R, const Witness &W, const char *Expect) {
  int N = 0;
  for (Symbol B : W.InterestingVars)
    if (CD::str(R.valueOf(B).Num) == Expect)
      ++N;
  return N;
}

} // namespace

int main() {
  Context Ctx;
  printHeader("E9: the Section 6.3 alternative — direct analysis with "
              "bounded duplication");

  {
    Witness W = gen::callMergeChain(Ctx, 5);
    auto Sem =
        SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
    std::printf("call-merge chain, n = 5 (probes b1..b5; exact value 5):\n");
    std::printf("  analyzer          | probes exact | goals\n");
    std::printf("  ------------------+--------------+------\n");
    for (uint32_t Budget = 0; Budget <= 5; ++Budget) {
      auto Dup =
          DupAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Budget).run();
      std::printf("  dup budget %u      | %4d of 5    | %llu\n", Budget,
                  probesExact(Dup, W, "5"),
                  (unsigned long long)Dup.Stats.Goals);
    }
    std::printf("  semantic-CPS      | %4d of 5    | %llu\n",
                probesExact(Sem, W, "5"),
                (unsigned long long)Sem.Stats.Goals);
  }

  std::printf("\ntheorem witnesses (a2 column):\n");
  std::printf("  witness        | fig 4 | dup d=1 | dup d=2 | semantic\n");
  std::printf("  ---------------+-------+---------+---------+---------\n");
  for (Witness (*Make)(Context &) : {theorem52a, theorem52b}) {
    Witness W = Make(Ctx);
    Symbol A2 = Ctx.intern("a2");
    auto F4 = DirectAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
    auto D1 = DupAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), 1).run();
    auto D2 = DupAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), 2).run();
    auto SM =
        SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
    std::printf("  %-14s | %-5s | %-7s | %-7s | %s\n", W.Name.c_str(),
                CD::str(F4.valueOf(A2).Num).c_str(),
                CD::str(D1.valueOf(A2).Num).c_str(),
                CD::str(D2.valueOf(A2).Num).c_str(),
                CD::str(SM.valueOf(A2).Num).c_str());
  }

  std::printf("\ncost control on a deep chain (conditional chain n = 14):\n");
  {
    Witness W = gen::conditionalChain(Ctx, 14);
    auto Sem =
        SemanticCpsAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W)).run();
    std::printf("  semantic-CPS goals: %llu\n",
                (unsigned long long)Sem.Stats.Goals);
    for (uint32_t Budget : {0u, 1u, 2u, 3u}) {
      auto Dup =
          DupAnalyzer<CD>(Ctx, W.Anf, directBindings<CD>(W), Budget).run();
      std::printf("  dup budget %u goals: %llu\n", Budget,
                  (unsigned long long)Dup.Stats.Goals);
    }
  }

  std::printf("\nexpected shape: a small budget recovers the CPS answers "
              "on the witnesses while the cost stays polynomial — the "
              "paper's recommended practical design point.\n");
  return 0;
}
