//===- analysis/SyntacticCpsAnalyzer.h - Figure 6 analyzer ------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic-CPS abstract collecting interpreter M_e^s of Figure 6,
/// derived from the Figure 3 interpreter. Abstract values are triples
/// (number, closures, continuations): because the CPS transformation
/// reifies the continuation into an ordinary value, the analysis must
/// *collect*, at each continuation variable k, the set of continuations k
/// may denote.
///
/// Characteristic behaviour:
///
///  * At a return `(k W)`, *every* continuation collected at k is applied
///    and the results merged — Section 6.1's *false return*: distinct
///    procedure returns are confused (Theorem 5.1's loss vs the direct
///    analysis, Theorem 5.5's loss vs the semantic-CPS analysis).
///  * At a conditional, each branch is a complete CPS program carrying its
///    continuation, so non-distributive information is propagated per
///    branch — Theorem 5.2's win over the direct analysis.
///  * The `loopk` rule mirrors the Figure 5 loop rule and is likewise
///    uncomputable exactly; see AnalyzerOptions::LoopUnroll.
///
/// Termination uses the Section 4.4 cut with the least precise value
/// (T, CL_T, K_T).
///
/// `SyntacticCpsAnalyzer` is a thin facade over one engine,
/// `detail::SynIrEngine` (SyntacticIrEngine.h): the program is lowered to
/// the flat label arena of cps/CpsIr.h, lattice sets are packed bitsets
/// over the closure/continuation universes, and (when enabled)
/// continuation summaries short-circuit the Theorem 5.1 re-walks. The
/// universes and the IR's lambda arrays come from one enumeration
/// (cps::enumerateLambdas), so a bit index is a universe rank by
/// construction. The facade picks the set type by universe width: two
/// inline words (`Bits128`) up to 128 elements, a word vector
/// (`BitVector`) beyond.
///
/// Goals are keyed by (term label, StoreId) with hash-consed stores
/// (domain/StoreInterner.h). The pointer-tree reference analyzer in
/// tests/reference/ is the executable specification: with summaries off
/// the engine reproduces its answers and work counters exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_SYNTACTICCPSANALYZER_H
#define CPSFLOW_ANALYSIS_SYNTACTICCPSANALYZER_H

#include "analysis/Common.h"
#include "analysis/SyntacticIrEngine.h"
#include "analysis/Universe.h"
#include "cps/CpsIr.h"
#include "cps/Transform.h"
#include "domain/AbsStore.h"
#include "domain/AbsValue.h"
#include "domain/PackedSet.h"
#include "domain/StoreInterner.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

namespace cpsflow {
namespace analysis {

/// The Figure 6 analyzer facade. Single-use: construct, run() once,
/// then (optionally) consult universes and the interner.
template <typename D> class SyntacticCpsAnalyzer {
public:
  using Val = domain::CpsAbsVal<D>;
  using StoreT = domain::AbsStore<Val>;
  using Answer = AnswerOf<Val>;

  SyntacticCpsAnalyzer(const Context &Ctx, const cps::CpsProgram &Program,
                       std::vector<CpsBinding<D>> Initial = {},
                       AnalyzerOptions Opts = AnalyzerOptions())
      : Ctx(Ctx), Program(Program), Initial(std::move(Initial)), Opts(Opts) {
    std::vector<const cps::CpsLam *> ExtraLams;
    std::vector<Symbol> ExtraVars;
    for (const CpsBinding<D> &B : this->Initial) {
      ExtraVars.push_back(B.Var);
      for (const domain::CpsCloRef &C : B.Value.Clos)
        if (C.Tag == domain::CpsCloRef::K::Lam)
          ExtraLams.push_back(C.Lam);
    }
    Vars = std::make_shared<domain::VarIndex>(
        cpsVariableUniverse(Program, ExtraLams, ExtraVars));
    Lambdas = cps::enumerateLambdas(Program, ExtraLams);
    CloTop = cpsClosureUniverse(Lambdas);
    KontTop = cpsKontUniverse(Lambdas);
  }

  /// Runs the analysis with TopK bound to {stop} (Section 5.1's initial
  /// store entry k |-> (bot, {}, {stop})).
  SyntacticResult<D> run() {
    if (CloTop.size() <= domain::Bits128::Capacity &&
        KontTop.size() <= domain::Bits128::Capacity)
      return runOn(Narrow);
    return runOn(Wide);
  }

  const domain::CpsCloSet &closureUniverse() const { return CloTop; }
  const domain::KontSet &kontUniverse() const { return KontTop; }

  /// The run's hash-consing table (observability: distinct stores seen;
  /// resolves provenance StoreIds). Before run(), an empty table.
  const domain::StoreInterner<Val> &interner() const {
    if (Narrow)
      return Narrow->publicInterner();
    if (Wide)
      return Wide->publicInterner();
    if (!EmptyInterner) {
      EmptyInterner = std::make_unique<domain::StoreInterner<Val>>();
      EmptyInterner->reset(Vars->size());
    }
    return *EmptyInterner;
  }

private:
  template <typename Set>
  SyntacticResult<D> runOn(std::unique_ptr<detail::SynIrEngine<D, Set>> &Eng) {
    std::vector<detail::PackedCpsBinding<D, Set>> Packed;
    Packed.reserve(Initial.size());
    for (const CpsBinding<D> &B : Initial) {
      detail::PackedCpsBinding<D, Set> P;
      P.Slot = Vars->of(B.Var);
      P.Value.Num = B.Value.Num;
      P.Value.Clos = pack<Set>(B.Value.Clos, CloTop);
      P.Value.Konts = pack<Set>(B.Value.Konts, KontTop);
      Packed.push_back(std::move(P));
    }
    Eng = std::make_unique<detail::SynIrEngine<D, Set>>(
        cps::buildCpsIr(Program, Lambdas,
                        [this](Symbol S) { return Vars->of(S); }),
        Vars, std::move(Packed), Vars->of(Program.TopK), Opts);
    return Eng->run();
  }

  /// Packs \p S by rank in \p Universe: the packed bit index.
  template <typename Set, typename Ref>
  static Set pack(const domain::SortedSet<Ref> &S,
                  const domain::SortedSet<Ref> &Universe) {
    Set Out;
    for (const Ref &R : S) {
      auto It = std::lower_bound(Universe.begin(), Universe.end(), R);
      assert(It != Universe.end() && *It == R &&
             "initial binding outside the analysis universe");
      Out.set(static_cast<uint32_t>(It - Universe.begin()));
    }
    return Out;
  }

  const Context &Ctx;
  const cps::CpsProgram &Program;
  std::vector<CpsBinding<D>> Initial;
  AnalyzerOptions Opts;

  std::shared_ptr<domain::VarIndex> Vars;
  cps::CpsLambdas Lambdas;
  domain::CpsCloSet CloTop;
  domain::KontSet KontTop;

  std::unique_ptr<detail::SynIrEngine<D, domain::Bits128>> Narrow;
  std::unique_ptr<detail::SynIrEngine<D, domain::BitVector>> Wide;
  mutable std::unique_ptr<domain::StoreInterner<Val>> EmptyInterner;
};

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_SYNTACTICCPSANALYZER_H
