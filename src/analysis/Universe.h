//===- analysis/Universe.h - Analysis universes -----------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the finite universes an analysis run works over: the
/// variables its abstract store may mention (Section 4.1: one location per
/// variable) and the abstract closures / continuations CL_T and K_T used
/// for the Section 4.4 loop cut-off values. Both must cover not just the
/// program text but also the lambdas referenced from the initial abstract
/// store (the theorem witnesses seed stores with closures, e.g. Theorem
/// 5.1's identity closure for f).
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_ANALYSIS_UNIVERSE_H
#define CPSFLOW_ANALYSIS_UNIVERSE_H

#include "cps/Transform.h"
#include "domain/AbsValue.h"
#include "syntax/Ast.h"

#include <vector>

namespace cpsflow {
namespace analysis {

/// All variables a direct/semantic analysis of \p Program with initial
/// store entries for \p ExtraVars and closures over \p ExtraLams may bind.
std::vector<Symbol>
directVariableUniverse(const syntax::Term *Program,
                       const std::vector<const syntax::LamValue *> &ExtraLams,
                       const std::vector<Symbol> &ExtraVars);

/// CL_T for the direct/semantic analyses: inc, dec, every lambda in
/// \p Program, and every lambda in (or nested in) \p ExtraLams.
domain::CloSet directClosureUniverse(
    const syntax::Term *Program,
    const std::vector<const syntax::LamValue *> &ExtraLams);

/// All variables (Vars and KVars) a syntactic-CPS analysis of \p Program
/// with extra store entries may bind.
std::vector<Symbol>
cpsVariableUniverse(const cps::CpsProgram &Program,
                    const std::vector<const cps::CpsLam *> &ExtraLams,
                    const std::vector<Symbol> &ExtraVars);

/// CL_T for the syntactic-CPS analysis: inck, deck, and every CPS lambda
/// of \p Lambdas — so `Lambdas.Lams[i]` has rank 2 + i.
domain::CpsCloSet cpsClosureUniverse(const cps::CpsLambdas &Lambdas);
domain::CpsCloSet
cpsClosureUniverse(const cps::CpsProgram &Program,
                   const std::vector<const cps::CpsLam *> &ExtraLams);

/// K_T for the syntactic-CPS analysis: stop and every continuation lambda
/// of \p Lambdas — so `Lambdas.Conts[i]` has rank 1 + i.
domain::KontSet cpsKontUniverse(const cps::CpsLambdas &Lambdas);
domain::KontSet
cpsKontUniverse(const cps::CpsProgram &Program,
                const std::vector<const cps::CpsLam *> &ExtraLams);

} // namespace analysis
} // namespace cpsflow

#endif // CPSFLOW_ANALYSIS_UNIVERSE_H
