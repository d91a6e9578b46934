//===- cps/Transform.h - The syntactic CPS transformation -------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic CPS transformation F / V of Definition 3.2:
///
/// \code
///   F_k[V]                            = (k V[V])
///   F_k[(let (x V) M)]                = (let (x V[V]) F_k[M])
///   F_k[(let (x (V1 V2)) M)]          = (V[V1] V[V2] (lambda (x) F_k[M]))
///   F_k[(let (x (if0 V0 M1 M2)) M)]   = (let (k' (lambda (x) F_k[M]))
///                                          (if0 V[V0] F_k'[M1] F_k'[M2]))
///   F_k[(let (x (loop)) M)]           = (loopk (lambda (x) F_k[M]))   [ext]
///
///   V[n] = n        V[x] = x      V[add1] = add1k     V[sub1] = sub1k
///   V[(lambda (x) M)] = (lambda (x k') F_k'[M])
/// \endcode
///
/// The input must be in A-normal form. Continuation variables k' are fresh
/// KVars drawn from the reserved `k%N` namespace, disjoint from source
/// variables.
///
/// The result records the correspondence between source lambdas and their
/// CPS images — the syntactic content of the delta function of Lemma 3.3
/// and of its abstract counterpart delta_e (Section 5.1) — and between
/// source let-forms and the continuation lambdas they generate.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_CPS_TRANSFORM_H
#define CPSFLOW_CPS_TRANSFORM_H

#include "cps/CpsAst.h"
#include "support/Result.h"
#include "syntax/Ast.h"

#include <unordered_map>
#include <vector>

namespace cpsflow {
namespace cps {

/// A CPS-transformed program plus the bookkeeping the comparisons need.
struct CpsProgram {
  /// The transformed term F_TopK[M].
  const CpsTerm *Root = nullptr;

  /// The initial continuation variable; interpreters and analyzers bind it
  /// to `stop` in the initial store (Lemma 3.3, Theorem 5.1).
  Symbol TopK;

  /// Source lambda -> its CPS image (the delta of user closures).
  std::unordered_map<const syntax::LamValue *, const CpsLam *> LamToCps;
  /// Inverse of LamToCps.
  std::unordered_map<const CpsLam *, const syntax::LamValue *> CpsToLam;

  /// Continuation lambda -> the source let (or the whole-program return for
  /// none) that produced it. Used to relate return points across analyses.
  std::unordered_map<const ContLam *, const syntax::LetTerm *> ContToLet;

  /// All continuation lambdas, in creation order (deterministic).
  std::vector<const ContLam *> ContLams;
  /// All CPS user lambdas, in creation order.
  std::vector<const CpsLam *> Lams;
  /// All continuation variables introduced (TopK, if0 joins, lambda
  /// k-params), in creation order.
  std::vector<Symbol> KVars;
};

/// Applies F / V to the A-normal-form term \p Anf.
/// \returns an error if \p Anf is not in A-normal form.
Result<CpsProgram> cpsTransform(Context &Ctx, const syntax::Term *Anf);

/// Transforms a source lambda that is *not* part of the program text —
/// e.g. a closure seeded into the initial abstract store of a theorem
/// witness — recording its image in \p Program's correspondence maps so
/// delta / delta_e cover it. \pre the lambda's body is in A-normal form.
const CpsLam *cpsTransformExtra(Context &Ctx, CpsProgram &Program,
                                const syntax::LamValue *Lam);

/// Single-line rendering of a cps(A) term in the Definition 3.2 syntax.
std::string printCps(const Context &Ctx, const CpsTerm *P);
/// Single-line rendering of a cps(A) value.
std::string printCps(const Context &Ctx, const CpsValue *W);
/// Multi-line rendering with two-space indentation per binding/call
/// nesting level.
std::string printCpsIndented(const Context &Ctx, const CpsTerm *P);

/// Number of CpsTerm/CpsValue/ContLam nodes in \p P.
size_t countCpsNodes(const CpsTerm *P);

/// All variables (Vars and KVars) bound or free in \p P, in symbol order.
std::vector<Symbol> collectCpsVariables(const CpsTerm *P, Symbol TopK);

/// All CPS user lambdas in \p P, in node-id order.
std::vector<const CpsLam *> collectCpsLams(const CpsTerm *P);

/// All continuation lambdas in \p P, in node-id order.
std::vector<const ContLam *> collectContLams(const CpsTerm *P);

/// The user and continuation lambdas a syntactic-CPS run of \p Program
/// can reach when its initial store holds closures over \p ExtraLams:
/// those of the program, the extras themselves, and those nested in the
/// extras' bodies, each list in node-id order without duplicates. This
/// one enumeration orders both the analyzer's closure/continuation
/// universes (analysis/Universe.cpp) and the IR's `Lams`/`Conts` arrays
/// (CpsIr.h), so a packed-set bit index is a universe rank.
struct CpsLambdas {
  std::vector<const CpsLam *> Lams;
  std::vector<const ContLam *> Conts;
};
CpsLambdas enumerateLambdas(const CpsProgram &Program,
                            const std::vector<const CpsLam *> &ExtraLams);

} // namespace cps
} // namespace cpsflow

#endif // CPSFLOW_CPS_TRANSFORM_H
