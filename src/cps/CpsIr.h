//===- cps/CpsIr.h - Flat label-arena CPS IR --------------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, dense-u32-label lowering of a cps(A) program for the syntactic
/// analyzer's hot path. The pointer tree of CpsAst.h is the source of
/// truth (answers, CFGs, and provenance stay keyed by its nodes); this IR
/// is a derived view in which
///
///  * every CpsTerm is a record in one contiguous `Terms` array, so a
///    goal key is `(u32 label, StoreId)` packed into one u64 and goal
///    dispatch is an array index instead of a pointer chase;
///  * every CpsValue is a record in `Vals` with its variable slot (the
///    dense VarIndex id) pre-resolved, eliminating per-access Symbol
///    hash lookups;
///  * user lambdas and continuation lambdas live in `Lams` / `Conts`
///    arrays laid out by the same enumeration (cps::enumerateLambdas)
///    that orders the analyzer's closure/continuation universes, so a
///    packed-set bit index dereferences straight to the callee's
///    parameter slots and body label.
///
/// Each record keeps the original node pointer (plus its id and source
/// location) for the cold paths: CFG recording, provenance attribution,
/// and converting packed answers back to `CpsCloRef`/`KontRef` sets.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_CPS_CPSIR_H
#define CPSFLOW_CPS_CPSIR_H

#include "cps/Transform.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace cpsflow {
namespace cps {

struct CpsIr {
  enum class ValKind : uint8_t { Num, Var, Inck, Deck, Lam };

  struct ValNode {
    ValKind Kind = ValKind::Num;
    /// Var: dense store slot. Lam: index into `Lams`.
    uint32_t A = 0;
    /// Num: the literal.
    int64_t Num = 0;
    const CpsValue *Src = nullptr;
  };

  /// One CPS term. Operand meaning by kind:
  ///   Ret    A = kvar slot   B = arg val
  ///   LetVal A = var slot    B = bound val   C = body term
  ///   Call   A = fun val     B = arg val     C = cont index
  ///   If     A = kvar slot   B = cond val    C = then term
  ///          E = else term   J = join cont index
  ///   Loop   A = cont index
  /// Continuation indices use the kont-universe numbering: 0 is `stop`,
  /// index i > 0 is `Conts[i - 1]`.
  struct TermNode {
    CpsTermKind Kind = CpsTermKind::PK_Ret;
    uint32_t A = 0;
    uint32_t B = 0;
    uint32_t C = 0;
    uint32_t E = 0;
    uint32_t J = 0;
    uint32_t SrcId = 0;
    SourceLoc Loc;
    const CpsTerm *Src = nullptr;
  };

  /// One user lambda; closure-universe index = 2 + its position here
  /// (indices 0 and 1 are add1k / sub1k).
  struct LamNode {
    uint32_t ParamSlot = 0;
    uint32_t KParamSlot = 0;
    uint32_t Body = 0;
    const CpsLam *Src = nullptr;
  };

  /// One continuation lambda; kont-universe index = 1 + its position
  /// here (index 0 is `stop`).
  struct ContNode {
    uint32_t ParamSlot = 0;
    uint32_t Body = 0;
    uint32_t SrcId = 0;
    SourceLoc Loc;
    const ContLam *Src = nullptr;
  };

  std::vector<TermNode> Terms;
  std::vector<ValNode> Vals;
  std::vector<LamNode> Lams;
  std::vector<ContNode> Conts;
  uint32_t Root = 0;
};

/// Lowers \p Program into a flat arena whose `Lams`/`Conts` arrays are
/// \p Lambdas in order (see enumerateLambdas). \p SlotOf maps a variable
/// to its dense store slot; it must know every variable of the program
/// and of the lambdas' bodies.
CpsIr buildCpsIr(const CpsProgram &Program, const CpsLambdas &Lambdas,
                 const std::function<uint32_t(Symbol)> &SlotOf);

} // namespace cps
} // namespace cpsflow

#endif // CPSFLOW_CPS_CPSIR_H
