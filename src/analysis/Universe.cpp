//===- analysis/Universe.cpp - Analysis universes ---------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Universe.h"

#include "syntax/Analysis.h"

using namespace cpsflow;
using namespace cpsflow::analysis;

std::vector<Symbol> cpsflow::analysis::directVariableUniverse(
    const syntax::Term *Program,
    const std::vector<const syntax::LamValue *> &ExtraLams,
    const std::vector<Symbol> &ExtraVars) {
  std::vector<Symbol> Vars = syntax::collectVariables(Program);
  for (const syntax::LamValue *Lam : ExtraLams) {
    Vars.push_back(Lam->param());
    for (Symbol S : syntax::collectVariables(Lam->body()))
      Vars.push_back(S);
  }
  for (Symbol S : ExtraVars)
    Vars.push_back(S);
  return Vars; // VarIndex deduplicates
}

domain::CloSet cpsflow::analysis::directClosureUniverse(
    const syntax::Term *Program,
    const std::vector<const syntax::LamValue *> &ExtraLams) {
  std::vector<domain::CloRef> Refs;
  Refs.push_back(domain::CloRef::inc());
  Refs.push_back(domain::CloRef::dec());
  for (const syntax::LamValue *Lam : syntax::collectLambdas(Program))
    Refs.push_back(domain::CloRef::lam(Lam));
  for (const syntax::LamValue *Lam : ExtraLams) {
    Refs.push_back(domain::CloRef::lam(Lam));
    for (const syntax::LamValue *Nested : syntax::collectLambdas(Lam->body()))
      Refs.push_back(domain::CloRef::lam(Nested));
  }
  return domain::CloSet::of(std::move(Refs));
}

std::vector<Symbol> cpsflow::analysis::cpsVariableUniverse(
    const cps::CpsProgram &Program,
    const std::vector<const cps::CpsLam *> &ExtraLams,
    const std::vector<Symbol> &ExtraVars) {
  std::vector<Symbol> Vars =
      cps::collectCpsVariables(Program.Root, Program.TopK);
  for (const cps::CpsLam *Lam : ExtraLams) {
    Vars.push_back(Lam->param());
    Vars.push_back(Lam->kparam());
    for (Symbol S : cps::collectCpsVariables(Lam->body(), Program.TopK))
      Vars.push_back(S);
  }
  for (Symbol S : ExtraVars)
    Vars.push_back(S);
  return Vars;
}

domain::CpsCloSet
cpsflow::analysis::cpsClosureUniverse(const cps::CpsLambdas &Lambdas) {
  std::vector<domain::CpsCloRef> Refs{domain::CpsCloRef::inck(),
                                      domain::CpsCloRef::deck()};
  for (const cps::CpsLam *Lam : Lambdas.Lams)
    Refs.push_back(domain::CpsCloRef::lam(Lam));
  return domain::CpsCloSet::of(std::move(Refs));
}

domain::CpsCloSet cpsflow::analysis::cpsClosureUniverse(
    const cps::CpsProgram &Program,
    const std::vector<const cps::CpsLam *> &ExtraLams) {
  return cpsClosureUniverse(cps::enumerateLambdas(Program, ExtraLams));
}

domain::KontSet
cpsflow::analysis::cpsKontUniverse(const cps::CpsLambdas &Lambdas) {
  std::vector<domain::KontRef> Refs{domain::KontRef::stop()};
  for (const cps::ContLam *C : Lambdas.Conts)
    Refs.push_back(domain::KontRef::cont(C));
  return domain::KontSet::of(std::move(Refs));
}

domain::KontSet cpsflow::analysis::cpsKontUniverse(
    const cps::CpsProgram &Program,
    const std::vector<const cps::CpsLam *> &ExtraLams) {
  return cpsKontUniverse(cps::enumerateLambdas(Program, ExtraLams));
}
