//===- analysis/SyntacticIrEngine.cpp - Engine instantiations -------------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The one place the arena-IR engine is instantiated: every numeric domain
// at both packed set widths, matching the extern declarations in
// SyntacticIrEngine.h, so the 30-odd translation units that run the
// syntactic analyzer do not each compile ten copies of it.
//
//===----------------------------------------------------------------------===//

#include "analysis/SyntacticIrEngine.h"

namespace cpsflow {
namespace analysis {
namespace detail {

template class SynIrEngine<domain::ConstantDomain, domain::Bits128>;
template class SynIrEngine<domain::ConstantDomain, domain::BitVector>;
template class SynIrEngine<domain::UnitDomain, domain::Bits128>;
template class SynIrEngine<domain::UnitDomain, domain::BitVector>;
template class SynIrEngine<domain::SignDomain, domain::Bits128>;
template class SynIrEngine<domain::SignDomain, domain::BitVector>;
template class SynIrEngine<domain::ParityDomain, domain::Bits128>;
template class SynIrEngine<domain::ParityDomain, domain::BitVector>;
template class SynIrEngine<domain::IntervalDomain, domain::Bits128>;
template class SynIrEngine<domain::IntervalDomain, domain::BitVector>;

} // namespace detail
} // namespace analysis
} // namespace cpsflow
