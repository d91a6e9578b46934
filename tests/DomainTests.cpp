//===- tests/DomainTests.cpp - Lattice law tests ----------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests of the abstract domains: every numeric domain must be a
/// join-semilattice with monotone sound transfer functions, and the
/// product/powerset constructions must preserve the laws (Section 4.2).
///
//===----------------------------------------------------------------------===//

#include "domain/AbsStore.h"
#include "domain/AbsValue.h"
#include "domain/NumDomain.h"
#include "domain/PackedSet.h"
#include "syntax/Builder.h"

#include <gtest/gtest.h>

#include <vector>

using namespace cpsflow;
using namespace cpsflow::domain;

namespace {

template <typename D> std::vector<typename D::Elem> samples() {
  std::vector<typename D::Elem> Out = {D::bot(), D::top(), D::naturals()};
  for (int64_t N : {-7, -1, 0, 1, 2, 3, 42})
    Out.push_back(D::constant(N));
  return Out;
}

template <typename D> class NumDomainLaws : public ::testing::Test {};

using AllDomains = ::testing::Types<ConstantDomain, UnitDomain, SignDomain,
                                    ParityDomain, IntervalDomain>;
TYPED_TEST_SUITE(NumDomainLaws, AllDomains);

TYPED_TEST(NumDomainLaws, JoinIsCommutativeAssociativeIdempotent) {
  using D = TypeParam;
  auto S = samples<D>();
  for (const auto &A : S) {
    EXPECT_TRUE(D::join(A, A) == A);
    for (const auto &B : S) {
      EXPECT_TRUE(D::join(A, B) == D::join(B, A));
      for (const auto &C : S)
        EXPECT_TRUE(D::join(D::join(A, B), C) == D::join(A, D::join(B, C)));
    }
  }
}

TYPED_TEST(NumDomainLaws, LeqIsAPartialOrderWithJoinAsLub) {
  using D = TypeParam;
  auto S = samples<D>();
  for (const auto &A : S) {
    EXPECT_TRUE(D::leq(A, A));
    EXPECT_TRUE(D::leq(D::bot(), A));
    EXPECT_TRUE(D::leq(A, D::top()));
    for (const auto &B : S) {
      // join is an upper bound...
      EXPECT_TRUE(D::leq(A, D::join(A, B)));
      EXPECT_TRUE(D::leq(B, D::join(A, B)));
      // ...and leq agrees with join-absorption.
      EXPECT_EQ(D::leq(A, B), D::join(A, B) == B);
      // antisymmetry
      if (D::leq(A, B) && D::leq(B, A)) {
        EXPECT_TRUE(A == B);
      }
    }
  }
}

TYPED_TEST(NumDomainLaws, TransferFunctionsAreMonotone) {
  using D = TypeParam;
  auto S = samples<D>();
  for (const auto &A : S)
    for (const auto &B : S)
      if (D::leq(A, B)) {
        EXPECT_TRUE(D::leq(D::add1(A), D::add1(B)));
        EXPECT_TRUE(D::leq(D::sub1(A), D::sub1(B)));
      }
}

TYPED_TEST(NumDomainLaws, TransferFunctionsAreSound) {
  using D = TypeParam;
  for (int64_t N : {-5, -1, 0, 1, 7}) {
    EXPECT_TRUE(D::leq(D::constant(N + 1), D::add1(D::constant(N)))) << N;
    EXPECT_TRUE(D::leq(D::constant(N - 1), D::sub1(D::constant(N)))) << N;
  }
  // naturals() covers every natural.
  for (int64_t N : {0, 1, 2, 50})
    EXPECT_TRUE(D::leq(D::constant(N), D::naturals()));
}

TYPED_TEST(NumDomainLaws, ZeroTestIsSound) {
  using D = TypeParam;
  // constant(0) must admit zero; nonzero constants must not be "Zero".
  ZeroTest Z0 = D::isZero(D::constant(0));
  EXPECT_TRUE(Z0 == ZeroTest::Zero || Z0 == ZeroTest::Maybe);
  ZeroTest Z5 = D::isZero(D::constant(5));
  EXPECT_TRUE(Z5 == ZeroTest::NonZero || Z5 == ZeroTest::Maybe);
  EXPECT_EQ(D::isZero(D::bot()), ZeroTest::Bottom);
  EXPECT_EQ(D::isZero(D::top()), ZeroTest::Maybe);
}

TYPED_TEST(NumDomainLaws, HashRespectsEquality) {
  using D = TypeParam;
  auto S = samples<D>();
  for (const auto &A : S)
    for (const auto &B : S)
      if (A == B) {
        EXPECT_EQ(D::hash(A), D::hash(B));
      }
}

TEST(ConstantDomain, ExactOnConstants) {
  using D = ConstantDomain;
  EXPECT_EQ(D::str(D::add1(D::constant(41))), "42");
  EXPECT_EQ(D::str(D::join(D::constant(1), D::constant(1))), "1");
  EXPECT_EQ(D::str(D::join(D::constant(1), D::constant(2))), "T");
  EXPECT_EQ(D::isZero(D::constant(0)), ZeroTest::Zero);
  EXPECT_EQ(D::isZero(D::constant(3)), ZeroTest::NonZero);
}

TEST(SignDomain, TracksSigns) {
  using D = SignDomain;
  EXPECT_TRUE(D::constant(-3) == D::constant(-100));
  EXPECT_EQ(D::str(D::add1(D::constant(0))), "+");
  EXPECT_EQ(D::str(D::sub1(D::constant(0))), "-");
  // +1 applied to a negative may reach zero: must widen.
  EXPECT_EQ(D::str(D::add1(D::constant(-1))), "T");
}

TEST(IntervalDomain, TracksRangesAndClamps) {
  using D = IntervalDomain;
  EXPECT_EQ(D::str(D::constant(3)), "[3,3]");
  EXPECT_EQ(D::str(D::join(D::constant(1), D::constant(4))), "[1,4]");
  // Beyond the clamp the endpoint widens to infinity.
  EXPECT_EQ(D::str(D::constant(42)), "[16,+inf]");
  EXPECT_EQ(D::str(D::constant(-42)), "[-inf,-16]");
  EXPECT_EQ(D::str(D::naturals()), "[0,+inf]");
  EXPECT_EQ(D::str(D::add1(D::constant(2))), "[3,3]");
  EXPECT_EQ(D::isZero(D::make(1, 5)), ZeroTest::NonZero);
  EXPECT_EQ(D::isZero(D::make(-1, 5)), ZeroTest::Maybe);
  EXPECT_EQ(D::isZero(D::constant(0)), ZeroTest::Zero);
}

TEST(IntervalDomain, ChainsAreFinite) {
  // Repeated add1 from 0 must reach a fixed point (the clamp guarantees
  // finite ascending chains, which the analyzers' termination needs).
  using D = IntervalDomain;
  D::Elem E = D::constant(0);
  D::Elem Acc = E;
  for (int I = 0; I < 100; ++I) {
    E = D::add1(E);
    D::Elem Next = D::join(Acc, E);
    if (Next == Acc && I > 40) // stabilized
      return;
    Acc = Next;
  }
  D::Elem Final = Acc;
  EXPECT_EQ(D::str(Final), "[0,+inf]");
}

TEST(ParityDomain, FlipsParity) {
  using D = ParityDomain;
  EXPECT_TRUE(D::add1(D::constant(2)) == D::constant(3));
  EXPECT_TRUE(D::sub1(D::constant(2)) == D::constant(1));
  EXPECT_EQ(D::isZero(D::constant(3)), ZeroTest::NonZero); // odd != 0
  EXPECT_EQ(D::isZero(D::constant(2)), ZeroTest::Maybe);
}

//===----------------------------------------------------------------------===//
// Sets and product values
//===----------------------------------------------------------------------===//

TEST(SortedSet, BasicOperations) {
  Context Ctx;
  syntax::Builder B(Ctx);
  const syntax::LamValue *L1 = B.lam("a", B.numTerm(1));
  const syntax::LamValue *L2 = B.lam("b", B.numTerm(2));

  CloSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(CloRef::lam(L1)));
  EXPECT_FALSE(S.insert(CloRef::lam(L1))); // duplicate
  EXPECT_TRUE(S.insert(CloRef::inc()));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(CloRef::inc()));
  EXPECT_FALSE(S.contains(CloRef::lam(L2)));

  CloSet T = CloSet::single(CloRef::lam(L2));
  CloSet U = CloSet::join(S, T);
  EXPECT_EQ(U.size(), 3u);
  EXPECT_TRUE(CloSet::leq(S, U));
  EXPECT_TRUE(CloSet::leq(T, U));
  EXPECT_FALSE(CloSet::leq(U, S));
}

TEST(SortedSet, DeterministicOrderByNodeId) {
  Context Ctx;
  syntax::Builder B(Ctx);
  const syntax::LamValue *L1 = B.lam("a", B.numTerm(1));
  const syntax::LamValue *L2 = B.lam("b", B.numTerm(2));
  CloSet S = CloSet::of({CloRef::lam(L2), CloRef::lam(L1), CloRef::inc()});
  std::vector<CloRef> Order(S.begin(), S.end());
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0].Tag, CloRef::K::Inc);
  EXPECT_EQ(Order[1].Lam, L1);
  EXPECT_EQ(Order[2].Lam, L2);
}

/// Members of \p S in forEach order.
template <typename Set> std::vector<uint32_t> members(const Set &S) {
  std::vector<uint32_t> Out;
  S.forEach([&](uint32_t I) { Out.push_back(I); });
  return Out;
}

/// Both packed set types over the same ranks (below 128) agree on every
/// lattice operation, and iterate in ascending rank.
TEST(PackedSet, BitVectorAgreesWithBits128) {
  const std::vector<std::vector<uint32_t>> Sets = {
      {}, {0}, {1, 63}, {64}, {0, 64, 127}, {5, 6, 7, 100}, {127}};
  auto Make = [](const std::vector<uint32_t> &Ranks, auto Set) {
    for (uint32_t R : Ranks)
      Set.set(R);
    return Set;
  };
  for (const auto &A : Sets)
    for (const auto &B : Sets) {
      Bits128 NA = Make(A, Bits128()), NB = Make(B, Bits128());
      BitVector WA = Make(A, BitVector()), WB = Make(B, BitVector());
      EXPECT_EQ(members(Bits128::join(NA, NB)),
                members(BitVector::join(WA, WB)));
      EXPECT_EQ(Bits128::leq(NA, NB), BitVector::leq(WA, WB));
      EXPECT_EQ(NA == NB, WA == WB);
      EXPECT_EQ(NA.size(), WA.size());
      EXPECT_EQ(NA.empty(), WA.empty());
      EXPECT_EQ(members(NA), A);
      EXPECT_EQ(members(WA), A);
    }
  for (uint32_t N : {0u, 1u, 63u, 64u, 65u, 127u, 128u})
    EXPECT_EQ(members(Bits128::firstN(N)), members(BitVector::firstN(N)));
}

/// Past 128 elements, equality and hashing see the set, not the order
/// it was built in, and join/leq behave across different word counts.
TEST(PackedSet, BitVectorIsCanonicalAtAnyWidth) {
  BitVector A = BitVector::single(200);
  A.set(3);
  BitVector B = BitVector::single(3);
  B.set(200);
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.hashValue(), B.hashValue());
  EXPECT_EQ(members(A), (std::vector<uint32_t>{3, 200}));

  BitVector Short = BitVector::single(3);
  EXPECT_TRUE(BitVector::leq(Short, A));
  EXPECT_FALSE(BitVector::leq(A, Short));
  EXPECT_TRUE(BitVector::join(Short, A) == A);
  EXPECT_TRUE(BitVector::join(A, Short) == A);
  EXPECT_TRUE(BitVector() == BitVector::firstN(0));
  EXPECT_TRUE(BitVector().empty());

  BitVector Top = BitVector::firstN(300);
  EXPECT_EQ(Top.size(), 300u);
  EXPECT_TRUE(BitVector::leq(A, Top));
  EXPECT_FALSE(BitVector::leq(Top, A));
  EXPECT_TRUE(BitVector::join(Top, A) == Top);
}

TEST(AbsVal, ProductLatticeLaws) {
  using V = AbsVal<ConstantDomain>;
  Context Ctx;
  syntax::Builder B(Ctx);
  const syntax::LamValue *L = B.lam("a", B.numTerm(1));

  V Bot = V::bot();
  V N1 = V::number(ConstantDomain::constant(1));
  V C = V::closures(CloSet::single(CloRef::lam(L)));
  V Mixed = V::join(N1, C);

  EXPECT_TRUE(Bot.isBot());
  EXPECT_FALSE(N1.isBot());
  EXPECT_TRUE(V::leq(Bot, N1));
  EXPECT_TRUE(V::leq(N1, Mixed));
  EXPECT_TRUE(V::leq(C, Mixed));
  EXPECT_FALSE(V::leq(N1, C));
  EXPECT_FALSE(V::leq(C, N1));
  EXPECT_TRUE(V::join(Mixed, Mixed) == Mixed);
}

TEST(CpsAbsVal, TripleLatticeLaws) {
  using V = CpsAbsVal<ConstantDomain>;
  V Bot = V::bot();
  V K = V::konts(KontSet::single(KontRef::stop()));
  V N = V::number(ConstantDomain::constant(3));
  EXPECT_TRUE(V::leq(Bot, K));
  EXPECT_FALSE(V::leq(K, N));
  EXPECT_FALSE(V::leq(N, K));
  V J = V::join(K, N);
  EXPECT_TRUE(V::leq(K, J));
  EXPECT_TRUE(V::leq(N, J));
  EXPECT_NE(J.hashValue(), Bot.hashValue());
}

TEST(AbsStore, JoinAtGrowsMonotonically) {
  using V = AbsVal<ConstantDomain>;
  AbsStore<V> S(3);
  EXPECT_FALSE(S.joinAt(0, V::bot()));
  EXPECT_TRUE(S.joinAt(0, V::number(ConstantDomain::constant(1))));
  EXPECT_FALSE(S.joinAt(0, V::number(ConstantDomain::constant(1))));
  EXPECT_TRUE(S.joinAt(0, V::number(ConstantDomain::constant(2))));
  EXPECT_EQ(ConstantDomain::str(S.get(0).Num), "T");
}

TEST(AbsStore, JoinLeqHashConsistent) {
  using V = AbsVal<ConstantDomain>;
  AbsStore<V> A(2), B(2);
  A.joinAt(0, V::number(ConstantDomain::constant(1)));
  B.joinAt(1, V::number(ConstantDomain::constant(2)));
  AbsStore<V> J = AbsStore<V>::join(A, B);
  EXPECT_TRUE(AbsStore<V>::leq(A, J));
  EXPECT_TRUE(AbsStore<V>::leq(B, J));
  EXPECT_FALSE(AbsStore<V>::leq(J, A));
  EXPECT_FALSE(A == B);
  AbsStore<V> A2(2);
  A2.joinAt(0, V::number(ConstantDomain::constant(1)));
  EXPECT_TRUE(A == A2);
  EXPECT_EQ(A.hashValue(), A2.hashValue());
}

TEST(VarIndex, DeduplicatesAndLooksUp) {
  SymbolTable Table;
  Symbol X = Table.intern("x"), Y = Table.intern("y");
  VarIndex Idx({X, Y, X});
  EXPECT_EQ(Idx.size(), 2u);
  EXPECT_TRUE(Idx.contains(X));
  EXPECT_EQ(Idx.symbolAt(Idx.of(Y)), Y);
  EXPECT_FALSE(Idx.contains(Table.intern("z")));
}

} // namespace
