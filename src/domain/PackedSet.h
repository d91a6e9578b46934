//===- domain/PackedSet.h - Word-packed lattice sets ------------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-packed representations of the analyzer's finite powerset lattices.
///
/// A syntactic-CPS run draws every closure and continuation from a fixed,
/// program-derived universe (analysis/Universe.cpp), and a packed set is
/// a bitset over that universe's sorted-rank enumeration: join is OR, ⊑
/// is `(a & ~b) == 0`, equality is word compare. Iteration yields
/// ascending ranks, which by construction is the same order as
/// `SortedSet` iteration over the corresponding refs, so packing is an
/// order-preserving lattice isomorphism: an engine computing over
/// `PackedCpsVal` performs exactly the joins the `CpsAbsVal` reference
/// performs, and unpacking at the boundary reproduces its answers
/// bitwise.
///
/// Two set types share one interface, and the engine is a template over
/// it:
///
///  * `Bits128` — two inline words, for universes of at most 128
///    elements (every corpus program). No allocation, no branch.
///  * `BitVector` — a heap word vector for wider universes, holding the
///    words up to the highest member and no trailing zero word, so the
///    empty set allocates nothing and equal sets have equal vectors.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_DOMAIN_PACKEDSET_H
#define CPSFLOW_DOMAIN_PACKEDSET_H

#include "support/Hashing.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace cpsflow {
namespace domain {

/// A subset of a dense universe of at most 128 elements, in two words.
struct Bits128 {
  /// The widest universe this representation packs.
  static constexpr uint32_t Capacity = 128;

  uint64_t Lo = 0;
  uint64_t Hi = 0;

  static Bits128 single(uint32_t I) {
    Bits128 B;
    B.set(I);
    return B;
  }

  /// The first \p N universe elements — the packed "top" set.
  static Bits128 firstN(uint32_t N) {
    Bits128 B;
    B.Lo = N >= 64 ? ~0ull : (N ? (~0ull >> (64 - N)) : 0);
    B.Hi = N <= 64 ? 0 : (N >= 128 ? ~0ull : (~0ull >> (128 - N)));
    return B;
  }

  void set(uint32_t I) { (I < 64 ? Lo : Hi) |= 1ull << (I & 63); }
  bool empty() const { return (Lo | Hi) == 0; }
  uint32_t size() const {
    return static_cast<uint32_t>(__builtin_popcountll(Lo) +
                                 __builtin_popcountll(Hi));
  }

  static Bits128 join(Bits128 A, Bits128 B) {
    return Bits128{A.Lo | B.Lo, A.Hi | B.Hi};
  }
  static bool leq(Bits128 A, Bits128 B) {
    return ((A.Lo & ~B.Lo) | (A.Hi & ~B.Hi)) == 0;
  }

  friend bool operator==(Bits128 A, Bits128 B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(Bits128 A, Bits128 B) { return !(A == B); }

  /// Visits members in ascending rank — the `SortedSet` iteration order
  /// of the corresponding refs.
  template <typename F> void forEach(F Fn) const {
    for (uint64_t W = Lo; W; W &= W - 1)
      Fn(static_cast<uint32_t>(__builtin_ctzll(W)));
    for (uint64_t W = Hi; W; W &= W - 1)
      Fn(static_cast<uint32_t>(64 + __builtin_ctzll(W)));
  }

  uint64_t hashValue() const {
    uint64_t H = 0x5e75; // same family as SortedSet's seed
    hashCombine(H, Lo);
    hashCombine(H, Hi);
    return H;
  }
};

/// A subset of a dense universe of any size: the words up to the highest
/// member. No operation clears a bit, so the no-trailing-zero-word
/// invariant holds by construction.
class BitVector {
public:
  static BitVector single(uint32_t I) {
    BitVector B;
    B.set(I);
    return B;
  }

  /// The first \p N universe elements — the packed "top" set.
  static BitVector firstN(uint32_t N) {
    BitVector B;
    B.Words.assign(N / 64, ~0ull);
    if (N % 64)
      B.Words.push_back(~0ull >> (64 - N % 64));
    return B;
  }

  void set(uint32_t I) {
    if (I / 64 >= Words.size())
      Words.resize(I / 64 + 1, 0);
    Words[I / 64] |= 1ull << (I & 63);
  }
  bool empty() const { return Words.empty(); }
  uint32_t size() const {
    uint32_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<uint32_t>(__builtin_popcountll(W));
    return N;
  }

  static BitVector join(const BitVector &A, const BitVector &B) {
    bool AIsLonger = A.Words.size() >= B.Words.size();
    BitVector Out = AIsLonger ? A : B;
    const BitVector &Short = AIsLonger ? B : A;
    for (size_t I = 0; I < Short.Words.size(); ++I)
      Out.Words[I] |= Short.Words[I];
    return Out;
  }
  static bool leq(const BitVector &A, const BitVector &B) {
    if (A.Words.size() > B.Words.size())
      return false; // A's last word is non-zero, B has no bit there
    for (size_t I = 0; I < A.Words.size(); ++I)
      if (A.Words[I] & ~B.Words[I])
        return false;
    return true;
  }

  friend bool operator==(const BitVector &A, const BitVector &B) {
    return A.Words == B.Words;
  }
  friend bool operator!=(const BitVector &A, const BitVector &B) {
    return !(A == B);
  }

  /// Visits members in ascending rank, as Bits128::forEach does.
  template <typename F> void forEach(F Fn) const {
    for (size_t I = 0; I < Words.size(); ++I)
      for (uint64_t W = Words[I]; W; W &= W - 1)
        Fn(static_cast<uint32_t>(64 * I + __builtin_ctzll(W)));
  }

  uint64_t hashValue() const {
    uint64_t H = 0x5e75;
    for (uint64_t W : Words)
      hashCombine(H, W);
    return H;
  }

private:
  std::vector<uint64_t> Words;
};

/// The packed mirror of CpsAbsVal<D>: (number, closure ranks,
/// continuation ranks) with \p Set one of the set types above.
/// Interface-compatible with what AbsStore and StoreInterner require of
/// a value type.
template <typename D, typename Set> struct PackedCpsVal {
  typename D::Elem Num = D::bot();
  Set Clos;
  Set Konts;

  static PackedCpsVal bot() { return PackedCpsVal(); }

  static PackedCpsVal number(typename D::Elem E) {
    PackedCpsVal V;
    V.Num = E;
    return V;
  }

  static PackedCpsVal closures(Set S) {
    PackedCpsVal V;
    V.Clos = std::move(S);
    return V;
  }

  static PackedCpsVal konts(Set S) {
    PackedCpsVal V;
    V.Konts = std::move(S);
    return V;
  }

  bool isBot() const {
    return D::leq(Num, D::bot()) && Clos.empty() && Konts.empty();
  }

  static PackedCpsVal join(const PackedCpsVal &A, const PackedCpsVal &B) {
    PackedCpsVal V;
    V.Num = D::join(A.Num, B.Num);
    V.Clos = Set::join(A.Clos, B.Clos);
    V.Konts = Set::join(A.Konts, B.Konts);
    return V;
  }

  static bool leq(const PackedCpsVal &A, const PackedCpsVal &B) {
    return D::leq(A.Num, B.Num) && Set::leq(A.Clos, B.Clos) &&
           Set::leq(A.Konts, B.Konts);
  }

  friend bool operator==(const PackedCpsVal &A, const PackedCpsVal &B) {
    return A.Num == B.Num && A.Clos == B.Clos && A.Konts == B.Konts;
  }
  friend bool operator!=(const PackedCpsVal &A, const PackedCpsVal &B) {
    return !(A == B);
  }

  uint64_t hashValue() const {
    uint64_t H = D::hash(Num);
    hashCombine(H, Clos.hashValue());
    hashCombine(H, Konts.hashValue());
    return H;
  }
};

} // namespace domain
} // namespace cpsflow

#endif // CPSFLOW_DOMAIN_PACKEDSET_H
