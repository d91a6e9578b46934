//===- support/FaultInjector.h - Test-only fault injection ------*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the containment tests: throw,
/// stall or tear a write at named sites inside the analyzers, the batch
/// driver, the fuzzer and the serve daemon, so tests can prove that one
/// failing program becomes a structured failure record instead of a
/// dead batch, and that the watchdog reclaims a stalled worker.
///
/// The whole facility is compiled out unless CPSFLOW_FAULT_INJECTION is
/// defined (CMake option of the same name; on by default outside
/// Release, off by default in Release and turned on there with
/// -DCPSFLOW_FAULT_INJECTION=ON): the CPSFLOW_FAULT_* macros expand to
/// nothing, so default release binaries carry zero fault-injection code
/// or data. When compiled in, the disarmed fast path is a single relaxed
/// atomic load per site hit.
///
/// Usage (tests):
///
///   fault::ScopedFault F(
///       {fault::Site::BatchWorker, fault::Action::Throw, "bad.scm"});
///   ... run the batch; "bad.scm" fails with an injected logic error ...
///
/// Sites:
///   * AnalyzerGoal — hit once per proof goal with the goal ordinal;
///     trips when the ordinal equals Plan.AtCount (deterministic across
///     thread counts and runs).
///   * BatchWorker — hit at the top of a batch worker body with the
///     program name; trips when the name matches Plan.Name ("" = every
///     program).
///   * FuzzOracle — hit at the top of each fuzz oracle check with the
///     oracle tag ("O1".."O7"); trips when the tag matches Plan.Name
///     ("" = every oracle). The fuzz checker turns the injected throw
///     into a reported oracle violation, so tests (and the nightly
///     canary) can prove the campaign's detect → shrink → replay path
///     works end to end.
///   * ServeWorker — hit at the top of a serve worker's analysis body
///     with the request ordinal; trips at Plan.AtCount or every
///     Plan.Every requests. The throw or bad_alloc becomes an
///     `internal` or `memory` error response; the pool lives.
///   * ServeHandler — hit in the serve worker loop before the request
///     handler runs, with the request id; counted like ServeWorker.
///     Contained at handler level (Stall fodder for deadline tests).
///   * CacheWrite — queried by the result cache's store() with the
///     entry's file name (hex cache-key hash; Plan.Name "" = every
///     entry). Only the Tear action applies, and it is cooperative:
///     nothing throws, shouldTear() reports true and store() publishes
///     a half-written frame, which the next lookup() quarantines as
///     corrupt. ServeTest.TornCacheWriteDegradesToUncachedService
///     arms this site.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_SUPPORT_FAULTINJECTOR_H
#define CPSFLOW_SUPPORT_FAULTINJECTOR_H

#include <cstdint>
#include <string>

#ifdef CPSFLOW_FAULT_INJECTION
#include <atomic>
#include <chrono>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>
#endif

namespace cpsflow {
namespace fault {

/// Where a fault can fire.
enum class Site : uint8_t {
  AnalyzerGoal, ///< analyzer goal prologue (counted)
  BatchWorker,  ///< batch worker body entry (named)
  FuzzOracle,   ///< fuzz oracle check entry (named by oracle, e.g. "O2")
  ServeWorker,  ///< serve worker request body entry (counted per request)
  ServeHandler, ///< serve handler prologue (counted; Stall fodder)
  CacheWrite,   ///< result-cache entry write (named by cache key; Tear)
};

/// What firing does.
enum class Action : uint8_t {
  Throw,    ///< throw std::logic_error("injected fault: ...")
  BadAlloc, ///< throw std::bad_alloc (simulated allocation failure)
  Stall,    ///< sleep StallMs (simulated hang; watchdog fodder)
  Tear,     ///< cooperative: shouldTear() reports true and the site
            ///< simulates a torn/partial write (the cache's crash model)
};

/// One armed fault.
struct Plan {
  Site Where = Site::BatchWorker;
  Action What = Action::Throw;
  std::string Name;      ///< BatchWorker/CacheWrite: name; "" matches all
  uint64_t AtCount = 1;  ///< counted sites: fire when ordinal == AtCount
  uint64_t Every = 0;    ///< counted sites: additionally fire when
                         ///< ordinal % Every == 0 (0 = off; soak mode)
  uint32_t StallMs = 0;  ///< Stall duration
};

#ifdef CPSFLOW_FAULT_INJECTION

namespace detail {
inline std::atomic<bool> Armed{false};
inline std::mutex M;
inline std::vector<Plan> Plans;

[[noreturn]] inline void raise(const Plan &P, const std::string &What) {
  if (P.What == Action::BadAlloc)
    throw std::bad_alloc();
  throw std::logic_error("injected fault: " + What);
}

inline void fire(const Plan &P, const std::string &What) {
  if (P.What == Action::Stall) {
    std::this_thread::sleep_for(std::chrono::milliseconds(P.StallMs));
    return;
  }
  raise(P, What);
}
} // namespace detail

/// Arms \p P (in addition to any already armed).
inline void arm(Plan P) {
  std::lock_guard<std::mutex> Lock(detail::M);
  detail::Plans.push_back(std::move(P));
  detail::Armed.store(true, std::memory_order_relaxed);
}

/// Disarms everything.
inline void disarmAll() {
  std::lock_guard<std::mutex> Lock(detail::M);
  detail::Plans.clear();
  detail::Armed.store(false, std::memory_order_relaxed);
}

/// Site hit keyed by name (BatchWorker). Tear plans never fire here —
/// they are cooperative and only answer shouldTear().
inline void hitNamed(Site S, const std::string &Name) {
  if (!detail::Armed.load(std::memory_order_relaxed))
    return;
  Plan Hit;
  bool Found = false;
  {
    std::lock_guard<std::mutex> Lock(detail::M);
    for (const Plan &P : detail::Plans)
      if (P.Where == S && P.What != Action::Tear &&
          (P.Name.empty() || P.Name == Name)) {
        Hit = P;
        Found = true;
        break;
      }
  }
  if (Found)
    detail::fire(Hit, Name); // outside the lock: may stall or throw
}

/// Site hit keyed by ordinal (AnalyzerGoal, ServeWorker, ServeHandler).
/// A plan fires at an exact ordinal (AtCount) or periodically (Every).
inline void hitCounted(Site S, uint64_t Ordinal) {
  if (!detail::Armed.load(std::memory_order_relaxed))
    return;
  Plan Hit;
  bool Found = false;
  {
    std::lock_guard<std::mutex> Lock(detail::M);
    for (const Plan &P : detail::Plans)
      if (P.Where == S && P.What != Action::Tear &&
          ((P.AtCount && P.AtCount == Ordinal) ||
           (P.Every && Ordinal % P.Every == 0))) {
        Hit = P;
        Found = true;
        break;
      }
  }
  if (Found)
    detail::fire(Hit, "goal " + std::to_string(Ordinal));
}

/// Cooperative torn-write query (CacheWrite): true when a Tear plan
/// matches \p Name. The caller simulates the crash-mid-write itself —
/// the injector cannot usefully throw halfway through an I/O sequence.
inline bool shouldTear(Site S, const std::string &Name) {
  if (!detail::Armed.load(std::memory_order_relaxed))
    return false;
  std::lock_guard<std::mutex> Lock(detail::M);
  for (const Plan &P : detail::Plans)
    if (P.Where == S && P.What == Action::Tear &&
        (P.Name.empty() || P.Name == Name))
      return true;
  return false;
}

/// RAII arming for tests.
class ScopedFault {
public:
  explicit ScopedFault(Plan P) { arm(std::move(P)); }
  ~ScopedFault() { disarmAll(); }
  ScopedFault(const ScopedFault &) = delete;
  ScopedFault &operator=(const ScopedFault &) = delete;
};

#define CPSFLOW_FAULT_NAMED(S, N) ::cpsflow::fault::hitNamed(S, N)
#define CPSFLOW_FAULT_COUNTED(S, C) ::cpsflow::fault::hitCounted(S, C)
#define CPSFLOW_FAULT_TEARS(S, N) ::cpsflow::fault::shouldTear(S, N)

#else // !CPSFLOW_FAULT_INJECTION

#define CPSFLOW_FAULT_NAMED(S, N) ((void)0)
#define CPSFLOW_FAULT_COUNTED(S, C) ((void)0)
#define CPSFLOW_FAULT_TEARS(S, N) (false)

#endif // CPSFLOW_FAULT_INJECTION

} // namespace fault
} // namespace cpsflow

#endif // CPSFLOW_SUPPORT_FAULTINJECTOR_H
