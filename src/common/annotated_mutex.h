#ifndef ROICL_COMMON_ANNOTATED_MUTEX_H_
#define ROICL_COMMON_ANNOTATED_MUTEX_H_

#include <condition_variable>
#include <mutex>

/// \file
/// Capability-annotated mutex wrappers for Clang Thread Safety Analysis.
///
/// Every mutex in `src/` goes through `roicl::Mutex` / `roicl::MutexLock` /
/// `roicl::CondVar` instead of the raw `std::` primitives, and every member
/// they guard declares its lock with `ROICL_GUARDED_BY`. Under clang with
/// `-Wthread-safety` (the `ROICL_TSA` CMake mode) the compiler then proves,
/// per translation unit, that no guarded member is touched without its
/// mutex, that lock acquisition respects any declared ordering, and that
/// every acquire has a matching release on all paths — *static* race
/// detection over all code paths, complementing TSan, which only sees the
/// interleavings a test happens to execute.
///
/// Under GCC (and any non-clang compiler) every `ROICL_*` annotation macro
/// expands to nothing and the wrappers compile down to the exact
/// `std::mutex` / `std::condition_variable` calls they replace — zero
/// runtime or layout cost.
///
/// Condition-variable waits are written as explicit while loops
/// (`while (!pred) cv_.Wait(mu_);`) rather than predicate lambdas: the
/// analysis checks a lambda body as a separate function that holds no
/// capabilities, so a `[this] { return !queue_.empty(); }` predicate would
/// read a guarded member "without" the lock. The while-loop form keeps the
/// wait in the scope that provably holds the mutex.
///
/// `tools/lint/check_lock_discipline.sh` enforces the discipline tree-wide:
/// no raw `std::mutex` outside this header, and every `Mutex` member is
/// referenced by at least one `ROICL_GUARDED_BY`/`ROICL_REQUIRES`.
/// `tools/tsa/` holds compile-fail fixtures proving the analysis fires; see
/// DESIGN.md, "Concurrency contracts".

// Thread-safety attributes are a clang extension. `capability` appeared in
// clang 3.6, long before the C++20 floor of this repo, so a plain __clang__
// test is sufficient; __has_attribute double-checks against exotic
// clang-derived compilers that strip the analysis.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ROICL_TSA_ATTR_(x) __attribute__((x))
#endif
#endif
#ifndef ROICL_TSA_ATTR_
#define ROICL_TSA_ATTR_(x)  // non-clang: annotations compile away
#endif

/// Declares a class to be a lockable capability (e.g. a mutex wrapper).
#define ROICL_CAPABILITY(x) ROICL_TSA_ATTR_(capability(x))
/// Declares an RAII class whose lifetime acquires/releases a capability.
#define ROICL_SCOPED_CAPABILITY ROICL_TSA_ATTR_(scoped_lockable)
/// Declares that a member may only be accessed while holding `x`.
#define ROICL_GUARDED_BY(x) ROICL_TSA_ATTR_(guarded_by(x))
/// Declares that the data a pointer member points to is guarded by `x`.
#define ROICL_PT_GUARDED_BY(x) ROICL_TSA_ATTR_(pt_guarded_by(x))
/// Declares a lock-ordering edge: this mutex is acquired before `...`.
#define ROICL_ACQUIRED_BEFORE(...) \
  ROICL_TSA_ATTR_(acquired_before(__VA_ARGS__))
/// Declares a lock-ordering edge: this mutex is acquired after `...`.
#define ROICL_ACQUIRED_AFTER(...) \
  ROICL_TSA_ATTR_(acquired_after(__VA_ARGS__))
/// The caller must hold the listed capabilities (they are not acquired).
#define ROICL_REQUIRES(...) \
  ROICL_TSA_ATTR_(requires_capability(__VA_ARGS__))
/// The function acquires the listed capabilities and holds them on return.
#define ROICL_ACQUIRE(...) ROICL_TSA_ATTR_(acquire_capability(__VA_ARGS__))
/// The function releases the listed capabilities.
#define ROICL_RELEASE(...) ROICL_TSA_ATTR_(release_capability(__VA_ARGS__))
/// The function acquires the capability iff it returns the first argument
/// (e.g. `ROICL_TRY_ACQUIRE(true)` on a bool TryLock()).
#define ROICL_TRY_ACQUIRE(...) \
  ROICL_TSA_ATTR_(try_acquire_capability(__VA_ARGS__))
/// The caller must NOT hold the listed capabilities (deadlock guard for
/// functions that acquire them internally).
#define ROICL_EXCLUDES(...) ROICL_TSA_ATTR_(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (trusted by the analysis).
#define ROICL_ASSERT_CAPABILITY(x) ROICL_TSA_ATTR_(assert_capability(x))
/// The function returns a reference to the given capability.
#define ROICL_RETURN_CAPABILITY(x) ROICL_TSA_ATTR_(lock_returned(x))
/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the contract cannot be expressed.
#define ROICL_NO_THREAD_SAFETY_ANALYSIS \
  ROICL_TSA_ATTR_(no_thread_safety_analysis)

namespace roicl {

/// `std::mutex` wrapped as a Thread Safety Analysis capability. Same cost,
/// same semantics; the wrapper exists so lock/unlock sites carry the
/// ACQUIRE/RELEASE contract the analysis checks against.
class ROICL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ROICL_ACQUIRE() { mu_.lock(); }
  void Unlock() ROICL_RELEASE() { mu_.unlock(); }
  bool TryLock() ROICL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // Wait() needs the underlying handle
  std::mutex mu_;
};

/// RAII lock for `Mutex` — the annotated `std::lock_guard`. Scoped
/// acquisition is the only pattern library code uses; bare Lock()/Unlock()
/// pairs are for the wrappers themselves and for compile-fail fixtures.
class ROICL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ROICL_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() ROICL_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with `Mutex`. `Wait` requires the mutex held
/// (it is atomically released for the duration of the wait and re-acquired
/// before returning, exactly like `std::condition_variable::wait`); the
/// REQUIRES contract makes the held-before/held-after obligation explicit
/// to the analysis. Always wait in a loop:
///   while (!condition) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) ROICL_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so the capability bookkeeping stays
    // with the caller's scope.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace roicl

#endif  // ROICL_COMMON_ANNOTATED_MUTEX_H_
