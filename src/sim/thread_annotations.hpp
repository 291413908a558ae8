// Clang thread-safety annotation vocabulary for the multithreaded code.
//
// The concurrency contract (DESIGN.md §4.9) is mostly *structural*: the
// sharded fabric's controller state is touched only by the shard that
// owns it, and the harness thread pool captures its first error under a
// mutex.  None of that is visible to the compiler from the types alone,
// so this header wraps Clang's capability analysis (-Wthread-safety) in
// NM_* macros that expand to nothing under other compilers.  The Clang CI
// job builds the tree with -Wthread-safety -Wthread-safety-beta -Werror,
// turning contract violations — a controller-only method called without
// the controller role, a guarded member touched without its mutex — into
// compile errors.
//
// Three kinds of capability are used in the tree:
//  * Mutex / MutexLock — an annotated std::mutex wrapper.  libstdc++'s
//    std::mutex carries no capability attributes, so NM_GUARDED_BY on a
//    member only analyzes if the guarding mutex is this wrapper.
//  * Role — a phantom (zero-state) capability naming a structural right,
//    e.g. "I am the fabric controller".  Acquiring a RoleGuard
//    documents and checks the claim; it compiles to nothing.
//  * NM_ASSERT_CAPABILITY via Role::assert_held() — used inside lambdas.
//    Clang's analysis is intraprocedural and treats a lambda body as a
//    separate function, so a capability held by the enclosing scope is
//    invisible inside the lambda; assert_held() re-states it.
#pragma once

#include <mutex>

#if defined(__clang__)
#define NM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define NM_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define NM_CAPABILITY(x) NM_THREAD_ANNOTATION(capability(x))
#define NM_SCOPED_CAPABILITY NM_THREAD_ANNOTATION(scoped_lockable)
#define NM_GUARDED_BY(x) NM_THREAD_ANNOTATION(guarded_by(x))
#define NM_PT_GUARDED_BY(x) NM_THREAD_ANNOTATION(pt_guarded_by(x))
#define NM_REQUIRES(...) \
  NM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define NM_ACQUIRE(...) NM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define NM_RELEASE(...) NM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define NM_TRY_ACQUIRE(...) \
  NM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define NM_EXCLUDES(...) NM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define NM_ASSERT_CAPABILITY(x) NM_THREAD_ANNOTATION(assert_capability(x))
#define NM_RETURN_CAPABILITY(x) NM_THREAD_ANNOTATION(lock_returned(x))
#define NM_NO_THREAD_SAFETY_ANALYSIS \
  NM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace nicmcast::sim {

/// std::mutex with capability attributes so NM_GUARDED_BY members are
/// actually analyzed.  Same cost as std::mutex; lock/unlock inline away.
class NM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NM_ACQUIRE() { mu_.lock(); }
  void unlock() NM_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() NM_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

/// std::lock_guard for Mutex, visible to the capability analysis.
class NM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A phantom capability: no state, no blocking — purely a name for a
/// structural right ("fabric controller").
/// Methods annotated NM_REQUIRES(role) can only be called from scopes that
/// hold a RoleGuard on (or assert) that role; under Clang the claim is
/// checked, everywhere it compiles to nothing.
class NM_CAPABILITY("role") Role {
 public:
  Role() = default;
  Role(const Role&) = delete;
  Role& operator=(const Role&) = delete;

  /// Declares the role taken by the current scope.  Prefer RoleGuard.
  void acquire() const NM_ACQUIRE() {}
  void release() const NM_RELEASE() {}

  /// Re-states a role that the surrounding structure already guarantees —
  /// the entry point of a worker lambda, a callback that only ever runs on
  /// the owning shard.  Clang's analysis does not see through lambda
  /// boundaries, so worker-lambda bodies start from an empty capability
  /// set and must assert the roles their spawner established.
  void assert_held() const NM_ASSERT_CAPABILITY(this) {}
};

/// Scoped claim of a Role (the MutexLocker pattern from the Clang docs):
/// construction acquires the phantom capability, destruction releases it.
class NM_SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(const Role& role) NM_ACQUIRE(role) { (void)role; }
  ~RoleGuard() NM_RELEASE() {}

  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;
};

}  // namespace nicmcast::sim
