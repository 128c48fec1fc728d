// Annotated mutex wrappers.
//
// All lockable members in the tree use prepare::Mutex instead of a bare
// std::mutex (enforced by tools/prepare_analyze.py, rule mutex-type,
// which matches canonical types so an alias cannot hide one): the
// PREPARE_CAPABILITY annotation is what lets
// Clang's -Wthread-safety analysis connect PREPARE_GUARDED_BY members
// to the lock that protects them, turning missing-lock bugs into
// compile errors instead of TSan reports.
//
// Mutex satisfies BasicLockable, so it works directly with
// std::condition_variable_any. Prefer the RAII MutexLock; call
// lock()/unlock() manually only where a scope does not fit
// (condition-variable wait loops).
#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace prepare {

class PREPARE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PREPARE_ACQUIRE() { mu_.lock(); }
  void unlock() PREPARE_RELEASE() { mu_.unlock(); }
  bool try_lock() PREPARE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over a prepare::Mutex (the annotated std::lock_guard).
class PREPARE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PREPARE_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() PREPARE_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace prepare
