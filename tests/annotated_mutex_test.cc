#include "common/annotated_mutex.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

// Behavior tests for the capability-annotated mutex layer. Two jobs:
// (1) prove the wrappers are functionally identical to the std primitives
// they replace — mutual exclusion, TryLock contention semantics, CondVar
// wakeups — including under TSan (this test is in the tsan suite); (2) pin
// the GCC no-op expansion: this file compiles in every build-matrix config
// with the annotations active only under clang, so a macro that stopped
// expanding cleanly would break the whole matrix, not just the TSA row.

namespace roicl {
namespace {

TEST(AnnotatedMutexTest, MutualExclusionUnderContention) {
  Mutex mu;
  int counter = 0;  // guarded by mu by convention (locals can't annotate)
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(AnnotatedMutexTest, TryLockFailsWhileHeldSucceedsAfterRelease) {
  Mutex mu;
  mu.Lock();
  // Another thread must observe the mutex as busy...
  bool acquired_while_held = true;
  std::thread prober([&mu, &acquired_while_held] {
    acquired_while_held = mu.TryLock();
    if (acquired_while_held) mu.Unlock();
  });
  prober.join();
  EXPECT_FALSE(acquired_while_held);
  mu.Unlock();
  // ...and as free after release.
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(AnnotatedMutexTest, CondVarWakesWaiterOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool observed = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    observed = true;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(AnnotatedMutexTest, CondVarNotifyAllReleasesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woke = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++woke;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& thread : waiters) thread.join();
  EXPECT_EQ(woke, kWaiters);
}

TEST(AnnotatedMutexTest, WaitReacquiresBeforeReturning) {
  // The REQUIRES(mu) contract on Wait promises the mutex is held again
  // when it returns: a waiter that increments right after Wait must never
  // race the notifier's own locked increment.
  Mutex mu;
  CondVar cv;
  int phase = 0;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (phase != 1) cv.Wait(mu);
    phase = 2;  // still under mu — would be a TSan race otherwise
  });
  {
    MutexLock lock(mu);
    phase = 1;
  }
  cv.NotifyOne();
  waiter.join();
  MutexLock lock(mu);
  EXPECT_EQ(phase, 2);
}

}  // namespace
}  // namespace roicl
