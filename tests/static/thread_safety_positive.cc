// Compile-only positive half of the thread-safety contract: exercises
// every wrapper and annotation shape the tree relies on, the way the
// tree uses them. Builds on every compiler; under Clang it must also be
// -Wthread-safety clean (hope_warnings adds the flag), so a regression
// in the wrappers' attributes breaks this target before it breaks the
// whole build.
#include <condition_variable>
#include <mutex>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace {

class Annotated {
 public:
  void Set(int v) HOPE_EXCLUDES(mu_) {
    hope::MutexLock lock(mu_);
    value_ = v;
  }

  int Get() const HOPE_EXCLUDES(mu_) {
    hope::MutexLock lock(mu_);
    return value_;
  }

  /// *Locked contract: caller holds the capability.
  void BumpLocked() HOPE_REQUIRES(mu_) { value_++; }

  void Bump() HOPE_EXCLUDES(mu_) {
    hope::MutexLock lock(mu_);
    BumpLocked();
  }

  /// TryLock + adopting RAII, as RefreshShardsLocked does.
  bool TryBump() HOPE_EXCLUDES(mu_) {
    if (!mu_.TryLock()) return false;
    hope::MutexLock lock(mu_, std::adopt_lock);
    value_++;
    return true;
  }

  /// Explicit cv wait loop, as the worker/rebuilder loops do.
  void WaitNonZero() HOPE_EXCLUDES(mu_) {
    hope::UniqueLock lock(mu_);
    while (value_ == 0) cv_.wait(lock.native());
  }

  void Signal() HOPE_EXCLUDES(mu_) {
    {
      hope::MutexLock lock(mu_);
      value_ = 1;
    }
    cv_.notify_all();
  }

 private:
  mutable hope::Mutex mu_;
  std::condition_variable cv_;
  int value_ HOPE_GUARDED_BY(mu_) = 0;
};

class SharedAnnotated {
 public:
  int Read() const HOPE_EXCLUDES(mu_) {
    hope::ReaderLock lock(mu_);
    return value_;
  }

  void Write(int v) HOPE_EXCLUDES(mu_) {
    hope::WriterLock lock(mu_);
    value_ = v;
  }

  bool TryWrite(int v) HOPE_EXCLUDES(mu_) {
    if (!mu_.TryLock()) return false;
    hope::WriterLock lock(mu_, std::adopt_lock);
    value_ = v;
    return true;
  }

 private:
  mutable hope::SharedMutex mu_;
  int value_ HOPE_GUARDED_BY(mu_) = 0;
};

}  // namespace

// Anchor so the object file is never empty and the classes are used.
int ThreadSafetyPositiveAnchor() {
  Annotated a;
  a.Set(1);
  a.Bump();
  (void)a.TryBump();
  a.Signal();
  a.WaitNonZero();
  SharedAnnotated s;
  s.Write(2);
  (void)s.TryWrite(3);
  return a.Get() + s.Read();
}
