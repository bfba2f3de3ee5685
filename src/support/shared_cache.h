// SharedCache<T>: a lazily built, immutable value shared by copies of its
// owner.
//
// The first get() builds the value under the lock and publishes it; every
// later get() is one acquire load. Copies share the built value (it is
// immutable), moves transfer it, and reset() drops it — both are mutations
// of the owner and, like every build phase in Lumos, single-threaded by
// contract. This is the double-checked publication ExecutionGraph uses for
// its adjacency index and its TaskMetaTable.
#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace lumos {

template <class T>
class SharedCache {
 public:
  SharedCache() = default;
  SharedCache(const SharedCache& other) { set(other.shared()); }
  SharedCache& operator=(const SharedCache& other) {
    if (this != &other) set(other.shared());
    return *this;
  }
  SharedCache(SharedCache&& other) noexcept { set(other.take()); }
  SharedCache& operator=(SharedCache&& other) noexcept {
    if (this != &other) set(other.take());
    return *this;
  }

  /// The value, built by `build()` (returning T) on first use.
  template <class Build>
  const T& get(Build&& build) const LUMOS_EXCLUDES(mutex_) {
    if (const T* v = ptr_.load(std::memory_order_acquire)) return *v;
    MutexLock lock(mutex_);
    if (value_ == nullptr) {
      value_ = std::make_shared<const T>(std::forward<Build>(build)());
      ptr_.store(value_.get(), std::memory_order_release);
    }
    return *value_;
  }

  /// The built value, or null.
  std::shared_ptr<const T> shared() const LUMOS_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return value_;
  }
  bool built() const { return ptr_.load(std::memory_order_acquire); }

  void set(std::shared_ptr<const T> value) LUMOS_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    value_ = std::move(value);
    ptr_.store(value_.get(), std::memory_order_release);
  }
  void reset() { set(nullptr); }

 private:
  std::shared_ptr<const T> take() LUMOS_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    ptr_.store(nullptr, std::memory_order_relaxed);
    return std::move(value_);
  }

  mutable Mutex mutex_;
  mutable std::shared_ptr<const T> value_ LUMOS_GUARDED_BY(mutex_);
  mutable std::atomic<const T*> ptr_{nullptr};
};

}  // namespace lumos
