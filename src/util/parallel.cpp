#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace xlp::util {

namespace {

std::atomic<int> g_thread_override{0};

int env_thread_count() noexcept {
  if (const char* env = std::getenv("XLP_THREADS")) {
    const int value = std::atoi(env);
    if (value >= 1) return value;
  }
  return 0;
}

}  // namespace

int hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n >= 1 ? static_cast<int>(n) : 1;
}

int default_thread_count() noexcept {
  const int override = g_thread_override.load(std::memory_order_relaxed);
  if (override >= 1) return override;
  if (const int env = env_thread_count(); env >= 1) return env;
  return hardware_threads();
}

void set_default_thread_count(int threads) noexcept {
  g_thread_override.store(threads >= 1 ? threads : 0,
                          std::memory_order_relaxed);
}

int resolve_thread_count(int requested) noexcept {
  return requested <= 0 ? default_thread_count() : requested;
}

/// Worker-side state of one parallel_for call. The pool reuses its threads
/// across calls; each call installs a fresh Job, wakes the workers, and
/// waits until every dispatched item has finished.
struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;    // workers wait here for a job
  std::condition_variable done;    // parallel_for waits here for completion
  std::vector<std::thread> workers;

  // Current job; guarded by mutex except where noted.
  const std::function<void(long)>* fn = nullptr;
  runctl::RunControl* control = nullptr;
  long count = 0;
  std::atomic<long> next{0};       // dispatch counter (lock-free hot path)
  long active = 0;                 // workers currently inside the job
  std::uint64_t generation = 0;    // bumped per job so workers never rerun one
  bool shutdown = false;

  // Lowest-index exception of the job, if any.
  long error_index = -1;
  std::exception_ptr error;

  void record_error(long index, std::exception_ptr e) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (error_index < 0 || index < error_index) {
      error_index = index;
      error = std::move(e);
    }
  }

  /// Claims and runs items until the range is exhausted or a stop is
  /// requested. `my_control` must be a private copy per worker (the poll
  /// stride inside RunControl is not shareable).
  void drain(runctl::RunControl my_control, bool has_control) {
    while (true) {
      if (has_control && my_control.stop_requested()) return;
      const long i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        (*fn)(i);
      } catch (...) {
        record_error(i, std::current_exception());
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(long)>* job;
      runctl::RunControl my_control;
      bool has_control;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
        job = fn;
        has_control = control != nullptr;
        if (has_control) my_control = *control;
        ++active;
      }
      if (job != nullptr) drain(my_control, has_control);
      {
        const std::lock_guard<std::mutex> lock(mutex);
        --active;
      }
      done.notify_one();
    }
  }
};

ThreadPool::ThreadPool(int threads, long items) {
  threads_ = static_cast<int>(
      std::min<long>(resolve_thread_count(threads), items));
  if (threads_ <= 1) {
    threads_ = 1;
    return;  // inline pool: no workers, no Impl
  }
  impl_ = new Impl;
  impl_->workers.reserve(static_cast<std::size_t>(threads_));
  try {
    for (int i = 0; i < threads_; ++i)
      impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  } catch (...) {
    // Thread creation failed (resource limits): keep whatever started.
    if (impl_->workers.empty()) {
      delete impl_;
      impl_ = nullptr;
      threads_ = 1;
    } else {
      threads_ = static_cast<int>(impl_->workers.size());
    }
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->wake.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

bool ThreadPool::parallel_for(long count,
                              const std::function<void(long)>& fn,
                              runctl::RunControl* control) {
  XLP_REQUIRE(count >= 0, "parallel_for needs a non-negative item count");
  if (count == 0) return true;

  if (impl_ == nullptr) {
    // Sequential path: index order, no threads — bit-identical to a loop.
    runctl::RunControl my_control;
    if (control != nullptr) my_control = *control;
    long i = 0;
    for (; i < count; ++i) {
      if (control != nullptr && my_control.stop_requested()) break;
      fn(i);
    }
    return i == count;
  }

  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->fn = &fn;
    impl_->control = control;
    impl_->count = count;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->error_index = -1;
    impl_->error = nullptr;
    ++impl_->generation;
  }
  impl_->wake.notify_all();

  // The calling thread works too: one extra lane, and a pool used from a
  // pool-less context still makes progress if workers are saturated.
  runctl::RunControl my_control;
  if (control != nullptr) my_control = *control;
  impl_->drain(my_control, control != nullptr);

  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->done.wait(lock, [&] { return impl_->active == 0; });
  impl_->fn = nullptr;
  impl_->control = nullptr;
  const bool complete =
      impl_->next.load(std::memory_order_relaxed) >= count &&
      impl_->error_index < 0;
  if (impl_->error) {
    std::exception_ptr e = impl_->error;
    impl_->error = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
  return complete;
}

}  // namespace xlp::util
