#pragma once

#include <functional>

#include "runctl/control.hpp"

namespace xlp::util {

/// Number of hardware threads, never less than 1 (hardware_concurrency()
/// is allowed to return 0 on exotic platforms).
[[nodiscard]] int hardware_threads() noexcept;

/// The process-wide default worker count used when a caller asks for 0
/// threads. Resolution order: the last set_default_thread_count() call
/// (the CLI's --threads flag), then the XLP_THREADS environment variable,
/// then hardware_threads(). Always >= 1.
[[nodiscard]] int default_thread_count() noexcept;

/// Installs a process-wide override for default_thread_count(); values
/// below 1 clear the override (back to XLP_THREADS / hardware).
void set_default_thread_count(int threads) noexcept;

/// Maps a user-facing thread request to an actual worker count:
/// `requested <= 0` means "use the default", anything else is clamped to
/// at least 1. ThreadPool additionally caps it by the item count.
[[nodiscard]] int resolve_thread_count(int requested) noexcept;

/// Fixed-size pool of worker threads for embarrassingly parallel loops.
///
/// Determinism contract: parallel_for never lets the thread count or the
/// scheduling order influence *what* is computed — work item i always sees
/// the same inputs and writes only its own slot. Any randomness must be
/// forked per item *before* dispatch (see Rng::fork).
/// A pool never has more workers than items: a pool of size 1 (one
/// thread requested, or one item) spawns no threads at all and runs every
/// item inline on the calling thread, in index order — bit-identical to a
/// plain loop.
///
/// Exceptions: if work items throw, the exception of the lowest-indexed
/// failing item is rethrown on the calling thread after all workers have
/// finished (lowest index, not first-in-time, so failures are
/// deterministic too).
///
/// Cancellation: when a RunControl is passed, the pool stops *dispatching*
/// new items once a stop is requested; items already running are left to
/// finish (they are expected to poll the same control internally).
/// parallel_for returns false in that case so the caller knows the loop
/// is incomplete.
class ThreadPool {
 public:
  /// Sized for `items` work items: min(resolve_thread_count(threads),
  /// items) workers, at least 1, so `threads <= 0` means
  /// default_thread_count() and a one-item pool runs inline. The workers
  /// are started eagerly and live until destruction; keep pools scoped to
  /// the parallel phase so profiler snapshots never observe a live worker.
  ThreadPool(int threads, long items);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept { return threads_; }

  /// Runs fn(i) for every i in [0, count), distributing items dynamically
  /// over the workers (atomic counter; an idle worker grabs the next
  /// index). Blocks until every dispatched item finished. Returns true
  /// when all `count` items ran, false when a cancellation skipped the
  /// tail. Rethrows the lowest-index exception, if any.
  bool parallel_for(long count, const std::function<void(long)>& fn,
                    runctl::RunControl* control = nullptr);

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // null for the inline (size-1) pool
  int threads_ = 1;
};

}  // namespace xlp::util
