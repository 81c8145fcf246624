#pragma once

#include "common/thread_pool.hpp"
#include "common/types.hpp"

/// \file parallel.hpp
/// Shared-memory parallel loop wrappers. `parallel_for` is a thin shim over
/// the persistent work-stealing pool (thread_pool.hpp): no per-launch
/// fork/join, cooperative waiting, chunk boundaries derived from the trip
/// count only (bitwise-deterministic for any thread count).

namespace h2sketch {

/// Requested parallel width: one process-wide value, initialized from
/// $H2SKETCH_NUM_THREADS (else the host's hardware threads) and changed
/// in-process with set_num_threads. Re-read at every parallel region, so a
/// change takes effect at the next launch (the thread-count-varying
/// determinism and scaling tests depend on this).
int num_threads();

/// Set the parallel width for the whole process (n >= 1).
void set_num_threads(int n);

/// Apply f(i) for i in [0, n) on the persistent pool.
/// f must be safe to run concurrently for distinct i.
template <typename F>
void parallel_for(index_t n, F&& f) {
  ThreadPool::global().parallel_for(n, std::forward<F>(f));
}

/// Serial loop with the same shape (the Naive backend uses this so both
/// backends share call sites).
template <typename F>
void serial_for(index_t n, F&& f) {
  for (index_t i = 0; i < n; ++i) f(i);
}

} // namespace h2sketch
