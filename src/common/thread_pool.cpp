#include "common/thread_pool.hpp"

#include <cstdlib>
#include <utility>

#include "common/parallel.hpp"

namespace h2sketch {

namespace {

/// Worker slot index of the calling thread (SIZE_MAX for external threads).
/// Used so nested submissions land on the submitting worker's own deque.
thread_local size_t t_worker_slot = static_cast<size_t>(-1);
thread_local ThreadPool* t_worker_pool = nullptr;

/// Hard cap on workers: far above any sane H2SKETCH_NUM_THREADS, low enough
/// that a pathological setting cannot exhaust process resources.
constexpr int kMaxWorkers = 256;

/// The process-wide width knob behind num_threads()/set_num_threads().
std::atomic<int>& width_knob() {
  static std::atomic<int> width{[] {
    if (const char* s = std::getenv("H2SKETCH_NUM_THREADS")) {
      const int v = std::atoi(s);
      if (v > 0) return v;
    }
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }()};
  return width;
}

} // namespace

int num_threads() { return width_knob().load(std::memory_order_relaxed); }

void set_num_threads(int n) {
  H2S_CHECK(n >= 1, "set_num_threads: width must be at least 1");
  width_knob().store(n, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

TaskGroup::~TaskGroup() {
  if (!done()) {
    try {
      wait();
    } catch (...) {
      // The error was only observable through wait(); dropping it here is
      // the least-bad option for a destructor.
    }
  }
}

void TaskGroup::run(std::function<void()> fn) { pool_.submit(*this, std::move(fn)); }

void TaskGroup::record_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lk(error_mu_);
  if (!error_) error_ = std::move(e);
}

void TaskGroup::wait() {
  pool_.wait_until([this] { return done(); });
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    e = std::exchange(error_, nullptr);
  }
  if (e) std::rethrow_exception(e);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

ThreadPool& ThreadPool::global() {
  static ThreadPool pool; // intentionally leaked-on-exit-free static
  return pool;
}

ThreadPool::ThreadPool(int forced_width) : forced_width_(forced_width) {
  // The worker array never reallocates: slots are indexed outside
  // workers_mu_ once their existence has been published under it (elements
  // are pointers to heap slots, stable for the pool's lifetime), which is
  // only sound if push_back never moves the buffer.
  workers_.reserve(static_cast<size_t>(kMaxWorkers));
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  notify_waiters();
  // Join without holding workers_mu_: a waking worker takes it inside
  // pop_task on its way out, so joining under the lock deadlocks.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lk(workers_mu_);
    for (auto& w : workers_)
      if (w->thread.joinable()) threads.push_back(std::move(w->thread));
  }
  for (auto& t : threads) t.join();
}

int ThreadPool::width() const {
  return std::clamp(forced_width_ > 0 ? forced_width_ : num_threads(), 1, kMaxWorkers);
}

bool ThreadPool::worker_eligible(size_t slot) const {
  // The submitting/waiting thread is one lane; workers fill the rest. On a
  // width decrease, surplus workers park (their queued tasks are stolen by
  // the remaining lanes), so execution honors the new width.
  return static_cast<int>(slot) + 1 < width();
}

void ThreadPool::ensure_workers(int target) {
  std::lock_guard<std::mutex> lk(workers_mu_);
  while (static_cast<int>(workers_.size()) < target) {
    workers_.push_back(std::make_unique<WorkerSlot>());
    const size_t slot = workers_.size() - 1;
    workers_[slot]->thread = std::thread([this, slot] { worker_loop(slot); });
  }
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> fn) {
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  submit_impl(&group, std::move(fn));
}

void ThreadPool::submit_detached(std::function<void()> fn) { submit_impl(nullptr, std::move(fn)); }

void ThreadPool::submit_impl(TaskGroup* group, std::function<void()> fn) {
  // Width - 1 workers: the submitting/waiting thread is the remaining lane
  // (but always at least one worker, so a submit that races a width change
  // to 1 still has somewhere to go).
  ensure_workers(std::max(1, width() - 1));

  size_t n;
  {
    std::lock_guard<std::mutex> lk(workers_mu_);
    n = workers_.size();
  }
  // Target only the slots the current width activates (stealing still
  // drains stragglers parked on surplus slots after a width decrease).
  const size_t active = std::min(n, static_cast<size_t>(std::max(1, width() - 1)));
  size_t slot;
  // A worker pushes to its own deque (LIFO locality for nested subtasks);
  // external threads spread round-robin.
  if (t_worker_pool == this && t_worker_slot < active)
    slot = t_worker_slot;
  else
    slot = static_cast<size_t>(round_robin_.fetch_add(1, std::memory_order_relaxed)) % active;
  {
    std::lock_guard<std::mutex> lk(workers_[slot]->mu);
    workers_[slot]->deque.push_back(Task{std::move(fn), group});
  }
  queued_.fetch_add(1, std::memory_order_seq_cst);
  // Eventcount-style gate: skip the notify syscall when nobody sleeps.
  // seq_cst on queued_/sleepers_ makes "sleeper missed the queued_ bump but
  // we missed its sleepers_ bump" impossible (a sleeper increments
  // sleepers_ before re-checking queued_ under the wake lock).
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
    }
    // notify_all, not notify_one: a parked surplus worker (ineligible at
    // the current width) waking first would swallow the only notification.
    wake_cv_.notify_all();
  }
}

bool ThreadPool::pop_task(size_t preferred, Task& out) {
  size_t n;
  {
    std::lock_guard<std::mutex> lk(workers_mu_);
    n = workers_.size();
  }
  if (n == 0) return false;
  // Own deque first, from the bottom (LIFO: most recently pushed, hottest).
  if (preferred < n) {
    std::lock_guard<std::mutex> lk(workers_[preferred]->mu);
    if (!workers_[preferred]->deque.empty()) {
      out = std::move(workers_[preferred]->deque.back());
      workers_[preferred]->deque.pop_back();
      return true;
    }
  }
  // Steal from the top (FIFO: the oldest, largest-granularity task).
  for (size_t k = 0; k < n; ++k) {
    const size_t v = (preferred + 1 + k) % n;
    std::lock_guard<std::mutex> lk(workers_[v]->mu);
    if (!workers_[v]->deque.empty()) {
      out = std::move(workers_[v]->deque.front());
      workers_[v]->deque.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(Task& task) {
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  try {
    task.fn();
  } catch (...) {
    // Detached tasks (stream launch chunks) do their own catching; an
    // escape here means a bug, but dropping beats terminating the process.
    if (task.group) task.group->record_error(std::current_exception());
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (task.group && task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the group: wake any thread blocked in wait().
    notify_waiters();
  }
}

bool ThreadPool::try_run_one() {
  const size_t preferred = t_worker_pool == this ? t_worker_slot : static_cast<size_t>(-1);
  Task task;
  if (!pop_task(preferred, task)) return false;
  run_task(task);
  return true;
}

void ThreadPool::wait_until(const std::function<bool()>& idle) {
  for (;;) {
    if (idle()) return;
    if (try_run_one()) continue;
    std::unique_lock<std::mutex> lk(wake_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    wake_cv_.wait(lk, [&] {
      return idle() || queued_.load(std::memory_order_seq_cst) > 0 ||
             stop_.load(std::memory_order_acquire);
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (idle() || stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::notify_waiters() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_all();
}

void ThreadPool::worker_loop(size_t slot) {
  t_worker_slot = slot;
  t_worker_pool = this;
  while (!stop_.load(std::memory_order_acquire)) {
    if (worker_eligible(slot) && try_run_one()) continue;
    std::unique_lock<std::mutex> lk(wake_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    wake_cv_.wait(lk, [&] {
      return (queued_.load(std::memory_order_seq_cst) > 0 && worker_eligible(slot)) ||
             stop_.load(std::memory_order_acquire);
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  t_worker_pool = nullptr;
  t_worker_slot = static_cast<size_t>(-1);
}

} // namespace h2sketch
