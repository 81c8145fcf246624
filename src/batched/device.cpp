#include "batched/device.hpp"

#include <iostream>

#include "backend/registry.hpp"

namespace h2sketch::batched {

ExecutionContext::ExecutionContext() : ExecutionContext(backend::default_backend()) {}

ExecutionContext::ExecutionContext(backend::LaunchMode mode)
    : ExecutionContext(backend::ExecutionConfig{backend::default_backend().device, mode}) {}

ExecutionContext::ExecutionContext(backend::ExecutionConfig config)
    : device_(std::move(config.device)), mode_(config.mode), workspace_(device_) {
  H2S_CHECK(device_ != nullptr, "ExecutionContext: null device backend");
}

ExecutionContext::~ExecutionContext() {
  try {
    sync_all();
  } catch (const std::exception& e) {
    // A launch failed and nobody synced: surfaced here as a last resort.
    std::cerr << "ExecutionContext: unsynced launch failed: " << e.what() << "\n";
  } catch (...) {
    std::cerr << "ExecutionContext: unsynced launch failed\n";
  }
}

index_t ExecutionContext::stream_launches(StreamId s) const {
  H2S_ASSERT(s >= 0 && s < kNumStreams, "invalid stream id");
  return streams_[static_cast<size_t>(s)].launches.load(std::memory_order_acquire);
}

void ExecutionContext::count_stream_launch(StreamId s, index_t n) {
  H2S_ASSERT(s >= 0 && s < kNumStreams, "invalid stream id");
  streams_[static_cast<size_t>(s)].launches.fetch_add(n, std::memory_order_acq_rel);
  launches_.fetch_add(n, std::memory_order_acq_rel);
}

void ExecutionContext::reset_counters() {
  sync_all();
  launches_.store(0, std::memory_order_release);
  for (auto& st : streams_) st.launches.store(0, std::memory_order_release);
}

bool ExecutionContext::stream_idle(StreamId s) const {
  const Stream& st = streams_[static_cast<size_t>(s)];
  std::lock_guard<std::mutex> lk(st.mu);
  return !st.active && st.queue.empty();
}

void ExecutionContext::record_stream_error(StreamId s, std::exception_ptr e) {
  Stream& st = streams_[static_cast<size_t>(s)];
  std::lock_guard<std::mutex> lk(st.mu);
  if (!st.error) st.error = std::move(e);
}

void ExecutionContext::record_launch_event(StreamId s, const char* label, std::int64_t start_ns,
                                           index_t batch, index_t chunks) {
  obs::TraceEvent ev;
  ev.cat = "runtime";
  ev.name = label;
  ev.ts_ns = start_ns;
  ev.dur_ns = obs::trace_now_ns() - start_ns;
  ev.tid = stream_track(s);
  ev.arg_key[0] = "batch";
  ev.arg_val[0] = static_cast<std::uint64_t>(batch);
  ev.arg_key[1] = "chunks";
  ev.arg_val[1] = static_cast<std::uint64_t>(chunks);
  obs::record_event(ev);
}

void ExecutionContext::enqueue_launch(StreamId s, std::function<void(index_t)> body,
                                      std::vector<std::pair<index_t, index_t>> chunks,
                                      const char* label) {
  auto launch = std::make_shared<LaunchState>();
  launch->body = std::move(body);
  launch->chunks = std::move(chunks);
  launch->label = label;

  Stream& st = streams_[static_cast<size_t>(s)];
  bool dispatch_now = false;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    st.queue.push_back(std::move(launch));
    if (!st.active) {
      st.active = true;
      dispatch_now = true;
    }
    // Otherwise the running launch's completion will dispatch us (FIFO).
  }
  if (dispatch_now) dispatch_front(s);
}

void ExecutionContext::dispatch_front(StreamId s) {
  Stream& st = streams_[static_cast<size_t>(s)];
  std::shared_ptr<LaunchState> launch;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    H2S_ASSERT(!st.queue.empty(), "dispatch on empty stream");
    launch = st.queue.front();
  }
  // remaining is set before any chunk is submitted, so the completion count
  // cannot reach zero until every chunk has actually run.
  launch->remaining.store(static_cast<index_t>(launch->chunks.size()),
                          std::memory_order_release);
  if (launch->label) launch->start_ns = obs::trace_now_ns();
  ThreadPool& pool = ThreadPool::global();
  for (const auto& [begin, end] : launch->chunks) {
    pool.submit_detached([this, s, launch, begin = begin, end = end] {
      try {
        // Per-chunk span on the worker's own track; the whole launch also
        // gets a span on the stream track at completion.
        obs::TraceSpan chunk_span("runtime", launch->label ? launch->label : "chunk", "begin",
                                  static_cast<std::uint64_t>(begin), "end",
                                  static_cast<std::uint64_t>(end));
        // Chunk bodies are kernel code: unlock the device heap while they
        // run (no-op on host backends).
        backend::KernelScope ks(device_.get());
        for (index_t i = begin; i < end; ++i) launch->body(i);
      } catch (...) {
        record_stream_error(s, std::current_exception());
      }
      if (launch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) launch_complete(s);
    });
  }
}

void ExecutionContext::launch_complete(StreamId s) {
  Stream& st = streams_[static_cast<size_t>(s)];
  std::shared_ptr<LaunchState> finished;
  bool more;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    finished = std::move(st.queue.front());
    st.queue.pop_front();
    more = !st.queue.empty();
    if (!more) st.active = false;
  }
  if (finished->label && !finished->chunks.empty())
    record_launch_event(s, finished->label, finished->start_ns, finished->chunks.back().second,
                        static_cast<index_t>(finished->chunks.size()));
  if (more)
    dispatch_front(s); // FIFO: next launch starts only now
  else
    ThreadPool::global().notify_waiters(); // wake any sync()
}

void ExecutionContext::sync(StreamId s) {
  H2S_ASSERT(s >= 0 && s < kNumStreams, "invalid stream id");
  Stream& st = streams_[static_cast<size_t>(s)];
  ThreadPool::global().wait_until([this, s] { return stream_idle(s); });
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    e = std::exchange(st.error, nullptr);
  }
  if (e) std::rethrow_exception(e);
}

void ExecutionContext::sync_all() {
  // Drain everything first, then surface the first error found (streams are
  // independent; later streams must still finish before we throw).
  ThreadPool::global().wait_until([this] {
    for (StreamId s = 0; s < kNumStreams; ++s)
      if (!stream_idle(s)) return false;
    return true;
  });
  for (StreamId s = 0; s < kNumStreams; ++s) sync(s);
}

} // namespace h2sketch::batched
