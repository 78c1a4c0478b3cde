#include "runner/parallel.hpp"

#include "util/env.hpp"

namespace centaur::runner {

std::size_t threads_from_env() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw > 0 ? hw : 1;
  return util::env_size_t("CENTAUR_THREADS", fallback, /*min_value=*/1);
}

WorkerPool::WorkerPool(std::size_t threads) {
  if (threads <= 1) return;
  workers_.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::run_body(std::size_t index) {
  try {
    (*body_)(index);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!error_ || index < error_index_) {
      error_ = std::current_exception();
      error_index_ = index;
    }
    failed_.store(true, std::memory_order_relaxed);
  }
}

void WorkerPool::drain() {
  while (!failed_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    run_body(i);
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    drain();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerPool::parallel_for_deterministic(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    error_index_ = 0;
    active_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  drain();  // the calling thread is a lane too
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
    body_ = nullptr;
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }
}

}  // namespace centaur::runner
