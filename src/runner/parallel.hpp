// Parallel execution primitives (DESIGN.md §5.3).  A simulation itself is
// serial; these run independent work beside it.
//
//  * run_trials — benches fan independent trials (one protocol run, one
//    topology size, one ablation arm) across a transient thread pool.
//    Determinism contract: a trial's inputs may depend only on its index —
//    seed every trial with util::derive_seed(base, index), never from a
//    shared generator — and a trial must not print (the caller formats
//    results after the join).  Under that contract results are collected by
//    index and the output is bit-identical for any thread count, including 1.
//
//  * WorkerPool / parallel_for_deterministic — a persistent pool, used by
//    the serving plane's query lanes (serve/query_bench).
//    parallel_for_deterministic is a barrier primitive: it distributes
//    body(0..count-1) over the workers plus the calling thread and returns
//    only when every index completed, with a full happens-before edge
//    between the bodies and the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace centaur::runner {

/// Trial-driver worker count: CENTAUR_THREADS if set and valid (strict
/// parse, clamped to >= 1, garbage warns once and is ignored), else the
/// hardware concurrency, else 1.
std::size_t threads_from_env();

/// Thrown by run_trials when a trial fails.  Carries which trial threw
/// first (lowest index among trials that ran and failed — the index a
/// serial run would have thrown at, unless a later-index racing worker was
/// the only failure) and how many trials completed, so a caller that
/// catches it cannot mistake the default-constructed slots of unfinished
/// trials for real results (e.g. by serializing zeroed metrics into a
/// BENCH JSON report).  The original exception is preserved as the nested
/// exception (std::rethrow_if_nested).
class TrialFailure : public std::runtime_error {
 public:
  TrialFailure(std::size_t failed_index, std::size_t completed,
               std::size_t total, const std::string& what_original)
      : std::runtime_error("trial " + std::to_string(failed_index) +
                           " failed (" + std::to_string(completed) + "/" +
                           std::to_string(total) +
                           " trials completed; unfinished slots hold "
                           "default-constructed results): " + what_original),
        failed_index_(failed_index),
        completed_(completed) {}

  std::size_t failed_index() const { return failed_index_; }
  /// Trials that ran to completion (their result slots are valid).
  std::size_t completed() const { return completed_; }

 private:
  std::size_t failed_index_;
  std::size_t completed_;
};

/// Persistent worker pool for deterministic fork/join sections.
///
/// Construction spawns `threads - 1` workers (the calling thread is the
/// last worker of every parallel_for_deterministic call); `threads <= 1`
/// spawns nothing and parallel_for_deterministic degenerates to an inline
/// serial loop.  The pool is reusable across any number of sections but a
/// single section may be in flight at a time (one owner, which runs
/// sections strictly sequentially).
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total execution lanes (spawned workers + the calling thread).
  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs body(0) .. body(count-1), distributed over the lanes via a shared
  /// claim counter, and blocks until all of them finished (the barrier).
  /// Determinism contract: bodies must be independent — no body may read
  /// state another body writes — so claim order cannot be observed.  If a
  /// body throws, remaining unclaimed indices are skipped and the exception
  /// of the lowest-index failed body that ran is rethrown at the barrier.
  void parallel_for_deterministic(std::size_t count,
                                  const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void run_body(std::size_t index);
  /// Claims and runs indices until exhausted or a failure is flagged.
  void drain();

  std::mutex mu_;
  std::condition_variable start_cv_;  // workers wait for a new section
  std::condition_variable done_cv_;   // the caller waits for the barrier
  std::uint64_t generation_ = 0;      // bumps once per section
  bool stop_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t active_ = 0;  // workers still inside the current section
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::size_t error_index_ = 0;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

/// Runs `fn(0) .. fn(count-1)` on up to `threads` workers and returns the
/// results ordered by trial index.  `threads <= 1` runs inline on the
/// calling thread (the serial reference).  Workers claim indices from a
/// shared counter, so uneven trial durations load-balance.
///
/// Failure: if any trial throws, the remaining workers stop claiming new
/// trials and a TrialFailure is thrown after all workers join, nesting the
/// original exception.  Result slots of trials that never ran stay
/// default-constructed — they are unreachable through the normal return
/// (the throw replaces it), and TrialFailure::completed() tells a catching
/// caller how much of the vector would have been real.
template <typename Fn>
auto run_trials(std::size_t count, std::size_t threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(std::is_default_constructible_v<Result>,
                "trial results are collected into a pre-sized vector");
  std::vector<Result> results(count);
  if (count == 0) return results;

  if (threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        results[i] = fn(i);
      } catch (const std::exception& e) {
        std::throw_with_nested(TrialFailure(i, i, count, e.what()));
      } catch (...) {
        std::throw_with_nested(TrialFailure(i, i, count, "unknown error"));
      }
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::size_t error_index = 0;
  std::string error_what;
  std::mutex error_mu;
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        results[i] = fn(i);
        completed.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        // Keep the lowest-index failure: that is the trial a serial run
        // would have thrown at (among the trials that ran).
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
          try {
            throw;
          } catch (const std::exception& e) {
            error_what = e.what();
          } catch (...) {
            error_what = "unknown error";
          }
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  const std::size_t workers = threads < count ? threads : count;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (...) {
      std::throw_with_nested(TrialFailure(
          error_index, completed.load(std::memory_order_relaxed), count,
          error_what));
    }
  }
  return results;
}

/// Convenience overload using CENTAUR_THREADS / hardware concurrency.
template <typename Fn>
auto run_trials(std::size_t count, Fn&& fn) {
  return run_trials(count, threads_from_env(), std::forward<Fn>(fn));
}

}  // namespace centaur::runner
