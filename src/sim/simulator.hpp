// Discrete-event simulation core.
//
// The paper prototypes Centaur on DistComm, a session-level BGP simulator on
// the SSFNet code base; neither is available, so this is our equivalent
// substrate.  It reproduces the paper's measurement model exactly:
//   * per-link propagation delays (random 0-5 ms in the experiments),
//   * CPU/processing delay ignored,
//   * convergence = quiescence ("no further update messages are sent"),
//   * message counts observed at delivery.
//
// Performance notes (see DESIGN.md §5): events carry a move-only
// UniqueFunction with inline storage, so scheduling a typical delivery
// callback allocates nothing; the binary heap lives in a reservable vector;
// and zero-delay events scheduled for the current timestamp bypass the heap
// through a FIFO burst queue (same-time ties already break by insertion
// order, and every burst event's sequence number is by construction larger
// than any same-time event still in the heap, so the observable order is
// bit-identical to the pure-heap implementation).
//
// Every event runs on the calling thread, in (time, seq) order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/unique_function.hpp"

namespace centaur::sim {

/// Simulated seconds.
using Time = double;

/// Deterministic event queue: ties in time break by insertion order, so a
/// run is a pure function of its inputs.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0).
  void schedule(Time delay, util::UniqueFunction fn);

  /// Schedules `fn` at an absolute time (>= now()).
  void schedule_at(Time when, util::UniqueFunction fn);

  /// Same as schedule(); `node` is ignored.  Kept for callers that name
  /// the node an event belongs to.
  void schedule_tagged(Time delay, std::uint32_t /*node*/,
                       util::UniqueFunction fn) {
    schedule(delay, std::move(fn));
  }

  /// Pre-sizes the event heap (events outstanding at once, not total).
  void reserve(std::size_t events);

  /// Runs events until the queue is empty.  Returns the number of events
  /// processed.  `max_events` guards against livelock in buggy protocols;
  /// exceeding it throws std::runtime_error.
  std::size_t run(std::size_t max_events = 50'000'000);

  /// Runs until the queue is empty or `deadline` is passed (events after
  /// the deadline stay queued).  Returns events processed.  An event
  /// executing exactly at `deadline` may schedule same-instant follow-ups;
  /// those drain before the call returns (the burst FIFO is empty whenever
  /// run_until exits, asserted in debug builds).
  std::size_t run_until(Time deadline, std::size_t max_events = 50'000'000);

  bool idle() const { return heap_.empty() && burst_head_ >= burst_.size(); }
  std::size_t pending() const {
    return heap_.size() + (burst_.size() - burst_head_);
  }

  /// Total events executed over the simulator's lifetime (all run/run_until
  /// calls) — the per-trial event count the bench reports record.
  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    Time at = 0;
    std::uint64_t seq = 0;
    util::UniqueFunction fn;
  };
  /// Heap element: the ordering key plus a handle into heap_fns_.  Keeping
  /// the ~64-byte UniqueFunction out of the heap makes every sift step a
  /// trivial 24-byte copy instead of an indirect move_to call — pop_heap
  /// was ~10% of fig8 wall time with callables stored inline.
  struct HeapItem {
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;  ///< index into heap_fns_
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Queues `fn` at `when` (>= now_): the burst FIFO when `when` is now_,
  /// otherwise the heap.
  void push(Time when, util::UniqueFunction fn);
  /// Parks `fn` in a free heap_fns_ slot and pushes its key onto the heap.
  void heap_push(Time when, util::UniqueFunction fn);
  /// Pops the heap top into `out`, releasing its callable slot.
  void heap_pop_into(Event& out);

  /// Pops the next event in (time, seq) order into `out`.  Precondition:
  /// !idle().
  void pop_next(Event& out);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapItem> heap_;  // binary min-heap via std::push_heap/pop_heap
  // Callables of heap events, owned out-of-band (slot vector + free list;
  // slot assignment never reaches the event order, which is (at, seq) only).
  std::vector<util::UniqueFunction> heap_fns_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Event> burst_;  // FIFO of events at exactly now_
  std::size_t burst_head_ = 0;
};

}  // namespace centaur::sim
