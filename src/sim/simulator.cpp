#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace centaur::sim {

void Simulator::schedule(Time delay, util::UniqueFunction fn) {
  if (delay < 0) throw std::invalid_argument("Simulator::schedule: delay < 0");
  push(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(Time when, util::UniqueFunction fn) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  push(when, std::move(fn));
}

void Simulator::push(Time when, util::UniqueFunction fn) {
  if (when == now_) {
    // Same-time burst: FIFO order is seq order (seq grows monotonically and
    // every same-time event still in the heap was scheduled earlier, while
    // now_ was smaller, so it carries a smaller seq).
    burst_.push_back(Event{when, next_seq_++, std::move(fn)});
    return;
  }
  heap_push(when, std::move(fn));
}

void Simulator::heap_push(Time when, util::UniqueFunction fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    heap_fns_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(heap_fns_.size());
    heap_fns_.push_back(std::move(fn));
  }
  heap_.push_back(HeapItem{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::heap_pop_into(Event& out) {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapItem item = heap_.back();
  heap_.pop_back();
  out.at = item.at;
  out.seq = item.seq;
  out.fn = std::move(heap_fns_[item.slot]);
  free_slots_.push_back(item.slot);
}

void Simulator::reserve(std::size_t events) {
  heap_.reserve(events);
  heap_fns_.reserve(events);
  free_slots_.reserve(events);
}

void Simulator::pop_next(Event& out) {
  // Heap events at the current time precede every burst event (smaller seq);
  // burst events are only valid while now_ has not advanced past them.
  const bool burst_ready = burst_head_ < burst_.size();
  if (!heap_.empty() && (!burst_ready || heap_.front().at <= now_)) {
    heap_pop_into(out);
  } else {
    out = std::move(burst_[burst_head_++]);
    if (burst_head_ >= burst_.size()) {
      burst_.clear();
      burst_head_ = 0;
    }
  }
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  Event ev;
  while (!idle()) {
    if (processed >= max_events) {
      throw std::runtime_error("Simulator::run: event budget exhausted");
    }
    pop_next(ev);
    now_ = ev.at;
    ev.fn();
    ev.fn.reset();
    ++processed;
    ++executed_;
  }
  assert(burst_.empty() && burst_head_ == 0);  // idle() implies drained burst
  return processed;
}

std::size_t Simulator::run_until(Time deadline, std::size_t max_events) {
  std::size_t processed = 0;
  Event ev;
  while (!idle()) {
    // Burst events are at now_ (<= deadline whenever the loop is entered
    // with now_ <= deadline); heap events gate on the deadline.
    const bool burst_ready = burst_head_ < burst_.size();
    const Time next_at = burst_ready ? now_ : heap_.front().at;
    if (next_at > deadline) break;
    if (processed >= max_events) {
      throw std::runtime_error("Simulator::run_until: event budget exhausted");
    }
    pop_next(ev);
    now_ = ev.at;
    ev.fn();
    ev.fn.reset();
    ++processed;
    ++executed_;
  }
  // Deadline exits can only leave heap events (at > deadline) queued: a
  // burst event sits at now_ <= deadline, so the loop drains every burst —
  // including one scheduled by an event executing exactly at the deadline —
  // before now_ may be advanced to the deadline below.  (A burst can remain
  // only if the caller passed a deadline already in the past.)
  assert(burst_head_ >= burst_.size() || deadline < now_);
  if (now_ < deadline) now_ = deadline;
  return processed;
}

}  // namespace centaur::sim
