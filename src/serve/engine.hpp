// Read-mostly query engine over converged P-graphs (DESIGN.md §14).
//
// One QueryEngine serves (src, dst, k) path queries against per-node
// PGraphSnapshots while the protocol keeps running.  Concurrency design:
//
//   * Writer (the simulator thread): each CentaurNode publishes through its
//     own cell from its protocol handlers, and every handler runs on the
//     thread that runs the simulation.  A publish builds the immutable
//     successor snapshot, swaps one raw atomic pointer, and retires the
//     predecessor; it never blocks and never takes a lock, so serving
//     cannot stall convergence.
//   * Readers (query threads), the only concurrency: zero locks and zero
//     reference-count traffic on the read path.  A reader pins the current
//     epoch in a private slot (one CAS + one store), loads the cell
//     pointer, walks the immutable snapshot, and unpins.
//     `std::atomic<shared_ptr>` would silently fall back to a spinlock pool
//     in libstdc++ — the hand-rolled epoch scheme is what makes "readers
//     never take a lock" literally true.
//
// Reclamation: retiring writers tag the old snapshot with the pre-bump
// epoch E and free retired snapshots whose E is below every pinned slot
// value — purely opportunistic (try, never wait), so a slow reader delays
// frees but blocks nobody.  Safety argument (all operations seq_cst): a
// reader's slot store precedes its pointer load in the total order; a
// writer's pointer swap precedes its epoch bump and slot scan.  If the
// reader obtained pointer P, its slot held an epoch value <= P's retire
// epoch when any scan that could free P ran, so P is retained.
//
// Ordering: publishes happen in handler context, so *within one simulated
// instant* readers may observe node A post-delta and node B pre-delta —
// per-cell monotonic consistency, not cross-node atomicity (queries read
// one cell).  Each cell's snapshot sequence is deterministic: content and
// version depend only on the event history.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "centaur/query.hpp"
#include "eval/protocol_config.hpp"
#include "serve/snapshot.hpp"
#include "topology/types.hpp"

namespace centaur::serve {

using topo::Path;

/// Fixed array of per-reader epoch slots shared by an engine's cells.
/// Slot value 0 = quiescent; otherwise the epoch the reader pinned.
class ReaderRegistry {
 public:
  explicit ReaderRegistry(std::size_t slots)
      : slots_(new Slot[slots]), count_(slots) {}

  std::uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Writer side: bumps the global epoch, returning the pre-bump value
  /// (the retire tag of whatever was just unpublished).
  std::uint64_t advance_epoch() {
    return epoch_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Writer side: smallest pinned epoch across the slots, or UINT64_MAX
  /// when every reader is quiescent.  Retired snapshots tagged strictly
  /// below this are unreachable.
  std::uint64_t min_pinned() const {
    std::uint64_t min = UINT64_MAX;
    for (std::size_t i = 0; i < count_; ++i) {
      const std::uint64_t v = slots_[i].epoch.load(std::memory_order_seq_cst);
      if (v != 0 && v < min) min = v;
    }
    return min;
  }

  std::size_t slot_count() const { return count_; }

 private:
  friend class ReadPin;

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t count_;
  alignas(64) std::atomic<std::uint64_t> epoch_{1};  // 0 is "quiescent"
};

/// RAII read-side critical section: claims a free slot (bounded CAS scan —
/// the registry is sized for the maximum concurrent readers, so a pass
/// finds one) and pins the current epoch until destruction.  Everything
/// loaded from a SnapshotCell while pinned stays alive until unpin.
class ReadPin {
 public:
  explicit ReadPin(ReaderRegistry& reg) : reg_(&reg) {
    const std::uint64_t e = reg.current_epoch();
    for (std::size_t i = 0;; i = (i + 1) % reg.count_) {
      std::uint64_t expected = 0;
      if (reg.slots_[i].epoch.compare_exchange_strong(
              expected, e, std::memory_order_seq_cst)) {
        slot_ = i;
        return;
      }
    }
  }
  ~ReadPin() {
    reg_->slots_[slot_].epoch.store(0, std::memory_order_seq_cst);
  }
  ReadPin(const ReadPin&) = delete;
  ReadPin& operator=(const ReadPin&) = delete;

 private:
  ReaderRegistry* reg_;
  std::size_t slot_ = 0;
};

/// One node's published-snapshot cell: a raw atomic pointer for readers,
/// writer-side ownership and a retire list for reclamation.
class SnapshotCell {
 public:
  /// Read side (must hold a ReadPin): the current snapshot, or nullptr
  /// before the first publish.
  const PGraphSnapshot* current() const {
    return cur_.load(std::memory_order_seq_cst);
  }

  /// Write side (single writer per cell): swaps in `snap`, retires the
  /// predecessor, and opportunistically frees retired snapshots no pinned
  /// reader can still reach.
  void publish(std::shared_ptr<const PGraphSnapshot> snap,
               ReaderRegistry& reg) {
    cur_.store(snap.get(), std::memory_order_seq_cst);
    if (live_ != nullptr) {
      retired_.push_back(Retired{reg.advance_epoch(), std::move(live_)});
    }
    live_ = std::move(snap);
    const std::uint64_t min_pinned = reg.min_pinned();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < retired_.size(); ++i) {
      if (retired_[i].epoch >= min_pinned) {
        retired_[keep++] = std::move(retired_[i]);
      }
    }
    retired_.resize(keep);
  }

  /// Writer-side observable for tests: retired snapshots not yet freed.
  std::size_t retired_count() const { return retired_.size(); }

 private:
  struct Retired {
    std::uint64_t epoch;
    std::shared_ptr<const PGraphSnapshot> snap;
  };

  std::atomic<const PGraphSnapshot*> cur_{nullptr};
  std::shared_ptr<const PGraphSnapshot> live_;  // owns *cur_
  std::vector<Retired> retired_;                // single-writer
};

/// The serving plane: per-node snapshot cells fed by the protocol's
/// snapshot sink, queried concurrently by reader threads.
class QueryEngine {
 public:
  /// `num_nodes` sizes the cell array (topology node count); reader slots
  /// come from `opts.query_threads` plus headroom for a driver thread.
  QueryEngine(std::size_t num_nodes, const eval::ServeOptions& opts);

  const eval::ServeOptions& options() const { return opts_; }
  std::size_t num_nodes() const { return num_nodes_; }

  /// The CentaurNode snapshot hook, bound to this engine — assign to
  /// RunOptions::centaur_snapshot_sink before constructing the run.
  core::SnapshotSink make_sink();

  /// Writer side (handler context, single writer per `node`).  Empty dirty
  /// sets rebuild the cell's snapshot from the whole of `local`.
  void publish(NodeId node, const PGraph& local,
               const std::vector<NodeId>& changed_dests,
               const std::vector<DirectedLink>& touched_links);

  enum class QueryStatus : std::uint8_t {
    kOk,              ///< paths found (paths[0] = canonical DerivePath)
    kNoSnapshot,      ///< src has not published yet (or id out of range)
    kNotDestination,  ///< dst is not a marked destination at src
    kUnreachable,     ///< dst marked but no policy-compliant path derives
  };

  struct QueryResult {
    QueryStatus status = QueryStatus::kNoSnapshot;
    std::vector<Path> paths;     ///< up to k, canonical first
    std::size_t disjoint = 0;    ///< interior-node-disjoint path count
    std::uint64_t version = 0;   ///< snapshot version that answered
    bool truncated = false;      ///< enumeration hit its expansion budget
  };

  /// Read side: answers from src's current snapshot under a ReadPin; lock-
  /// free, safe to call from any thread concurrently with publishes.
  /// k == 0 uses the engine default (ServeOptions::query_k).
  QueryResult query(NodeId src, NodeId dst, std::size_t k = 0) const;

  /// Writer-side aggregates; call only while publishers are quiescent
  /// (after a run joined / between campaign phases).
  struct PublishStats {
    std::uint64_t publishes = 0;    ///< snapshot swaps across all cells
    /// Publishes built from scratch: one per protocol instance that
    /// published (a cell's first, plus one per restart).
    std::uint64_t full_builds = 0;
    std::uint64_t cells_live = 0;   ///< nodes that have published
    double total_us = 0;            ///< summed publish latency
    double p50_us = 0;
    double p99_us = 0;
  };
  PublishStats publish_stats() const;

 private:
  struct Cell {
    SnapshotCell cell;
    SnapshotBuilder builder;
    std::uint64_t publishes = 0;
    std::vector<float> publish_us;  // writer-side latency samples
  };

  eval::ServeOptions opts_;
  std::size_t num_nodes_;
  mutable ReaderRegistry registry_;
  std::unique_ptr<Cell[]> cells_;
};

const char* to_string(QueryEngine::QueryStatus s);

}  // namespace centaur::serve
