#include "centaur/centaur_node.hpp"

#include <algorithm>

namespace centaur::core {

using policy::Candidate;
using policy::classify_path;
using policy::may_export;
using topo::NodeId;

namespace {

/// Is a route of this class exportable to peers/providers (the cone view)?
bool cone_exportable(policy::RouteSource source) {
  return may_export(source, topo::Relationship::kPeer);
}

/// classify_path(g, {self} + sub) without materializing the joined path:
/// the class is the relationship of the first non-sibling hop starting at
/// self (all-sibling paths classify as sibling).
policy::RouteSource classify_sub(const topo::AsGraph& g, NodeId self,
                                 const Path& sub) {
  NodeId prev = self;
  for (const NodeId hop : sub) {
    // Like classify_path: a fabricated (non-adjacent) hop injected by an
    // interception adversary classifies the path as provider-learned, the
    // least preferred class, instead of aborting.
    const std::optional<topo::Relationship> rel = g.maybe_rel(prev, hop);
    if (!rel) return policy::RouteSource::kProvider;
    if (*rel != topo::Relationship::kSibling) {
      return policy::source_from_rel(*rel);
    }
    prev = hop;
  }
  return policy::RouteSource::kSibling;
}

}  // namespace

std::string CentaurUpdate::describe() const {
  return "centaur-update(+" + std::to_string(delta_.upserts.size()) +
         " links, -" + std::to_string(delta_.removes.size()) + " links, +" +
         std::to_string(delta_.dest_adds.size()) + " dests, -" +
         std::to_string(delta_.dest_removes.size()) + " dests" +
         (delta_.reset ? ", reset)" : ")");
}

CentaurNode::CentaurNode(const topo::AsGraph& graph)
    : CentaurNode(graph, Config()) {}

CentaurNode::CentaurNode(const topo::AsGraph& graph, Config config)
    : graph_(graph), config_(std::move(config)) {}

bool CentaurNode::neighbor_usable(NodeId neighbor) const {
  const bool* up = session_up_.find(neighbor);
  return up != nullptr && *up;
}

void CentaurNode::start() {
  local_.reset(self());
  for (const topo::Neighbor& nb : graph_.neighbors(self())) {
    session_up_[nb.node] = graph_.link_up(nb.link);
  }
  if (originates()) {
    selected_[self()] = Path{self()};
    selected_class_[self()] = policy::RouteSource::kSelf;
    add_path_to_pgraph(local_, Path{self()});
    cone_dests_[self()] = 1;
    changed_dests_.push_back(self());
  }
  flood();
}

// --------------------------------------------------------------- derive ---

std::vector<NodeId> CentaurNode::refresh_derived(
    NeighborState& state, const std::vector<NodeId>& dests) {
  std::vector<NodeId> changed;  // ascending: dests arrives sorted
  std::vector<NodeId>& visited = visited_scratch_;
  Path& fresh = path_scratch_;  // reused across dests — no per-walk alloc
  for (const NodeId dest : dests) {
    const bool marked = state.graph.is_destination(dest);
    bool derivable = false;
    visited.clear();
    fresh.clear();
    if (marked) {
      derivable = query_path_into(state.graph, PathQuery{dest, &visited},
                                  fresh) == PathStatus::kFound;
    }

    // The indexed walk chain of `e` is reverse(path) for a successful
    // derivation and its fail_chains entry for a failed one; de-index it.
    const auto erase_walk = [&state](const DestState& e, NodeId d) {
      const auto de_index = [&state, d](NodeId node) {
        // Indexed nodes always have a slot (ensure() created it), but an
        // absent find is harmless: nothing to erase.
        if (auto* idx = state.chain_index.find(node)) {
          util::sorted_erase(*idx, d);
        }
      };
      if (!e.path.empty()) {
        for (auto it = e.path.rbegin(); it != e.path.rend(); ++it) {
          de_index(*it);
        }
      } else if (const auto* chain = state.fail_chains.find(d)) {
        for (const NodeId node : *chain) de_index(node);
      }
    };

    DestState* entry = state.dests.find(dest);
    if (!marked) {
      // Unmarked: drop the whole cache slot (walk index included).
      if (entry == nullptr) continue;
      erase_walk(*entry, dest);
      const bool had_path = !entry->path.empty();
      if (!had_path) state.fail_chains.erase(dest);
      state.dests.erase(dest);
      if (had_path) changed.push_back(dest);
      continue;
    }

    if (entry == nullptr) {
      // The first insert sizes the cache once, for every id that may
      // originate; a graph that never carries a destination reserves none.
      if (state.dests.capacity() == 0) {
        state.dests.reserve(config_.originate_limit != 0
                                ? config_.originate_limit
                                : graph_.num_nodes());
      }
      bool inserted = false;
      entry = &state.dests.ensure(dest, inserted);
    }

    // Re-index the walk if it changed (failed walks are indexed too: their
    // outcome can only flip when an in-link of a walked node changes).  A
    // fresh entry has neither a path nor a failed chain, so it re-indexes.
    const bool was_derived = !entry->path.empty();
    const std::vector<NodeId>* failed =
        was_derived ? nullptr : state.fail_chains.find(dest);
    const bool chain_same =
        was_derived
            ? entry->path.size() == visited.size() &&
                  std::equal(visited.begin(), visited.end(),
                             entry->path.rbegin())
            : failed != nullptr && *failed == visited;
    if (!chain_same) {
      erase_walk(*entry, dest);
      for (const NodeId node : visited) {
        util::sorted_insert(state.chain_index.ensure(node), dest);
      }
    }

    // Report only selection-relevant changes (path appeared/changed/gone);
    // the candidate summary is refreshed in lockstep so reselect() can rank
    // without touching the path itself.
    if (derivable) {
      if (!was_derived) state.fail_chains.erase(dest);
      if (was_derived && fresh == entry->path) continue;
      CandEntry& cand = entry->cand;
      cand.length = static_cast<std::uint32_t>(fresh.size());
      cand.usable = !path_uses(fresh, self());
      if (cand.usable) cand.source = classify_sub(graph_, self(), fresh);
      entry->path = fresh;  // assignment reuses the slot's capacity
    } else {
      // Keep the failed walk indexed and recorded, whether the previous
      // state was a live path (now gone) or an older failed walk.
      if (!chain_same || was_derived) {
        state.fail_chains[dest].assign(visited.begin(), visited.end());
      }
      if (!was_derived) continue;
      entry->path.clear();
    }
    changed.push_back(dest);
  }
  return changed;
}

// ------------------------------------------------------------- selection --

void CentaurNode::note_path_removed(NodeId dest, const Path& path,
                                    bool cone_class) {
  changed_dests_.push_back(dest);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const DirectedLink link{path[i], path[i + 1]};
    touched_links_.push_back(link);
    if (cone_class) {
      const std::uint64_t key = pack_link(link.from, link.to);
      PermissionList* entry = cone_entries_.find(key);
      if (entry != nullptr) {
        const NodeId next = (i + 2 < path.size()) ? path[i + 2] : kNoNextHop;
        entry->remove(dest, next);
        if (entry->empty()) cone_entries_.erase(key);
      }
    }
  }
  // In-degree changes flip other in-links' wire form (a Permission List is
  // only on the wire while the head is multi-homed); touch every current
  // in-link of the path's nodes.  Called before the P-graph mutation, so
  // parents() still includes the path's own links.
  for (std::size_t i = 1; i < path.size(); ++i) {
    for (const NodeId p : local_.parents(path[i])) {
      touched_links_.push_back(DirectedLink{p, path[i]});
    }
  }
}

void CentaurNode::note_path_added(NodeId dest, const Path& path,
                                  bool cone_class) {
  changed_dests_.push_back(dest);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const DirectedLink link{path[i], path[i + 1]};
    touched_links_.push_back(link);
    if (cone_class) {
      const NodeId next = (i + 2 < path.size()) ? path[i + 2] : kNoNextHop;
      cone_entries_[pack_link(link.from, link.to)].add(dest, next);
    }
  }
  // Called after the P-graph mutation: parents() includes the new links.
  for (std::size_t i = 1; i < path.size(); ++i) {
    for (const NodeId p : local_.parents(path[i])) {
      touched_links_.push_back(DirectedLink{p, path[i]});
    }
  }
}

std::optional<Path> CentaurNode::best_candidate_cached(
    NodeId dest, Candidate& best) const {
  // Rank-merge over the cached per-neighbor summaries, ascending by
  // neighbor id (VecMap order) — the same scan order and the same strict
  // adoption test as the scratch reference, so the winner is identical; the
  // full path is materialized once, for the winner only.
  const DestState* win = nullptr;
  for (const auto& [nbr, state] : rib_) {
    if (!neighbor_usable(nbr)) continue;
    const DestState* entry = state.dests.find(dest);
    if (entry == nullptr || entry->path.empty() || !entry->cand.usable) {
      continue;
    }
    const Candidate cand{entry->cand.source, entry->cand.length, nbr};
    if (win == nullptr || policy::better(cand, best)) {
      best = cand;
      win = entry;
    }
  }
  if (win == nullptr) return std::nullopt;
  const Path& sub = win->path;
  Path full;
  full.reserve(sub.size() + 1);
  full.push_back(self());
  full.insert(full.end(), sub.begin(), sub.end());
  return full;
}

std::optional<Path> CentaurNode::best_candidate_scratch(
    NodeId dest, Candidate& best) const {
  std::optional<Path> best_path;
  for (const auto& [nbr, state] : rib_) {
    if (!neighbor_usable(nbr)) continue;
    const DestState* derived = state.dests.find(dest);
    if (derived == nullptr || derived->path.empty()) continue;
    const Path& sub = derived->path;
    // Loop detection (Observation 1): discard downstream paths that
    // already contain this node.
    if (path_uses(sub, self())) continue;
    Path full;
    full.reserve(sub.size() + 1);
    full.push_back(self());
    full.insert(full.end(), sub.begin(), sub.end());
    const Candidate cand{classify_path(graph_, full),
                         static_cast<std::uint32_t>(full.size() - 1), nbr};
    bool adopt;
    if (!best_path) {
      adopt = true;
    } else if (config_.ranking) {
      if (config_.ranking(cand, full, best, *best_path)) {
        adopt = true;
      } else if (config_.ranking(best, *best_path, cand, full)) {
        adopt = false;
      } else {
        adopt = policy::better(cand, best);
      }
    } else {
      adopt = policy::better(cand, best);
    }
    if (adopt) {
      best = cand;
      best_path = std::move(full);
    }
  }
  return best_path;
}

bool CentaurNode::reselect(const std::vector<NodeId>& dests) {
  const bool use_cache = !config_.ranking;
  bool any_change = false;
  for (const NodeId dest : dests) {
    if (dest == self()) continue;  // the origin route is fixed
    Candidate best{};
    std::optional<Path> best_path;
    if (intercepting(dest)) {
      // Interception pins a fabricated customer route to the victim; it
      // never goes through classification (the hop is not an adjacency) and
      // stays stable under any churn of real candidates.
      best = Candidate{policy::RouteSource::kCustomer, 1, dest};
      best_path = Path{self(), dest};
    } else {
      best_path = use_cache ? best_candidate_cached(dest, best)
                            : best_candidate_scratch(dest, best);
    }

    const Path* cur = selected_.find(dest);
    const bool had = cur != nullptr;
    if (best_path && had && *cur == *best_path) continue;
    if (had) {
      const bool old_cone = cone_exportable(*selected_class_.find(dest));
      note_path_removed(dest, *cur, old_cone);
      remove_path_from_pgraph(local_, *cur);
      if (old_cone) cone_dests_.erase(dest);
    }
    if (best_path) {
      const bool new_cone = cone_exportable(best.source);
      add_path_to_pgraph(local_, *best_path);
      note_path_added(dest, *best_path, new_cone);
      if (new_cone) cone_dests_[dest] = 1;
      selected_[dest] = std::move(*best_path);
      selected_class_[dest] = best.source;
    } else if (had) {
      selected_.erase(dest);
      selected_class_.erase(dest);
    } else {
      continue;  // still no route
    }
    any_change = true;
  }
  return any_change;
}

// ----------------------------------------------------------------- export --

DestFilter CentaurNode::cone_filter() const {
  return [this](NodeId dest) {
    const policy::RouteSource* source = selected_class_.find(dest);
    return source != nullptr && cone_exportable(*source);
  };
}

void CentaurNode::publish_snapshot() {
  if (!config_.snapshot_sink ||
      (changed_dests_.empty() && touched_links_.empty())) {
    return;
  }
  // Serving-plane publish (DESIGN.md §14.2).  This instance's first publish
  // hands over no delta: the cell may still hold a crashed predecessor's
  // snapshot, which the whole graph replaces.
  if (published_) {
    config_.snapshot_sink(self(), local_, changed_dests_, touched_links_);
  } else {
    published_ = true;
    config_.snapshot_sink(self(), local_, {}, {});
  }
}

void CentaurNode::flood() {
  publish_snapshot();
  // Incrementally update the two category views from the flood scratch,
  // recording every view transition in the per-category pending deltas
  // (apply_link_transition / apply_dest_transition in announce.cpp hold
  // the per-key state machines).
  static const PermissionList kEmptyPlist;
  std::sort(touched_links_.begin(), touched_links_.end());
  touched_links_.erase(
      std::unique(touched_links_.begin(), touched_links_.end()),
      touched_links_.end());
  for (const DirectedLink& link : touched_links_) {
    // Full view: every link of the local P-graph, Permission List on the
    // wire only while the head is multi-homed.  Every local link carries
    // its paths' pairs (the checker's positive-counter rule), so one probe
    // of the list table resolves both presence and payload.
    const PermissionList* full_now = nullptr;
    const PermissionList* listed = local_.plist(link.from, link.to);
    const bool present = listed != nullptr;
    const bool multi = present && local_.multi_homed(link.to);
    if (present) {
      full_now = multi ? listed : &kEmptyPlist;
    }
    apply_link_transition(exported_full_, pending_full_, link, full_now);

    // Cone view: only links carrying cone-class destinations, with the
    // Permission List filtered to those destinations (cone_entries_ keeps
    // exactly that).
    const PermissionList* cone_now = nullptr;
    const PermissionList* ce = cone_entries_.find(pack_link(link.from, link.to));
    if (present && ce != nullptr && !ce->empty()) {
      cone_now = multi ? ce : &kEmptyPlist;
    }
    apply_link_transition(exported_cone_, pending_cone_, link, cone_now);
  }
  std::sort(changed_dests_.begin(), changed_dests_.end());
  changed_dests_.erase(
      std::unique(changed_dests_.begin(), changed_dests_.end()),
      changed_dests_.end());
  for (const NodeId dest : changed_dests_) {
    const bool full_now = selected_.count(dest) > 0;
    const bool cone_now = full_now && cone_dests_.count(dest) > 0;
    apply_dest_transition(exported_full_, pending_full_, dest, full_now);
    apply_dest_transition(exported_cone_, pending_cone_, dest, cone_now);
  }
  touched_links_.clear();
  changed_dests_.clear();
  dispatch_updates();
}

void CentaurNode::dispatch_updates() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // Zero-delay: runs within the current instant's burst, after every event
  // already queued for it — deltas from same-instant floods merge, link
  // delays still start from the same simulated time.
  net().simulator().schedule(0, [this] {
    flush_scheduled_ = false;
    flush_pending();
  });
}

void CentaurNode::flush_pending() {
  GraphDelta full_delta = pending_full_.take();
  GraphDelta cone_delta = pending_cone_.take();
  std::shared_ptr<const CentaurUpdate> full_msg, cone_msg;
  if (!full_delta.empty()) {
    full_msg = std::make_shared<CentaurUpdate>(std::move(full_delta));
  }
  if (!cone_delta.empty()) {
    cone_msg = std::make_shared<CentaurUpdate>(std::move(cone_delta));
  }
  // Baseline snapshots are shared per category too (built lazily: most
  // flushes have no uninitialized neighbor).
  std::shared_ptr<const CentaurUpdate> full_snap, cone_snap;
  for (const topo::Neighbor& nb : graph_.neighbors(self())) {
    if (!neighbor_usable(nb.node)) continue;
    // A leaking node serves everyone the full view (the Gao-Rexford
    // violation under test); set_route_leak re-baselined the affected
    // sessions when it flipped the flag.
    const bool cone_nbr = serves_cone(nb.rel);
    bool first = false;
    initialized_nbrs_.ensure(nb.node, first);
    std::shared_ptr<const CentaurUpdate> msg;
    if (first) {
      // First contact (or session restart): baseline snapshot — a reset
      // delta against the empty view, always sent (the reset itself is the
      // signal even when the view is empty).
      auto& snap = cone_nbr ? cone_snap : full_snap;
      if (!snap) {
        GraphDelta snapshot = diff_views(
            ExportedView{}, cone_nbr ? exported_cone_ : exported_full_);
        snapshot.reset = true;
        snap = std::make_shared<CentaurUpdate>(std::move(snapshot));
      }
      msg = snap;
    } else {
      msg = cone_nbr ? cone_msg : full_msg;
    }
    if (msg && config_.export_link_filter) msg = hide_links(nb.node, msg);
    if (msg) net().send(self(), nb.node, std::move(msg));
  }
}

std::shared_ptr<const CentaurUpdate> CentaurNode::hide_links(
    NodeId neighbor, const std::shared_ptr<const CentaurUpdate>& update) const {
  // The neighbor's view is its category view minus the hidden links
  // (make_export_view only drops links the filter rejects: lists and head
  // homing come from the unfiltered local graph), so the category stream
  // minus the hidden links keeps its copy exact.
  const auto hidden = [&](const DirectedLink& link) {
    return !config_.export_link_filter(neighbor, link.from, link.to);
  };
  const GraphDelta& delta = update->delta();
  const bool hides_any =
      std::any_of(delta.upserts.begin(), delta.upserts.end(),
                  [&](const auto& upsert) { return hidden(upsert.first); }) ||
      std::any_of(delta.removes.begin(), delta.removes.end(), hidden);
  if (!hides_any) return update;
  GraphDelta trimmed;
  trimmed.reset = delta.reset;
  for (const auto& upsert : delta.upserts) {
    if (!hidden(upsert.first)) trimmed.upserts.push_back(upsert);
  }
  for (const DirectedLink& link : delta.removes) {
    if (!hidden(link)) trimmed.removes.push_back(link);
  }
  trimmed.dest_adds = delta.dest_adds;
  trimmed.dest_removes = delta.dest_removes;
  if (trimmed.empty()) return nullptr;
  return std::make_shared<CentaurUpdate>(std::move(trimmed));
}

// ----------------------------------------------------------------- events --

void CentaurNode::on_message(NodeId from, const sim::MessagePtr& msg) {
  if (!neighbor_usable(from)) return;
  const auto* update = dynamic_cast<const CentaurUpdate*>(msg.get());
  if (update == nullptr) return;
  const GraphDelta& delta = update->delta();

  bool inserted = false;
  NeighborState& state = rib_.ensure(from, inserted);
  // Per-neighbor state grows with its content; apply_delta presizes the
  // graph from the first-contact snapshot (a reset delta) below.
  if (inserted) state.graph.reset(from);
  // A reset on a *live* session (re-baseline after an export-category
  // change, e.g. a route leak starting or stopping) keeps the derived
  // cache: the dirty union below re-walks every previously derived
  // destination against the rebuilt view, and refresh_derived() retires —
  // and de-indexes — the ones the new view no longer supports.  Clearing
  // the cache here instead would silently orphan selected paths whose
  // destination vanished with the reset (they would never re-enter the
  // dirty set, so reselect() would never run for them).

  LinkFilter import_filter;
  if (config_.import_link_filter) {
    import_filter = [this, from](NodeId a, NodeId b) {
      return config_.import_link_filter(from, a, b);
    };
  }
  DeltaReport& report = report_scratch_;
  const bool changed =
      apply_delta(state.graph, delta, self(), import_filter, &report);
  if (!changed && !inserted) return;

  // Dirty destinations: a walk can only change at a changed link head it
  // visits (failed walks are indexed too, so formerly-underivable
  // destinations are invalidated just as precisely).  At a coarse head that
  // is every walk through it; at a fine head only the walks of the
  // destinations its changed Permission-List pairs name (DESIGN.md §12.1).
  // Destination-mark changes are always dirty.
  std::vector<NodeId>& dirty = dirty_scratch_;
  dirty.clear();
  if (delta.reset) {
    // Session restart: the graph was rebuilt, so re-walk every marked or
    // previously derived destination.
    dirty.assign(state.graph.destinations().begin(),
                 state.graph.destinations().end());
    for (const auto& [dest, ds] : state.dests) dirty.push_back(dest);
  } else {
    for (const NodeId head : report.coarse) {
      if (const auto* idx = state.chain_index.find(head)) {
        dirty.insert(dirty.end(), idx->begin(), idx->end());
      }
    }
    for (const auto& [head, dest] : report.named) {
      const auto* idx = state.chain_index.find(head);
      if (idx != nullptr && util::sorted_contains(*idx, dest)) {
        dirty.push_back(dest);
      }
    }
    for (const NodeId d : delta.dest_adds) dirty.push_back(d);
    for (const NodeId d : delta.dest_removes) dirty.push_back(d);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  const std::vector<NodeId> derived_changed = refresh_derived(state, dirty);
  if (derived_changed.empty()) return;
  if (reselect(derived_changed)) flood();
}

void CentaurNode::on_link_change(NodeId neighbor, bool up) {
  session_up_[neighbor] = up;
  if (!up) {
    std::vector<NodeId> affected;
    NeighborState* state = rib_.find(neighbor);
    if (state != nullptr) {
      for (const auto& [dest, ds] : state->dests) {
        if (!ds.path.empty()) affected.push_back(dest);
      }
      rib_.erase(neighbor);
    }
    // The derived cache iterates in hash-layout order; sort so reselect
    // walks destinations ascending like every other call site.
    std::sort(affected.begin(), affected.end());
    initialized_nbrs_.erase(neighbor);
    if (reselect(affected)) flood();
    return;
  }
  // Session (re)establishment: the flush notices the (now usable,
  // uninitialized) neighbor and owes it a baseline snapshot of its
  // category view; the neighbor cleared its state for us symmetrically and
  // does the same.  Going through dispatch lets a same-instant snapshot
  // share the flush event.
  dispatch_updates();
}

void CentaurNode::policy_changed() {
  if (reselect(known_dests())) flood();
}

// ------------------------------------------------- adversarial fault hooks --

void CentaurNode::set_route_leak(bool enabled) {
  if (leak_all_ == enabled) return;
  leak_all_ = enabled;
  // Peers and providers flip category view (cone <-> full): drop their
  // session baseline so the next flush re-sends a reset snapshot of the new
  // view.  Both category views are maintained regardless of the flag, so
  // the snapshot is always current.
  for (const topo::Neighbor& nb : graph_.neighbors(self())) {
    if (nb.rel == topo::Relationship::kPeer ||
        nb.rel == topo::Relationship::kProvider) {
      initialized_nbrs_.erase(nb.node);
    }
  }
  dispatch_updates();
}

void CentaurNode::set_intercept(NodeId victim, bool enabled) {
  if (enabled == intercepting(victim)) return;
  if (enabled) {
    intercepted_[victim] = 1;
  } else {
    intercepted_.erase(victim);
  }
  if (reselect({victim})) flood();
}

void CentaurNode::set_ranking_override(policy::RankingOverride ranking) {
  config_.ranking = std::move(ranking);
  policy_changed();
}

void CentaurNode::relationships_changed() {
  // 1. The candidate summaries cache each derived path's classification;
  //    the relationships changed under them, so re-classify in place.
  //    (Flat containers expose const iteration only — collect keys first,
  //    then mutate through find().)
  std::vector<NodeId> nbrs;
  for (const auto& [nbr, state] : rib_) nbrs.push_back(nbr);
  for (const NodeId nbr : nbrs) {
    NeighborState* state = rib_.find(nbr);
    std::vector<NodeId>& dests = dirty_scratch_;
    dests.clear();
    for (const auto& [dest, ds] : state->dests) dests.push_back(dest);
    for (const NodeId dest : dests) {
      DestState* entry = state->dests.find(dest);
      if (!entry->path.empty() && entry->cand.usable) {
        entry->cand.source = classify_sub(graph_, self(), entry->path);
      }
    }
  }

  // 2. Rebuild the class cache and the cone bookkeeping wholesale for the
  //    current selections, so the removal half of any reselect below works
  //    against entries consistent with the new relationships.
  cone_entries_.clear();
  cone_dests_.clear();
  std::vector<NodeId> cur_dests;
  for (const auto& [dest, path] : selected_) cur_dests.push_back(dest);
  for (const NodeId dest : cur_dests) {
    const Path& path = *selected_.find(dest);
    policy::RouteSource source;
    if (dest == self()) {
      source = policy::RouteSource::kSelf;
    } else if (intercepting(dest)) {
      source = policy::RouteSource::kCustomer;
    } else {
      source = classify_path(graph_, path);
    }
    selected_class_[dest] = source;
    if (!cone_exportable(source)) continue;
    cone_dests_[dest] = 1;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const NodeId next = (i + 2 < path.size()) ? path[i + 2] : kNoNextHop;
      cone_entries_[pack_link(path[i], path[i + 1])].add(dest, next);
    }
  }

  // 3. Re-rank everything under the new preference classes.
  reselect(known_dests());

  // 4. Neighbor export categories may have flipped (a peer became a
  //    customer), and view content changes even for unchanged selections.
  //    Re-baseline: rebuild both category views, and owe every neighbor a
  //    reset snapshot of its new category view.  No pending delta can
  //    reach anyone before those snapshots, so dropping them is exact.
  publish_snapshot();
  touched_links_.clear();
  changed_dests_.clear();
  exported_full_ = make_export_view(local_, nullptr);
  exported_cone_ = make_export_view(local_, cone_filter());
  pending_full_.clear();
  pending_cone_.clear();
  for (const topo::Neighbor& nb : graph_.neighbors(self())) {
    initialized_nbrs_.erase(nb.node);
  }
  dispatch_updates();
}

void CentaurNode::for_each_selected_route(
    const std::function<void(NodeId dest, const Path& path)>& fn) const {
  for (const auto& [dest, path] : selected_) fn(dest, path);
}

std::vector<NodeId> CentaurNode::known_dests() const {
  std::vector<NodeId> dests;
  for (const auto& [nbr, state] : rib_) {
    dests.insert(dests.end(), state.graph.destinations().begin(),
                 state.graph.destinations().end());
  }
  for (const auto& [dest, path] : selected_) dests.push_back(dest);
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  return dests;
}

const PGraph* CentaurNode::neighbor_pgraph(NodeId neighbor) const {
  const NeighborState* state = rib_.find(neighbor);
  return state == nullptr ? nullptr : &state->graph;
}

std::vector<NodeId> CentaurNode::rib_neighbors() const {
  std::vector<NodeId> out;
  out.reserve(rib_.size());
  for (const auto& [nbr, state] : rib_) out.push_back(nbr);
  return out;
}

const CentaurNode::DestCache* CentaurNode::neighbor_derived(
    NodeId neighbor) const {
  const NeighborState* state = rib_.find(neighbor);
  return state == nullptr ? nullptr : &state->dests;
}

const CentaurNode::FailChains* CentaurNode::neighbor_fail_chains(
    NodeId neighbor) const {
  const NeighborState* state = rib_.find(neighbor);
  return state == nullptr ? nullptr : &state->fail_chains;
}

bool CentaurNode::category_views_current() const {
  return exported_full_ == make_export_view(local_, nullptr) &&
         exported_cone_ == make_export_view(local_, cone_filter());
}

ExportedView CentaurNode::reference_view(NodeId neighbor) const {
  DestFilter dest_allowed;
  if (serves_cone(graph_.rel(self(), neighbor))) dest_allowed = cone_filter();
  LinkFilter link_allowed;
  if (config_.export_link_filter) {
    link_allowed = [this, neighbor](NodeId a, NodeId b) {
      return config_.export_link_filter(neighbor, a, b);
    };
  }
  return make_export_view(local_, dest_allowed, link_allowed);
}

std::vector<NodeId> CentaurNode::stale_selections() const {
  std::vector<NodeId> stale;
  for (const NodeId dest : known_dests()) {
    if (dest == self() || intercepting(dest)) continue;
    Candidate best{};
    const std::optional<Path> fresh = best_candidate_scratch(dest, best);
    const Path* cur = selected_.find(dest);
    if (fresh ? cur == nullptr || *cur != *fresh : cur != nullptr) {
      stale.push_back(dest);
    }
  }
  return stale;
}

CentaurNode::TableFootprint& CentaurNode::TableFootprint::operator+=(
    const TableFootprint& o) {
  entries += o.entries;
  slots += o.slots;
  slot_bytes += o.slot_bytes;
  probes += o.probes;
  return *this;
}

CentaurNode::Footprint& CentaurNode::Footprint::operator+=(
    const Footprint& o) {
  dest_caches += o.dest_caches;
  fail_chains += o.fail_chains;
  chain_indexes += o.chain_indexes;
  local_parents += o.local_parents;
  local_lists += o.local_lists;
  received_parents += o.received_parents;
  received_lists += o.received_lists;
  full_view += o.full_view;
  cone_view += o.cone_view;
  return *this;
}

namespace {

/// Footprint of a NodeMap or FlatMap.
template <typename Map>
CentaurNode::TableFootprint hashed_footprint(const Map& m) {
  CentaurNode::TableFootprint f{m.size(), m.capacity(),
                                m.capacity() * Map::kSlotBytes, 0};
  for (const auto& [key, value] : m) f.probes += m.probe_length(key);
  return f;
}

}  // namespace

CentaurNode::Footprint CentaurNode::footprint() const {
  Footprint f;
  for (const auto& [nbr, state] : rib_) {
    const DestCache& dests = state.dests;
    f.dest_caches += TableFootprint{dests.size(), dests.capacity(),
                                    dests.capacity() * DestCache::kSlotBytes,
                                    dests.size()};
    f.fail_chains += hashed_footprint(state.fail_chains);
    f.chain_indexes += hashed_footprint(state.chain_index);
    f.received_parents += hashed_footprint(state.graph.parent_map());
    f.received_lists += hashed_footprint(state.graph.plist_map());
  }
  f.local_parents = hashed_footprint(local_.parent_map());
  f.local_lists = hashed_footprint(local_.plist_map());
  f.full_view = hashed_footprint(exported_full_.links);
  f.cone_view = hashed_footprint(exported_cone_.links);
  f.cone_view += hashed_footprint(cone_entries_);
  return f;
}

std::optional<Path> CentaurNode::selected_path(NodeId dest) const {
  const Path* path = selected_.find(dest);
  if (path == nullptr) return std::nullopt;
  return *path;
}

}  // namespace centaur::core
