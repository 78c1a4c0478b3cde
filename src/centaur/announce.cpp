#include "centaur/announce.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace centaur::core {

bool ExportedView::operator==(const ExportedView& other) const {
  if (!(destinations == other.destinations)) return false;
  if (links.size() != other.links.size()) return false;
  for (const auto& [key, plist] : links) {
    const PermissionList* theirs = other.links.find(key);
    if (theirs == nullptr || !(*theirs == plist)) return false;
  }
  return true;
}

ExportedView make_export_view(const PGraph& local,
                              const DestFilter& dest_allowed,
                              const LinkFilter& link_allowed) {
  ExportedView view;
  for (NodeId d : local.destinations()) {
    if (!dest_allowed || dest_allowed(d)) view.destinations.push_back(d);
  }
  view.links.reserve(local.num_links());
  for (const auto& [link, plist] : local.links()) {
    if (link_allowed && !link_allowed(link.from, link.to)) continue;
    const std::uint64_t key = pack_link(link.from, link.to);
    // BuildGraph records, in the (always-populated) permission entries, the
    // exact destination set routed through each link; the link is exported
    // iff an allowed destination uses it.  Only multi-homed heads carry
    // Permission Lists on the wire (S4.1).
    const bool multi_homed = local.multi_homed(link.to);
    if (!dest_allowed) {
      view.links[key] = multi_homed ? plist : PermissionList{};
      continue;
    }
    if (multi_homed) {
      PermissionList filtered = plist.filtered(dest_allowed);
      if (filtered.empty()) continue;  // no allowed destination uses it
      view.links[key] = std::move(filtered);
    } else {
      if (!plist.any_dest(dest_allowed)) continue;
      view.links[key] = PermissionList{};
    }
  }
  return view;
}

GraphDelta diff_views(const ExportedView& before, const ExportedView& after) {
  GraphDelta delta;
  for (const auto& [key, plist] : after.links) {
    const PermissionList* old = before.links.find(key);
    if (old == nullptr || !(*old == plist)) {
      delta.upserts.emplace_back(unpack_link(key), plist);
    }
  }
  for (const auto& [key, plist] : before.links) {
    if (after.links.count(key) == 0) delta.removes.push_back(unpack_link(key));
  }
  // Hash-order walks above; canonicalize (sorted ascending, the wire order).
  std::sort(delta.upserts.begin(), delta.upserts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(delta.removes.begin(), delta.removes.end());
  // Destination marks: both sides sorted ascending already.
  std::set_difference(after.destinations.begin(), after.destinations.end(),
                      before.destinations.begin(), before.destinations.end(),
                      std::back_inserter(delta.dest_adds));
  std::set_difference(before.destinations.begin(), before.destinations.end(),
                      after.destinations.begin(), after.destinations.end(),
                      std::back_inserter(delta.dest_removes));
  return delta;
}

bool apply_delta(PGraph& g, const GraphDelta& delta, NodeId self,
                 const LinkFilter& import_allowed, DeltaReport* report) {
  if (report != nullptr) report->clear();
  bool changed = false;
  if (delta.reset) {
    changed = g.num_links() > 0 || !g.destinations().empty();
    g.reset(g.root());
    // A reset delta carries the whole view (first-contact snapshots and
    // session re-baselines), so its size is the graph's size: presize once
    // instead of rehashing while the tables grow.
    const auto listed = static_cast<std::size_t>(std::count_if(
        delta.upserts.begin(), delta.upserts.end(),
        [](const auto& upsert) { return !upsert.second.empty(); }));
    g.reserve(delta.upserts.size(), listed);
    report = nullptr;  // rebuilt from scratch: every head changed
  }
  for (const DirectedLink& link : delta.removes) {
    if (!g.remove_link(link.from, link.to)) continue;
    changed = true;
    if (report != nullptr) report->note_removed(link.to);
  }
  for (NodeId d : delta.dest_removes) {
    changed |= g.unmark_destination(d);
  }
  for (const auto& [link, plist] : delta.upserts) {
    if (link.to == self) continue;  // loop elimination (Step 2)
    if (import_allowed && !import_allowed(link.from, link.to)) continue;
    // A new link is unlisted until set_plist lists it.
    const bool added = g.add_link(link.from, link.to);
    const PermissionList* stored = g.plist(link.from, link.to);
    const PermissionList& before =
        stored != nullptr ? *stored : pgraph_detail::kEmptyPlist;
    if (!added && before == plist) continue;
    if (report != nullptr) report->note_upsert(link.to, before, plist, added);
    g.set_plist(link.from, link.to, plist);
    changed = true;
  }
  for (NodeId d : delta.dest_adds) {
    if (!g.is_destination(d)) {
      g.mark_destination(d);
      changed = true;
    }
  }
  if (report != nullptr) report->resolve(g);
  return changed;
}

void DeltaReport::note_upsert(NodeId head, const PermissionList& before,
                              const PermissionList& after, bool added) {
  // An unlisted in-link is DerivePath's default at a multi-homed head, so
  // adding one, or flipping an in-link between listed and unlisted, can
  // redirect any walk through `head`.  (An added link's `before` is the
  // empty list.)
  if (after.empty() || (!added && before.empty())) {
    coarse.push_back(head);
    return;
  }
  fine_heads_.emplace_back(head, added ? 1 : 0);
  before.for_each_changed_dest(
      after, [&](NodeId dest) { named.emplace_back(head, dest); });
}

void DeltaReport::resolve(const PGraph& g) {
  std::sort(fine_heads_.begin(), fine_heads_.end());
  for (std::size_t i = 0; i < fine_heads_.size();) {
    const NodeId head = fine_heads_[i].first;
    std::size_t added = 0;
    for (; i < fine_heads_.size() && fine_heads_[i].first == head; ++i) {
      added += fine_heads_[i].second;
    }
    // A head without removals had its current parents minus the added ones
    // before the delta.  A single-homed head ignores Permission Lists, so
    // being single-homed on either side makes the change coarse.
    if (g.in_degree(head) < added + 2) coarse.push_back(head);
  }
  std::sort(coarse.begin(), coarse.end());
  coarse.erase(std::unique(coarse.begin(), coarse.end()), coarse.end());
  // A coarse head invalidates every walk through it; its names are moot.
  std::erase_if(named, [this](const std::pair<NodeId, NodeId>& hd) {
    return std::binary_search(coarse.begin(), coarse.end(), hd.first);
  });
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
}

// ------------------------------------------ incremental view maintenance --

void apply_link_transition(ExportedView& view, PendingDelta& pending,
                           const DirectedLink& link,
                           const PermissionList* now) {
  const std::uint64_t key = pack_link(link.from, link.to);
  PermissionList* cur = view.links.find(key);
  if (now != nullptr) {
    if (cur == nullptr) {
      pending.record_upsert(link, *now, /*receiver_has_link=*/false);
      view.links[key] = *now;
    } else if (!(*cur == *now)) {
      pending.record_upsert(link, *now, /*receiver_has_link=*/true);
      *cur = *now;
    }
  } else if (cur != nullptr) {
    pending.record_remove(link);
    view.links.erase(key);
  }
}

void apply_dest_transition(ExportedView& view, PendingDelta& pending,
                           NodeId dest, bool now) {
  if (now) {
    if (util::sorted_insert(view.destinations, dest)) {
      pending.record_dest_add(dest);
    }
  } else if (util::sorted_erase(view.destinations, dest)) {
    pending.record_dest_remove(dest);
  }
}

// ------------------------------------------------------------ coalescing --

void PendingDelta::record_upsert(const DirectedLink& link,
                                 const PermissionList& plist,
                                 bool receiver_has_link) {
  bool inserted = false;
  LinkSlot& slot = links_.ensure(pack_link(link.from, link.to), inserted);
  if (inserted) {
    slot.op = receiver_has_link ? LinkOp::kChange : LinkOp::kAdd;
  } else if (slot.op == LinkOp::kRemove) {
    // Removed then re-added within the burst: the receiver still holds the
    // link, so the net effect is a Permission-List change.
    slot.op = LinkOp::kChange;
  }
  slot.plist = plist;
}

void PendingDelta::record_remove(const DirectedLink& link) {
  const std::uint64_t key = pack_link(link.from, link.to);
  bool inserted = false;
  LinkSlot& slot = links_.ensure(key, inserted);
  if (!inserted && slot.op == LinkOp::kAdd) {
    links_.erase(key);  // added and removed in one burst: nothing happened
    return;
  }
  slot.op = LinkOp::kRemove;
  slot.plist = PermissionList{};
}

void PendingDelta::record_dest_add(NodeId dest) {
  bool inserted = false;
  std::uint8_t& op = dests_.ensure(dest, inserted);
  if (!inserted && op == kDestRemove) {
    dests_.erase(dest);  // remove + add cancels
    return;
  }
  op = kDestAdd;
}

void PendingDelta::record_dest_remove(NodeId dest) {
  bool inserted = false;
  std::uint8_t& op = dests_.ensure(dest, inserted);
  if (!inserted && op == kDestAdd) {
    dests_.erase(dest);  // add + remove cancels
    return;
  }
  op = kDestRemove;
}

GraphDelta PendingDelta::take() {
  GraphDelta out;
  std::vector<std::uint64_t> keys;
  keys.reserve(links_.size());
  for (const auto& [key, slot] : links_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    LinkSlot* slot = links_.find(key);
    if (slot->op == LinkOp::kRemove) {
      out.removes.push_back(unpack_link(key));
    } else {
      out.upserts.emplace_back(unpack_link(key), std::move(slot->plist));
    }
  }
  for (const auto& [dest, op] : dests_) {
    (op == kDestRemove ? out.dest_removes : out.dest_adds).push_back(dest);
  }
  std::sort(out.dest_adds.begin(), out.dest_adds.end());
  std::sort(out.dest_removes.begin(), out.dest_removes.end());
  clear();
  return out;
}

}  // namespace centaur::core
