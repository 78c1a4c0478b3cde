#include "bgp/bgp_node.hpp"

#include <algorithm>

namespace centaur::bgp {

using policy::Candidate;
using policy::classify_path;
using policy::may_export;

bool path_crosses(const Path& path, const AsLink& link) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (AsLink::of(path[i], path[i + 1]) == link) return true;
  }
  return false;
}

std::string BgpUpdate::describe() const {
  if (withdraw_) {
    return "bgp-withdraw(dest=" + std::to_string(dest_) +
           (cause_ ? ", cause=" + std::to_string(cause_->a) + "-" +
                         std::to_string(cause_->b)
                   : "") +
           ")";
  }
  return "bgp-announce(dest=" + std::to_string(dest_) +
         ", len=" + std::to_string(path_.size() - 1) + ")";
}

BgpNode::BgpNode(const topo::AsGraph& graph) : BgpNode(graph, Config()) {}

BgpNode::BgpNode(const topo::AsGraph& graph, Config config)
    : graph_(graph), config_(std::move(config)) {}

bool BgpNode::neighbor_usable(NodeId neighbor) const {
  const auto it = session_up_.find(neighbor);
  return it != session_up_.end() && it->second;
}

void BgpNode::start() {
  for (const topo::Neighbor& nb : graph_.neighbors(self())) {
    session_up_[nb.node] = graph_.link_up(nb.link);
  }
  if (originates()) {
    loc_rib_[self()] = Path{self()};
    export_route(self());
  }
}

void BgpNode::on_message(NodeId from, const sim::MessagePtr& msg) {
  const auto* update = dynamic_cast<const BgpUpdate*>(msg.get());
  if (update == nullptr || !neighbor_usable(from)) return;

  const NodeId dest = update->dest();
  auto& from_rib = rib_in_[from];
  if (update->is_withdraw()) {
    const bool had = from_rib.erase(dest) > 0;
    if (config_.root_cause_notification && update->cause()) {
      // The root cause invalidates every RIB path crossing the link, not
      // just this destination — that is exactly the path-exploration
      // suppression RCN buys.
      active_cause_ = update->cause();
      rcn_record_failure(*update->cause());
      if (had) redecide(dest);
      active_cause_.reset();
      return;
    }
    if (!had) return;
  } else {
    const Path& p = update->path();
    // Sanity: the announced path must run from..dest.
    if (p.empty() || p.front() != from || p.back() != dest) return;
    // AS-path loop detection: a path already containing us is unusable and
    // replaces (poisons) any previous route from this neighbor.
    if (std::find(p.begin(), p.end(), self()) != p.end()) {
      if (from_rib.erase(dest) == 0) return;
    } else {
      const RouteIn route{p, net().simulator().now()};
      auto [it, inserted] = from_rib.try_emplace(dest, route);
      if (!inserted) {
        if (it->second.path == p) return;  // duplicate
        it->second = route;
      }
    }
  }
  redecide(dest);
}

bool BgpNode::rcn_invalidated(const RouteIn& route) const {
  if (!config_.root_cause_notification || failed_links_.empty()) return false;
  for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
    const auto it =
        failed_links_.find(AsLink::of(route.path[i], route.path[i + 1]));
    // A route learned after the failure notice supersedes it (stand-in for
    // RCN's per-link sequence numbers).
    if (it != failed_links_.end() && route.received <= it->second) {
      return true;
    }
  }
  return false;
}

void BgpNode::rcn_record_failure(const AsLink& link) {
  failed_links_[link] = net().simulator().now();
  std::set<NodeId> affected;
  for (const auto& [nbr, rib] : rib_in_) {
    for (const auto& [dest, route] : rib) {
      if (path_crosses(route.path, link)) affected.insert(dest);
    }
  }
  for (const NodeId dest : affected) redecide(dest);
}

void BgpNode::on_link_change(NodeId neighbor, bool up) {
  session_up_[neighbor] = up;
  if (!up) {
    std::set<NodeId> affected;
    const auto rit = rib_in_.find(neighbor);
    if (rit != rib_in_.end()) {
      for (const auto& [dest, route] : rit->second) affected.insert(dest);
      rib_in_.erase(rit);
    }
    rib_out_.erase(neighbor);
    pending_.erase(neighbor);
    if (config_.root_cause_notification) {
      // We are an endpoint of the failed link: originate the root cause.
      active_cause_ = AsLink::of(self(), neighbor);
      rcn_record_failure(*active_cause_);
      for (NodeId dest : affected) redecide(dest);
      active_cause_.reset();
      return;
    }
    for (NodeId dest : affected) redecide(dest);
    return;
  }
  // Session (re)establishment: full table exchange toward the neighbor.
  rib_out_[neighbor].clear();
  for (const auto& [dest, path] : loc_rib_) {
    enqueue_or_send(neighbor, dest);
  }
}

void BgpNode::redecide(NodeId dest) {
  std::optional<Path> best_path;
  Candidate best{};
  if (intercepted_.count(dest) > 0) {
    // Interception pins a fabricated customer route to the victim; it never
    // goes through classification (the hop is not an adjacency) and
    // outranks every real candidate, so the RIB scan is skipped.
    best_path = Path{self(), dest};
    best = Candidate{policy::RouteSource::kCustomer, 1, topo::kInvalidNode};
    const auto cur = loc_rib_.find(dest);
    if (cur != loc_rib_.end() && cur->second == *best_path) return;
    loc_rib_[dest] = std::move(*best_path);
    export_route(dest);
    return;
  }
  if (dest == self() && originates()) {
    best_path = Path{self()};
    best = Candidate{policy::RouteSource::kSelf, 0, topo::kInvalidNode};
  }
  for (const auto& [nbr, rib] : rib_in_) {
    if (!neighbor_usable(nbr)) continue;
    const auto it = rib.find(dest);
    if (it == rib.end()) continue;
    if (rcn_invalidated(it->second)) continue;
    Path full;
    full.reserve(it->second.path.size() + 1);
    full.push_back(self());
    full.insert(full.end(), it->second.path.begin(), it->second.path.end());
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

  const auto cur = loc_rib_.find(dest);
  const bool had = cur != loc_rib_.end();
  if (best_path) {
    if (had && cur->second == *best_path) return;  // no change
    loc_rib_[dest] = std::move(*best_path);
  } else {
    if (!had) return;
    loc_rib_.erase(cur);
  }
  export_route(dest);
}

void BgpNode::export_route(NodeId dest) {
  for (const topo::Neighbor& nb : graph_.neighbors(self())) {
    if (!neighbor_usable(nb.node)) continue;
    enqueue_or_send(nb.node, dest);
  }
}

void BgpNode::enqueue_or_send(NodeId neighbor, NodeId dest) {
  if (config_.mrai <= 0) {
    send_current(neighbor, dest);
    return;
  }
  pending_[neighbor].insert(dest);
  if (!mrai_armed_[neighbor]) {
    // First change: send immediately, then hold further updates for mrai.
    flush_pending(neighbor);
    arm_mrai(neighbor);
  }
}

void BgpNode::arm_mrai(NodeId neighbor) {
  mrai_armed_[neighbor] = true;
  net().simulator().schedule(config_.mrai, [this, neighbor] {
    mrai_armed_[neighbor] = false;
    if (!pending_[neighbor].empty() && neighbor_usable(neighbor)) {
      flush_pending(neighbor);
      arm_mrai(neighbor);
    }
  });
}

void BgpNode::flush_pending(NodeId neighbor) {
  auto& dests = pending_[neighbor];
  for (NodeId dest : dests) send_current(neighbor, dest);
  dests.clear();
}

void BgpNode::send_current(NodeId neighbor, NodeId dest) {
  auto& out = rib_out_[neighbor];
  const auto it = loc_rib_.find(dest);
  bool allowed = it != loc_rib_.end();
  if (allowed) {
    const Path& path = it->second;
    const NodeId next_hop = path.size() > 1 ? path[1] : topo::kInvalidNode;
    // A leaking node bypasses the export rule wholesale; an intercepted
    // destination is announced everywhere (and never classified — its
    // first hop is fabricated).  Split horizon applies regardless.
    allowed = next_hop != neighbor &&
              (leak_all_ || intercepted_.count(dest) > 0 ||
               may_export(classify_path(graph_, path),
                          graph_.rel(self(), neighbor)));
  }
  const auto oit = out.find(dest);
  if (allowed) {
    if (oit != out.end() && oit->second == it->second) return;  // duplicate
    out[dest] = it->second;
    net().send(self(), neighbor,
               std::make_shared<BgpUpdate>(BgpUpdate::announce(dest, it->second)));
  } else {
    if (oit == out.end()) return;  // never announced; nothing to withdraw
    out.erase(oit);
    net().send(self(), neighbor,
               std::make_shared<BgpUpdate>(BgpUpdate::withdraw(
                   dest, config_.root_cause_notification
                             ? active_cause_
                             : std::nullopt)));
  }
}

// ------------------------------------------------- adversarial fault hooks --

void BgpNode::set_route_leak(bool enabled) {
  if (leak_all_ == enabled) return;
  leak_all_ = enabled;
  for (const auto& [dest, path] : loc_rib_) export_route(dest);
}

void BgpNode::set_intercept(NodeId victim, bool enabled) {
  if (enabled == (intercepted_.count(victim) > 0)) return;
  if (enabled) {
    intercepted_.insert(victim);
  } else {
    intercepted_.erase(victim);
  }
  redecide(victim);
}

void BgpNode::set_ranking_override(RankingOverride ranking) {
  config_.ranking = std::move(ranking);
  redecide_all();
}

void BgpNode::relationships_changed() {
  redecide_all();
  // Export permissions depend on relationships too: refresh the Adj-RIB-Out
  // even for destinations whose selection did not change (send_current
  // dedups, so this emits exactly the announce/withdraw diff).
  for (const auto& [dest, path] : loc_rib_) export_route(dest);
}

void BgpNode::redecide_all() {
  std::set<NodeId> dests;
  for (const auto& [dest, path] : loc_rib_) dests.insert(dest);
  for (const auto& [nbr, rib] : rib_in_) {
    for (const auto& [dest, route] : rib) dests.insert(dest);
  }
  for (const NodeId dest : dests) redecide(dest);
}

void BgpNode::for_each_selected_route(
    const std::function<void(NodeId dest, const Path& path)>& fn) const {
  for (const auto& [dest, path] : loc_rib_) fn(dest, path);
}

std::optional<Path> BgpNode::selected_path(NodeId dest) const {
  const auto it = loc_rib_.find(dest);
  if (it == loc_rib_.end()) return std::nullopt;
  return it->second;
}

}  // namespace centaur::bgp
