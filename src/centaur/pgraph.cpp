#include "centaur/pgraph.hpp"

#include <stdexcept>
#include <string>

namespace centaur::core {

namespace pgraph_detail {

[[noreturn]] void throw_missing_link(NodeId from, NodeId to) {
  throw std::out_of_range("PGraph: no link " + std::to_string(from) + "->" +
                          std::to_string(to));
}

}  // namespace pgraph_detail

void PGraph::reset(NodeId root) {
  root_ = root;
  // Both tables keep their capacity: resets happen on session restarts,
  // where the graph re-grows to a similar size.
  parents_.clear_values();
  plists_.clear();
  num_links_ = 0;
  destinations_.clear();
}

bool PGraph::unlink(NodeId from, NodeId to) {
  AdjList* ps = parents_.find(to);
  if (ps == nullptr || !util::sorted_erase(*ps, from)) return false;
  --num_links_;
  return true;
}

bool PGraph::remove_link(NodeId from, NodeId to) {
  if (!unlink(from, to)) return false;
  plists_.erase(pack_link(from, to));
  return true;
}

void PGraph::set_plist(NodeId from, NodeId to, const PermissionList& list) {
  if (!has_link(from, to)) pgraph_detail::throw_missing_link(from, to);
  const std::uint64_t key = pack_link(from, to);
  if (list.empty()) {
    plists_.erase(key);
  } else {
    plists_[key] = list;
  }
}

bool PGraph::withdraw_permission(NodeId from, NodeId to, NodeId dest,
                                 NodeId next_hop) {
  const std::uint64_t key = pack_link(from, to);
  PermissionList* list = plists_.find(key);
  if (list == nullptr || !list->remove(dest, next_hop)) return false;
  if (list->empty()) {
    plists_.erase(key);
    unlink(from, to);
  }
  return true;
}

std::size_t PGraph::active_plist_count() const {
  std::size_t c = 0;
  for (const auto& [key, list] : plists_) {
    if (multi_homed(unpack_link(key).to)) ++c;
  }
  return c;
}

bool PGraph::operator==(const PGraph& other) const {
  if (root_ != other.root_ || num_links_ != other.num_links_ ||
      destinations_ != other.destinations_ ||
      plists_.size() != other.plists_.size()) {
    return false;
  }
  // Equal link counts make "every parents list here is theirs" equality.
  for (const auto& [n, ps] : parents_) {
    if (!ps.empty() && !(ps == other.parents(n))) return false;
  }
  for (const auto& [key, list] : plists_) {
    const PermissionList* theirs = other.plists_.find(key);
    if (theirs == nullptr || !(list == *theirs)) return false;
  }
  return true;
}

}  // namespace centaur::core
