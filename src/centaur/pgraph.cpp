#include "centaur/pgraph.hpp"

#include "centaur/query.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace centaur::core {

namespace pgraph_detail {

[[noreturn]] void throw_missing_link(NodeId from, NodeId to) {
  throw std::out_of_range("PGraph::link_data: no link " +
                          std::to_string(from) + "->" + std::to_string(to));
}

}  // namespace pgraph_detail

void PGraph::reset(NodeId root) {
  root_ = root;
  links_.clear();
  // The parents table keeps its capacity: resets happen on session
  // restarts, where the graph re-grows to a similar size.
  parents_.clear_values();
  destinations_.clear();
}

bool PGraph::remove_link(NodeId from, NodeId to) {
  if (!links_.erase(pack_link(from, to))) return false;
  // The parents slot exists whenever the link did (ensure_link created it),
  // so the find cannot miss on this path.
  util::sorted_erase(*parents_.find(to), from);
  return true;
}

std::size_t PGraph::active_plist_count() const {
  std::size_t c = 0;
  for (const auto& [key, data] : links_) {
    if (multi_homed(unpack_link(key).to) && !data.plist.empty()) ++c;
  }
  return c;
}

std::optional<Path> PGraph::derive_path(NodeId dest,
                                        std::vector<NodeId>* visited_out) const {
  Path out;
  if (!derive_path_into(dest, out, visited_out)) return std::nullopt;
  return out;
}

bool PGraph::derive_path_into(NodeId dest, Path& out,
                              std::vector<NodeId>* visited_out) const {
  // Deprecated wrapper: the walk lives in centaur/query.hpp now (the
  // unified PathQuery/PathResult surface); both legacy entry points share
  // its contract, including dest == root() => {root}.
  return query_path_into(*this, PathQuery{dest, visited_out}, out) ==
         PathStatus::kFound;
}

bool PGraph::operator==(const PGraph& other) const {
  if (root_ != other.root_ || destinations_ != other.destinations_ ||
      links_.size() != other.links_.size()) {
    return false;
  }
  for (const auto& [key, data] : links_) {
    const LinkData* theirs = other.links_.find(key);
    if (theirs == nullptr || !(data.plist == theirs->plist)) {
      return false;
    }
  }
  return true;
}

}  // namespace centaur::core
