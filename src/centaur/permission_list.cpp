#include "centaur/permission_list.hpp"

#include <algorithm>

namespace centaur::core {

std::size_t PermissionList::remove_dest(NodeId dest) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    if (pair_dest(pairs_[i]) != dest) pairs_[kept++] = pairs_[i];
  }
  const std::size_t removed = pairs_.size() - kept;
  while (pairs_.size() > kept) pairs_.pop_back();
  return removed;
}

std::size_t PermissionList::entry_count() const {
  std::size_t groups = 0;
  NodeId prev = kNoNextHop;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const NodeId next = pair_next(pairs_[i]);
    if (i == 0 || next != prev) ++groups;
    prev = next;
  }
  return groups;
}

std::vector<PermissionList::Entry> PermissionList::entries() const {
  std::vector<Entry> out;
  for_each_entry([&out](NodeId next_hop, const DestRun& dests) {
    Entry& e = out.emplace_back(Entry{next_hop, {}});
    for (const NodeId d : dests) e.dests.push_back(d);
  });
  return out;
}

PermissionList PermissionList::filtered(
    const std::function<bool(NodeId dest)>& keep_dest) const {
  PermissionList out;
  for (const std::uint64_t pair : pairs_) {
    if (keep_dest(pair_dest(pair))) out.pairs_.push_back(pair);
  }
  return out;
}

std::size_t PermissionList::byte_size(bool bloom_compressed) const {
  std::size_t bytes = 0;
  for_each_entry([&](NodeId, const DestRun& dests) {
    bytes += 4;  // next-hop id
    if (bloom_compressed) {
      const util::BloomFilter f(dests.size(), 0.01);
      bytes += f.byte_size();
    } else {
      bytes += 4 * dests.size();
    }
  });
  return bytes;
}

util::BloomFilter PermissionList::compress_dests(
    const std::vector<NodeId>& dests, double fp_rate) {
  util::BloomFilter f(dests.size(), fp_rate);
  for (NodeId d : dests) f.insert(d);
  return f;
}

void ExhaustivePermissionList::add(const Path& path) { paths_.insert(path); }

bool ExhaustivePermissionList::permits(const Path& path) const {
  return paths_.count(path) > 0;
}

std::size_t ExhaustivePermissionList::byte_size() const {
  std::size_t bytes = 0;
  for (const Path& p : paths_) bytes += 4 * p.size() + 2;  // ids + length tag
  return bytes;
}

}  // namespace centaur::core
