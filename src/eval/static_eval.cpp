#include "eval/static_eval.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "centaur/announce.hpp"
#include "centaur/build_graph.hpp"
#include "policy/policy.hpp"
#include "policy/valley_free.hpp"

namespace centaur::eval {

using core::PGraph;
using policy::RouteEntry;
using policy::ValleyFreeRoutes;
using topo::Path;

namespace {

/// Merges destination `dest`'s complete co-optimal path DAG (as seen from
/// the P-graph root) into `pg`: every link on any maximally-preferred path,
/// with the per-dest-next permission entries of Table 2 generalised to path
/// sets (one entry per co-optimal next hop of the link head).
void add_dag_to_pgraph(PGraph& pg, const policy::MultipathRoutes& mp,
                       NodeId dest) {
  const NodeId root = pg.root();
  pg.mark_destination(dest);
  if (root == dest) return;
  std::vector<NodeId> stack{root};
  std::set<NodeId> visited{root};
  while (!stack.empty()) {
    const NodeId b = stack.back();
    stack.pop_back();
    for (NodeId nh : mp.at(b).next_hops) {
      // A next hop other than dest reaches it, so it has onward hops: every
      // link gets at least one entry.
      if (nh == dest) {
        pg.add_permission(b, nh, dest, core::kNoNextHop);
      } else {
        for (NodeId onward : mp.at(nh).next_hops) {
          pg.add_permission(b, nh, dest, onward);
        }
      }
      if (nh != dest && visited.insert(nh).second) stack.push_back(nh);
    }
  }
}

}  // namespace

PGraphStats compute_pgraph_stats(const AsGraph& g, std::size_t vantage_count,
                                 util::Rng& rng, PathSetMode mode,
                                 PlistScheme scheme,
                                 policy::TieBreak tie_break) {
  const std::size_t n = g.num_nodes();
  vantage_count = std::min(vantage_count, n);
  const std::vector<std::size_t> vantage =
      rng.sample_without_replacement(n, vantage_count);
  const std::uint64_t tie_seed = rng.next();

  // Accumulate each vantage node's path set destination-by-destination:
  // one solver run per destination serves every vantage.
  std::vector<PGraph> pgraphs;
  pgraphs.reserve(vantage.size());
  for (const std::size_t v : vantage) {
    pgraphs.emplace_back(static_cast<NodeId>(v));
  }
  PGraphStats stats;
  stats.vantage_count = vantage.size();

  for (NodeId dest = 0; dest < n; ++dest) {
    if (mode == PathSetMode::kMultipath) {
      const policy::MultipathRoutes mp = policy::MultipathRoutes::compute(g, dest);
      for (std::size_t i = 0; i < vantage.size(); ++i) {
        const NodeId v = static_cast<NodeId>(vantage[i]);
        if (v != dest && !mp.at(v).reachable()) {
          ++stats.unreachable_pairs;
          continue;
        }
        if (v != dest) {
          stats.path_length.add(static_cast<double>(mp.at(v).length));
        }
        add_dag_to_pgraph(pgraphs[i], mp, dest);
      }
    } else {
      const ValleyFreeRoutes routes =
          ValleyFreeRoutes::compute(g, dest, tie_break, tie_seed);
      for (std::size_t i = 0; i < vantage.size(); ++i) {
        const NodeId v = static_cast<NodeId>(vantage[i]);
        if (v == dest) {
          pgraphs[i].mark_destination(dest);
          continue;
        }
        if (!routes.at(v).reachable()) {
          ++stats.unreachable_pairs;
          continue;
        }
        const Path p = routes.path_from(v);
        stats.path_length.add(static_cast<double>(p.size() - 1));
        core::add_path_to_pgraph(pgraphs[i], p);
      }
    }
  }

  // Read off Table 4 / Table 5 metrics.
  std::size_t e1 = 0, e2 = 0, e3 = 0, egt3 = 0;
  double links_sum = 0, plists_sum = 0;
  for (std::size_t i = 0; i < vantage.size(); ++i) {
    PGraph& pg = pgraphs[i];
    if (scheme == PlistScheme::kMinimal) {
      core::minimize_permission_lists(pg);
    }
    links_sum += static_cast<double>(pg.num_links());
    std::size_t plists = 0;
    for (const auto& [link, plist] : pg.links()) {
      if (!pg.multi_homed(link.to) || plist.empty()) continue;
      ++plists;
      const std::size_t entries = plist.entry_count();
      if (entries == 1) {
        ++e1;
      } else if (entries == 2) {
        ++e2;
      } else if (entries == 3) {
        ++e3;
      } else {
        ++egt3;
      }
      stats.plist_bytes_raw.add(
          static_cast<double>(plist.byte_size(false)));
      stats.plist_bytes_bloom.add(
          static_cast<double>(plist.byte_size(true)));
    }
    plists_sum += static_cast<double>(plists);
  }

  if (!vantage.empty()) {
    stats.avg_links = links_sum / static_cast<double>(vantage.size());
    stats.avg_plists = plists_sum / static_cast<double>(vantage.size());
  }
  stats.plists_total = e1 + e2 + e3 + egt3;
  if (stats.plists_total > 0) {
    const double t = static_cast<double>(stats.plists_total);
    stats.frac_entries_1 = static_cast<double>(e1) / t;
    stats.frac_entries_2 = static_cast<double>(e2) / t;
    stats.frac_entries_3 = static_cast<double>(e3) / t;
    stats.frac_entries_gt3 = static_cast<double>(egt3) / t;
  }
  return stats;
}

PGraph build_node_pgraph(const AsGraph& g, NodeId vantage,
                         policy::TieBreak tie_break, std::uint64_t tie_seed) {
  std::map<NodeId, Path> selected;
  for (NodeId dest = 0; dest < g.num_nodes(); ++dest) {
    if (dest == vantage) {
      selected[dest] = Path{vantage};
      continue;
    }
    const ValleyFreeRoutes routes =
        ValleyFreeRoutes::compute(g, dest, tie_break, tie_seed);
    if (routes.at(vantage).reachable()) {
      selected[dest] = routes.path_from(vantage);
    }
  }
  return core::build_local_pgraph(vantage, selected);
}

MultipathDissemination multipath_dissemination_cost(const AsGraph& g,
                                                    NodeId vantage) {
  MultipathDissemination out;
  PGraph pg(vantage);
  for (NodeId dest = 0; dest < g.num_nodes(); ++dest) {
    if (dest == vantage) continue;
    const policy::MultipathRoutes mp = policy::MultipathRoutes::compute(g, dest);
    if (!mp.at(vantage).reachable()) continue;
    ++out.destinations;
    add_dag_to_pgraph(pg, mp, dest);

    // Count co-optimal paths and their total length by DP over the DAG
    // (lengths strictly decrease along next hops, so memo on node works).
    std::map<NodeId, std::pair<double, double>> memo;  // node -> (cnt, lenSum)
    auto dp = [&](auto&& self_fn, NodeId x) -> std::pair<double, double> {
      if (x == dest) return {1.0, 0.0};
      const auto it = memo.find(x);
      if (it != memo.end()) return it->second;
      double cnt = 0, len_sum = 0;
      for (const NodeId nh : mp.at(x).next_hops) {
        const auto [c, l] = self_fn(self_fn, nh);
        cnt += c;
        len_sum += l + c;  // every sub-path grows by the hop x->nh
      }
      return memo[x] = {cnt, len_sum};
    };
    const auto [cnt, len_sum] = dp(dp, vantage);
    out.total_paths += cnt;
    out.max_paths_per_dest = std::max(out.max_paths_per_dest, cnt);
    // One path-vector announcement per path: 23-byte update + 4 bytes per
    // AS on the path (path node count = hop count + 1).
    out.path_vector_bytes += 23.0 * cnt + 4.0 * (len_sum + cnt);
  }
  out.centaur_links = pg.num_links();
  const core::ExportedView view = core::make_export_view(pg, nullptr);
  out.centaur_bytes =
      core::diff_views(core::ExportedView{}, view).byte_size(false);
  return out;
}

FailureOverhead immediate_failure_overhead(const AsGraph& g,
                                           std::size_t link_sample,
                                           util::Rng& rng,
                                           policy::TieBreak tie_break) {
  const std::size_t n = g.num_nodes();
  link_sample = std::min(link_sample, g.num_links());
  const std::vector<std::size_t> sampled =
      rng.sample_without_replacement(g.num_links(), link_sample);
  const std::uint64_t tie_seed = rng.next();

  struct PerLink {
    std::size_t bgp = 0;
    // Neighbors (of either endpoint) whose exported view contains the link;
    // each gets exactly one Centaur link withdrawal.
    std::set<std::pair<NodeId, NodeId>> centaur_notify;
  };
  std::vector<PerLink> per_link(sampled.size());

  // One pass per destination, shared across all sampled links.
  for (NodeId dest = 0; dest < n; ++dest) {
    const ValleyFreeRoutes routes =
        ValleyFreeRoutes::compute(g, dest, tie_break, tie_seed);
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      const topo::Link& l = g.link(static_cast<LinkId>(sampled[i]));
      for (const auto& [endpoint, other] :
           {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
        const RouteEntry& e = routes.at(endpoint);
        if (!e.reachable() || e.next_hop != other) continue;
        // `endpoint` selected this link as its first hop for `dest`:
        // it must update every neighbor it had exported the route to.
        for (const topo::Neighbor& nb : g.neighbors(endpoint)) {
          if (nb.node == other) continue;  // split horizon
          if (!policy::may_export(e.source, nb.rel)) continue;
          ++per_link[i].bgp;  // per-destination withdrawal (path vector)
          per_link[i].centaur_notify.emplace(endpoint, nb.node);
        }
      }
    }
  }

  FailureOverhead out;
  out.links_sampled = sampled.size();
  for (const PerLink& pl : per_link) {
    out.bgp_messages.add(static_cast<double>(pl.bgp));
    out.centaur_messages.add(static_cast<double>(pl.centaur_notify.size()));
  }
  return out;
}

}  // namespace centaur::eval
