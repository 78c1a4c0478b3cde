#include "centaur/query.hpp"

namespace centaur::core {

PathStatus query_path_into(const PGraph& g, const PathQuery& q, Path& out) {
  // Fast reject before the walk: a non-root id without in-links derives to
  // nothing, and PGraph::contains is one probe (the walk would fail the same
  // way, visiting only `dest`, on its empty parents() list — this just skips
  // the setup).
  if (q.dest != g.root() && !g.contains(q.dest)) {
    out.clear();
    if (q.visited != nullptr) q.visited->assign(1, q.dest);
    return PathStatus::kUnreachable;
  }
  return query_path_over(PGraphView{&g}, q, out);
}

PathResult query_path(const PGraph& g, const PathQuery& q) {
  PathResult result;
  result.status = query_path_into(g, q, result.path);
  return result;
}

}  // namespace centaur::core
