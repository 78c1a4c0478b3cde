// BuildGraph (paper S4.2, Table 2): construct a local P-graph, with
// Permission Lists, from a selected path set.  A destination has one
// selected path and the path is loop-free, so each path records exactly one
// (destination, next hop) pair per link: a local link's pair count is the
// paper's per-link path counter (S4.3.2).
#pragma once

#include <stdexcept>

#include "centaur/pgraph.hpp"

namespace centaur::core {

/// Incremental form of BuildGraph's inner loop: merges one selected path
/// (root..dest) into `g` — its links and one permission entry per link.
/// Precondition: path runs g.root()..dest.
void add_path_to_pgraph(PGraph& g, const Path& path);

/// Inverse of add_path_to_pgraph: removes the path's permission entries,
/// unmarks the destination, and drops every link whose list empties
/// (S4.3.2's counter rule: no selected path uses it any more).  Throws
/// std::logic_error, leaving `g` unchanged, when a link of the path does
/// not carry its entry — the path was never added, or was removed already.
void remove_path_from_pgraph(PGraph& g, const Path& path);

/// Builds the local P-graph of `root` from its selected paths.
///
/// `selected` is any container iterable as (destination, path) pairs — the
/// node's own selected-path table or an ad-hoc vector of pairs; every path
/// must start at `root` and end at its destination (std::invalid_argument
/// otherwise).  The trivial path {root} marks `root` itself as a
/// destination.
///
/// Per Table 2, for every link A->B on the path for destination D a
/// permission entry (D, nextHop(B)) is recorded; entries are *active* (shown
/// to DerivePath and announcements) only while B is multi-homed, which also
/// realises S4.3.2's rule that Permission Lists appear when a node becomes
/// multi-homed and disappear when it reverts to single-homed.  Each link's
/// pair count is the number of selected paths traversing it.
template <typename SelectedPaths>
PGraph build_local_pgraph(NodeId root, const SelectedPaths& selected) {
  PGraph g(root);
  for (const auto& [dest, path] : selected) {
    if (path.empty() || path.front() != root || path.back() != dest) {
      throw std::invalid_argument("build_local_pgraph: path must run root..dest");
    }
    add_path_to_pgraph(g, path);
  }
  return g;
}

/// Minimal Permission-List scheme (the paper's Figure 4(c)): for every
/// multi-homed node, the in-link carrying the most destinations becomes the
/// unlisted *default* link (ties to the lowest parent id); the other
/// in-links keep their explicit entries.  DerivePath resolves a multi-homed
/// node by explicit permission first and falls back to the single unlisted
/// link, so derived paths are unchanged — this purely shrinks announcement
/// state (Table 4 counts one Permission List per *extra* in-link under this
/// scheme).  Returns the number of lists cleared.
std::size_t minimize_permission_lists(PGraph& g);

/// Incremental form: re-runs the per-head minimization only for the listed
/// candidate heads (non-multi-homed entries are skipped; duplicates within
/// one call are deduplicated).  Each head's minimization reads and writes
/// only that head's in-links, so partitioning the heads across calls in any
/// order equals one full pass.  Precondition: every listed head carries
/// canonical (not yet minimized) permission entries — minimization is not
/// idempotent (a cleared default link would demote itself on a re-run), so
/// a head must appear in at most one batch between graph edits that touch
/// its in-links.  Returns the number of lists cleared.
std::size_t minimize_permission_lists_at(PGraph& g,
                                         std::vector<NodeId> heads);

}  // namespace centaur::core
