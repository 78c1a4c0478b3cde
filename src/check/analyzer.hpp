// Analysis mode: invariant checking wired into the event-driven simulator.
//
// An Analyzer attaches to a sim::Network and re-validates protocol
// invariants while a simulation runs: after every delivered message or
// link-change notification it checks the touched node (opt-out), and
// check_all() sweeps every node and every session — callers invoke it at
// quiescence points (post-convergence).  Non-Centaur nodes are skipped, so
// the analyzer is harmless on BGP/OSPF runs.
//
// Violations are recorded with their event context (simulated time, node)
// into an AnalysisReport.  Debug builds (CENTAUR_CHECK) run the tier-1
// protocol tests and examples with an analyzer attached and assert a clean
// report via expect_clean(); `centaur simulate --check 1` collects and
// prints the report instead.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "check/invariants.hpp"
#include "sim/network.hpp"

namespace centaur::check {

struct AnalysisOptions {
  /// Check the touched node after every message delivery / link change.
  /// Disable for large runs where only quiescence sweeps are affordable.
  bool check_on_events = true;
  /// Recording cap: past this many entries, violations are still counted
  /// (violations_seen) but their details are dropped.
  std::size_t max_entries = 64;
};

/// One recorded violation with its event context.
struct AnalysisEntry {
  sim::Time at = 0;
  topo::NodeId node = topo::kInvalidNode;
  Violation violation;
};

/// Route-audit configuration (DESIGN.md §15): when enabled, every node
/// check also audits the node's selected routes (via policy::RouteView)
/// against the ground-truth AS graph, flagging valley violations
/// (kLeakedRoute) and fabricated/mis-terminated paths (kInterceptedRoute).
/// Known adversary nodes are excluded from all checks — their local state
/// is deliberately inconsistent; the audit measures the *spread* of their
/// misbehavior through honest nodes.
struct RouteAuditConfig {
  bool enabled = false;
  std::vector<topo::NodeId> adversaries;  ///< sorted ascending
};

/// Route-audit results for the current audit window.  Everything here is a
/// pure function of the deterministic event stream: `events_observed`
/// counts analyzer node-checks (one per event-hook call and one per sweep
/// entry), not simulator events.
struct RouteAuditReport {
  std::size_t routes_checked = 0;
  std::size_t leaked = 0;       ///< valley-violating selected routes seen
  std::size_t intercepted = 0;  ///< fabricated/mis-terminated routes seen
  std::size_t events_observed = 0;  ///< node-checks run this window
  bool detected = false;
  std::size_t first_events = 0;  ///< events_observed at the first flag
  sim::Time first_time = 0;      ///< virtual time at the first flag
  std::vector<topo::NodeId> flagged;  ///< distinct flagged nodes, ascending
  /// Detail entries (capped like AnalysisReport): kept separate from the
  /// structural report so CENTAUR_CHECK=assert stays clean on adversarial
  /// runs — the audit flags *are* the measurement, not a test failure.
  std::vector<AnalysisEntry> entries;
};

struct AnalysisReport {
  std::vector<AnalysisEntry> entries;
  std::size_t checks_run = 0;       ///< node-level checks executed
  std::size_t violations_seen = 0;  ///< >= entries.size() once truncated
  bool clean() const { return violations_seen == 0; }
  void print(std::ostream& os) const;
};

class Analyzer {
 public:
  explicit Analyzer(sim::Network& net, AnalysisOptions options = {});
  ~Analyzer();  // detaches the event hook
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// Checks one node now; returns the number of violations found.  The
  /// checked contract is valid at every event boundary, not just at
  /// quiescence (see check_centaur_node).
  std::size_t check_node(topo::NodeId id);

  /// Checks every node, then every session's received graph against its
  /// sender's view (check_received_view).  Callers invoke it at quiescence
  /// only.  Returns violations found.
  std::size_t check_all();

  const AnalysisReport& report() const { return report_; }

  /// Enables (or reconfigures) the route audit.  `adversaries` need not be
  /// sorted; it is normalized here.
  void set_route_audit(RouteAuditConfig config);
  /// Resets the audit counters/flags for a new measurement window (the
  /// campaign engine calls this per phase).
  void begin_audit_window();
  const RouteAuditReport& audit_report() const { return audit_report_; }

  /// Throws std::logic_error carrying the printed report if any violation
  /// has been recorded — the CENTAUR_CHECK assert mode.
  void expect_clean() const;

 private:
  /// Audits `node`'s selected routes against the AS graph; records flags
  /// into audit_report_ (never into the structural report).
  void audit_routes(topo::NodeId id);
  /// Adds `violations`, found at node `id`, to the report.
  void record(topo::NodeId id, std::vector<Violation> violations);

  sim::Network& net_;
  AnalysisOptions options_;
  AnalysisReport report_;
  RouteAuditConfig audit_;
  RouteAuditReport audit_report_;
};

}  // namespace centaur::check
