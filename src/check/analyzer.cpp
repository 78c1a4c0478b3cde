#include "check/analyzer.hpp"

#include <algorithm>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "centaur/centaur_node.hpp"
#include "policy/route_view.hpp"
#include "policy/valley_free.hpp"

namespace centaur::check {

void AnalysisReport::print(std::ostream& os) const {
  os << "invariant analysis: " << checks_run << " node check(s), "
     << violations_seen << " violation(s)\n";
  for (const AnalysisEntry& e : entries) {
    os << "  t=" << e.at << " node=" << e.node << " ["
       << to_string(e.violation.invariant) << "] " << e.violation.detail
       << "\n";
  }
  if (violations_seen > entries.size()) {
    os << "  ... " << (violations_seen - entries.size())
       << " further violation(s) not recorded\n";
  }
}

Analyzer::Analyzer(sim::Network& net, AnalysisOptions options)
    : net_(net), options_(options) {
  if (options_.check_on_events) {
    net_.set_event_hook([this](topo::NodeId id) { check_node(id); });
  }
}

Analyzer::~Analyzer() { net_.set_event_hook(nullptr); }

std::size_t Analyzer::check_node(topo::NodeId id) {
  if (audit_.enabled) {
    ++audit_report_.events_observed;
    // Adversary nodes are excluded entirely: their local state is
    // deliberately inconsistent (fabricated routes, bypassed export rules);
    // the audit measures the spread of their misbehavior through honest
    // nodes.
    if (std::binary_search(audit_.adversaries.begin(),
                           audit_.adversaries.end(), id)) {
      return 0;
    }
  }
  std::size_t found = 0;
  const auto* node = dynamic_cast<const core::CentaurNode*>(&net_.node(id));
  if (node != nullptr) {  // structural analysis covers Centaur nodes only
    ++report_.checks_run;
    std::vector<Violation> violations = check_centaur_node(*node);
    found = violations.size();
    record(id, std::move(violations));
  }
  if (audit_.enabled) audit_routes(id);
  return found;
}

void Analyzer::record(topo::NodeId id, std::vector<Violation> violations) {
  report_.violations_seen += violations.size();
  for (Violation& v : violations) {
    if (report_.entries.size() >= options_.max_entries) break;
    report_.entries.push_back(
        AnalysisEntry{net_.simulator().now(), id, std::move(v)});
  }
}

void Analyzer::set_route_audit(RouteAuditConfig config) {
  audit_ = std::move(config);
  std::sort(audit_.adversaries.begin(), audit_.adversaries.end());
  audit_.adversaries.erase(
      std::unique(audit_.adversaries.begin(), audit_.adversaries.end()),
      audit_.adversaries.end());
  begin_audit_window();
}

void Analyzer::begin_audit_window() { audit_report_ = RouteAuditReport{}; }

void Analyzer::audit_routes(topo::NodeId id) {
  const auto* view = dynamic_cast<const policy::RouteView*>(&net_.node(id));
  if (view == nullptr) return;  // OSPF keeps next hops only — not auditable
  const topo::AsGraph& graph = net_.graph();
  bool flagged_any = false;
  view->for_each_selected_route([&](topo::NodeId dest, const Path& path) {
    ++audit_report_.routes_checked;
    std::optional<Violation> violation;
    // Adjacency/endpoint checks first, so the valley test below never has
    // to reason about fabricated pairs.
    if (path.empty() || path.front() != id || path.back() != dest) {
      violation = Violation{Invariant::kInterceptedRoute,
                            "route to " + std::to_string(dest) +
                                " does not run self..dest"};
    } else {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (!graph.has_link(path[i], path[i + 1])) {
          violation = Violation{
              Invariant::kInterceptedRoute,
              "route to " + std::to_string(dest) + " crosses fabricated hop " +
                  std::to_string(path[i]) + "->" + std::to_string(path[i + 1])};
          break;
        }
      }
      if (!violation && !policy::is_valley_free(graph, path)) {
        violation = Violation{Invariant::kLeakedRoute,
                              "route to " + std::to_string(dest) +
                                  " violates valley-freeness"};
      }
    }
    if (!violation) return;
    if (violation->invariant == Invariant::kInterceptedRoute) {
      ++audit_report_.intercepted;
    } else {
      ++audit_report_.leaked;
    }
    flagged_any = true;
    if (audit_report_.entries.size() < options_.max_entries) {
      audit_report_.entries.push_back(AnalysisEntry{
          net_.simulator().now(), id, std::move(*violation)});
    }
  });
  if (!flagged_any) return;
  if (!audit_report_.detected) {
    audit_report_.detected = true;
    audit_report_.first_events = audit_report_.events_observed;
    audit_report_.first_time = net_.simulator().now();
  }
  auto& flagged = audit_report_.flagged;
  const auto it = std::lower_bound(flagged.begin(), flagged.end(), id);
  if (it == flagged.end() || *it != id) flagged.insert(it, id);
}

std::size_t Analyzer::check_all() {
  std::size_t found = 0;
  for (topo::NodeId id = 0; id < net_.graph().num_nodes(); ++id) {
    found += check_node(id);
  }
  // The session sweep is part of the quiescence check and adds no node
  // check: checks_run and the audit's events_observed count node checks.
  const auto centaur = [this](topo::NodeId id) {
    return dynamic_cast<const core::CentaurNode*>(&net_.node(id));
  };
  for (topo::NodeId u = 0; u < net_.graph().num_nodes(); ++u) {
    const core::CentaurNode* receiver = centaur(u);
    if (receiver == nullptr) continue;
    for (const topo::NodeId v : receiver->rib_neighbors()) {
      const core::CentaurNode* sender = centaur(v);
      if (sender == nullptr) continue;
      std::vector<Violation> violations =
          check_received_view(*receiver, u, *sender, v);
      found += violations.size();
      record(u, std::move(violations));
    }
  }
  return found;
}

void Analyzer::expect_clean() const {
  if (report_.clean()) return;
  std::ostringstream os;
  report_.print(os);
  throw std::logic_error(os.str());
}

}  // namespace centaur::check
