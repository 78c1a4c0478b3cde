#include "faults/campaign.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "eval/adversary.hpp"
#include "util/rng.hpp"

namespace centaur::faults {

namespace {

/// What a crashed router is: attached in place of the real instance, it
/// absorbs link-change notifications and any stray deliveries silently.
class DeadNode final : public sim::Node {
 public:
  void start() override {}
  void on_message(topo::NodeId, const sim::MessagePtr&) override {}
  void on_link_change(topo::NodeId, bool) override {}
};

}  // namespace

sim::Time CampaignResult::max_phase_convergence() const {
  sim::Time worst = 0;
  for (const PhaseReport& p : phases) {
    worst = std::max(worst, p.convergence_time);
  }
  return worst;
}

sim::Time CampaignResult::mean_phase_convergence() const {
  if (phases.empty()) return 0;
  sim::Time sum = 0;
  for (const PhaseReport& p : phases) sum += p.convergence_time;
  return sum / static_cast<sim::Time>(phases.size());
}

CampaignEngine::CampaignEngine(eval::ProtocolRun& run) : run_(run) {
  events_seen_ = run_.network().events_executed();
  result_.protocol = run_.protocol();
  result_.cold_start.name = "cold_start";
  result_.cold_start.messages = run_.cold_start().messages_sent;
  result_.cold_start.bytes = run_.cold_start().bytes_sent;
  result_.cold_start.dropped = run_.cold_start().messages_dropped;
  result_.cold_start.convergence_time = run_.cold_start_time();
  result_.cold_start.events = events_seen_;
  result_.cold_start.violations = violations_now();
}

std::size_t CampaignEngine::violations_now() const {
  const check::Analyzer* analyzer = run_.analyzer();
  return analyzer ? analyzer->report().violations_seen : 0;
}

CampaignResult CampaignEngine::run(const FaultScript& script) {
  script.validate(run_.graph());
  configure_adversarial(script);
  for (const FaultPhase& phase : script.phases) run_phase(script, phase);
  return result();
}

void CampaignEngine::configure_adversarial(const FaultScript& script) {
  if (adversarial_checked_) return;
  adversarial_checked_ = true;
  // The route audit must skip the misbehaving nodes themselves: a leaker's
  // or hijacker's local state is inconsistent by construction, and the
  // flags exist to measure how far the damage *spreads*.
  std::vector<topo::NodeId> adversaries;
  for (const FaultPhase& phase : script.phases) {
    for (const FaultAction& a : phase.actions) {
      switch (a.kind) {
        case ActionKind::kRouteLeak:
        case ActionKind::kRouteLeakStop:
        case ActionKind::kIntercept:
        case ActionKind::kInterceptStop:
          adversaries.push_back(a.node);
          blast_targets_.push_back(a.node);
          adversarial_ = true;
          break;
        case ActionKind::kLocalPrefFlip:
        case ActionKind::kLocalPrefRestore:
          blast_targets_.push_back(a.node);
          adversarial_ = true;
          break;
        case ActionKind::kRelChange: {
          const topo::Link& lk = run_.graph().link(a.link);
          blast_targets_.push_back(lk.a);
          blast_targets_.push_back(lk.b);
          adversarial_ = true;
          break;
        }
        default:
          break;
      }
    }
  }
  if (!adversarial_) return;
  std::sort(blast_targets_.begin(), blast_targets_.end());
  blast_targets_.erase(
      std::unique(blast_targets_.begin(), blast_targets_.end()),
      blast_targets_.end());
  if (check::Analyzer* analyzer = run_.analyzer()) {
    analyzer->set_route_audit({true, std::move(adversaries)});
  }
}

PhaseReport CampaignEngine::run_phase(const FaultScript& script,
                                      const FaultPhase& phase) {
  configure_adversarial(script);
  sim::Network& net = run_.network();
  check::Analyzer* analyzer = run_.analyzer();
  const std::size_t violations_before = violations_now();
  net.mark();
  if (adversarial_ && analyzer != nullptr) analyzer->begin_audit_window();
  const sim::Time start = net.simulator().now();
  for (const FaultAction& action : phase.actions) {
    if (action.at <= 0) {
      apply(script, action);
    } else {
      // Deferred actions re-enter apply() at their offset; &script stays
      // valid because the phase converges inside this call.
      net.simulator().schedule_at(
          start + action.at,
          [this, &script, action] { apply(script, action); });
    }
  }
  net.run_to_convergence();
  run_.analyze_quiescent();

  PhaseReport report;
  report.name = phase.name;
  report.actions = phase.actions.size();
  report.messages = net.window().messages_sent;
  report.bytes = net.window().bytes_sent;
  report.dropped = net.window().messages_dropped;
  report.convergence_time = net.window_convergence_time();
  report.events = net.events_executed() - events_seen_;
  report.violations = violations_now() - violations_before;
  if (adversarial_) {
    if (analyzer != nullptr) {
      const check::RouteAuditReport& audit = analyzer->audit_report();
      report.audit_routes_flagged = audit.leaked + audit.intercepted;
      if (audit.detected) {
        report.detection_events =
            static_cast<std::int64_t>(audit.first_events);
        report.detection_time = audit.first_time - start;
      }
    }
    report.blast_radius = eval::blast_radius(net, run_.graph().num_nodes(),
                                             blast_targets_);
  }
  events_seen_ = net.events_executed();
  result_.phases.push_back(report);
  return report;
}

CampaignResult CampaignEngine::result() const {
  CampaignResult out = result_;
  // Lifetime counters are never reset, so they cover cold start + phases.
  out.total_events = run_.network().events_executed();
  out.total_messages = run_.network().total_messages();
  out.total_bytes = run_.network().total_bytes();
  if (const check::Analyzer* analyzer = run_.analyzer()) {
    out.analysis = analyzer->report();
  }
  return out;
}

void CampaignEngine::apply(const FaultScript& script,
                           const FaultAction& action) {
  sim::Network& net = run_.network();
  switch (action.kind) {
    case ActionKind::kLinkDown:
      net.set_link_state(action.link, false);
      return;
    case ActionKind::kLinkUp:
      raise_link(action.link);
      return;
    case ActionKind::kSrlgDown:
      for (const topo::LinkId l : script.srlgs.at(action.group)) {
        net.set_link_state(l, false);
      }
      return;
    case ActionKind::kSrlgUp:
      for (const topo::LinkId l : script.srlgs.at(action.group)) {
        raise_link(l);
      }
      return;
    case ActionKind::kNodeCrash:
      crash(action.node);
      return;
    case ActionKind::kNodeRestart:
      restart(action.node);
      return;
    case ActionKind::kPartition: {
      const std::vector<topo::NodeId>& side =
          script.partitions.at(action.group);
      std::vector<bool> in_side(run_.graph().num_nodes(), false);
      for (const topo::NodeId v : side) in_side[v] = true;
      std::vector<topo::LinkId>& cut = cuts_[action.group];
      for (topo::LinkId l = 0; l < run_.graph().num_links(); ++l) {
        const topo::Link& lk = run_.graph().link(l);
        if (in_side[lk.a] != in_side[lk.b] && run_.graph().link_up(l)) {
          cut.push_back(l);
          net.set_link_state(l, false);
        }
      }
      // Remember the side membership while the cut is active: raise_link
      // consults it so a restart cannot resurrect a partitioned session.
      cut_sides_[action.group] = std::move(in_side);
      return;
    }
    case ActionKind::kHeal: {
      const auto it = cuts_.find(action.group);
      if (it == cuts_.end()) return;  // validate() precludes this
      // Retire the side membership first, or raise_link would defer the
      // cut's own links right back onto this heal.
      cut_sides_.erase(action.group);
      for (const topo::LinkId l : it->second) raise_link(l);
      cuts_.erase(it);
      return;
    }
    case ActionKind::kFlapStorm: {
      const sim::Time now = net.simulator().now();
      for (std::uint32_t k = 0; k < action.cycles; ++k) {
        const sim::Time down_at =
            static_cast<sim::Time>(2 * k) * action.period;
        const sim::Time up_at = down_at + action.period;
        if (down_at <= 0) {
          net.set_link_state(action.link, false);
        } else {
          net.simulator().schedule_at(now + down_at, [&net, l = action.link] {
            net.set_link_state(l, false);
          });
        }
        net.simulator().schedule_at(now + up_at, [&net, l = action.link] {
          net.set_link_state(l, true);
        });
      }
      return;
    }
    case ActionKind::kRouteLeak:
      eval::set_route_leak(net.node(action.node), true);
      return;
    case ActionKind::kRouteLeakStop:
      eval::set_route_leak(net.node(action.node), false);
      return;
    case ActionKind::kIntercept:
      eval::set_intercept(net.node(action.node), action.target, true);
      return;
    case ActionKind::kInterceptStop:
      eval::set_intercept(net.node(action.node), action.target, false);
      return;
    case ActionKind::kLocalPrefFlip:
      eval::set_local_pref_flip(net.node(action.node), true);
      return;
    case ActionKind::kLocalPrefRestore:
      eval::set_local_pref_flip(net.node(action.node), false);
      return;
    case ActionKind::kRelChange:
      // Operator-plane provider switch: rewire the shared graph, then tell
      // every node in ascending id order (deterministic fan-out).
      run_.graph().set_rel(action.link, action.rel);
      eval::relationships_changed_all(net, run_.graph().num_nodes());
      return;
  }
}

void CampaignEngine::crash(topo::NodeId node) {
  sim::Network& net = run_.network();
  // Stop the instance before its links drop: a crashed router does not
  // react to — or announce — its own failure.
  net.attach(node, std::make_unique<DeadNode>());
  std::vector<topo::LinkId>& downed = crashed_[node];
  for (const topo::Neighbor& nb : run_.graph().neighbors(node)) {
    if (run_.graph().link_up(nb.link)) {
      downed.push_back(nb.link);
      net.set_link_state(nb.link, false);
    }
  }
}

void CampaignEngine::restart(topo::NodeId node) {
  const auto it = crashed_.find(node);
  if (it == crashed_.end()) return;  // validate() precludes this
  const std::vector<topo::LinkId> downed = std::move(it->second);
  crashed_.erase(it);
  sim::Network& net = run_.network();
  net.attach(node, eval::make_protocol_node(run_.protocol(), run_.graph(),
                                            run_.options()));
  // start() while the links are still down: the fresh instance originates
  // its own state but sends nothing (no up session).  The link raises then
  // trigger the ordinary session-establishment exchanges on both sides.
  net.node(node).start();
  for (const topo::LinkId l : downed) raise_link(l);
}

void CampaignEngine::raise_link(topo::LinkId link) {
  const topo::Link& lk = run_.graph().link(link);
  for (const topo::NodeId end : {lk.a, lk.b}) {
    const auto it = crashed_.find(end);
    if (it == crashed_.end()) continue;
    // A dead router cannot open a session; hand the link to its restart.
    // With both endpoints crashed this defers twice — the first restart
    // re-enters here and hands the link on to the survivor, so it only
    // comes up after the *last* endpoint is back.
    if (std::find(it->second.begin(), it->second.end(), link) ==
        it->second.end()) {
      it->second.push_back(link);
    }
    return;
  }
  // A link crossing a still-active partition cut may not come back up
  // either (a crash can pre-empt the partition's claim on the link, and
  // the restart would otherwise resurrect a session across the cut); hand
  // it to that cut's heal.
  for (auto& [group, in_side] : cut_sides_) {
    if (in_side[lk.a] != in_side[lk.b]) {
      std::vector<topo::LinkId>& cut = cuts_[group];
      if (std::find(cut.begin(), cut.end(), link) == cut.end()) {
        cut.push_back(link);
      }
      return;
    }
  }
  run_.network().set_link_state(link, true);
}

CampaignResult run_scenario(const ScenarioSpec& spec) {
  const topo::AsGraph graph = spec.topology.build();
  return run_scenario(graph, spec);
}

CampaignResult run_scenario(const topo::AsGraph& graph,
                            const ScenarioSpec& spec) {
  util::Rng rng(spec.seed);
  eval::ProtocolRun run(graph, spec.protocol, rng, spec.options);
  CampaignEngine engine(run);
  CampaignResult result = engine.run(spec.script);
  result.scenario = spec.name;
  return result;
}

}  // namespace centaur::faults

// ------------------------------------------------------------------------
// Deprecated wrapper (declared in eval/experiments.hpp): the sequential
// link-flip experiment expressed as a campaign of one-action phases, so the
// scripted engine is the only event-driven execution path.

namespace centaur::eval {

FlipSeries run_link_flips(const topo::AsGraph& graph, Protocol protocol,
                          std::size_t flip_sample, util::Rng rng,
                          const RunOptions& options) {
  ProtocolRun run(graph, protocol, rng, options);

  flip_sample = std::min<std::size_t>(flip_sample, graph.num_links());
  const std::vector<std::size_t> links =
      rng.sample_without_replacement(graph.num_links(), flip_sample);

  faults::FaultScript script;
  for (const std::size_t raw : links) {
    const auto link = static_cast<topo::LinkId>(raw);
    const std::string stem = "link_" + std::to_string(link);
    script.phases.push_back(
        {stem + "_down", {faults::FaultAction::link_down(link)}});
    script.phases.push_back(
        {stem + "_up", {faults::FaultAction::link_up(link)}});
  }

  faults::CampaignEngine engine(run);
  const faults::CampaignResult result = engine.run(script);

  FlipSeries series;
  series.cold_start = run.cold_start();
  series.cold_start_time = run.cold_start_time();
  for (const faults::PhaseReport& phase : result.phases) {
    series.convergence_times.push_back(phase.convergence_time);
    series.message_counts.push_back(static_cast<double>(phase.messages));
  }
  series.events = result.total_events;
  series.total_messages = result.total_messages;
  series.total_bytes = result.total_bytes;
  series.analysis = result.analysis;
  return series;
}

}  // namespace centaur::eval
