#include "faults/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "topology/generator.hpp"
#include "topology/parser.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace centaur::faults {

topo::AsGraph TopologySpec::build() const {
  if (!file.empty()) return topo::load_as_rel_file(file).graph;
  util::Rng rng(seed);
  if (style == "brite") {
    return topo::brite_like(nodes, 2, std::max<std::size_t>(4, nodes / 40),
                            rng);
  }
  if (style == "caida") {
    return topo::tiered_internet(topo::caida_like_params(nodes), rng);
  }
  if (style == "hetop") {
    return topo::tiered_internet(topo::hetop_like_params(nodes), rng);
  }
  throw std::invalid_argument("TopologySpec: unknown style '" + style +
                              "' (want caida|hetop|brite)");
}

// ------------------------------------------------- spec extraction -------

namespace {

using util::json::JsonValue;

[[noreturn]] void spec_fail(const std::string& where, const std::string& what) {
  throw std::runtime_error("scenario \"" + where + "\": " + what);
}

void reject_unknown_keys(const JsonValue& obj, const std::string& where,
                         std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.object) {
    (void)value;
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      spec_fail(where, "unknown key \"" + key + "\"");
    }
  }
}

double get_number(const JsonValue& obj, const std::string& where,
                  const char* key, double fallback, bool required = false) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) spec_fail(where, std::string("missing \"") + key + "\"");
    return fallback;
  }
  if (v->type != JsonValue::Type::kNumber) {
    spec_fail(where, std::string("\"") + key + "\" must be a number");
  }
  return v->number;
}

std::uint64_t get_u64(const JsonValue& obj, const std::string& where,
                      const char* key, std::uint64_t fallback,
                      bool required = false) {
  const double d = get_number(obj, where, key, static_cast<double>(fallback),
                              required);
  if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d))) {
    spec_fail(where, std::string("\"") + key +
                         "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

std::string get_string(const JsonValue& obj, const std::string& where,
                       const char* key, const std::string& fallback,
                       bool required = false) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) spec_fail(where, std::string("missing \"") + key + "\"");
    return fallback;
  }
  if (v->type != JsonValue::Type::kString) {
    spec_fail(where, std::string("\"") + key + "\" must be a string");
  }
  return v->string;
}

template <typename Id>
std::vector<Id> id_array(const JsonValue& v, const std::string& where) {
  if (v.type != JsonValue::Type::kArray) spec_fail(where, "must be an array");
  std::vector<Id> out;
  out.reserve(v.array.size());
  for (const JsonValue& e : v.array) {
    if (e.type != JsonValue::Type::kNumber || e.number < 0 ||
        e.number != static_cast<double>(static_cast<std::uint64_t>(e.number))) {
      spec_fail(where, "entries must be non-negative integers");
    }
    out.push_back(static_cast<Id>(e.number));
  }
  return out;
}

topo::Relationship parse_rel(const JsonValue& obj, const std::string& where) {
  const std::string rel = get_string(obj, where, "rel", "", true);
  if (rel == "customer") return topo::Relationship::kCustomer;
  if (rel == "provider") return topo::Relationship::kProvider;
  if (rel == "peer") return topo::Relationship::kPeer;
  spec_fail(where,
            "\"rel\" must be customer|provider|peer, got \"" + rel + "\"");
}

FaultAction parse_action(const JsonValue& obj, const std::string& where) {
  if (obj.type != JsonValue::Type::kObject) {
    spec_fail(where, "action must be an object");
  }
  reject_unknown_keys(obj, where,
                      {"do", "at", "link", "node", "group", "cycles",
                       "period", "target", "rel"});
  const std::string kind = get_string(obj, where, "do", "", true);
  const double at_raw = get_number(obj, where, "at", 0);
  if (at_raw < 0) spec_fail(where, "\"at\" must be >= 0");
  const auto at = static_cast<sim::Time>(at_raw);
  const auto link =
      static_cast<topo::LinkId>(get_u64(obj, where, "link", 0));
  const auto node =
      static_cast<topo::NodeId>(get_u64(obj, where, "node", 0));
  const auto group =
      static_cast<std::size_t>(get_u64(obj, where, "group", 0));
  if (kind == "link_down") return FaultAction::link_down(link, at);
  if (kind == "link_up") return FaultAction::link_up(link, at);
  if (kind == "srlg_down") return FaultAction::srlg_down(group, at);
  if (kind == "srlg_up") return FaultAction::srlg_up(group, at);
  if (kind == "node_crash") return FaultAction::node_crash(node, at);
  if (kind == "node_restart") return FaultAction::node_restart(node, at);
  if (kind == "partition") return FaultAction::partition(group, at);
  if (kind == "heal") return FaultAction::heal(group, at);
  if (kind == "flap_storm") {
    const auto cycles =
        static_cast<std::uint32_t>(get_u64(obj, where, "cycles", 0, true));
    const auto period =
        static_cast<sim::Time>(get_number(obj, where, "period", 0, true));
    return FaultAction::flap_storm(link, cycles, period, at);
  }
  if (kind == "route_leak") return FaultAction::route_leak(node, at);
  if (kind == "route_leak_stop") {
    return FaultAction::route_leak_stop(node, at);
  }
  if (kind == "intercept" || kind == "intercept_stop") {
    const auto target =
        static_cast<topo::NodeId>(get_u64(obj, where, "target", 0, true));
    return kind == "intercept"
               ? FaultAction::intercept(node, target, at)
               : FaultAction::intercept_stop(node, target, at);
  }
  if (kind == "local_pref_flip") return FaultAction::local_pref_flip(node, at);
  if (kind == "local_pref_restore") {
    return FaultAction::local_pref_restore(node, at);
  }
  if (kind == "rel_change") {
    return FaultAction::rel_change(link, parse_rel(obj, where), at);
  }
  spec_fail(where, "unknown action \"" + kind + "\"");
}

}  // namespace

ScenarioSpec parse_scenario_json(const std::string& text) {
  const JsonValue doc = util::json::parse_json(text, "scenario JSON");
  if (doc.type != JsonValue::Type::kObject) {
    spec_fail("top level", "must be an object");
  }
  reject_unknown_keys(doc, "top level",
                      {"name", "topology", "protocol", "seed", "mrai",
                       "check", "srlgs", "partitions", "phases"});

  ScenarioSpec spec;
  spec.name = get_string(doc, "top level", "name", spec.name);

  if (const JsonValue* topo_v = doc.find("topology")) {
    if (topo_v->type != JsonValue::Type::kObject) {
      spec_fail("topology", "must be an object");
    }
    reject_unknown_keys(*topo_v, "topology",
                        {"file", "style", "nodes", "seed"});
    spec.topology.file = get_string(*topo_v, "topology", "file", "");
    spec.topology.style =
        get_string(*topo_v, "topology", "style", spec.topology.style);
    spec.topology.nodes = static_cast<std::size_t>(
        get_u64(*topo_v, "topology", "nodes", spec.topology.nodes));
    spec.topology.seed =
        get_u64(*topo_v, "topology", "seed", spec.topology.seed);
  }

  const std::string proto =
      get_string(doc, "top level", "protocol", "centaur");
  try {
    spec.protocol = eval::protocol_from_string(proto);
  } catch (const std::invalid_argument& e) {
    spec_fail("protocol", e.what());
  }

  spec.seed = get_u64(doc, "top level", "seed", spec.seed);
  spec.options.bgp_mrai =
      static_cast<sim::Time>(get_number(doc, "top level", "mrai", 0));
  const std::string check = get_string(doc, "top level", "check", "off");
  if (check == "off") {
    spec.options.analysis = eval::AnalysisMode::kOff;
  } else if (check == "collect") {
    spec.options.analysis = eval::AnalysisMode::kCollect;
  } else if (check == "assert") {
    spec.options.analysis = eval::AnalysisMode::kAssert;
  } else {
    spec_fail("check", "want off|collect|assert, got \"" + check + "\"");
  }

  if (const JsonValue* srlgs = doc.find("srlgs")) {
    if (srlgs->type != JsonValue::Type::kArray) {
      spec_fail("srlgs", "must be an array of link-id arrays");
    }
    for (std::size_t i = 0; i < srlgs->array.size(); ++i) {
      spec.script.srlgs.push_back(id_array<topo::LinkId>(
          srlgs->array[i], "srlgs[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* parts = doc.find("partitions")) {
    if (parts->type != JsonValue::Type::kArray) {
      spec_fail("partitions", "must be an array of node-id arrays");
    }
    for (std::size_t i = 0; i < parts->array.size(); ++i) {
      spec.script.partitions.push_back(id_array<topo::NodeId>(
          parts->array[i], "partitions[" + std::to_string(i) + "]"));
    }
  }

  const JsonValue* phases = doc.find("phases");
  if (phases == nullptr || phases->type != JsonValue::Type::kArray ||
      phases->array.empty()) {
    spec_fail("phases", "must be a non-empty array");
  }
  for (std::size_t i = 0; i < phases->array.size(); ++i) {
    const JsonValue& pv = phases->array[i];
    const std::string where = "phases[" + std::to_string(i) + "]";
    if (pv.type != JsonValue::Type::kObject) {
      spec_fail(where, "must be an object");
    }
    reject_unknown_keys(pv, where, {"name", "actions"});
    FaultPhase phase;
    phase.name = get_string(pv, where, "name", "phase" + std::to_string(i));
    const JsonValue* actions = pv.find("actions");
    if (actions == nullptr || actions->type != JsonValue::Type::kArray ||
        actions->array.empty()) {
      spec_fail(where, "\"actions\" must be a non-empty array");
    }
    for (std::size_t a = 0; a < actions->array.size(); ++a) {
      phase.actions.push_back(parse_action(
          actions->array[a], where + ".actions[" + std::to_string(a) + "]"));
    }
    spec.script.phases.push_back(std::move(phase));
  }
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read scenario file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_json(buf.str());
}

// --------------------------------------------- canonical campaign --------

FaultScript make_reliability_script(const topo::AsGraph& graph,
                                    std::uint64_t seed) {
  if (graph.num_nodes() < 4 || graph.num_links() < 4) {
    throw std::invalid_argument(
        "make_reliability_script: topology too small (need >= 4 nodes and "
        "links)");
  }
  util::Rng rng(seed);
  FaultScript script;

  // Shared-risk group: the first <= 3 links of the highest-degree node — a
  // line-card/conduit failure taking correlated links out the same instant.
  topo::NodeId hub = 0;
  for (topo::NodeId v = 1; v < graph.num_nodes(); ++v) {
    if (graph.degree(v) > graph.degree(hub)) hub = v;
  }
  std::vector<topo::LinkId> srlg;
  for (const topo::Neighbor& nb : graph.neighbors(hub)) {
    srlg.push_back(nb.link);
    if (srlg.size() == 3) break;
  }
  script.srlgs.push_back(std::move(srlg));

  // Crash target: a deterministic multi-homed node other than the hub (a
  // hub crash can disconnect smoke-scale graphs, which is a different
  // scenario than crash/recover).
  std::vector<topo::NodeId> candidates;
  for (topo::NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (v != hub && graph.degree(v) >= 2) candidates.push_back(v);
  }
  const topo::NodeId crash_node =
      candidates.empty() ? (hub == 0 ? 1 : 0)
                         : candidates[rng.index(candidates.size())];

  // Flap target: any link not incident to the hub (so the storm composes
  // with a later SRLG phase if scripts are extended) — fall back to link 0.
  topo::LinkId flap_link = 0;
  std::vector<topo::LinkId> flap_candidates;
  for (topo::LinkId l = 0; l < graph.num_links(); ++l) {
    const topo::Link& lk = graph.link(l);
    if (lk.a != hub && lk.b != hub) flap_candidates.push_back(l);
  }
  if (!flap_candidates.empty()) {
    flap_link = flap_candidates[rng.index(flap_candidates.size())];
  }

  // Partition side: BFS from a random start until half the nodes are in.
  const auto start = static_cast<topo::NodeId>(rng.index(graph.num_nodes()));
  std::vector<bool> in_side(graph.num_nodes(), false);
  std::vector<topo::NodeId> side;
  std::deque<topo::NodeId> frontier{start};
  in_side[start] = true;
  const std::size_t side_target = std::max<std::size_t>(1, graph.num_nodes() / 2);
  while (!frontier.empty() && side.size() < side_target) {
    const topo::NodeId v = frontier.front();
    frontier.pop_front();
    side.push_back(v);
    for (const topo::Neighbor& nb : graph.neighbors(v)) {
      if (!in_side[nb.node]) {
        in_side[nb.node] = true;
        frontier.push_back(nb.node);
      }
    }
  }
  script.partitions.push_back(std::move(side));

  script.phases.push_back(
      {"srlg_burst", {FaultAction::srlg_down(0)}});
  script.phases.push_back({"srlg_heal", {FaultAction::srlg_up(0)}});
  script.phases.push_back(
      {"crash_" + std::to_string(crash_node),
       {FaultAction::node_crash(crash_node)}});
  script.phases.push_back(
      {"restart_" + std::to_string(crash_node),
       {FaultAction::node_restart(crash_node)}});
  // 3 cycles x 2 ms: transitions land inside the 0-5 ms delay band, so
  // updates from one transition are still in flight when the next fires.
  script.phases.push_back(
      {"flap_storm", {FaultAction::flap_storm(flap_link, 3, 0.002)}});
  script.phases.push_back({"partition", {FaultAction::partition(0)}});
  script.phases.push_back({"heal", {FaultAction::heal(0)}});
  script.validate(graph);
  return script;
}

ScenarioSpec reliability_scenario(std::size_t nodes, std::uint64_t base_seed) {
  ScenarioSpec spec;
  spec.name = "reliability";
  spec.topology.style = "brite";
  spec.topology.nodes = nodes;
  spec.topology.seed = base_seed ^ 0xF160;  // the bench_fig6 construction
  spec.seed = base_seed;
  spec.script = make_reliability_script(spec.topology.build(),
                                        base_seed ^ 0xFA017);
  return spec;
}

// --------------------------------------------- adversarial packs ---------

namespace {

ScenarioSpec adversarial_base(const char* name, std::size_t nodes,
                              std::uint64_t base_seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.topology.style = "brite";
  spec.topology.nodes = nodes;
  spec.topology.seed = base_seed ^ 0xF160;  // the bench_fig6 construction
  spec.seed = base_seed;
  // The packs exist to be measured: route audits need an analyzer.
  spec.options.analysis = eval::AnalysisMode::kCollect;
  return spec;
}

std::size_t provider_count(const topo::AsGraph& g, topo::NodeId v) {
  std::size_t n = 0;
  for (const topo::Neighbor& nb : g.neighbors(v)) {
    if (nb.rel == topo::Relationship::kProvider) ++n;
  }
  return n;
}

}  // namespace

ScenarioSpec route_leak_scenario(std::size_t nodes, std::uint64_t base_seed) {
  ScenarioSpec spec = adversarial_base("route_leak", nodes, base_seed);
  const topo::AsGraph g = spec.topology.build();
  // Leaker: the classic leak is a multi-homed customer re-exporting one
  // provider's routes to its other providers, who each see an attractive
  // customer-class path straight into a valley.  Pick the node with the
  // most provider sessions (ties to the best-connected one, whose leak
  // also carries the largest table); a tier-1 node would be the *worst*
  // pick — nothing above it to leak.
  topo::NodeId leaker = 0;
  for (topo::NodeId v = 1; v < g.num_nodes(); ++v) {
    const auto score = [&g](topo::NodeId n) {
      return std::make_pair(provider_count(g, n), g.degree(n));
    };
    if (score(v) > score(leaker)) leaker = v;
  }
  spec.script.phases.push_back(
      {"leak_start", {FaultAction::route_leak(leaker)}});
  spec.script.phases.push_back(
      {"leak_stop", {FaultAction::route_leak_stop(leaker)}});
  spec.script.validate(g);
  return spec;
}

ScenarioSpec interception_scenario(std::size_t nodes,
                                   std::uint64_t base_seed) {
  ScenarioSpec spec = adversarial_base("interception", nodes, base_seed);
  const topo::AsGraph g = spec.topology.build();
  // Hijacker: the best-connected node — a fabricated customer route is
  // exportable to every session, so degree bounds the spread.
  topo::NodeId hijacker = 0;
  for (topo::NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.degree(v) > g.degree(hijacker)) hijacker = v;
  }
  // Victim: the lowest-id node with no real adjacency to the hijacker, so
  // the fabricated edge cannot be mistaken for a legitimate session.
  topo::NodeId victim = hijacker == 0 ? 1 : 0;
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v != hijacker && !g.maybe_rel(hijacker, v).has_value()) {
      victim = v;
      break;
    }
  }
  spec.script.phases.push_back(
      {"hijack", {FaultAction::intercept(hijacker, victim)}});
  spec.script.phases.push_back(
      {"withdraw", {FaultAction::intercept_stop(hijacker, victim)}});
  spec.script.validate(g);
  return spec;
}

ScenarioSpec policy_churn_scenario(std::size_t nodes,
                                   std::uint64_t base_seed) {
  ScenarioSpec spec = adversarial_base("policy_churn", nodes, base_seed);
  const topo::AsGraph g = spec.topology.build();
  // Churn node: the best-connected multi-homed customer (most provider
  // sessions, ties to degree).  The phases compose: first the node flips
  // its peer/provider preference classes (a latent policy change — tiered
  // topologies give a node either peers or providers, not both), then a
  // provider switch rewires one of its provider links into a peering.
  // While the peering holds, the flipped ranking actually reorders the
  // node's candidates (its new peer routes now rank below its remaining
  // provider routes), and the switch-back + restore unwind both.
  topo::NodeId churn = 0;
  for (topo::NodeId v = 1; v < g.num_nodes(); ++v) {
    const auto score = [&g](topo::NodeId n) {
      return std::make_pair(provider_count(g, n), g.degree(n));
    };
    if (score(v) > score(churn)) churn = v;
  }
  // The switch target: the churn node's first provider session.
  topo::LinkId switch_link = 0;
  topo::Relationship original = g.link(0).rel_ab;
  for (const topo::Neighbor& nb : g.neighbors(churn)) {
    if (nb.rel == topo::Relationship::kProvider) {
      switch_link = nb.link;
      original = g.link(nb.link).rel_ab;
      break;
    }
  }
  spec.script.phases.push_back(
      {"pref_flip", {FaultAction::local_pref_flip(churn)}});
  spec.script.phases.push_back(
      {"provider_switch",
       {FaultAction::rel_change(switch_link, topo::Relationship::kPeer)}});
  spec.script.phases.push_back(
      {"switch_back", {FaultAction::rel_change(switch_link, original)}});
  spec.script.phases.push_back(
      {"pref_restore", {FaultAction::local_pref_restore(churn)}});
  spec.script.validate(g);
  return spec;
}

}  // namespace centaur::faults
