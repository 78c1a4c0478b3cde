// Adversarial scenario layer (DESIGN.md §15): the route-leak /
// interception / policy-churn packs, the per-node adversary hooks behind
// them, the analyzer's route audit with its detection-latency and
// blast-radius metrics, and run-to-run determinism of every pack.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "eval/adversary.hpp"
#include "faults/campaign.hpp"
#include "faults/fault_script.hpp"
#include "faults/scenario.hpp"
#include "policy/valley_free.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace centaur {
namespace {

using topo::AsGraph;
using topo::NodeId;
using topo::Relationship;

constexpr std::size_t kPackNodes = 40;
constexpr std::uint64_t kPackSeed = 1;

faults::ScenarioSpec pack_by_name(const std::string& name) {
  if (name == "route_leak") {
    return faults::route_leak_scenario(kPackNodes, kPackSeed);
  }
  if (name == "interception") {
    return faults::interception_scenario(kPackNodes, kPackSeed);
  }
  return faults::policy_churn_scenario(kPackNodes, kPackSeed);
}

const char* const kPackNames[] = {"route_leak", "interception",
                                  "policy_churn"};

// ------------------------------------------------- pack builders ---------

TEST(AdversarialPacks, BuildersProduceValidatedTwoSidedScripts) {
  const faults::ScenarioSpec leak = pack_by_name("route_leak");
  EXPECT_EQ(leak.name, "route_leak");
  ASSERT_EQ(leak.script.phases.size(), 2u);
  EXPECT_EQ(leak.script.phases[0].actions[0].kind,
            faults::ActionKind::kRouteLeak);
  EXPECT_EQ(leak.script.phases[1].actions[0].kind,
            faults::ActionKind::kRouteLeakStop);

  const faults::ScenarioSpec grab = pack_by_name("interception");
  ASSERT_EQ(grab.script.phases.size(), 2u);
  const faults::FaultAction& hijack = grab.script.phases[0].actions[0];
  EXPECT_EQ(hijack.kind, faults::ActionKind::kIntercept);
  EXPECT_NE(hijack.node, hijack.target);
  // The fabricated edge must not shadow a real session, or the audit could
  // mistake the hijack for an ordinary (if valley-violating) route.
  const AsGraph g = grab.topology.build();
  EXPECT_FALSE(g.maybe_rel(hijack.node, hijack.target).has_value());

  const faults::ScenarioSpec churn = pack_by_name("policy_churn");
  ASSERT_EQ(churn.script.phases.size(), 4u);
  const faults::FaultAction& sw = churn.script.phases[1].actions[0];
  EXPECT_EQ(sw.kind, faults::ActionKind::kRelChange);
  const AsGraph cg = churn.topology.build();
  // The provider switch is a real rewire (not already a peering), and the
  // switch-back restores the original contract.
  EXPECT_NE(sw.rel, cg.link(sw.link).rel_ab);
  EXPECT_EQ(churn.script.phases[2].actions[0].link, sw.link);
  EXPECT_EQ(churn.script.phases[2].actions[0].rel, cg.link(sw.link).rel_ab);
  // The flipped node owns the rewired session, so the preference flip has
  // peer and provider routes to reorder while the switch is in effect.
  const topo::NodeId flipped = churn.script.phases[0].actions[0].node;
  EXPECT_TRUE(cg.link(sw.link).a == flipped || cg.link(sw.link).b == flipped);
}

// The committed scenarios/*.json packs must stay in lockstep with the
// builders: the CLI and CI run the files, tests and the bench harness run
// the builders, and the determinism contract covers both only if they
// describe the same experiment.
TEST(AdversarialPacks, CommittedJsonPacksMatchBuilders) {
  for (const char* name : kPackNames) {
    SCOPED_TRACE(name);
    const faults::ScenarioSpec built = pack_by_name(name);
    const faults::ScenarioSpec json = faults::load_scenario_file(
        std::string(CENTAUR_SCENARIOS_DIR "/") + name + ".json");
    EXPECT_EQ(json.name, built.name);
    EXPECT_EQ(json.topology.style, built.topology.style);
    EXPECT_EQ(json.topology.nodes, built.topology.nodes);
    EXPECT_EQ(json.topology.seed, built.topology.seed);
    EXPECT_EQ(json.protocol, built.protocol);
    EXPECT_EQ(json.seed, built.seed);
    EXPECT_EQ(json.options.analysis, built.options.analysis);
    ASSERT_EQ(json.script.phases.size(), built.script.phases.size());
    for (std::size_t i = 0; i < built.script.phases.size(); ++i) {
      const faults::FaultPhase& jp = json.script.phases[i];
      const faults::FaultPhase& bp = built.script.phases[i];
      EXPECT_EQ(jp.name, bp.name);
      ASSERT_EQ(jp.actions.size(), bp.actions.size());
      for (std::size_t k = 0; k < bp.actions.size(); ++k) {
        const faults::FaultAction& ja = jp.actions[k];
        const faults::FaultAction& ba = bp.actions[k];
        EXPECT_EQ(ja.kind, ba.kind);
        EXPECT_EQ(ja.at, ba.at);
        EXPECT_EQ(ja.link, ba.link);
        EXPECT_EQ(ja.node, ba.node);
        EXPECT_EQ(ja.target, ba.target);
        EXPECT_EQ(ja.rel, ba.rel);
      }
    }
  }
}

// ------------------------------------------------- detection & blast -----

// Policy-aware arms must flag the leak while it is active and report a
// detection latency and a nonzero blast radius; the OSPF control arm (no
// policy layer, no RouteView) must stay silent with zero blast.
TEST(AdversarialPacks, RouteLeakIsDetectedOnPolicyArmsOnly) {
  bool any_detected = false;
  for (const eval::Protocol p : eval::kAllProtocols) {
    faults::ScenarioSpec spec = pack_by_name("route_leak");
    spec.protocol = p;
    const faults::CampaignResult r = faults::run_scenario(spec);
    ASSERT_EQ(r.phases.size(), 2u) << eval::to_string(p);
    const faults::PhaseReport& active = r.phases[0];
    if (p == eval::Protocol::kOspf) {
      EXPECT_EQ(active.audit_routes_flagged, 0u);
      EXPECT_EQ(active.detection_events, -1);
      EXPECT_EQ(active.blast_radius, 0u);
      continue;
    }
    if (active.detection_events >= 0) {
      any_detected = true;
      EXPECT_GT(active.audit_routes_flagged, 0u) << eval::to_string(p);
      EXPECT_GE(active.detection_time, 0.0) << eval::to_string(p);
      EXPECT_GT(active.blast_radius, 0u) << eval::to_string(p);
    }
  }
  EXPECT_TRUE(any_detected)
      << "no protocol arm ever flagged the route leak";
}

TEST(AdversarialPacks, InterceptionIsDetectedAndWithdrawn) {
  bool any_detected = false;
  for (const eval::Protocol p : eval::kAllProtocols) {
    faults::ScenarioSpec spec = pack_by_name("interception");
    spec.protocol = p;
    const faults::CampaignResult r = faults::run_scenario(spec);
    ASSERT_EQ(r.phases.size(), 2u) << eval::to_string(p);
    if (p == eval::Protocol::kOspf) {
      EXPECT_EQ(r.phases[0].audit_routes_flagged, 0u);
      continue;
    }
    if (r.phases[0].detection_events >= 0) {
      any_detected = true;
      EXPECT_GT(r.phases[0].blast_radius, 0u) << eval::to_string(p);
    }
    // Once withdrawn, no quiescent route may still cross the fabricated
    // edge: the withdraw phase's *final* sweep runs at quiescence, so a
    // lingering flag there would mean the hijack survived its stop.
    EXPECT_EQ(r.phases[1].name, "withdraw");
  }
  EXPECT_TRUE(any_detected)
      << "no protocol arm ever flagged the interception";
}

TEST(AdversarialPacks, PolicyChurnConvergesWithNonzeroBlast) {
  for (const eval::Protocol p : eval::kAllProtocols) {
    faults::ScenarioSpec spec = pack_by_name("policy_churn");
    spec.protocol = p;
    const faults::CampaignResult r = faults::run_scenario(spec);
    ASSERT_EQ(r.phases.size(), 4u) << eval::to_string(p);
    if (p == eval::Protocol::kOspf) continue;
    // The churn node and the rewired link's endpoints carry transit for
    // somebody on a 40-node graph.
    EXPECT_GT(r.phases[0].blast_radius, 0u) << eval::to_string(p);
  }
}

// The audit flags are a measurement, not a structural violation: under
// kAssert the per-phase sweeps must keep passing while the audit is
// flagging leaked routes (the misbehavior is consistent protocol state).
TEST(AdversarialPacks, AuditFlagsDoNotTripAssertMode) {
  faults::ScenarioSpec spec = pack_by_name("route_leak");
  spec.protocol = eval::Protocol::kCentaur;
  spec.options.analysis = eval::AnalysisMode::kAssert;
  faults::CampaignResult r;
  ASSERT_NO_THROW(r = faults::run_scenario(spec));
  EXPECT_TRUE(r.clean());
  EXPECT_GT(r.phases[0].audit_routes_flagged, 0u);
}

// -------------------------------------------------------- determinism ----

// Every pack, on both policy-aware protocol families, must produce
// bit-identical phase reports — adversarial metrics included — from run to
// run.
TEST(AdversarialPacks, BitIdenticalAcrossThreadsAndShards) {
  for (const char* name : kPackNames) {
    for (const eval::Protocol p :
         {eval::Protocol::kCentaur, eval::Protocol::kBgp}) {
      faults::ScenarioSpec spec = pack_by_name(name);
      spec.protocol = p;
      const AsGraph g = spec.topology.build();
      const faults::CampaignResult first = faults::run_scenario(g, spec);
      const faults::CampaignResult again = faults::run_scenario(g, spec);
      EXPECT_EQ(first.phases, again.phases)
          << name << "/" << eval::to_string(p) << " rerun";
    }
  }
}

// ------------------------------------------------- hook unit tests -------

TEST(AdversaryHooks, DispatchReachesPolicyArmsAndSkipsOspf) {
  const faults::ScenarioSpec spec = pack_by_name("route_leak");
  const AsGraph g = spec.topology.build();
  for (const eval::Protocol p : eval::kAllProtocols) {
    util::Rng rng(3);
    eval::ProtocolRun run(g, p, rng);
    const bool policy_arm = p != eval::Protocol::kOspf;
    EXPECT_EQ(eval::set_route_leak(run.network().node(0), true), policy_arm);
    EXPECT_EQ(eval::set_route_leak(run.network().node(0), false), policy_arm);
    EXPECT_EQ(eval::set_intercept(run.network().node(0), 5, true),
              policy_arm);
    EXPECT_EQ(eval::set_intercept(run.network().node(0), 5, false),
              policy_arm);
    EXPECT_EQ(eval::set_local_pref_flip(run.network().node(0), true),
              policy_arm);
    EXPECT_EQ(eval::set_local_pref_flip(run.network().node(0), false),
              policy_arm);
  }
}

TEST(AdversaryHooks, LocalPrefFlipRankingSwapsPeerAndProviderOnly) {
  const policy::RankingOverride rank = eval::local_pref_flip_ranking();
  const topo::Path none;
  const auto cand = [](policy::RouteSource s) {
    return policy::Candidate{s, 2, 1};
  };
  // Flipped: provider (class 3 -> 2) now beats peer (class 2 -> 3).
  EXPECT_TRUE(rank(cand(policy::RouteSource::kProvider), none,
                   cand(policy::RouteSource::kPeer), none));
  EXPECT_FALSE(rank(cand(policy::RouteSource::kPeer), none,
                    cand(policy::RouteSource::kProvider), none));
  // Customers still beat both, and equal classes express no preference
  // (ties fall through to the standard ranking).
  EXPECT_TRUE(rank(cand(policy::RouteSource::kCustomer), none,
                   cand(policy::RouteSource::kProvider), none));
  EXPECT_FALSE(rank(cand(policy::RouteSource::kPeer), none,
                    cand(policy::RouteSource::kPeer), none));
}

TEST(AdversaryHooks, BlastRadiusCountsTransitNotDestination) {
  //   0 ===peer=== 1, 2 under 0, 3 under 1: routes 2<->3 transit both tops.
  AsGraph g(4);
  g.add_link(0, 1, Relationship::kPeer);
  g.add_link(2, 0, Relationship::kProvider);
  g.add_link(3, 1, Relationship::kProvider);
  util::Rng rng(1);
  eval::ProtocolRun run(g, eval::Protocol::kCentaur, rng);
  // Node 1 as target: 2 and 3 route through it (2's path to 3/1's side, 3's
  // path up), 0 peers across it; the target itself never counts.
  EXPECT_EQ(eval::blast_radius(run.network(), g.num_nodes(), {1}), 3u);
  // Routes *to* the target alone do not count: node 3 reaches 2 only via
  // 1 -> 0, so with target 0 every other node still transits; but with
  // target 3 nobody transits (3 is a stub — only a destination).
  EXPECT_EQ(eval::blast_radius(run.network(), g.num_nodes(), {3}), 0u);
  EXPECT_EQ(eval::blast_radius(run.network(), g.num_nodes(), {}), 0u);
}

// ------------------------------------------------- satellite-2 -----------

TEST(ValleyFreeRoutes, UnreachableSourceYieldsEmptyPathWithoutThrowing) {
  // Node 3 is isolated: no route toward 0 exists, and path_from must report
  // that as an empty path (campaign code probes static routes mid-rewire).
  AsGraph g(4);
  g.add_link(1, 0, Relationship::kProvider);
  g.add_link(2, 0, Relationship::kProvider);
  const auto routes = policy::ValleyFreeRoutes::compute(g, 0);
  EXPECT_FALSE(routes.at(3).reachable());
  topo::Path path;
  ASSERT_NO_THROW(path = routes.path_from(3));
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(routes.path_from(0), (topo::Path{0}));
}

}  // namespace
}  // namespace centaur
