// Pinned oracle runs for the incremental recompute plane (DESIGN.md §12.2).
//
// The plane's from-scratch reference lives in the invariant analyzer
// (src/check).  At every event kExportView rebuilds both category views
// with make_export_view, kSelection re-ranks every destination from
// scratch and kDerivedCache re-walks every marked destination; at every
// quiescence sweep kReceivedView rebuilds each session's view from its
// sender's local P-graph.  These tests run the tier-1 smoke analogues of
// the figure experiments (fig 6/7 link flips, fig 8 sweep sizes), the
// builtin reliability campaign and the three adversarial packs once, with
// the analyzer collecting, and assert a clean report after every phase.
//
// Each scenario also pins its exact event, message and byte counts.  The
// pins catch what keeps every node consistent but changes the wire: a
// Permission-List upsert sent although the list did not change leaves
// every graph intact and only costs bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "centaur/centaur_node.hpp"
#include "eval/experiments.hpp"
#include "faults/campaign.hpp"
#include "faults/scenario.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace centaur {
namespace {

/// A run's lifetime totals: cold start plus every phase.
struct Pin {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

void expect_pin(const Pin& want, const Pin& got, const std::string& context) {
  EXPECT_EQ(want.events, got.events) << context << ": events";
  EXPECT_EQ(want.messages, got.messages) << context << ": messages";
  EXPECT_EQ(want.bytes, got.bytes) << context << ": bytes";
}

std::string printed(const check::AnalysisReport& report) {
  std::ostringstream os;
  report.print(os);
  return os.str();
}

/// The run's analyzer has checked something and recorded no violation.
void expect_clean(const eval::ProtocolRun& run, const std::string& context) {
  ASSERT_NE(run.analyzer(), nullptr) << context;
  const check::AnalysisReport& report = run.analyzer()->report();
  EXPECT_GT(report.checks_run, 0u) << context;
  EXPECT_TRUE(report.clean()) << context << "\n" << printed(report);
}

eval::RunOptions collecting() {
  eval::RunOptions opts;
  opts.analysis = eval::AnalysisMode::kCollect;
  return opts;
}

// ----------------------------------------------- fig 6/7 smoke analogue ---

TEST(IncrementalEquiv, LinkFlipSeriesPinnedAndClean) {
  // The fig 6 (convergence time) and fig 7 (load) experiments share
  // run_link_flips; every flip is a phase with its own quiescence sweep.
  struct Case {
    std::uint64_t seed;
    Pin pin;
  };
  for (const Case& c : {Case{0x1ACE, {8298, 5408, 112152}},
                        Case{0xBEE5, {6784, 4292, 69232}}}) {
    util::Rng topo_rng(c.seed);
    const topo::AsGraph g = topo::brite_like(40, 2, 4, topo_rng);
    const eval::FlipSeries s = eval::run_link_flips(
        g, eval::Protocol::kCentaur, 4, util::Rng(c.seed ^ 7), collecting());
    const std::string ctx = "seed=" + std::to_string(c.seed);
    EXPECT_GT(s.analysis.checks_run, 0u) << ctx;
    EXPECT_TRUE(s.analysis.clean()) << ctx << "\n" << printed(s.analysis);
    expect_pin(c.pin, Pin{s.events, s.total_messages, s.total_bytes}, ctx);
  }
}

// ------------------------------------------------- fig 8 smoke analogue ---

TEST(IncrementalEquiv, ScalabilitySweepPinnedAndClean) {
  // The fig 8 sweep varies topology size; a down/up flip after the cold
  // start exercises the steady-phase deltas.
  struct Case {
    std::size_t nodes;
    std::uint64_t cold_messages;
    Pin pin;
  };
  for (const Case& c : {Case{20, 1172, {1921, 1213, 20552}},
                        Case{45, 6348, {9832, 6445, 124755}}}) {
    util::Rng topo_rng(0x19C + c.nodes);
    const topo::AsGraph g = topo::brite_like(c.nodes, 2, 4, topo_rng);
    util::Rng rng(util::derive_seed(0x19C, c.nodes));
    eval::ProtocolRun run(g, eval::Protocol::kCentaur, rng, collecting());
    const std::string ctx = "nodes=" + std::to_string(c.nodes);
    expect_clean(run, ctx + " cold start");
    EXPECT_EQ(c.cold_messages, run.cold_start().messages_sent) << ctx;
    run.flip(0, false);
    expect_clean(run, ctx + " link 0 down");
    run.flip(0, true);
    expect_clean(run, ctx + " link 0 up");
    expect_pin(c.pin,
               Pin{run.network().events_executed(),
                   run.network().total_messages(),
                   run.network().total_bytes()},
               ctx);
  }
}

// ------------------------------------------- builtin reliability campaign --

/// Drives `spec` phase by phase over Centaur, asserting a clean analyzer
/// after the cold start and after every phase, then checks the pin.
void expect_campaign_pinned_and_clean(faults::ScenarioSpec spec,
                                      const Pin& pin) {
  spec.protocol = eval::Protocol::kCentaur;
  spec.options = collecting();
  const topo::AsGraph g = spec.topology.build();
  spec.script.validate(g);
  util::Rng rng(spec.seed);
  eval::ProtocolRun run(g, spec.protocol, rng, spec.options);
  expect_clean(run, spec.name + " cold start");
  faults::CampaignEngine engine(run);
  for (const faults::FaultPhase& phase : spec.script.phases) {
    const faults::PhaseReport report = engine.run_phase(spec.script, phase);
    EXPECT_EQ(report.violations, 0u) << spec.name << " phase " << phase.name;
    expect_clean(run, spec.name + " phase " + phase.name);
  }
  const faults::CampaignResult result = engine.result();
  expect_pin(pin,
             Pin{result.total_events, result.total_messages,
                 result.total_bytes},
             spec.name);
}

TEST(IncrementalEquiv, ReliabilityCampaignPinnedAndClean) {
  // SRLG bursts, crash/restart (session resets), flap storms and
  // partition/heal cuts: the fault shapes the dirty-set machinery must
  // survive.
  expect_campaign_pinned_and_clean(faults::reliability_scenario(40, 0x1CE),
                                   {13222, 8284, 199638});
}

// ------------------------------------------------- adversarial packs ---

// The adversarial packs reach shapes the link-flip campaigns do not.

TEST(IncrementalEquiv, RouteLeakPackPinnedAndClean) {
  // Session re-baselines: reset deltas on live sessions.
  expect_campaign_pinned_and_clean(faults::route_leak_scenario(40, 1),
                                   {8919, 5794, 135722});
}

TEST(IncrementalEquiv, InterceptionPackPinnedAndClean) {
  // A fabricated route, flooded and then withdrawn.
  expect_campaign_pinned_and_clean(faults::interception_scenario(40, 1),
                                   {8718, 5646, 125006});
}

TEST(IncrementalEquiv, PolicyChurnPackPinnedAndClean) {
  // Relationship rewires (every session re-baselined) and ranking-override
  // P-graphs, which mix listed and unlisted in-links.
  expect_campaign_pinned_and_clean(faults::policy_churn_scenario(40, 1),
                                   {9056, 5914, 155535});
}

}  // namespace
}  // namespace centaur
