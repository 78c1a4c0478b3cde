// Bit-identity proof for the incremental recompute plane (DESIGN.md §12).
//
// CENTAUR_INCREMENTAL must be purely a wall-clock knob: with the plane off,
// every delta re-derives all destinations, every reselect re-classifies
// every candidate from scratch, and every flood rebuilds + diffs the full
// category export views — and every observable of a run must still equal
// the incremental run bit for bit: convergence times, message/byte/event
// counters, per-node selected paths, and the exported views as received
// (each RIB P-graph is exactly the sender's export view after import
// filtering).  These tests re-run the tier-1 smoke analogues of the figure
// experiments (fig 6/7 link flips, fig 8 sweep sizes), the builtin
// reliability campaign and the three adversarial packs with the toggle on
// vs off, and compare everything.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "centaur/centaur_node.hpp"
#include "centaur/pgraph.hpp"
#include "eval/experiments.hpp"
#include "faults/campaign.hpp"
#include "faults/scenario.hpp"
#include "topology/generator.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace centaur {
namespace {

/// Sets one environment variable for the duration of a scope (node configs
/// sample the environment at construction), restoring the prior value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const std::optional<std::string> prev = util::env_string(name_);
    if (prev) saved_ = *prev;
    had_prev_ = prev.has_value();
    EXPECT_EQ(setenv(name_, value.c_str(), 1), 0);
  }
  ~ScopedEnv() {
    if (had_prev_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_prev_ = false;
  std::string saved_;
};

void expect_flip_series_eq(const eval::FlipSeries& reference,
                           const eval::FlipSeries& scratch,
                           const std::string& context) {
  EXPECT_EQ(reference.convergence_times, scratch.convergence_times) << context;
  EXPECT_EQ(reference.message_counts, scratch.message_counts) << context;
  EXPECT_EQ(reference.cold_start.messages_sent,
            scratch.cold_start.messages_sent)
      << context;
  EXPECT_EQ(reference.cold_start.bytes_sent, scratch.cold_start.bytes_sent)
      << context;
  EXPECT_DOUBLE_EQ(reference.cold_start_time, scratch.cold_start_time)
      << context;
  EXPECT_EQ(reference.events, scratch.events) << context;
  EXPECT_EQ(reference.total_messages, scratch.total_messages) << context;
  EXPECT_EQ(reference.total_bytes, scratch.total_bytes) << context;
  EXPECT_EQ(reference.analysis.checks_run, scratch.analysis.checks_run)
      << context;
  EXPECT_EQ(reference.analysis.violations_seen,
            scratch.analysis.violations_seen)
      << context;
}

// ----------------------------------------------- fig 6/7 smoke analogue ---

TEST(IncrementalEquiv, LinkFlipSeriesBitIdenticalAcrossToggle) {
  // The fig 6 (convergence time) and fig 7 (load) experiments share
  // run_link_flips.  Randomized over topology seeds; the analyzer runs in
  // collect mode so its per-event checks are part of the comparison.
  for (const std::uint64_t seed : {0x1ACEull, 0xBEE5ull}) {
    util::Rng topo_rng(seed);
    const topo::AsGraph g = topo::brite_like(40, 2, 4, topo_rng);
    eval::RunOptions opts;
    opts.analysis = eval::AnalysisMode::kCollect;
    const auto run_with = [&](bool incremental) {
      ScopedEnv scoped("CENTAUR_INCREMENTAL", incremental ? "1" : "0");
      return eval::run_link_flips(g, eval::Protocol::kCentaur, 4,
                                  util::Rng(seed ^ 7), opts);
    };
    const eval::FlipSeries incremental = run_with(true);
    const eval::FlipSeries scratch = run_with(false);
    expect_flip_series_eq(incremental, scratch,
                          "seed=" + std::to_string(seed));
  }
}

// ------------------------------------------------- fig 8 smoke analogue ---

TEST(IncrementalEquiv, ScalabilitySweepStateBitIdenticalAcrossToggleAndLanes) {
  // The fig 8 sweep varies topology size.  Beyond the series numbers this
  // compares the full per-node routing state — selected paths, the local
  // P-graph, and every received (= exported, post import filter) neighbor
  // P-graph — between the incremental and the scratch run.
  for (const std::size_t nodes : {20u, 45u}) {
    util::Rng topo_rng(0x19C + nodes);
    const topo::AsGraph g = topo::brite_like(nodes, 2, 4, topo_rng);
    using PathMap = std::map<topo::NodeId, topo::Path>;
    struct Outcome {
      std::vector<PathMap> selected;
      std::size_t cold_messages = 0;
      std::uint64_t events = 0;
      std::uint64_t messages = 0;
      std::uint64_t bytes = 0;
      bool operator==(const Outcome& o) const {
        return selected == o.selected && cold_messages == o.cold_messages &&
               events == o.events && messages == o.messages &&
               bytes == o.bytes;
      }
    };
    // The P-graphs live per run, so compare them inside the run via a
    // canonical serialization the == of which is graph equality.
    struct Cell {
      Outcome outcome;
      std::vector<std::vector<std::pair<topo::NodeId, core::PGraph>>> ribs;
      std::vector<core::PGraph> locals;
    };
    const auto run_with = [&](bool incremental) {
      ScopedEnv inc("CENTAUR_INCREMENTAL", incremental ? "1" : "0");
      util::Rng rng(util::derive_seed(0x19C, nodes));
      eval::ProtocolRun run(g, eval::Protocol::kCentaur, rng);
      // A down/up flip after cold start exercises the steady-phase deltas.
      run.flip(0, false);
      run.flip(0, true);
      Cell cell;
      cell.outcome.cold_messages = run.cold_start().messages_sent;
      cell.outcome.events = run.network().events_executed();
      cell.outcome.messages = run.network().total_messages();
      cell.outcome.bytes = run.network().total_bytes();
      for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto* node =
            dynamic_cast<const core::CentaurNode*>(&run.network().node(v));
        if (node == nullptr) throw std::logic_error("expected CentaurNode");
        cell.outcome.selected.emplace_back(node->selected_paths().begin(),
                                           node->selected_paths().end());
        cell.locals.push_back(node->local_pgraph());
        std::vector<std::pair<topo::NodeId, core::PGraph>> rib;
        for (const topo::NodeId nbr : node->rib_neighbors()) {
          rib.emplace_back(nbr, *node->neighbor_pgraph(nbr));
        }
        cell.ribs.push_back(std::move(rib));
      }
      return cell;
    };
    const Cell reference = run_with(true);
    const Cell scratch = run_with(false);
    const std::string ctx = "nodes=" + std::to_string(nodes);
    EXPECT_TRUE(reference.outcome == scratch.outcome) << ctx;
    ASSERT_EQ(reference.locals.size(), scratch.locals.size()) << ctx;
    for (std::size_t v = 0; v < reference.locals.size(); ++v) {
      EXPECT_TRUE(reference.locals[v] == scratch.locals[v])
          << ctx << " local pgraph of node " << v;
      ASSERT_EQ(reference.ribs[v].size(), scratch.ribs[v].size())
          << ctx << " rib of node " << v;
      for (std::size_t i = 0; i < reference.ribs[v].size(); ++i) {
        EXPECT_EQ(reference.ribs[v][i].first, scratch.ribs[v][i].first) << ctx;
        EXPECT_TRUE(reference.ribs[v][i].second == scratch.ribs[v][i].second)
            << ctx << " node " << v << " view from neighbor "
            << reference.ribs[v][i].first;
      }
    }
  }
}

// ------------------------------------------- builtin reliability campaign --

TEST(IncrementalEquiv, ReliabilityCampaignBitIdenticalAcrossToggle) {
  // The canonical campaign covers the fault shapes the dirty-set machinery
  // must survive: SRLG bursts, crash/restart (session resets), flap storms,
  // and partition/heal cuts.
  faults::ScenarioSpec spec = faults::reliability_scenario(40, 0x1CE);
  spec.options.analysis = eval::AnalysisMode::kCollect;
  const auto run_with = [&](bool incremental) {
    ScopedEnv scoped("CENTAUR_INCREMENTAL", incremental ? "1" : "0");
    return faults::run_scenario(spec);
  };
  const faults::CampaignResult incremental = run_with(true);
  const faults::CampaignResult scratch = run_with(false);

  EXPECT_EQ(incremental.cold_start, scratch.cold_start);
  ASSERT_EQ(incremental.phases.size(), scratch.phases.size());
  for (std::size_t i = 0; i < incremental.phases.size(); ++i) {
    EXPECT_EQ(incremental.phases[i], scratch.phases[i])
        << "phase " << incremental.phases[i].name;
  }
  EXPECT_EQ(incremental.total_events, scratch.total_events);
  EXPECT_EQ(incremental.total_messages, scratch.total_messages);
  EXPECT_EQ(incremental.total_bytes, scratch.total_bytes);
  EXPECT_EQ(incremental.analysis.checks_run, scratch.analysis.checks_run);
  EXPECT_EQ(incremental.analysis.violations_seen,
            scratch.analysis.violations_seen);
  EXPECT_TRUE(scratch.clean());
}

// ------------------------------------------------- adversarial packs ---

/// Compares every Centaur node of two runs: selected paths, the local
/// P-graph, each received P-graph, and each neighbor's derived-path cache.
/// The scratch plane re-walks every destination on every delta, so a walk
/// the incremental plane failed to invalidate shows up as a stale cache
/// entry here even when selection happens to mask it.
void expect_same_node_state(eval::ProtocolRun& incremental,
                            eval::ProtocolRun& scratch,
                            const std::string& context) {
  for (topo::NodeId v = 0; v < incremental.graph().num_nodes(); ++v) {
    const auto& a = dynamic_cast<const core::CentaurNode&>(
        incremental.network().node(v));
    const auto& b =
        dynamic_cast<const core::CentaurNode&>(scratch.network().node(v));
    const std::string ctx = context + " node " + std::to_string(v);
    EXPECT_TRUE(a.selected_paths() == b.selected_paths()) << ctx;
    EXPECT_TRUE(a.local_pgraph() == b.local_pgraph()) << ctx;
    ASSERT_EQ(a.rib_neighbors(), b.rib_neighbors()) << ctx;
    for (const topo::NodeId nbr : a.rib_neighbors()) {
      EXPECT_TRUE(*a.neighbor_pgraph(nbr) == *b.neighbor_pgraph(nbr))
          << ctx << " view from neighbor " << nbr;
      const core::CentaurNode::DestCache& da = *a.neighbor_derived(nbr);
      const core::CentaurNode::DestCache& db = *b.neighbor_derived(nbr);
      EXPECT_EQ(da.size(), db.size()) << ctx << " neighbor " << nbr;
      for (const auto& [dest, entry] : da) {
        const core::CentaurNode::DestState* other = db.find(dest);
        ASSERT_NE(other, nullptr) << ctx << " neighbor " << nbr;
        EXPECT_EQ(entry.path, other->path)
            << ctx << " neighbor " << nbr << " dest " << dest;
      }
      // Failed walks: the table's slot order follows its insert history,
      // which differs between the planes, so compare by lookup.
      const core::CentaurNode::FailChains& fa = *a.neighbor_fail_chains(nbr);
      const core::CentaurNode::FailChains& fb = *b.neighbor_fail_chains(nbr);
      EXPECT_EQ(fa.size(), fb.size()) << ctx << " neighbor " << nbr;
      for (const auto& [dest, chain] : fa) {
        const std::vector<topo::NodeId>* other = fb.find(dest);
        ASSERT_NE(other, nullptr)
            << ctx << " neighbor " << nbr << " dest " << dest;
        EXPECT_EQ(chain, *other)
            << ctx << " neighbor " << nbr << " dest " << dest;
      }
    }
  }
}

/// Drives one pack with the plane on and off, phase by phase, comparing
/// the phase reports and every node's state after each phase.
void expect_pack_identical_across_toggle(faults::ScenarioSpec spec) {
  spec.protocol = eval::Protocol::kCentaur;
  spec.options.analysis = eval::AnalysisMode::kCollect;
  const topo::AsGraph g = spec.topology.build();
  // Nodes sample CENTAUR_INCREMENTAL when they are built, so each run is
  // built and driven under its own setting.
  const auto build = [&](const char* incremental) {
    ScopedEnv scoped("CENTAUR_INCREMENTAL", incremental);
    util::Rng rng(spec.seed);
    return std::make_unique<eval::ProtocolRun>(g, spec.protocol, rng,
                                               spec.options);
  };
  const std::unique_ptr<eval::ProtocolRun> incremental = build("1");
  const std::unique_ptr<eval::ProtocolRun> scratch = build("0");
  expect_same_node_state(*incremental, *scratch, "cold start");

  faults::CampaignEngine incremental_engine(*incremental);
  faults::CampaignEngine scratch_engine(*scratch);
  for (const faults::FaultPhase& phase : spec.script.phases) {
    faults::PhaseReport a, b;
    {
      ScopedEnv scoped("CENTAUR_INCREMENTAL", "1");
      a = incremental_engine.run_phase(spec.script, phase);
    }
    {
      ScopedEnv scoped("CENTAUR_INCREMENTAL", "0");
      b = scratch_engine.run_phase(spec.script, phase);
    }
    EXPECT_EQ(a, b) << "phase " << phase.name;
    expect_same_node_state(*incremental, *scratch, "phase " + phase.name);
  }
  const faults::CampaignResult a = incremental_engine.result();
  const faults::CampaignResult b = scratch_engine.result();
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.analysis.checks_run, b.analysis.checks_run);
  EXPECT_EQ(a.analysis.violations_seen, b.analysis.violations_seen);
}

// The adversarial packs reach shapes the link-flip campaigns do not.

TEST(IncrementalEquiv, RouteLeakPackBitIdenticalAcrossToggle) {
  // Session re-baselines: reset deltas on live sessions.
  expect_pack_identical_across_toggle(faults::route_leak_scenario(40, 1));
}

TEST(IncrementalEquiv, InterceptionPackBitIdenticalAcrossToggle) {
  // A fabricated route, flooded and then withdrawn.
  expect_pack_identical_across_toggle(faults::interception_scenario(40, 1));
}

TEST(IncrementalEquiv, PolicyChurnPackBitIdenticalAcrossToggle) {
  // Relationship rewires and ranking-override P-graphs, which mix listed
  // and unlisted in-links.
  expect_pack_identical_across_toggle(faults::policy_churn_scenario(40, 1));
}

}  // namespace
}  // namespace centaur
