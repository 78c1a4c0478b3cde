// Fault-injection campaign engine.
//
// Drives a FaultScript against a live ProtocolRun: each phase applies its
// actions at deterministic simulated offsets, runs the network to
// quiescence, sweeps the invariant analyzer (src/check), and is measured as
// one convergence window.  The engine is the single execution path for
// every event-driven experiment — the legacy link-flip series
// (eval::run_link_flips) is a campaign of one-action phases.
//
// Determinism contract: a campaign result is a pure function of
// (topology, protocol, RunOptions, run seed, script).  The engine draws no
// randomness, keeps no global state, and schedules all actions relative to
// the phase-start instant, so campaigns fan across runner::run_trials and
// stay bit-identical to a serial run for any CENTAUR_THREADS.
//
// Crash/restart model: a crash replaces the instance with an inert stub
// *before* its links go down (a crashed router does not react to its own
// failure), so neighbors observe ordinary session resets while the crashed
// node stays silent.  Restart attaches a fresh instance, start()s it while
// its links are still down (nothing is sent on a down link), then raises
// exactly the links the crash took down; both sides re-learn through the
// normal session-establishment exchange (BGP full-table push, Centaur
// baseline P-graph snapshot, OSPF database exchange).  If a heal would
// raise a link whose endpoint is currently crashed, the link is deferred to
// that node's restart instead — a dead router cannot bring a session up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/analyzer.hpp"
#include "eval/experiments.hpp"
#include "faults/fault_script.hpp"
#include "faults/scenario.hpp"

namespace centaur::faults {

/// One phase's measured convergence window.
///
/// The adversarial metrics (DESIGN.md §15) are filled only when the script
/// contains adversarial actions: `audit_routes_flagged` counts selected
/// routes the per-event route audit flagged this phase, `detection_events`
/// / `detection_time` report how long the misbehavior ran before the first
/// flag (analyzer node-checks observed, and virtual seconds from the phase
/// start; -1 when nothing was flagged), and `blast_radius` counts the
/// quiescent non-adversary nodes whose selected path transits a misbehaving
/// AS.  All four are deterministic counters, inside the bit-identity
/// contract and the default equality.
struct PhaseReport {
  std::string name;
  std::size_t actions = 0;
  std::size_t messages = 0;        ///< sent in the window
  std::size_t bytes = 0;
  std::size_t dropped = 0;         ///< sends lost to down links
  sim::Time convergence_time = 0;  ///< last delivery - phase start
  std::uint64_t events = 0;        ///< simulator events this phase
  std::size_t violations = 0;      ///< analyzer violations this phase
  std::size_t audit_routes_flagged = 0;  ///< leaked+intercepted flags
  std::int64_t detection_events = -1;    ///< node-checks to first flag
  sim::Time detection_time = -1;         ///< virtual s to first flag
  std::size_t blast_radius = 0;          ///< nodes transiting an adversary

  friend bool operator==(const PhaseReport&, const PhaseReport&) = default;
};

/// A whole campaign: the cold start plus every scripted phase.
struct CampaignResult {
  std::string scenario;
  eval::Protocol protocol = eval::Protocol::kCentaur;
  PhaseReport cold_start;
  std::vector<PhaseReport> phases;
  /// Lifetime totals over cold start + campaign (the bench JSON counters).
  std::uint64_t total_events = 0;
  std::size_t total_messages = 0;
  std::size_t total_bytes = 0;
  /// Final analyzer report (empty/clean when analysis is off).
  check::AnalysisReport analysis;

  bool clean() const { return analysis.violations_seen == 0; }
  sim::Time max_phase_convergence() const;
  sim::Time mean_phase_convergence() const;
};

/// Replays scripts against a ProtocolRun it does not own.  The engine keeps
/// crash and partition bookkeeping between phases, so one engine must see a
/// script from start to finish; run() is the usual entry point,
/// run_phase()/result() exist for harnesses that interleave their own
/// assertions between phases (tests do).
class CampaignEngine {
 public:
  explicit CampaignEngine(eval::ProtocolRun& run);

  /// Validates `script` against the run's topology and executes every
  /// phase.  Throws std::invalid_argument on malformed scripts and
  /// std::logic_error when analysis is kAssert and a sweep finds
  /// violations.
  CampaignResult run(const FaultScript& script);

  /// Executes one phase of `script` (which must outlive the call).
  PhaseReport run_phase(const FaultScript& script, const FaultPhase& phase);

  /// Report over the phases executed so far.
  CampaignResult result() const;

 private:
  void apply(const FaultScript& script, const FaultAction& action);
  void crash(topo::NodeId node);
  void restart(topo::NodeId node);
  /// Raises `link`, unless an endpoint is crashed — then the link is moved
  /// to that node's restart list (a dead router cannot open a session) —
  /// or it crosses a still-active partition cut — then it is moved to that
  /// cut's heal list (a restart may not resurrect a partitioned session).
  void raise_link(topo::LinkId link);
  /// Prescans `script` for adversarial actions (idempotent): collects the
  /// route-audit skip set (leak/intercept nodes) and the blast-radius
  /// target set, and arms the analyzer's route audit.
  void configure_adversarial(const FaultScript& script);
  std::size_t violations_now() const;

  eval::ProtocolRun& run_;
  CampaignResult result_;
  std::uint64_t events_seen_ = 0;  ///< lifetime events through last phase
  std::map<topo::NodeId, std::vector<topo::LinkId>> crashed_;
  std::map<std::size_t, std::vector<topo::LinkId>> cuts_;
  /// Side membership of each *active* partition cut (kPartition fills,
  /// kHeal erases) — raise_link consults it so restarts defer to heals.
  std::map<std::size_t, std::vector<bool>> cut_sides_;
  bool adversarial_checked_ = false;  ///< configure_adversarial ran
  bool adversarial_ = false;          ///< script has adversarial actions
  std::vector<topo::NodeId> blast_targets_;  ///< sorted ascending
};

/// Builds the topology and run from `spec` and replays its script.
CampaignResult run_scenario(const ScenarioSpec& spec);

/// Same, over a pre-built graph (callers sharing one topology across
/// protocol arms, or printing stats before the run).
CampaignResult run_scenario(const topo::AsGraph& graph,
                            const ScenarioSpec& spec);

}  // namespace centaur::faults
