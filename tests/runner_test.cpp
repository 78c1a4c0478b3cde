#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "centaur/centaur_node.hpp"
#include "eval/experiments.hpp"
#include "runner/parallel.hpp"
#include "topology/generator.hpp"
#include "util/env.hpp"
#include "util/scale.hpp"
#include "util/rng.hpp"

namespace centaur {
namespace {

// ---------------------------------------------------------- run_trials ----

TEST(RunTrials, PreservesIndexOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto out = runner::run_trials(
        100, threads, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(RunTrials, ZeroTrials) {
  EXPECT_TRUE(runner::run_trials(0, 4, [](std::size_t i) { return i; })
                  .empty());
}

TEST(RunTrials, PropagatesFirstException) {
  const auto boom = [](std::size_t i) -> int {
    if (i == 3) throw std::runtime_error("trial 3 failed");
    return 0;
  };
  EXPECT_THROW(runner::run_trials(8, 4, boom), std::runtime_error);
  EXPECT_THROW(runner::run_trials(8, 1, boom), std::runtime_error);
}

TEST(ThreadsFromEnv, ReadsOverride) {
  ASSERT_EQ(setenv("CENTAUR_THREADS", "3", 1), 0);
  EXPECT_EQ(runner::threads_from_env(), 3u);
  ASSERT_EQ(setenv("CENTAUR_THREADS", "0", 1), 0);
  EXPECT_GE(runner::threads_from_env(), 1u);  // clamped to >= 1
  ASSERT_EQ(unsetenv("CENTAUR_THREADS"), 0);
  EXPECT_GE(runner::threads_from_env(), 1u);
}

TEST(ThreadsFromEnv, RejectsGarbage) {
  util::reset_warn_once_for_testing();
  const std::size_t fallback = runner::threads_from_env();  // unset baseline
  for (const char* bad : {"abc", "4x", " 4", "4 ", "1e3", "0x10", "--2", ""}) {
    ASSERT_EQ(setenv("CENTAUR_THREADS", bad, 1), 0);
    EXPECT_EQ(runner::threads_from_env(), fallback) << "value '" << bad << "'";
  }
  ASSERT_EQ(setenv("CENTAUR_THREADS", "-7", 1), 0);
  EXPECT_EQ(runner::threads_from_env(), 1u);  // numeric but < 1: clamp
  ASSERT_EQ(unsetenv("CENTAUR_THREADS"), 0);
}

// -------------------------------------------------------- TrialFailure ----

TEST(RunTrials, FailureReportsIndexAndCompletion) {
  const auto boom = [](std::size_t i) -> int {
    if (i == 3) throw std::invalid_argument("trial 3 exploded");
    return static_cast<int>(i);
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    try {
      runner::run_trials(8, threads, boom);
      FAIL() << "expected TrialFailure, threads=" << threads;
    } catch (const runner::TrialFailure& e) {
      EXPECT_EQ(e.failed_index(), 3u) << "threads=" << threads;
      EXPECT_LT(e.completed(), 8u);  // caller can tell results are partial
      EXPECT_NE(std::string(e.what()).find("trial 3"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
      // The original exception is nested for callers that need its type.
      bool nested_seen = false;
      try {
        std::rethrow_if_nested(e);
      } catch (const std::invalid_argument&) {
        nested_seen = true;
      }
      EXPECT_TRUE(nested_seen) << "threads=" << threads;
    }
  }
}

TEST(RunTrials, SerialFailureReportsExactCompletedCount) {
  // Serial execution is deterministic: exactly the trials before the failed
  // index completed, so completed() must equal failed_index().
  const auto boom = [](std::size_t i) -> int {
    if (i == 5) throw std::runtime_error("boom");
    return 0;
  };
  try {
    runner::run_trials(8, 1, boom);
    FAIL() << "expected TrialFailure";
  } catch (const runner::TrialFailure& e) {
    EXPECT_EQ(e.failed_index(), 5u);
    EXPECT_EQ(e.completed(), 5u);
  }
}

// ---------------------------------------------------------- WorkerPool ----

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  runner::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_deterministic(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossSections) {
  runner::WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for_deterministic(
        7, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(WorkerPool, SingleThreadRunsInline) {
  runner::WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;  // safe: inline serial execution, no data race
  pool.parallel_for_deterministic(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, RethrowsLowestIndexFailure) {
  runner::WorkerPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for_deterministic(64, [&](std::size_t i) {
        if (i == 7 || i == 40) {
          throw std::runtime_error("body " + std::to_string(i));
        }
      });
      FAIL() << "expected a body failure to surface";
    } catch (const std::runtime_error& e) {
      // Among bodies that ran, the lowest failing index wins; index 7 is
      // claimed before 40, so it must be the one reported.
      EXPECT_STREQ(e.what(), "body 7");
    }
    // The pool stays usable after a failed section.
    std::atomic<int> ok{0};
    pool.parallel_for_deterministic(
        8, [&](std::size_t) { ok.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(ok.load(), 8);
  }
}

// ------------------------------------------------------- strict parsing ---

TEST(EnvStrict, ParseIntStrict) {
  using util::parse_int_strict;
  EXPECT_EQ(parse_int_strict("42").value(), 42);
  EXPECT_EQ(parse_int_strict("+42").value(), 42);
  EXPECT_EQ(parse_int_strict("-42").value(), -42);
  EXPECT_EQ(parse_int_strict("0").value(), 0);
  EXPECT_FALSE(parse_int_strict(""));
  EXPECT_FALSE(parse_int_strict("+"));
  EXPECT_FALSE(parse_int_strict("-"));
  EXPECT_FALSE(parse_int_strict("4 "));
  EXPECT_FALSE(parse_int_strict(" 4"));
  EXPECT_FALSE(parse_int_strict("4x"));
  EXPECT_FALSE(parse_int_strict("x4"));
  EXPECT_FALSE(parse_int_strict("1e3"));
  EXPECT_FALSE(parse_int_strict("0x10"));
  EXPECT_FALSE(parse_int_strict("99999999999999999999999"));  // overflow
}

TEST(EnvStrict, FlagStrictRecognisedValuesOnly) {
  util::reset_warn_once_for_testing();
  ASSERT_EQ(setenv("CENTAUR_TEST_FLAG", "on", 1), 0);
  EXPECT_TRUE(util::env_flag_strict("CENTAUR_TEST_FLAG", false));
  ASSERT_EQ(setenv("CENTAUR_TEST_FLAG", "off", 1), 0);
  EXPECT_FALSE(util::env_flag_strict("CENTAUR_TEST_FLAG", true));
  for (const char* t : {"1", "true", "yes"}) {
    ASSERT_EQ(setenv("CENTAUR_TEST_FLAG", t, 1), 0);
    EXPECT_TRUE(util::env_flag_strict("CENTAUR_TEST_FLAG", false)) << t;
  }
  for (const char* f : {"0", "false", "no", ""}) {
    ASSERT_EQ(setenv("CENTAUR_TEST_FLAG", f, 1), 0);
    EXPECT_FALSE(util::env_flag_strict("CENTAUR_TEST_FLAG", true)) << f;
  }
  // Unrecognised text keeps the fallback instead of silently meaning "true"
  // (the old behaviour read a typo such as "fasle" as true).
  ASSERT_EQ(setenv("CENTAUR_TEST_FLAG", "fasle", 1), 0);
  EXPECT_TRUE(util::env_flag_strict("CENTAUR_TEST_FLAG", true));
  EXPECT_FALSE(util::env_flag_strict("CENTAUR_TEST_FLAG", false));
  ASSERT_EQ(unsetenv("CENTAUR_TEST_FLAG"), 0);
}

TEST(EnvStrict, WarnOnceIsOncePerKey) {
  util::reset_warn_once_for_testing();
  EXPECT_TRUE(util::warn_once("k1", "first"));
  EXPECT_FALSE(util::warn_once("k1", "suppressed"));
  EXPECT_TRUE(util::warn_once("k2", "different key"));
  util::reset_warn_once_for_testing();
  EXPECT_TRUE(util::warn_once("k1", "after reset"));
}

TEST(EnvStrict, ScaleFallsBackOnUnknownValue) {
  util::reset_warn_once_for_testing();
  ASSERT_EQ(setenv("CENTAUR_SCALE", "SMOKE", 1), 0);  // case-insensitive
  EXPECT_EQ(util::scale_from_env(), util::Scale::kSmoke);
  ASSERT_EQ(setenv("CENTAUR_SCALE", "lrage", 1), 0);  // typo -> default
  EXPECT_EQ(util::scale_from_env(), util::Scale::kDefault);
  ASSERT_EQ(unsetenv("CENTAUR_SCALE"), 0);
  EXPECT_EQ(util::scale_from_env(), util::Scale::kDefault);
}

// ------------------------------------------- parallel == serial, exactly --

/// Everything observable from one protocol trial: the flip-series numbers
/// plus every node's selected path toward every destination.
struct TrialObservation {
  std::vector<double> convergence_times;
  std::vector<double> message_counts;
  std::size_t cold_start_messages = 0;
  std::uint64_t events = 0;
  std::size_t total_messages = 0;
  std::size_t total_bytes = 0;
  std::vector<std::map<topo::NodeId, topo::Path>> selected;  // per node

  bool operator==(const TrialObservation&) const = default;
};

/// One independent trial: its own topology-flip RNG derived from the trial
/// index, a fresh Centaur run, a measured flip sequence, and a full dump of
/// the per-node selected paths afterwards.
TrialObservation centaur_trial(const topo::AsGraph& g, std::size_t index) {
  util::Rng rng(util::derive_seed(0xC0FFEE, index));
  eval::RunOptions opts;
  eval::ProtocolRun run(g, eval::Protocol::kCentaur, rng, opts);

  TrialObservation obs;
  obs.cold_start_messages = run.cold_start().messages_sent;
  for (int f = 0; f < 2; ++f) {
    const auto link = static_cast<topo::LinkId>(rng.next() % g.num_links());
    for (const bool up : {false, true}) {
      const auto t = run.flip(link, up);
      obs.convergence_times.push_back(t.convergence_time);
      obs.message_counts.push_back(static_cast<double>(t.messages));
    }
  }
  obs.events = run.network().events_executed();
  obs.total_messages = run.network().total_messages();
  obs.total_bytes = run.network().total_bytes();
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto* node =
        dynamic_cast<const core::CentaurNode*>(&run.network().node(v));
    if (node == nullptr) {  // thrown (not ASSERTed): trials run off-thread
      throw std::logic_error("expected a CentaurNode");
    }
    obs.selected.emplace_back(node->selected_paths().begin(),
                              node->selected_paths().end());
  }
  return obs;
}

TEST(RunTrials, ParallelRunsAreBitIdenticalToSerial) {
  // Mid-size topology (the upper end of what the protocol test sweep
  // uses — Debug builds run the invariant analyzer inside every Centaur
  // run, so bigger graphs would dominate the tier-1 wall time); four
  // trials whose inputs are a pure function of the trial index.  The
  // 4-thread fan-out must reproduce the serial run exactly: same selected
  // paths at every node, same message counts, same convergence times.
  util::Rng topo_rng(0x5EED);
  const topo::AsGraph g = topo::brite_like(45, 2, 4, topo_rng);
  const std::size_t trials = 4;

  const auto serial = runner::run_trials(
      trials, 1, [&](std::size_t i) { return centaur_trial(g, i); });
  const auto parallel = runner::run_trials(
      trials, 4, [&](std::size_t i) { return centaur_trial(g, i); });

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < trials; ++i) {
    EXPECT_EQ(serial[i].convergence_times, parallel[i].convergence_times)
        << "trial " << i;
    EXPECT_EQ(serial[i].message_counts, parallel[i].message_counts)
        << "trial " << i;
    EXPECT_EQ(serial[i].cold_start_messages, parallel[i].cold_start_messages);
    EXPECT_EQ(serial[i].events, parallel[i].events) << "trial " << i;
    EXPECT_EQ(serial[i].total_messages, parallel[i].total_messages);
    EXPECT_EQ(serial[i].total_bytes, parallel[i].total_bytes);
    EXPECT_EQ(serial[i].selected, parallel[i].selected) << "trial " << i;
  }
  // Trials with different indices draw different flip sequences — the
  // equality above is not vacuous.
  EXPECT_NE(serial[0].convergence_times, serial[1].convergence_times);
}

TEST(RunTrials, FlipSeriesMatchesAcrossThreadCounts) {
  // The bench drivers fan eval::run_link_flips itself; check that whole
  // pipeline too (cold start + measured flips + totals).
  util::Rng topo_rng(0x5EED + 1);
  const topo::AsGraph g = topo::brite_like(30, 2, 4, topo_rng);
  const eval::Protocol protos[] = {eval::Protocol::kCentaur,
                                   eval::Protocol::kBgp};
  const auto trial = [&](std::size_t i) {
    eval::FlipSeries s = eval::run_link_flips(
        g, protos[i % 2], 3, util::Rng(util::derive_seed(7, i / 2)));
    return s;
  };
  const auto serial = runner::run_trials(4, 1, trial);
  const auto parallel = runner::run_trials(4, 4, trial);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].convergence_times, parallel[i].convergence_times);
    EXPECT_EQ(serial[i].message_counts, parallel[i].message_counts);
    EXPECT_EQ(serial[i].cold_start.messages_sent,
              parallel[i].cold_start.messages_sent);
    EXPECT_EQ(serial[i].events, parallel[i].events);
    EXPECT_EQ(serial[i].total_messages, parallel[i].total_messages);
    EXPECT_EQ(serial[i].total_bytes, parallel[i].total_bytes);
  }
}

}  // namespace
}  // namespace centaur
