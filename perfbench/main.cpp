// One iteration of one benchmark workload, in a fresh process.
//
//   centaur_perfbench --workload NAME --seed N --trace 0|1 [--spans PATH]
//
// Drives the Centaur arm through the public call sequence eval::ProtocolRun
// uses -- topology generator -> sim::Network -> eval::make_protocol_node +
// Network::attach -> start_all_and_converge -> set_link_state +
// run_to_convergence per transition -> destroy the network -- and times
// each of those calls on its own (trace.hpp).  The converged routes are
// checked against policy::ValleyFreeRoutes outside every timed section.
// With --trace 1 the run also records spans, runs the per-layer probes
// (probes.hpp) and the BGP reference arm.  The result is one JSON object on
// stdout; run.py repeats this process and aggregates.  Exit status: 0 when
// every operation succeeded and every check passed, 1 otherwise, 2 on a
// usage error or a set CENTAUR_* variable.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bgp/bgp_node.hpp"
#include "centaur/centaur_node.hpp"
#include "eval/protocol_config.hpp"
#include "policy/valley_free.hpp"
#include "probes.hpp"
#include "serve/engine.hpp"
#include "sim/network.hpp"
#include "topology/generator.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace centaur;
using perfbench::Clock;
using perfbench::Section;
using perfbench::seconds_between;
using perfbench::Tracer;
using topo::LinkId;
using topo::NodeId;

/// The three workloads; README.md records why each exists.
struct Workload {
  const char* name;
  /// true: tiered_internet(caida_like_params(nodes)); false:
  /// brite_like(nodes, 2, 5), the prototype topology of Figs 6-8.
  bool tiered;
  std::size_t nodes;
  NodeId origin_limit;     ///< RunOptions::origin_limit; 0 = all originate
  std::size_t flip_links;  ///< links taken down and back up after cold start
  bool serve;  ///< QueryEngine is the snapshot sink; readers run in churn
};

/// 100 flipped links give 200 transitions, 10 of them beyond p95.  Every
/// workload reports every end-to-end metric, so sparse_cold churns too, at
/// the same size; README.md gives the share of its total_s that takes.
constexpr Workload kWorkloads[] = {
    {"sparse_cold", true, 1000, 16, 100, false},
    {"flip_churn", false, 200, 0, 100, false},
    {"serve_churn", false, 200, 0, 100, true},
};

/// Closed-loop reader threads (with the main thread, 3 threads on the
/// 4-core reference host).
constexpr std::size_t kReaders = 2;
/// Per-reader query count of the static-snapshot read phase of the
/// workloads without a live serving plane: 2 x 10,000 queries leave 200
/// samples beyond p99 in every process.
constexpr std::size_t kStaticQueriesPerReader = 10'000;
/// Fixed query sample compared against CentaurNode::selected_path.
constexpr std::size_t kCheckQueries = 2'000;

/// The topology, the link delays and the set of flipped links are part of a
/// workload's definition: they come from this fixed seed, not from --seed.
/// Drawn from --seed, they spread the deterministic counts alone by 10-40%
/// (quartile distance over median, ten seeds) and cold-start wall time by a
/// third, wider than any bound a regression gate can use.
constexpr std::uint64_t kScenarioSeed = 2009;

// Independent input streams, derived from kScenarioSeed (topology, delays,
// flip set) or from --seed (flip order, query pairs, probes).
enum SeedStream : std::uint64_t {
  kTopologySeed = 1,
  kDelaySeed = 2,
  kFlipSeed = 3,
  kCheckQuerySeed = 4,
  kDispatchSeed = 5,
  kFlipOrderSeed = 6,
  kReaderSeed = 100,  // + reader index
};

// ------------------------------------------------------------ utilities --

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Flat JSON object writer (keys in insertion order).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(key) + ':' + json;
    return *this;
  }
  std::string text() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

/// Nearest-rank percentile (the convention of serve/engine.cpp).
template <typename T>
double percentile(std::vector<T> samples, double p) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

double mean(double sum, std::size_t count) {
  return count > 0 ? sum / static_cast<double>(count) : 0;
}

/// A "Vm*:" field of /proc/self/status, KiB (0 if unavailable).
std::uint64_t proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

CpuTimes cpu_times() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return CpuTimes{tv(ru.ru_utime), tv(ru.ru_stime)};
}

/// CPUs the process may run on, captured before any thread is pinned.
std::vector<int> usable_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to the `slot`-th usable CPU, when the process
/// has one for every thread (the main thread and each reader): no two of them
/// then share a CPU or migrate mid-run.
void pin_thread(std::size_t slot) {
  static const std::vector<int> cpus = usable_cpus();
  if (cpus.size() < 1 + kReaders) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot], &one);
  ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
}

// --------------------------------------------------------------- inputs --

topo::AsGraph generate_topology(const Workload& w) {
  util::Rng rng(util::derive_seed(kScenarioSeed, kTopologySeed));
  if (w.tiered) {
    return topo::tiered_internet(topo::caida_like_params(w.nodes), rng);
  }
  return topo::brite_like(w.nodes, 2, 5, rng);
}

std::vector<NodeId> originated(const Workload& w, const topo::AsGraph& g) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  const NodeId limit = w.origin_limit == 0 ? n : std::min(w.origin_limit, n);
  std::vector<NodeId> dests(limit);
  for (NodeId d = 0; d < limit; ++d) dests[d] = d;
  return dests;
}

/// `count` distinct links, drawn uniformly from the links that carry at
/// least one selected route of the converged network (so every transition
/// moves routes, also when only a few nodes originate), in an order drawn
/// from `seed`.
std::vector<LinkId> pick_flips(const topo::AsGraph& g,
                               const std::vector<NodeId>& dests,
                               std::size_t count, std::uint64_t seed) {
  std::vector<char> carries(g.num_links(), 0);
  for (const NodeId d : dests) {
    const auto routes = policy::ValleyFreeRoutes::compute(g, d);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId hop = routes.at(v).next_hop;
      if (hop != topo::kInvalidNode) carries[*g.find_link(v, hop)] = 1;
    }
  }
  std::vector<LinkId> candidates;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    if (carries[l] != 0) candidates.push_back(l);
  }
  util::Rng pick(util::derive_seed(kScenarioSeed, kFlipSeed));
  std::vector<std::size_t> picked = pick.sample_without_replacement(
      candidates.size(), std::min(count, candidates.size()));
  std::sort(picked.begin(), picked.end());
  util::Rng order(util::derive_seed(seed, kFlipOrderSeed));
  order.shuffle(picked);
  std::vector<LinkId> flips;
  for (const std::size_t i : picked) flips.push_back(candidates[i]);
  return flips;
}

// --------------------------------------------------------------- oracle --

/// Routes of every node toward every originated destination that differ
/// from the static valley-free solver (kLowestNextHop), on the network's
/// current link states.
template <typename NodeT>
std::size_t route_mismatches(sim::Network& net,
                             const std::vector<NodeId>& dests,
                             std::string& first) {
  const topo::AsGraph& g = net.graph();
  std::size_t bad = 0;
  for (const NodeId d : dests) {
    const auto solver = policy::ValleyFreeRoutes::compute(g, d);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == d) continue;
      const std::optional<topo::Path> got =
          static_cast<const NodeT&>(net.node(v)).selected_path(d);
      const bool want = solver.at(v).reachable();
      if (got.has_value() == want && (!want || *got == solver.path_from(v))) {
        continue;
      }
      if (bad++ == 0) {
        first = "route " + std::to_string(v) + "->" + std::to_string(d) +
                " differs from the valley-free solver";
      }
    }
  }
  return bad;
}

// -------------------------------------------------------------- readers --

struct ReaderStats {
  std::vector<float> latency_us;
  std::uint64_t queries = 0;
  std::uint64_t not_ok = 0;       ///< kUnreachable / kNotDestination
  std::uint64_t no_snapshot = 0;  ///< failed: kNoSnapshot
  std::uint64_t bad_path = 0;     ///< failed: paths[0] not a loop-free src..dst
  std::uint64_t paths = 0;
  std::string error;
};

bool loop_free_walk(const topo::Path& p, NodeId src, NodeId dst) {
  if (p.empty() || p.front() != src || p.back() != dst) return false;
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (std::find(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(i),
                  p[i]) != p.begin() + static_cast<std::ptrdiff_t>(i)) {
      return false;
    }
  }
  return true;
}

/// Closed-loop readers: each calls QueryEngine::query on uniform (src, dst)
/// pairs (dst among the originated destinations) until stopped or until it
/// has issued `max_queries`.
class ReaderGroup {
 public:
  ReaderGroup(const serve::QueryEngine& engine, std::size_t nodes,
              const std::vector<NodeId>& dests, std::uint64_t seed,
              std::size_t max_queries)
      : stats_(kReaders) {
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads_.emplace_back([this, &engine, nodes, &dests, seed, max_queries,
                             r] {
        ReaderStats& out = stats_[r];
        pin_thread(1 + r);
        try {
          read(engine, nodes, dests,
               util::derive_seed(seed, kReaderSeed + r), max_queries, out);
        } catch (const std::exception& e) {
          out.error = e.what();
        }
      });
    }
  }
  ReaderGroup(const ReaderGroup&) = delete;
  ReaderGroup& operator=(const ReaderGroup&) = delete;
  ~ReaderGroup() { finish(true); }

  /// Joins the readers, first telling them to stop when `stop` is set.
  std::vector<ReaderStats>& finish(bool stop) {
    if (stop) stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    return stats_;
  }

 private:
  void read(const serve::QueryEngine& engine, std::size_t nodes,
            const std::vector<NodeId>& dests, std::uint64_t seed,
            std::size_t max_queries, ReaderStats& out) const {
    util::Rng rng(seed);
    out.latency_us.reserve(std::min<std::size_t>(max_queries, 1u << 20));
    using Status = serve::QueryEngine::QueryStatus;
    while (out.queries < max_queries && !stop_.load()) {
      const auto src = static_cast<NodeId>(rng.index(nodes));
      const NodeId dst = dests[rng.index(dests.size())];
      const Clock::time_point t0 = Clock::now();
      const serve::QueryEngine::QueryResult r = engine.query(src, dst);
      const Clock::time_point t1 = Clock::now();
      out.latency_us.push_back(
          std::chrono::duration<float, std::micro>(t1 - t0).count());
      ++out.queries;
      out.paths += r.paths.size();
      if (r.status == Status::kNoSnapshot) {
        ++out.no_snapshot;
      } else if (r.status != Status::kOk) {
        ++out.not_ok;
      } else if (!loop_free_walk(r.paths.front(), src, dst)) {
        ++out.bad_path;
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<ReaderStats> stats_;
  std::vector<std::thread> threads_;  // last: joined before stats_ dies
};

/// After churn: the canonical answer of a fixed query sample must equal the
/// path the node selected.  Returns the number of mismatches.
std::size_t serving_mismatches(const serve::QueryEngine& engine,
                               sim::Network& net,
                               const std::vector<NodeId>& dests,
                               std::uint64_t seed, std::string& first) {
  util::Rng rng(util::derive_seed(seed, kCheckQuerySeed));
  const std::size_t n = net.graph().num_nodes();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < kCheckQueries; ++i) {
    const auto src = static_cast<NodeId>(rng.index(n));
    NodeId dst = src;
    while (dst == src) dst = dests[rng.index(dests.size())];
    const auto selected =
        static_cast<const core::CentaurNode&>(net.node(src)).selected_path(dst);
    const serve::QueryEngine::QueryResult r = engine.query(src, dst);
    const bool ok = r.status == serve::QueryEngine::QueryStatus::kOk;
    if (ok == selected.has_value() && (!ok || r.paths.front() == *selected)) {
      continue;
    }
    if (bad++ == 0) {
      first = "query " + std::to_string(src) + "->" + std::to_string(dst) +
              " answered " + serve::to_string(r.status) +
              " but does not match the selected path";
    }
  }
  return bad;
}

// -------------------------------------------------------------- BGP arm --

struct BgpArm {
  double cold_start_s = 0;
  std::uint64_t cold_events = 0;
  std::vector<double> transition_ms;
  double transition_s = 0;
  std::uint64_t transition_events = 0;
  std::uint64_t transition_messages = 0;
};

/// The reference arm: same topology, delays and transitions, BGP nodes.
/// Runs after the Centaur network is destroyed.
BgpArm run_bgp_arm(const topo::AsGraph& pristine, const Workload& w,
                   const std::vector<NodeId>& dests,
                   const std::vector<LinkId>& flips,
                   std::vector<std::string>& errors) {
  BgpArm arm;
  topo::AsGraph graph = pristine;
  util::Rng delay_rng(util::derive_seed(kScenarioSeed, kDelaySeed));
  eval::RunOptions options;
  options.origin_limit = w.origin_limit;
  sim::Network net(graph, delay_rng);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    net.attach(v, eval::make_protocol_node(eval::Protocol::kBgp, graph,
                                           options));
  }
  std::string first;
  const Clock::time_point t0 = Clock::now();
  net.start_all_and_converge();
  arm.cold_start_s = seconds_between(t0, Clock::now());
  arm.cold_events = net.events_executed();
  for (std::size_t i = 0; i < 2 * flips.size(); ++i) {
    net.mark();
    const std::uint64_t events = net.events_executed();
    const Clock::time_point t = Clock::now();
    net.set_link_state(flips[i / 2], i % 2 == 1);
    net.run_to_convergence();
    const double seconds = seconds_between(t, Clock::now());
    arm.transition_ms.push_back(seconds * 1e3);
    arm.transition_s += seconds;
    arm.transition_events += net.events_executed() - events;
    arm.transition_messages += net.window().messages_sent;
  }
  if (route_mismatches<bgp::BgpNode>(net, dests, first) > 0) {
    errors.push_back("bgp arm: " + first);
  }
  return arm;
}

// ------------------------------------------------------------- workload --

int run(const Workload& w, std::uint64_t seed, bool trace,
        const std::string& spans_path) {
  pin_thread(0);
  Tracer tracer(trace);
  std::vector<std::string> errors;
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t queries_attempted = 0;
  std::uint64_t queries_failed = 0;
  JsonObject layers;
  std::string first;

  // ---- setup: topology, serving plane, network, nodes -------------------
  topo::AsGraph graph;
  double generate_s = 0;
  {
    Section s(tracer, "topology.generate");
    graph = generate_topology(w);
    generate_s = s.stop();
  }
  // Derived inputs, untimed: the BGP arm's copy of the topology, the
  // destinations and the flipped links.
  const topo::AsGraph pristine = trace ? graph : topo::AsGraph();
  const std::vector<NodeId> dests = originated(w, graph);
  const std::vector<LinkId> flips = pick_flips(graph, dests, w.flip_links, seed);
  const std::size_t n = graph.num_nodes();

  eval::RunOptions options;
  options.origin_limit = w.origin_limit;
  std::optional<serve::QueryEngine> engine;
  double engine_build_s = 0;
  if (w.serve) {
    Section s(tracer, "serve.engine_build");
    engine.emplace(n, eval::ServeOptions{});
    core::SnapshotSink sink = engine->make_sink();
    if (trace) {
      options.centaur_snapshot_sink =
          [&tracer, sink](NodeId self, const core::PGraph& local,
                          const std::vector<NodeId>& changed_dests,
                          const std::vector<core::DirectedLink>& touched) {
            Section publish(tracer, "serve.publish");
            sink(self, local, changed_dests, touched);
          };
    } else {
      options.centaur_snapshot_sink = std::move(sink);
    }
    engine_build_s = s.stop();
  }

  std::optional<sim::Network> net;
  double network_build_s = 0;
  double node_build_s = 0;
  {
    util::Rng delay_rng(util::derive_seed(kScenarioSeed, kDelaySeed));
    Section s(tracer, "sim.network_build");
    net.emplace(graph, delay_rng);
    network_build_s = s.stop();
  }
  {
    Section s(tracer, "eval.node_build");
    for (NodeId v = 0; v < n; ++v) {
      net->attach(v, eval::make_protocol_node(eval::Protocol::kCentaur, graph,
                                              options));
    }
    node_build_s = s.stop();
  }
  const double setup_s =
      generate_s + engine_build_s + network_build_s + node_build_s;
  const std::uint64_t rss_setup_kb = proc_status_kb("VmRSS");

  // ---- cold start -------------------------------------------------------
  double cold_start_s = 0;
  bool cold_ok = true;
  const CpuTimes cpu0 = cpu_times();
  net->mark();
  try {
    Section s(tracer, "sim.start_all_and_converge");
    net->start_all_and_converge();
    cold_start_s = s.stop();
  } catch (const std::exception& e) {
    errors.push_back(std::string("cold start threw: ") + e.what());
    cold_ok = false;
  }
  const CpuTimes cpu1 = cpu_times();
  const std::uint64_t rss_cold_kb = proc_status_kb("VmRSS");
  const sim::WindowStats cold = net->window();
  const std::uint64_t cold_events = net->events_executed();
  ++ops_attempted;
  if (cold_ok &&
      route_mismatches<core::CentaurNode>(*net, dests, first) > 0) {
    errors.push_back("after cold start: " + first);
    cold_ok = false;
  }
  if (!cold_ok) ++ops_failed;

  if (trace && cold_ok) {
    layers
        .num("sim.cold_events", static_cast<double>(cold_events))
        .num("sim.cold_us_per_event",
             mean(cold_start_s * 1e6, cold_events))
        .num("sim.cold_user_s", cpu1.user_s - cpu0.user_s)
        .num("sim.cold_sys_s", cpu1.sys_s - cpu0.sys_s)
        .num("sim.cold_self_s", tracer.self_s("sim.start_all_and_converge"))
        .num("centaur.rss_setup_mb", static_cast<double>(rss_setup_kb) / 1024)
        .num("centaur.rss_per_node_kb",
             mean(static_cast<double>(rss_cold_kb) -
                      static_cast<double>(rss_setup_kb),
                  n));
  }

  // ---- churn ------------------------------------------------------------
  std::vector<double> transition_ms;
  std::uint64_t transition_events = 0;
  std::uint64_t transition_messages = 0;
  std::uint64_t transition_bytes = 0;
  std::uint64_t transition_dropped = 0;
  std::vector<double> convergence_ms;
  std::vector<ReaderStats> reads;
  if (cold_ok) {
    std::optional<ReaderGroup> readers;
    if (engine) {
      readers.emplace(*engine, n, dests, seed,
                      std::numeric_limits<std::size_t>::max());
    }
    for (std::size_t i = 0; i < 2 * flips.size(); ++i) {
      const LinkId link = flips[i / 2];
      const bool up = i % 2 == 1;
      net->mark();
      const std::uint64_t events = net->events_executed();
      ++ops_attempted;
      try {
        Section s(tracer, "sim.transition", static_cast<std::int64_t>(i));
        net->set_link_state(link, up);
        net->run_to_convergence();
        transition_ms.push_back(s.stop() * 1e3);
      } catch (const std::exception& e) {
        errors.push_back("transition " + std::to_string(i) +
                         " threw: " + e.what());
        ++ops_failed;
        break;
      }
      transition_events += net->events_executed() - events;
      transition_messages += net->window().messages_sent;
      transition_bytes += net->window().bytes_sent;
      transition_dropped += net->window().messages_dropped;
      convergence_ms.push_back(net->window_convergence_time() * 1e3);
      // Route checks after the first (down) and the last transition.
      if ((i == 0 || i + 1 == 2 * flips.size()) &&
          route_mismatches<core::CentaurNode>(*net, dests, first) > 0) {
        errors.push_back("after transition " + std::to_string(i) + ": " +
                         first);
        ++ops_failed;
        break;
      }
    }
    if (readers) reads = std::move(readers->finish(true));
  }
  // Read before the static read phase builds a second engine: teardown only
  // frees memory, so this is the workload's peak.
  const double peak_rss_mb =
      static_cast<double>(proc_status_kb("VmHWM")) / 1024;

  // ---- serving check, and the static read phase without a live plane ----
  if (cold_ok) {
    std::optional<serve::QueryEngine> fixed;
    if (!engine) {
      fixed.emplace(n, eval::ServeOptions{});
      for (NodeId v = 0; v < n; ++v) {
        fixed->publish(
            v,
            static_cast<const core::CentaurNode&>(net->node(v)).local_pgraph(),
            {}, {});
      }
      ReaderGroup readers(*fixed, n, dests, seed, kStaticQueriesPerReader);
      reads = std::move(readers.finish(false));
    }
    const serve::QueryEngine& served = engine ? *engine : *fixed;
    queries_attempted += kCheckQueries;
    const std::size_t bad = serving_mismatches(served, *net, dests, seed, first);
    queries_failed += bad;
    if (bad > 0) errors.push_back("after churn: " + first);
  }

  // ---- probes: after the churn, on the reconverged network (every flipped
  // link is back up), and the dispatch probe after teardown, so the timed
  // sections of traced and untraced processes differ only by span recording.
  if (trace && cold_ok) {
    const perfbench::CentaurState state = perfbench::centaur_state(*net);
    const perfbench::DeriveProbe derive = perfbench::derive_probe(*net, dests);
    const perfbench::SnapshotProbe snap = perfbench::snapshot_probe(*net);
    layers.num("centaur.local_links", static_cast<double>(state.local_links))
        .num("centaur.plist_links", static_cast<double>(state.plist_links))
        .num("centaur.rib_entries", static_cast<double>(state.rib_entries))
        .num("centaur.derive_ns", derive.ns_per_query)
        .num("centaur.derive_hops_mean", derive.hops_mean)
        .num("centaur.export_view_us", snap.export_view_us)
        .num("centaur.snapshot_apply_ns_per_link", snap.apply_ns_per_link)
        .num("wire.snapshot_bytes", static_cast<double>(snap.snapshot_bytes))
        .num("wire.size_ns_per_byte", snap.size_ns_per_byte);
  }

  // ---- teardown ---------------------------------------------------------
  double teardown_s = 0;
  {
    Section s(tracer, "centaur.teardown");
    net.reset();
    teardown_s = s.stop();
  }
  if (trace && cold_ok) {
    layers.num("sim.dispatch_ns_per_event",
               perfbench::dispatch_ns_per_event(
                   cold_events, graph.num_links(), n,
                   util::derive_seed(seed, kDispatchSeed)));
  }

  // ---- reads ------------------------------------------------------------
  std::vector<float> latency_us;
  ReaderStats read_total;
  for (ReaderStats& r : reads) {
    latency_us.insert(latency_us.end(), r.latency_us.begin(),
                      r.latency_us.end());
    read_total.queries += r.queries;
    read_total.not_ok += r.not_ok;
    read_total.no_snapshot += r.no_snapshot;
    read_total.bad_path += r.bad_path;
    read_total.paths += r.paths;
    if (!r.error.empty()) errors.push_back("reader threw: " + r.error);
  }
  queries_attempted += read_total.queries;
  queries_failed += read_total.no_snapshot + read_total.bad_path;
  if (read_total.no_snapshot + read_total.bad_path > 0) {
    errors.push_back(std::to_string(read_total.no_snapshot) +
                     " queries found no snapshot, " +
                     std::to_string(read_total.bad_path) +
                     " returned a path that is not a loop-free src..dst walk");
  }

  double transition_total_ms = 0;
  for (const double ms : transition_ms) transition_total_ms += ms;
  const std::size_t transitions = transition_ms.size();

  JsonObject e2e;
  e2e.num("setup_s", setup_s)
      .num("cold_start_s", cold_start_s)
      .num("total_s", setup_s + cold_start_s + transition_total_ms / 1e3 +
                          teardown_s)
      .num("peak_rss_mb", peak_rss_mb)
      .num("cold_start_messages", static_cast<double>(cold.messages_sent))
      .num("cold_start_bytes", static_cast<double>(cold.bytes_sent))
      .num("messages_per_transition",
           mean(static_cast<double>(transition_messages), transitions))
      .num("bytes_per_transition",
           mean(static_cast<double>(transition_bytes), transitions))
      .num("convergence_ms_p50", percentile(convergence_ms, 0.5))
      .num("transition_ms_p50", percentile(transition_ms, 0.50))
      .num("transition_ms_p95", percentile(transition_ms, 0.95))
      .num("query_us_p50", percentile(latency_us, 0.50))
      .num("query_us_p99", percentile(latency_us, 0.99));
  JsonObject samples;
  samples.num("transitions", static_cast<double>(transitions))
      .num("queries", static_cast<double>(latency_us.size()));

  if (trace) {
    const serve::QueryEngine::PublishStats publish =
        engine ? engine->publish_stats() : serve::QueryEngine::PublishStats{};
    layers.num("topology.generate_s", generate_s)
        .num("sim.network_build_s", network_build_s)
        .num("eval.node_build_s", node_build_s)
        .num("sim.transition_events_mean",
             mean(static_cast<double>(transition_events), transitions))
        .num("sim.transition_us_per_event",
             mean(transition_total_ms * 1e3, transition_events))
        .num("sim.transition_self_ms_mean",
             mean(tracer.self_s("sim.transition") * 1e3, transitions))
        .num("sim.messages_dropped", static_cast<double>(transition_dropped))
        .num("centaur.teardown_s", teardown_s)
        .num("serve.publishes", static_cast<double>(publish.publishes))
        .num("serve.full_builds", static_cast<double>(publish.full_builds))
        .num("serve.publish_us_p50", publish.p50_us)
        .num("serve.publish_us_p99", publish.p99_us)
        .num("serve.publish_s", tracer.total_s("serve.publish"))
        .num("serve.queries", static_cast<double>(read_total.queries))
        .num("serve.queries_not_ok", static_cast<double>(read_total.not_ok))
        .num("serve.no_snapshot", static_cast<double>(read_total.no_snapshot))
        .num("serve.paths_per_query",
             mean(static_cast<double>(read_total.paths), read_total.queries));
    if (cold_ok) {
      const BgpArm bgp = run_bgp_arm(pristine, w, dests, flips, errors);
      const double centaur_us_per_event =
          mean((cold_start_s + transition_total_ms / 1e3) * 1e6,
               cold_events + transition_events);
      const double bgp_us_per_event =
          mean((bgp.cold_start_s + bgp.transition_s) * 1e6,
               bgp.cold_events + bgp.transition_events);
      layers.num("bgp.cold_start_s", bgp.cold_start_s)
          .num("bgp.cold_us_per_event",
               mean(bgp.cold_start_s * 1e6, bgp.cold_events))
          .num("bgp.transition_ms_p50", percentile(bgp.transition_ms, 0.5))
          .num("bgp.messages_per_transition",
               mean(static_cast<double>(bgp.transition_messages),
                    bgp.transition_ms.size()))
          .num("bgp.event_cost_ratio",
               bgp_us_per_event > 0 ? centaur_us_per_event / bgp_us_per_event
                                    : 0);
    }
    if (!spans_path.empty()) tracer.write(spans_path);
  }

  std::string error_list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) error_list += ',';
    error_list += json_string(errors[i]);
  }
  error_list += ']';

  JsonObject params;
  params.str("topology", w.tiered ? "tiered_internet(caida_like_params(" +
                                        std::to_string(w.nodes) + "))"
                                  : "brite_like(" + std::to_string(w.nodes) +
                                        ", 2, 5)")
      .num("nodes", static_cast<double>(n))
      .num("links", static_cast<double>(graph.num_links()))
      .num("origins", static_cast<double>(dests.size()))
      .num("flipped_links", static_cast<double>(flips.size()))
      .num("readers", static_cast<double>(kReaders))
      .str("reads", w.serve ? "during churn, live snapshots"
                            : "after churn, static snapshots")
      .num("query_k", static_cast<double>(eval::ServeOptions{}.query_k))
      .str("link_delay", "uniform [0, 5) ms");

  JsonObject build;
  build.str("type", PERFBENCH_BUILD_TYPE)
      .str("flags", PERFBENCH_CXX_FLAGS)
      .str("compiler", PERFBENCH_COMPILER);

  JsonObject out;
  out.str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .num("trace", trace ? 1 : 0)
      .raw("params", params.text())
      .raw("build", build.text())
      .raw("correct", errors.empty() ? "true" : "false")
      .raw("errors", error_list)
      .num("ops_attempted", static_cast<double>(ops_attempted))
      .num("ops_failed", static_cast<double>(ops_failed))
      .num("queries_attempted", static_cast<double>(queries_attempted))
      .num("queries_failed", static_cast<double>(queries_failed))
      .raw("e2e", e2e.text())
      .raw("samples", samples.text());
  if (trace) out.raw("layers", layers.text());
  std::cout << out.text() << std::endl;
  for (const std::string& e : errors) std::cerr << "perfbench: " << e << '\n';
  return errors.empty() ? 0 : 1;
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: centaur_perfbench --workload "
               "sparse_cold|flip_churn|serve_churn --seed N --trace 0|1 "
               "[--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // CENTAUR_* variables switch code paths inside Network and
  // make_protocol_node; a measurement must not silently depend on them.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CENTAUR_", 8) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; unset every CENTAUR_* variable\n";
      return 2;
    }
  }
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  std::optional<bool> trace;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
      if (workload == nullptr) return usage("unknown workload");
    } else if (key == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      trace = value == "1";
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0 || workload == nullptr || !seed || !trace) {
    return usage("missing argument");
  }
  try {
    return run(*workload, *seed, *trace, spans_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
