// Microbenchmarks for the core data-structure operations whose complexity
// S6.3 analyses: BuildGraph (O(|E| * alpha)), DerivePath (O(d * i)), the
// announcement diff/apply path, the valley-free solver, and the Bloom
// filter used for Permission-List compression.
//
// The custom main (bottom of file) mirrors every per-iteration run into the
// shared BENCH_micro.json report when --json / CENTAUR_BENCH_JSON is set —
// these numbers are the committed perf baselines CI diffs against.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "centaur/announce.hpp"
#include "centaur/build_graph.hpp"
#include "centaur/centaur_node.hpp"
#include "policy/valley_free.hpp"
#include "runner/bench_report.hpp"
#include "sim/network.hpp"
#include "topology/generator.hpp"
#include "util/bloom.hpp"
#include "util/rng.hpp"
#include "util/scale.hpp"
#include "wire/wire_format.hpp"

namespace {

using namespace centaur;
using core::PGraph;
using topo::NodeId;
using topo::Path;

topo::AsGraph make_topology(std::size_t n) {
  util::Rng rng(0xBE7C4 ^ n);
  return topo::tiered_internet(topo::caida_like_params(n), rng);
}

std::map<NodeId, Path> selected_paths(const topo::AsGraph& g, NodeId vantage) {
  std::map<NodeId, Path> selected;
  for (NodeId dest = 0; dest < g.num_nodes(); ++dest) {
    if (dest == vantage) {
      selected[dest] = Path{vantage};
      continue;
    }
    const auto routes = policy::ValleyFreeRoutes::compute(
        g, dest, policy::TieBreak::kPerDestRandom, 42);
    if (routes.at(vantage).reachable()) {
      selected[dest] = routes.path_from(vantage);
    }
  }
  return selected;
}

void BM_ValleyFreeSolver(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  NodeId dest = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::ValleyFreeRoutes::compute(g, dest));
    dest = static_cast<NodeId>((dest + 1) % g.num_nodes());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ValleyFreeSolver)->Range(64, 1024)->Complexity();

void BM_MultipathSolver(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  NodeId dest = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::MultipathRoutes::compute(g, dest));
    dest = static_cast<NodeId>((dest + 1) % g.num_nodes());
  }
}
BENCHMARK(BM_MultipathSolver)->Range(64, 1024);

void BM_BuildGraph(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  const auto selected = selected_paths(g, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_local_pgraph(1, selected));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildGraph)->Range(64, 1024)->Complexity();

void BM_DerivePath(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  const auto selected = selected_paths(g, 1);
  const PGraph pg = core::build_local_pgraph(1, selected);
  NodeId dest = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::query_path(pg, core::PathQuery{dest}));
    dest = static_cast<NodeId>((dest + 1) % g.num_nodes());
  }
}
BENCHMARK(BM_DerivePath)->Range(64, 1024);

void BM_ExportViewAndDiff(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  const auto selected = selected_paths(g, 1);
  const PGraph pg = core::build_local_pgraph(1, selected);
  const auto all = [](NodeId) { return true; };
  const core::ExportedView base = core::make_export_view(pg, all);
  for (auto _ : state) {
    core::ExportedView view = core::make_export_view(pg, all);
    benchmark::DoNotOptimize(core::diff_views(base, view));
  }
}
BENCHMARK(BM_ExportViewAndDiff)->Range(64, 512);

void BM_ApplyFullDelta(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  const auto selected = selected_paths(g, 1);
  const PGraph pg = core::build_local_pgraph(1, selected);
  const auto all = [](NodeId) { return true; };
  const core::GraphDelta delta =
      core::diff_views(core::ExportedView{}, core::make_export_view(pg, all));
  for (auto _ : state) {
    PGraph fresh(1);
    benchmark::DoNotOptimize(core::apply_delta(fresh, delta, 2));
  }
}
BENCHMARK(BM_ApplyFullDelta)->Range(64, 512);

void BM_ApplyDelta(benchmark::State& state) {
  // Steady-phase counterpart of BM_ApplyFullDelta: a small incremental
  // delta (a few destinations' paths leaving and returning) applied to an
  // already-assembled neighbor P-graph — the per-message import cost the
  // incremental recompute plane pays in the steady state.
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  const auto selected = selected_paths(g, 1);
  auto shrunk = selected;
  std::size_t idx = 0;
  for (auto it = shrunk.begin(); it != shrunk.end();) {
    it = (idx++ % 8 == 3) ? shrunk.erase(it) : std::next(it);
  }
  const auto all = [](NodeId) { return true; };
  const core::ExportedView before =
      core::make_export_view(core::build_local_pgraph(1, selected), all);
  const core::ExportedView after =
      core::make_export_view(core::build_local_pgraph(1, shrunk), all);
  const core::GraphDelta fwd = core::diff_views(before, after);
  const core::GraphDelta back = core::diff_views(after, before);
  PGraph target(1);
  core::apply_delta(target, core::diff_views(core::ExportedView{}, before), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::apply_delta(target, fwd, 2));
    benchmark::DoNotOptimize(core::apply_delta(target, back, 2));
  }
  // Deterministic workload shape (gated at tolerance 0).
  state.counters["delta_links"] =
      static_cast<double>(fwd.upserts.size() + fwd.removes.size());
  state.counters["delta_dests"] =
      static_cast<double>(fwd.dest_adds.size() + fwd.dest_removes.size());
}
BENCHMARK(BM_ApplyDelta)->Range(64, 512);

void BM_Reselect(benchmark::State& state) {
  // The incremental-plane reselect sweep: after convergence, a
  // policy_changed() re-ranks every known destination by rank-merging the
  // per-neighbor candidate summaries (no selection actually changes, so
  // nothing floods) — the per-delta decision cost of the steady phase.
  auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(0x5EEC7);
  sim::Network net(g, rng);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    net.attach(v, std::make_unique<core::CentaurNode>(g));
  }
  net.start_all_and_converge();
  auto& node = dynamic_cast<core::CentaurNode&>(net.node(1));
  for (auto _ : state) {
    node.policy_changed();
  }
  // Deterministic workload shape (gated at tolerance 0).
  state.counters["selected_dests"] =
      static_cast<double>(node.selected_paths().size());
}
BENCHMARK(BM_Reselect)->Range(64, 512);

void BM_EncodeDelta(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  const auto selected = selected_paths(g, 1);
  const PGraph pg = core::build_local_pgraph(1, selected);
  const auto all = [](NodeId) { return true; };
  const core::GraphDelta delta =
      core::diff_views(core::ExportedView{}, core::make_export_view(pg, all));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wire::encode(delta, wire::PlistEncoding::kExplicit));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delta.byte_size(false)));
}
BENCHMARK(BM_EncodeDelta)->Range(64, 512);

void BM_DecodeDelta(benchmark::State& state) {
  const auto g = make_topology(static_cast<std::size_t>(state.range(0)));
  const auto selected = selected_paths(g, 1);
  const PGraph pg = core::build_local_pgraph(1, selected);
  const auto all = [](NodeId) { return true; };
  const core::GraphDelta delta =
      core::diff_views(core::ExportedView{}, core::make_export_view(pg, all));
  const std::vector<std::uint8_t> buf =
      wire::encode(delta, wire::PlistEncoding::kExplicit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_DecodeDelta)->Range(64, 512);

void BM_BloomInsertContains(benchmark::State& state) {
  util::BloomFilter f(static_cast<std::size_t>(state.range(0)), 0.01);
  std::uint32_t i = 0;
  for (auto _ : state) {
    f.insert(i);
    benchmark::DoNotOptimize(f.contains(i / 2));
    ++i;
  }
}
BENCHMARK(BM_BloomInsertContains)->Range(64, 4096);

void BM_PermissionListLookup(benchmark::State& state) {
  core::PermissionList pl;
  for (NodeId d = 0; d < static_cast<NodeId>(state.range(0)); ++d) {
    pl.add(d, d % 3);
  }
  NodeId d = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pl.permits(d, d % 3));
    d = (d + 1) % static_cast<NodeId>(state.range(0));
  }
}
BENCHMARK(BM_PermissionListLookup)->Range(8, 1024);

// Lookups in a per-graph table at the fullest load before it doubles
// (7/8 of `cap`, util/load_rule.hpp).  The keys are dense ids 0..n-1, the
// layout NodeMap's home slot favors, or a fixed-seed scattered sample of
// [0, 2^20), like the received graphs of the 16-origin runs; `miss` looks
// up as many keys the table does not hold.  The counters are deterministic:
// the capacity and the mean probe length of the timed lookups.
struct FullTableKeys {
  std::vector<NodeId> present;
  std::vector<NodeId> lookups;
};

FullTableKeys full_table_keys(const benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  const std::size_t n = cap * 7 / 8;
  std::vector<NodeId> ids(2 * n);
  if (state.range(1) == 0) {
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i);
  } else {
    util::Rng rng(0x5CA77E4 ^ cap);
    const auto sample = rng.sample_without_replacement(std::size_t{1} << 20,
                                                       ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<NodeId>(sample[i]);
    }
  }
  const auto mid = ids.begin() + static_cast<std::ptrdiff_t>(n);
  FullTableKeys keys{{ids.begin(), mid}, {}};
  if (state.range(2) == 0) {
    keys.lookups = keys.present;
  } else {
    keys.lookups.assign(mid, ids.end());
  }
  return keys;
}

template <typename Map, typename Fill>
void time_full_table_finds(benchmark::State& state, Map& m, Fill fill) {
  const FullTableKeys keys = full_table_keys(state);
  for (const NodeId id : keys.present) fill(m, id);
  std::size_t probes = 0;
  for (const NodeId id : keys.lookups) probes += m.probe_length(id);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.find(keys.lookups[i]));
    if (++i == keys.lookups.size()) i = 0;
  }
  state.counters["capacity"] = static_cast<double>(m.capacity());
  state.counters["probes_per_find"] =
      static_cast<double>(probes) / static_cast<double>(keys.lookups.size());
}

void BM_NodeMapFind(benchmark::State& state) {
  PGraph::AdjVec m;  // a parents index
  time_full_table_finds(state, m, [](PGraph::AdjVec& t, NodeId id) {
    t.ensure(id).push_back(id + 1);
  });
}
BENCHMARK(BM_NodeMapFind)
    ->ArgNames({"cap", "scattered", "miss"})
    ->ArgsProduct({{32, 256, 4096}, {0, 1}, {0, 1}});

void BM_FlatMapFind(benchmark::State& state) {
  using FailChains = core::CentaurNode::FailChains;
  FailChains m;
  time_full_table_finds(state, m, [](FailChains& t, NodeId id) {
    t[id].push_back(id);
  });
}
BENCHMARK(BM_FlatMapFind)
    ->ArgNames({"cap", "scattered", "miss"})
    ->ArgsProduct({{32, 256, 4096}, {0, 1}, {0, 1}});

// Console reporting plus collection of per-iteration runs into the shared
// JSON schema (wall_time_s = mean real time per iteration; iteration count
// and items/s travel as metrics).  Aggregate rows (BigO/RMS) stay
// console-only.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollector(runner::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      runner::TrialResult t;
      t.name = run.benchmark_name();
      t.wall_time_s =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      t.metrics.emplace_back("iterations",
                             static_cast<double>(run.iterations));
      for (const auto& [counter_name, counter] : run.counters) {
        t.metrics.emplace_back(counter_name, counter.value);
      }
      report_->add(std::move(t));
    }
  }

 private:
  runner::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      runner::BenchReport::resolve_path(&argc, argv, "micro");
  runner::BenchReport report("micro",
                             centaur::util::to_string(
                                 centaur::util::scale_from_env()),
                             /*threads=*/1);
  report.set_path(json_path);
  report.add_note(
      "centaur bytes = exact wire-codec encoded length (v1, varint+delta)");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollector collector(&report);
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();
  report.write();
  return 0;
}
