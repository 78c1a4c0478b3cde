// centaur — command-line driver for the library.
//
// Subcommands (see usage() / `centaur help` for the option tables):
//   generate  Emit a synthetic AS topology in CAIDA as-rel format on stdout.
//   stats     Print Table-3-style characteristics of an as-rel topology.
//   routes    Print a vantage AS's valley-free routing table (sampled).
//   simulate  Cold-start a protocol on a topology and measure link flips.
//   campaign  Run a scripted fault-injection campaign (src/faults) — either
//             a JSON ScenarioSpec file or the builtin reliability script —
//             and report per-phase convergence/message/byte numbers.
//   bench     The canned reliability campaign across all four protocols
//             (campaign with --builtin defaults), for baseline capture.
//   serve     Run a Centaur scenario with the serving plane attached and
//             answer a queries file (k paths + disjoint count per query)
//             from the converged RCU snapshots.
//   querybench  The two-phase serving-plane bench (queries racing live
//             convergence, then gated deterministic counters) — the
//             BENCH_query.json producer.
//
// simulate / campaign / bench / serve / querybench share one option-parsing
// path: the same --seed/--mrai/--check/--json spellings everywhere, each
// mirroring an environment variable from the README table (printed by
// `centaur help`).
//
// Topologies are as-rel files (`a|b|-1` provider, `a|b|0` peer, `a|b|2`
// sibling); `centaur generate ... > topo.txt` round-trips into every other
// subcommand.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "eval/experiments.hpp"
#include "faults/campaign.hpp"
#include "policy/valley_free.hpp"
#include "runner/bench_report.hpp"
#include "runner/parallel.hpp"
#include "serve/engine.hpp"
#include "serve/query_bench.hpp"
#include "serve/query_file.hpp"
#include "topology/algorithms.hpp"
#include "topology/generator.hpp"
#include "topology/parser.hpp"
#include "topology/stats.hpp"
#include "util/scale.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace centaur;

/// Environment knobs honoured by the run subcommands (the README table).
/// Each row is (variable, values with default, what it does).
constexpr struct EnvVar {
  const char* var;
  const char* values;
  const char* what;
} kEnvVars[] = {
    {"CENTAUR_SCALE", "smoke|default|large (default)",
     "topology sizes / trial counts; the campaign/bench node default"},
    {"CENTAUR_THREADS", "integer >= 1 (hardware concurrency)",
     "trial fan-out width; any value is bit-identical to serial"},
    {"CENTAUR_BENCH_JSON", "file or directory path (off)",
     "emit BENCH_<name>.json reports; --json <path> overrides"},
    {"CENTAUR_CHECK", "off|collect|assert (off)",
     "attach the invariant analyzer to every run; --check = collect"},
    {"CENTAUR_SERVE_THREADS", "integer >= 1 (4)",
     "serving-plane query lanes (serve / querybench); results are "
     "bit-identical for any value"},
    {"CENTAUR_QUERY_K", "integer >= 1 (4)",
     "paths returned per query (canonical DerivePath result first)"},
    {"CENTAUR_LOG", "error|warn|info|debug (warn)",
     "library logging verbosity"},
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  centaur generate --style caida|hetop|brite --nodes N [--seed S]\n"
      "  centaur stats    --topology FILE\n"
      "  centaur routes   --topology FILE --vantage AS [--dests K]\n"
      "  centaur simulate --topology FILE --protocol centaur|bgp|bgp-rcn|ospf\n"
      "                   [--flips K] [--seed S] [--mrai SECONDS] [--check]\n"
      "  centaur campaign [--scenario FILE.json | --nodes N] [--topology FILE]\n"
      "                   [--protocol centaur|bgp|bgp-rcn|ospf|all] [--seed S]\n"
      "                   [--mrai SECONDS] [--check] [--json PATH]\n"
      "  centaur bench    [--nodes N] [--seed S] [--json PATH]\n"
      "  centaur serve    --queries FILE.json [--scenario FILE.json]\n"
      "                   [--topology FILE] [--nodes N] [--seed S]\n"
      "                   [--mrai SECONDS] [--check]\n"
      "  centaur querybench [--nodes N] [--seed S] [--json PATH]\n"
      "\n"
      "campaign runs a scripted fault-injection campaign (SRLG bursts, node\n"
      "crash/restart, flap storms, partition/heal, plus the adversarial\n"
      "actions route_leak, intercept, local_pref_flip and rel_change) to\n"
      "quiescence phase by phase; without --scenario it uses the builtin\n"
      "reliability script.  The committed scenarios/*.json packs cover the\n"
      "route-leak, interception and policy-churn scenarios; adversarial\n"
      "phases additionally report routes flagged by the valley-freeness /\n"
      "interception audit, detection latency, and blast radius.\n"
      "bench is the same with all four protocols forced.\n"
      "\n"
      "serve replays a Centaur scenario with the serving plane attached and\n"
      "answers the queries file ({\"queries\":[{\"src\":A,\"dst\":B[,\"k\":K]}]})\n"
      "from the converged RCU snapshots: up to k policy-compliant paths\n"
      "(canonical DerivePath first) plus the disjoint-path count per query.\n"
      "querybench races query lanes against live convergence, then emits the\n"
      "gated deterministic counters as BENCH_query.json.\n"
      "\n"
      "environment (run subcommands):\n";
  // Values start two columns past the longest name; descriptions two
  // columns further in.
  std::size_t name_width = 0;
  for (const EnvVar& e : kEnvVars) {
    name_width = std::max(name_width, std::strlen(e.var));
  }
  const std::string what_indent(name_width + 6, ' ');
  for (const EnvVar& e : kEnvVars) {
    std::cerr << "  " << e.var
              << std::string(name_width + 2 - std::strlen(e.var), ' ')
              << e.values << "\n"
              << what_indent << e.what << "\n";
  }
  std::exit(error.empty() ? 0 : 2);
}

/// --key value option map; validates that every key is consumed.
/// A few options are valueless flags (e.g. --check) and store "1".
class Options {
 public:
  Options(int argc, char** argv, int first) {
    static const std::set<std::string> kFlags{"check"};
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        usage("expected --key value pairs, got '" + key + "'");
      }
      if (kFlags.count(key.substr(2))) {
        values_[key.substr(2)] = "1";
        continue;
      }
      if (i + 1 >= argc) usage("option " + key + " expects a value");
      values_[key.substr(2)] = argv[++i];
    }
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& fallback = "") {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (fallback.empty()) usage("missing required option --" + key);
      return fallback;
    }
    consumed_.insert(key);
    return it->second;
  }

  /// Like get(), but absent means empty (for options with no default).
  std::string get_optional(const std::string& key) {
    if (!has(key)) return "";
    return get(key);
  }

  long get_long(const std::string& key, long fallback) {
    const std::string raw = get(key, std::to_string(fallback));
    try {
      return std::stol(raw);
    } catch (const std::exception&) {
      usage("option --" + key + " expects a number, got '" + raw + "'");
    }
  }

  void finish() {
    for (const auto& [key, value] : values_) {
      if (!consumed_.count(key)) usage("unknown option --" + key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
};

topo::ParsedTopology load(const std::string& path) {
  topo::ParsedTopology t = topo::load_as_rel_file(path);
  if (!topo::is_connected(t.graph)) {
    std::cerr << "note: topology is not connected; using it as-is\n";
  }
  return t;
}

// ----------------------------------------------- shared run options ------
// One parsing path for every subcommand that runs the simulator: the same
// spellings, each with an environment-variable equivalent (see kEnvVars).

/// --mrai / --check (CENTAUR_CHECK is the env-side spelling of --check).
/// --check means "at least collect": a stricter CENTAUR_CHECK=assert still
/// wins, so CI can escalate flagged runs to hard aborts without a flag.
eval::RunOptions run_options_from(Options& opt) {
  eval::RunOptions run_options;
  run_options.bgp_mrai = static_cast<double>(opt.get_long("mrai", 0));
  const eval::AnalysisMode env_mode = eval::analysis_from_env();
  run_options.analysis =
      opt.get("check", "0") == "1" && env_mode != eval::AnalysisMode::kAssert
          ? eval::AnalysisMode::kCollect
          : env_mode;
  return run_options;
}

/// The --protocol spelling for a protocol (to_string() returns display
/// names like "BGP-RCN" that protocol_from_string rejects).
std::string cli_protocol_name(eval::Protocol p) {
  switch (p) {
    case eval::Protocol::kBgp:
      return "bgp";
    case eval::Protocol::kBgpRcn:
      return "bgp-rcn";
    case eval::Protocol::kCentaur:
      return "centaur";
    case eval::Protocol::kOspf:
      return "ospf";
  }
  return "centaur";
}

/// --protocol, with "all" allowed when `allow_all` (campaign sweeps).
std::vector<eval::Protocol> protocols_from(Options& opt,
                                           const std::string& fallback,
                                           bool allow_all) {
  const std::string name = opt.get("protocol", fallback);
  if (allow_all && name == "all") {
    return {std::begin(eval::kAllProtocols), std::end(eval::kAllProtocols)};
  }
  try {
    return {eval::protocol_from_string(name)};
  } catch (const std::invalid_argument&) {
    usage("unknown --protocol '" + name + "'" +
          (allow_all ? " (want centaur|bgp|bgp-rcn|ospf|all)" : ""));
  }
}

/// --json with the CENTAUR_BENCH_JSON fallback and directory naming
/// (delegates to the bench report resolver so all writers agree).
std::string resolve_json_path(Options& opt, const std::string& bench) {
  std::string value = opt.get_optional("json");
  std::string prog = "centaur";
  std::string flag = "--json";
  char* argv[] = {prog.data(), flag.data(), value.data()};
  int argc = value.empty() ? 1 : 3;
  return runner::BenchReport::resolve_path(&argc, argv, bench);
}

// ----------------------------------------------------- subcommands -------

int cmd_generate(Options& opt) {
  const std::string style = opt.get("style");
  const auto nodes = static_cast<std::size_t>(opt.get_long("nodes", 1000));
  util::Rng rng(static_cast<std::uint64_t>(opt.get_long("seed", 1)));
  opt.finish();

  topo::AsGraph g;
  if (style == "caida") {
    g = topo::tiered_internet(topo::caida_like_params(nodes), rng);
  } else if (style == "hetop") {
    g = topo::tiered_internet(topo::hetop_like_params(nodes), rng);
  } else if (style == "brite") {
    g = topo::brite_like(nodes, 2, std::max<std::size_t>(4, nodes / 40), rng);
  } else {
    usage("unknown --style '" + style + "'");
  }
  topo::write_as_rel(std::cout, g);
  return 0;
}

int cmd_stats(Options& opt) {
  const auto t = load(opt.get("topology"));
  opt.finish();
  std::cout << topo::compute_stats(t.graph, "topology") << "\n";
  return 0;
}

int cmd_routes(Options& opt) {
  const auto t = load(opt.get("topology"));
  const auto vantage_as = static_cast<std::uint32_t>(opt.get_long("vantage", -1));
  const auto dest_sample =
      static_cast<std::size_t>(opt.get_long("dests", 20));
  opt.finish();

  const topo::NodeId* found = t.as_to_node.find(vantage_as);
  if (found == nullptr) usage("--vantage AS not in the topology");
  const topo::NodeId vantage = *found;

  util::Rng rng(7);
  const auto dests = rng.sample_without_replacement(
      t.graph.num_nodes(), std::min(dest_sample, t.graph.num_nodes()));
  util::TextTable table("routes of AS " + std::to_string(vantage_as));
  table.header({"destination AS", "class", "AS path"});
  for (const std::size_t raw : dests) {
    const auto dest = static_cast<topo::NodeId>(raw);
    if (dest == vantage) continue;
    const auto routes = policy::ValleyFreeRoutes::compute(t.graph, dest);
    if (!routes.at(vantage).reachable()) {
      table.row({std::to_string(t.node_to_as[dest]), "-", "(unreachable)"});
      continue;
    }
    std::string path_text;
    for (const topo::NodeId hop : routes.path_from(vantage)) {
      if (!path_text.empty()) path_text += ' ';
      path_text += std::to_string(t.node_to_as[hop]);
    }
    table.row({std::to_string(t.node_to_as[dest]),
               policy::to_string(routes.at(vantage).source), path_text});
  }
  table.print(std::cout);
  return 0;
}

int cmd_simulate(Options& opt) {
  const auto t = load(opt.get("topology"));
  const eval::Protocol proto = protocols_from(opt, "", false).front();
  const auto flips = static_cast<std::size_t>(opt.get_long("flips", 10));
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed", 1));
  const eval::RunOptions run_options = run_options_from(opt);
  const bool analysis = run_options.analysis != eval::AnalysisMode::kOff;
  opt.finish();

  const auto series =
      eval::run_link_flips(t.graph, proto, flips, util::Rng(seed), run_options);
  util::Accumulator msgs, times;
  for (double m : series.message_counts) msgs.add(m);
  for (double s : series.convergence_times) times.add(s);

  util::TextTable table(std::string("simulation — ") + eval::to_string(proto));
  table.header({"metric", "value"});
  table.row({"cold-start messages",
             util::fmt_count(series.cold_start.messages_sent)});
  table.row({"cold-start bytes", util::fmt_count(series.cold_start.bytes_sent)});
  table.row({"cold-start time (ms)",
             util::fmt_double(series.cold_start_time * 1e3, 2)});
  table.row({"flip transitions", util::fmt_count(msgs.count())});
  table.row({"messages/flip (mean)", util::fmt_double(msgs.mean(), 1)});
  table.row({"messages/flip (p90)", util::fmt_double(msgs.quantile(0.9), 1)});
  table.row({"convergence ms (mean)", util::fmt_double(times.mean() * 1e3, 2)});
  table.row({"convergence ms (p90)",
             util::fmt_double(times.quantile(0.9) * 1e3, 2)});
  if (analysis) {
    table.row({"invariant checks", util::fmt_count(series.analysis.checks_run)});
    table.row({"invariant violations",
               util::fmt_count(series.analysis.violations_seen)});
  }
  table.print(std::cout);
  if (analysis) {
    series.analysis.print(std::cout);
    if (!series.analysis.clean()) return 1;
  }
  return 0;
}

/// campaign and bench: one parsing/execution path.  `canned` (bench) forces
/// the builtin reliability scenario and all four protocols.
int run_campaign_command(Options& opt, bool canned) {
  const util::ScaleParams params = util::params_for(util::scale_from_env());
  const std::size_t threads = runner::threads_from_env();
  const auto nodes = static_cast<std::size_t>(
      opt.get_long("nodes", static_cast<long>(params.proto_nodes)));
  const bool seed_given = opt.has("seed");
  const auto seed = static_cast<std::uint64_t>(
      opt.get_long("seed", static_cast<long>(params.seed)));
  const std::string scenario_file =
      canned ? "" : opt.get_optional("scenario");

  faults::ScenarioSpec spec =
      scenario_file.empty() ? faults::reliability_scenario(nodes, seed)
                            : faults::load_scenario_file(scenario_file);
  if (!scenario_file.empty() && seed_given) spec.seed = seed;
  if (opt.has("topology")) spec.topology.file = opt.get("topology");
  if (opt.has("mrai") || opt.has("check") ||
      spec.options.analysis == eval::AnalysisMode::kOff) {
    const eval::RunOptions cli = run_options_from(opt);
    if (opt.has("mrai")) spec.options.bgp_mrai = cli.bgp_mrai;
    if (opt.has("check") ||
        spec.options.analysis == eval::AnalysisMode::kOff) {
      spec.options.analysis = cli.analysis;
    }
  }
  const std::vector<eval::Protocol> arms = protocols_from(
      opt, canned ? "all" : cli_protocol_name(spec.protocol), true);
  const std::string bench_name = "campaign_" + spec.name;
  runner::BenchReport report(bench_name,
                             util::to_string(util::scale_from_env()), threads);
  report.set_path(resolve_json_path(opt, bench_name));
  opt.finish();

  const topo::AsGraph graph = spec.topology.build();
  std::cout << topo::compute_stats(graph, "campaign topology") << "\n\n"
            << "scenario " << spec.name << ": " << spec.script.phases.size()
            << " phases, " << spec.script.total_actions() << " actions, "
            << arms.size() << " protocol arm(s), threads=" << threads << "\n\n";

  // One trial per protocol arm; inputs are a pure function of the index, so
  // results are bit-identical for any CENTAUR_THREADS.
  struct Timed {
    faults::CampaignResult result;
    double wall_s = 0;
  };
  const auto results =
      runner::run_trials(arms.size(), threads, [&](std::size_t i) {
        const runner::Stopwatch sw;
        Timed t;
        faults::ScenarioSpec arm = spec;
        arm.protocol = arms[i];
        t.result = faults::run_scenario(graph, arm);
        t.wall_s = sw.seconds();
        return t;
      });

  // Adversarial scripts grow the per-phase table by the DESIGN.md §15
  // metrics: routes flagged by the audit, detection latency (analyzer
  // node-checks and virtual milliseconds until the first flag; "-" when
  // nothing was flagged), and blast radius.
  const bool adversarial = [&spec] {
    for (const faults::FaultPhase& ph : spec.script.phases) {
      for (const faults::FaultAction& a : ph.actions) {
        switch (a.kind) {
          case faults::ActionKind::kRouteLeak:
          case faults::ActionKind::kRouteLeakStop:
          case faults::ActionKind::kIntercept:
          case faults::ActionKind::kInterceptStop:
          case faults::ActionKind::kLocalPrefFlip:
          case faults::ActionKind::kLocalPrefRestore:
          case faults::ActionKind::kRelChange:
            return true;
          default:
            break;
        }
      }
    }
    return false;
  }();

  bool all_clean = true;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const faults::CampaignResult& r = results[i].result;
    util::TextTable table(std::string("campaign ") + spec.name + " — " +
                          eval::to_string(r.protocol));
    std::vector<std::string> header = {"phase",   "actions", "messages",
                                       "bytes",   "dropped", "conv ms",
                                       "events",  "violations"};
    if (adversarial) {
      header.insert(header.end(), {"flagged", "det evts", "det ms", "blast"});
    }
    table.header(header);
    auto phase_row = [&](const faults::PhaseReport& p) {
      std::vector<std::string> row = {
          p.name, util::fmt_count(p.actions), util::fmt_count(p.messages),
          util::fmt_count(p.bytes), util::fmt_count(p.dropped),
          util::fmt_double(p.convergence_time * 1e3, 2),
          util::fmt_count(p.events), util::fmt_count(p.violations)};
      if (adversarial) {
        row.push_back(util::fmt_count(p.audit_routes_flagged));
        row.push_back(p.detection_events < 0
                          ? "-"
                          : util::fmt_count(static_cast<std::size_t>(
                                p.detection_events)));
        row.push_back(p.detection_time < 0
                          ? "-"
                          : util::fmt_double(p.detection_time * 1e3, 2));
        row.push_back(util::fmt_count(p.blast_radius));
      }
      table.row(row);
    };
    phase_row(r.cold_start);
    for (const faults::PhaseReport& p : r.phases) phase_row(p);
    table.print(std::cout);
    std::cout << "max phase convergence: "
              << util::fmt_double(r.max_phase_convergence() * 1e3, 2)
              << " ms, analyzer checks: "
              << util::fmt_count(r.analysis.checks_run) << ", violations: "
              << util::fmt_count(r.analysis.violations_seen) << "\n\n";
    if (!r.clean()) all_clean = false;

    runner::TrialResult trial;
    trial.name = eval::to_string(r.protocol);
    trial.wall_time_s = results[i].wall_s;
    trial.events = r.total_events;
    trial.messages = r.total_messages;
    trial.bytes = r.total_bytes;
    trial.metrics.emplace_back("phases",
                               static_cast<double>(r.phases.size()));
    trial.metrics.emplace_back(
        "cold_start_messages",
        static_cast<double>(r.cold_start.messages));
    trial.metrics.emplace_back("cold_start_time_s",
                               r.cold_start.convergence_time);
    trial.metrics.emplace_back("max_phase_convergence_s",
                               r.max_phase_convergence());
    trial.metrics.emplace_back("mean_phase_convergence_s",
                               r.mean_phase_convergence());
    trial.metrics.emplace_back(
        "check_violations",
        static_cast<double>(r.analysis.violations_seen));
    for (const faults::PhaseReport& p : r.phases) {
      trial.metrics.emplace_back(p.name + "_convergence_s",
                                 p.convergence_time);
      trial.metrics.emplace_back(p.name + "_messages",
                                 static_cast<double>(p.messages));
      if (adversarial) {
        trial.metrics.emplace_back(
            p.name + "_flagged",
            static_cast<double>(p.audit_routes_flagged));
        trial.metrics.emplace_back(
            p.name + "_detection_events",
            static_cast<double>(p.detection_events));
        trial.metrics.emplace_back(p.name + "_blast",
                                   static_cast<double>(p.blast_radius));
      }
    }
    report.add(std::move(trial));
  }
  report.add_note("fault campaign: " + std::to_string(spec.script.phases.size()) +
                  " scripted phases per protocol arm");

  report.write();
  if (report.enabled()) {
    std::cout << "wrote " << bench_name << " JSON report\n";
  }
  return all_clean ? 0 : 1;
}

int cmd_campaign(Options& opt) { return run_campaign_command(opt, false); }
int cmd_bench(Options& opt) { return run_campaign_command(opt, true); }

/// serve: replay a Centaur scenario with the serving plane attached, then
/// answer the --queries file from the converged snapshots.
int cmd_serve(Options& opt) {
  const util::ScaleParams params = util::params_for(util::scale_from_env());
  const std::string queries_file = opt.get("queries");
  const auto nodes = static_cast<std::size_t>(
      opt.get_long("nodes", static_cast<long>(params.proto_nodes)));
  const bool seed_given = opt.has("seed");
  const auto seed = static_cast<std::uint64_t>(
      opt.get_long("seed", static_cast<long>(params.seed)));
  const std::string scenario_file = opt.get_optional("scenario");

  faults::ScenarioSpec spec =
      scenario_file.empty() ? faults::reliability_scenario(nodes, seed)
                            : faults::load_scenario_file(scenario_file);
  if (!scenario_file.empty() && seed_given) spec.seed = seed;
  if (opt.has("topology")) spec.topology.file = opt.get("topology");
  if (opt.has("mrai") || opt.has("check") ||
      spec.options.analysis == eval::AnalysisMode::kOff) {
    const eval::RunOptions cli = run_options_from(opt);
    if (opt.has("mrai")) spec.options.bgp_mrai = cli.bgp_mrai;
    if (opt.has("check") ||
        spec.options.analysis == eval::AnalysisMode::kOff) {
      spec.options.analysis = cli.analysis;
    }
  }
  opt.finish();

  const std::vector<serve::QuerySpec> queries =
      serve::load_queries(queries_file);
  const eval::ServeOptions serve_options = eval::serve_options_from_env();

  const topo::AsGraph graph = spec.topology.build();
  for (const serve::QuerySpec& q : queries) {
    if (q.src >= graph.num_nodes() || q.dst >= graph.num_nodes()) {
      usage("queries file references node " +
            std::to_string(std::max(q.src, q.dst)) + " but the topology has " +
            std::to_string(graph.num_nodes()) + " nodes");
    }
  }

  // Snapshots are published by Centaur's selection commits, so serve always
  // runs the Centaur protocol regardless of the scenario's protocol field.
  serve::QueryEngine engine(graph.num_nodes(), serve_options);
  spec.options.centaur_snapshot_sink = engine.make_sink();
  util::Rng rng(spec.seed);
  eval::ProtocolRun run(graph, eval::Protocol::kCentaur, rng, spec.options);
  faults::CampaignEngine campaign(run);
  faults::CampaignResult campaign_result = campaign.run(spec.script);
  campaign_result.scenario = spec.name;

  std::cout << "scenario " << spec.name << ": cold start + "
            << campaign_result.phases.size() << " phases converged ("
            << util::fmt_count(campaign_result.total_messages)
            << " messages), serving " << queries.size() << " queries at "
            << serve_options.query_threads << " threads, k="
            << serve_options.query_k << "\n\n";

  serve::EvalTotals totals;
  const std::vector<std::string> answers = serve::evaluate_queries(
      engine, queries, serve_options.query_threads, &totals);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::cout << queries[i].src << " -> " << queries[i].dst << ": "
              << answers[i] << "\n";
  }
  std::cout << "\nanswered " << queries.size() << " queries: "
            << totals.found << " ok, " << totals.unreachable
            << " unreachable, " << totals.not_destination
            << " not-a-destination, " << totals.no_snapshot
            << " no-snapshot\n";
  if (!campaign_result.clean()) {
    campaign_result.analysis.print(std::cout);
    return 1;
  }
  return 0;
}

/// querybench: the two-phase serving-plane bench (BENCH_query.json).
int cmd_querybench(Options& opt) {
  const util::ScaleParams params = util::params_for(util::scale_from_env());
  serve::QueryBenchConfig config;
  config.nodes = static_cast<std::size_t>(
      opt.get_long("nodes", static_cast<long>(params.proto_nodes)));
  config.seed = static_cast<std::uint64_t>(opt.get_long(
      "seed", static_cast<long>(params.seed ^ 0x5E62E)));
  config.serve = eval::serve_options_from_env();
  runner::BenchReport report("query",
                             util::to_string(util::scale_from_env()),
                             config.serve.query_threads);
  report.set_path(resolve_json_path(opt, "query"));
  opt.finish();

  std::cout << "querybench: nodes=" << config.nodes << " query_threads="
            << config.serve.query_threads << " k=" << config.serve.query_k
            << "\n\n";
  const serve::QueryBenchResult result = serve::run_query_bench(config);

  util::TextTable table("querybench");
  table.header({"trial", "metric", "value"});
  for (const runner::TrialResult* trial : {&result.live, &result.steady}) {
    for (const auto& [key, value] : trial->metrics) {
      table.row({trial->name, key, util::fmt_double(value, 1)});
    }
  }
  table.print(std::cout);

  report.add(result.live);
  report.add(result.steady);
  report.add_note("steady answers asserted bit-identical at 1 vs " +
                  std::to_string(config.serve.query_threads) +
                  " query threads");
  report.write();
  if (report.enabled()) std::cout << "wrote query JSON report\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string cmd = argv[1];
  // Dispatch table: every subcommand parses through the same Options class.
  static const std::map<std::string, int (*)(Options&)> kCommands{
      {"generate", cmd_generate},     {"stats", cmd_stats},
      {"routes", cmd_routes},         {"simulate", cmd_simulate},
      {"campaign", cmd_campaign},     {"bench", cmd_bench},
      {"serve", cmd_serve},           {"querybench", cmd_querybench},
  };
  try {
    if (cmd == "help" || cmd == "--help" || cmd == "-h") usage();
    const auto it = kCommands.find(cmd);
    if (it == kCommands.end()) usage("unknown subcommand '" + cmd + "'");
    Options opt(argc, argv, 2);
    return it->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
