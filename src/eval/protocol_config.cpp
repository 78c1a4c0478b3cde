#include "eval/protocol_config.hpp"

#include <cstdlib>
#include <stdexcept>

#include "bgp/bgp_node.hpp"
#include "centaur/centaur_node.hpp"
#include "linkstate/ospf_node.hpp"
#include "util/env.hpp"

namespace centaur::eval {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kBgp:
      return "BGP";
    case Protocol::kBgpRcn:
      return "BGP-RCN";
    case Protocol::kCentaur:
      return "Centaur";
    case Protocol::kOspf:
      return "OSPF";
  }
  return "?";
}

Protocol protocol_from_string(const std::string& name) {
  if (name == "centaur") return Protocol::kCentaur;
  if (name == "bgp") return Protocol::kBgp;
  if (name == "bgp-rcn") return Protocol::kBgpRcn;
  if (name == "ospf") return Protocol::kOspf;
  throw std::invalid_argument("unknown protocol '" + name +
                              "' (want centaur|bgp|bgp-rcn|ospf)");
}

std::unique_ptr<sim::Node> make_protocol_node(Protocol p,
                                              const topo::AsGraph& graph,
                                              const RunOptions& options) {
  switch (p) {
    case Protocol::kBgp: {
      bgp::BgpNode::Config cfg;
      cfg.mrai = options.bgp_mrai;
      cfg.originate_limit = options.origin_limit;
      return std::make_unique<bgp::BgpNode>(graph, cfg);
    }
    case Protocol::kBgpRcn: {
      bgp::BgpNode::Config cfg;
      cfg.mrai = options.bgp_mrai;
      cfg.originate_limit = options.origin_limit;
      cfg.root_cause_notification = true;
      return std::make_unique<bgp::BgpNode>(graph, cfg);
    }
    case Protocol::kCentaur: {
      core::CentaurNode::Config cfg;
      cfg.originate_limit = options.origin_limit;
      cfg.snapshot_sink = options.centaur_snapshot_sink;
      return std::make_unique<core::CentaurNode>(graph, cfg);
    }
    case Protocol::kOspf:
      return std::make_unique<linkstate::OspfNode>(graph);
  }
  return nullptr;
}

ServeOptions serve_options_from_env() {
  ServeOptions opts;
  opts.query_k = util::env_size_t("CENTAUR_QUERY_K", opts.query_k);
  opts.query_threads =
      util::env_size_t("CENTAUR_SERVE_THREADS", opts.query_threads);
  return opts;
}

AnalysisMode analysis_from_env(AnalysisMode fallback) {
  const std::optional<std::string> env = util::env_string("CENTAUR_CHECK");
  if (!env) return fallback;
  const std::string& v = *env;
  if (v.empty() || v == "0" || v == "off" || v == "false" || v == "no") {
    return AnalysisMode::kOff;
  }
  if (v == "assert") return AnalysisMode::kAssert;
  if (v == "1" || v == "on" || v == "true" || v == "yes" || v == "collect") {
    return AnalysisMode::kCollect;
  }
  util::warn_once("CENTAUR_CHECK",
                  "CENTAUR_CHECK='" + v +
                      "' is not a recognised mode (off/collect/assert); "
                      "using default");
  return fallback;
}

}  // namespace centaur::eval
