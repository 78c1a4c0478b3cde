#include "sim/network.hpp"

#include <stdexcept>
#include <utility>

namespace centaur::sim {

Network::Network(AsGraph& graph, util::Rng& rng, Time min_delay,
                 Time max_delay)
    : graph_(graph), nodes_(graph.num_nodes()) {
  delays_.reserve(graph.num_links());
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    delays_.push_back(rng.uniform(min_delay, max_delay));
  }
  // Flooding protocols keep roughly O(links) deliveries in flight during
  // initialization; pre-sizing the event heap avoids its growth
  // reallocations on the hot path.
  sim_.reserve(2 * graph.num_links() + 16);
}

void Network::attach(NodeId id, std::unique_ptr<Node> node) {
  if (id >= nodes_.size()) throw std::invalid_argument("Network::attach: id");
  node->net_ = this;
  node->self_ = id;
  nodes_.at(id) = std::move(node);
}

std::size_t Network::start_all_and_converge() {
  for (auto& n : nodes_) {
    if (!n) throw std::logic_error("Network: node not attached");
  }
  for (auto& n : nodes_) {
    // start() may send messages; those queue behind the remaining starts,
    // which models all sessions coming up at t=0.
    n->start();
  }
  return run_to_convergence();
}

void Network::note_drop() { ++window_.messages_dropped; }

void Network::notify_event_hook(NodeId id) {
  if (event_hook_) event_hook_(id);
}

void Network::send(NodeId from, NodeId to, MessagePtr msg) {
  const auto link = graph_.find_link(from, to);
  if (!link) throw std::invalid_argument("Network::send: not adjacent");
  const std::size_t bytes = msg->byte_size();
  ++window_.messages_sent;
  window_.bytes_sent += bytes;
  ++total_messages_;
  total_bytes_ += bytes;
  if (!graph_.link_up(*link)) {
    note_drop();
    return;
  }
  const LinkId l = *link;
  sim_.schedule(delays_.at(l), [this, from, to, l, msg = std::move(msg)] {
    if (!graph_.link_up(l)) {
      note_drop();
      return;
    }
    ++window_.messages_delivered;
    window_.last_delivery = sim_.now();
    nodes_.at(to)->on_message(from, msg);
    notify_event_hook(to);
  });
}

void Network::set_link_state(LinkId link, bool up) {
  const topo::Link& l = graph_.link(link);
  if (graph_.link_up(link) == up) return;
  graph_.set_link_up(link, up);
  // Notify the endpoints via the event queue so that reactions are ordered
  // with in-flight messages.  Each endpoint gets its own zero-delay event;
  // the two run back-to-back in seq order, and the event count every bench
  // reports counts both.
  sim_.schedule(0, [this, a = l.a, b = l.b, up] {
    nodes_.at(a)->on_link_change(b, up);
    notify_event_hook(a);
  });
  sim_.schedule(0, [this, a = l.a, b = l.b, up] {
    nodes_.at(b)->on_link_change(a, up);
    notify_event_hook(b);
  });
}

std::size_t Network::run_to_convergence() { return sim_.run(); }

void Network::mark() {
  window_ = WindowStats{};
  mark_time_ = sim_.now();
}

Time Network::window_convergence_time() const {
  if (window_.messages_delivered == 0) return 0;
  return window_.last_delivery - mark_time_;
}

}  // namespace centaur::sim
