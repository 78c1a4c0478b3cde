// Message-passing network binding protocol nodes to a topology.
//
// A Network owns a Simulator, a set of protocol Nodes (one per AsGraph
// node), per-link propagation delays, and the message/byte counters the
// experiments read.  Protocols (BGP / OSPF / Centaur) implement Node and are
// oblivious to measurement concerns.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

namespace centaur::sim {

using topo::AsGraph;
using topo::LinkId;
using topo::NodeId;

/// Base class for protocol messages.  byte_size() feeds the byte counters;
/// implementations should approximate their wire encoding.
class Message {
 public:
  virtual ~Message() = default;
  virtual std::size_t byte_size() const = 0;
  virtual std::string describe() const = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

class Network;

/// A protocol instance running at one topology node.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once after every node is attached; protocols kick off their
  /// initialization phase here (e.g. announce adjacent links).
  virtual void start() = 0;

  virtual void on_message(NodeId from, const MessagePtr& msg) = 0;

  /// Link to `neighbor` changed state.  Both endpoints are notified at the
  /// moment the change takes effect.
  virtual void on_link_change(NodeId neighbor, bool up) = 0;

 protected:
  Network& net() const { return *net_; }
  NodeId self() const { return self_; }

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeId self_ = topo::kInvalidNode;
};

/// Counters over a measurement window (reset by Network::mark()).
struct WindowStats {
  std::size_t messages_sent = 0;
  std::size_t messages_delivered = 0;
  std::size_t messages_dropped = 0;  ///< link went down mid-flight
  std::size_t bytes_sent = 0;
  /// Simulated time of the last delivered message in the window;
  /// meaningful only if messages_delivered > 0.
  Time last_delivery = 0;
};

/// Topology-bound message-passing fabric with per-link delays.
class Network {
 public:
  /// Delays are drawn once per link, uniform in [min_delay, max_delay)
  /// (the paper: "set randomly between 0 and 5 milliseconds").
  Network(AsGraph& graph, util::Rng& rng, Time min_delay = 0.0,
          Time max_delay = 0.005);

  /// Installs the protocol instance for `id`.  All nodes must be attached
  /// before run_to_convergence().
  void attach(NodeId id, std::unique_ptr<Node> node);

  /// Calls start() on every node and runs to quiescence.
  /// Returns events processed.
  std::size_t start_all_and_converge();

  /// Sends `msg` from `from` to adjacent node `to`.  The message is counted
  /// as sent immediately; it is delivered after the link delay unless the
  /// link is down at delivery time (then counted as dropped).  Sending on a
  /// link that is already down drops immediately.
  void send(NodeId from, NodeId to, MessagePtr msg);

  /// Changes a link's state now and notifies each endpoint through its own
  /// zero-delay event (two events per flip), then (caller) typically runs
  /// to convergence.
  void set_link_state(LinkId link, bool up);

  /// Runs the simulator until quiescence; returns events processed.
  std::size_t run_to_convergence();

  /// Resets the measurement window.
  void mark();

  /// Counters since the last mark().
  const WindowStats& window() const { return window_; }

  /// Convergence time of the last measured window: last delivery time minus
  /// the window mark time (0 if nothing was delivered).
  Time window_convergence_time() const;

  /// Lifetime counters (never reset by mark()) — what the bench JSON
  /// reports record per trial.
  std::size_t total_messages() const { return total_messages_; }
  std::size_t total_bytes() const { return total_bytes_; }
  std::uint64_t events_executed() const { return sim_.executed(); }

  Simulator& simulator() { return sim_; }
  const AsGraph& graph() const { return graph_; }
  Time link_delay(LinkId link) const { return delays_.at(link); }
  Node& node(NodeId id) { return *nodes_.at(id); }

  /// Analysis-mode hook: invoked with a node's id right after that node
  /// processes an event (message delivery or link-change notification), so
  /// an observer can validate its state at every event boundary.  One hook
  /// at a time; pass nullptr to detach.  Hooks must not send messages or
  /// mutate protocol state.
  void set_event_hook(std::function<void(NodeId)> hook) {
    event_hook_ = std::move(hook);
  }

 private:
  void note_drop();
  void notify_event_hook(NodeId id);

  AsGraph& graph_;
  Simulator sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Time> delays_;
  WindowStats window_;
  std::size_t total_messages_ = 0;
  std::size_t total_bytes_ = 0;
  Time mark_time_ = 0;
  std::function<void(NodeId)> event_hook_;
};

}  // namespace centaur::sim
