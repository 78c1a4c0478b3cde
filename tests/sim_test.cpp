#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

namespace centaur::sim {
namespace {

using topo::AsGraph;
using topo::NodeId;
using topo::Relationship;

// ---------------------------------------------------------- Simulator -----

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0.3, [&] { order.push_back(3); });
  sim.schedule(0.1, [&] { order.push_back(1); });
  sim.schedule(0.2, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.3);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0.5, [&] { order.push_back(1); });
  sim.schedule(0.5, [&] { order.push_back(2); });
  sim.schedule(0.5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(0.1, [&] {
    ++fired;
    sim.schedule(0.1, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 0.2);
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(0.1, [&] { ++fired; });
  sim.schedule(0.9, [&] { ++fired; });
  sim.run_until(0.5);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsNegativeDelayAndPast) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
  sim.schedule(0.5, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.1, [] {}), std::invalid_argument);
}

TEST(Simulator, EventBudgetGuardsLivelock) {
  Simulator sim;
  std::function<void()> loop = [&] { sim.schedule(0.001, loop); };
  sim.schedule(0, loop);
  EXPECT_THROW(sim.run(100), std::runtime_error);
}

TEST(Simulator, AcceptsMoveOnlyCallables) {
  // Event callbacks are UniqueFunctions, so capturing a move-only payload
  // works (std::function would reject this lambda outright).
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  sim.schedule(0.1, [p = std::move(payload), &seen] { seen = *p + 1; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, ExecutedCountsAcrossRuns) {
  Simulator sim;
  sim.schedule(0.1, [] {});
  sim.schedule(0.2, [] {});
  sim.schedule(0.9, [] {});
  EXPECT_EQ(sim.executed(), 0u);
  sim.run_until(0.5);
  EXPECT_EQ(sim.executed(), 2u);
  sim.run();
  EXPECT_EQ(sim.executed(), 3u);
  sim.schedule(0.1, [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 4u);  // lifetime total, not per-run
}

TEST(Simulator, ZeroDelayBurstsKeepInsertionOrder) {
  // Zero-delay events scheduled from inside an event take the FIFO burst
  // fast path; their observable order must still interleave correctly with
  // same-time events that were already sitting in the heap.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0.5, [&] {
    order.push_back(1);
    sim.schedule(0, [&] {
      order.push_back(3);
      sim.schedule(0, [&] { order.push_back(5); });
    });
    sim.schedule(0, [&] { order.push_back(4); });
  });
  sim.schedule(0.5, [&] { order.push_back(2); });  // heap, same timestamp
  sim.schedule(0.7, [&] { order.push_back(6); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.7);
}

TEST(Simulator, BurstEventsVisibleInPendingAndRunUntil) {
  Simulator sim;
  int fired = 0;
  sim.schedule(0.1, [&] {
    ++fired;
    sim.schedule(0, [&] { ++fired; });
    EXPECT_GE(sim.pending(), 1u);
  });
  sim.run_until(0.2);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunUntilDrainsBurstAtExactDeadline) {
  // An event executing exactly at the deadline schedules a same-time burst
  // follow-up (and that one another): all of them must drain before
  // run_until returns — the deadline gate compares the burst's timestamp
  // (== deadline), not "deadline already reached, stop".
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(0.5, [&] {
    order.push_back(1);
    sim.schedule(0, [&] {
      order.push_back(2);
      sim.schedule(0, [&] { order.push_back(3); });
    });
  });
  sim.schedule_at(0.9, [&] { order.push_back(9); });
  EXPECT_EQ(sim.run_until(0.5), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);
  EXPECT_EQ(sim.pending(), 1u);  // only the 0.9 heap event survives
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 9}));
}

TEST(Simulator, RunUntilPastDeadlineLeavesBurstQueued) {
  // A burst event scheduled while the simulator is idle (e.g. a driver
  // calling set_link_state between runs) sits at now_; a run_until whose
  // deadline is already in the past must leave it queued, not strand-drop
  // or execute it.
  Simulator sim;
  sim.schedule_at(0.5, [] {});
  sim.run();
  int fired = 0;
  sim.schedule(0, [&] { ++fired; });  // burst event at now_ == 0.5
  EXPECT_EQ(sim.run_until(0.3), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);  // a past deadline never rewinds time
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, BatchedEventExceptionPropagatesDeterministically) {
  // A throwing event propagates out of run() at its seq position: the first
  // of two same-instant throwers surfaces, and no later event runs.
  Simulator sim;
  std::vector<int> committed;
  sim.schedule_at(0.1, [&] {
    sim.schedule(0, [&] {
      sim.schedule(0, [&] { committed.push_back(0); });
    });
    sim.schedule(0, [&]() { throw std::runtime_error("node 1 died"); });
    sim.schedule(0, [&] {
      sim.schedule(0, [&] { committed.push_back(2); });
    });
    sim.schedule(0, [&]() { throw std::runtime_error("node 3 died"); });
    sim.schedule(0, [&] {
      sim.schedule(0, [&] { committed.push_back(4); });
    });
  });
  try {
    sim.run();
    FAIL() << "expected the node-1 failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "node 1 died");
  }
  // The event before the failure scheduled its append, which never ran.
  EXPECT_TRUE(committed.empty());
}

TEST(Simulator, TaggedScheduleOrdersLikeSchedule) {
  // schedule_tagged ignores its node tag: interleaved with schedule(), in
  // the heap and in the same-instant burst, events run in (time, call)
  // order, and pending() and executed() count both kinds alike.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_tagged(0.2, 7, [&] { order.push_back(2); });
  sim.schedule(0.2, [&] { order.push_back(3); });
  sim.schedule_tagged(0.2, 3, [&] { order.push_back(4); });
  sim.schedule(0.2, [&] {
    order.push_back(5);
    sim.schedule_tagged(0, 9, [&] { order.push_back(6); });
    sim.schedule(0, [&] { order.push_back(7); });
    sim.schedule_tagged(0, 0, [&] { order.push_back(8); });
    EXPECT_EQ(sim.pending(), 3u);
  });
  sim.schedule_tagged(0.1, 5, [&] { order.push_back(1); });
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.run(), 8u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(sim.executed(), 8u);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ReserveDoesNotDisturbOrdering) {
  Simulator sim;
  sim.reserve(64);
  std::vector<int> order;
  sim.schedule(0.2, [&] { order.push_back(2); });
  sim.schedule(0.1, [&] { order.push_back(1); });
  sim.reserve(1024);  // mid-stream re-reserve must keep the heap intact
  sim.schedule(0.3, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ------------------------------------------------------------ Network -----

class PingMessage : public Message {
 public:
  explicit PingMessage(int hops_left) : hops_left_(hops_left) {}
  int hops_left() const { return hops_left_; }
  std::size_t byte_size() const override { return 10; }
  std::string describe() const override { return "ping"; }

 private:
  int hops_left_;
};

/// Forwards pings along the line topology until hops run out.
class PingNode : public Node {
 public:
  void start() override {}
  void on_message(NodeId from, const MessagePtr& msg) override {
    last_from = from;
    ++received;
    const auto* ping = dynamic_cast<const PingMessage*>(msg.get());
    ASSERT_NE(ping, nullptr);
    if (ping->hops_left() > 0) {
      for (const topo::Neighbor& nb : net().graph().neighbors(self())) {
        if (nb.node != from) {
          net().send(self(), nb.node,
                     std::make_shared<PingMessage>(ping->hops_left() - 1));
        }
      }
    }
  }
  void on_link_change(NodeId, bool up) override { link_events += up ? 1 : -1; }

  int received = 0;
  int link_events = 0;
  NodeId last_from = topo::kInvalidNode;
};

struct NetFixture {
  AsGraph g;
  util::Rng rng{77};
  std::unique_ptr<Network> net;
  std::vector<PingNode*> nodes;

  explicit NetFixture(std::size_t n) : g(n) {
    for (NodeId v = 0; v + 1 < n; ++v) g.add_link(v, v + 1, Relationship::kPeer);
    net = std::make_unique<Network>(g, rng, 0.001, 0.002);
    for (NodeId v = 0; v < n; ++v) {
      auto node = std::make_unique<PingNode>();
      nodes.push_back(node.get());
      net->attach(v, std::move(node));
    }
    net->start_all_and_converge();
  }
};

TEST(Network, DeliversWithDelayAndCounts) {
  NetFixture f(3);
  f.net->mark();
  f.net->send(0, 1, std::make_shared<PingMessage>(1));
  f.net->run_to_convergence();
  EXPECT_EQ(f.nodes[1]->received, 1);
  EXPECT_EQ(f.nodes[2]->received, 1);  // forwarded
  EXPECT_EQ(f.net->window().messages_sent, 2u);
  EXPECT_EQ(f.net->window().messages_delivered, 2u);
  EXPECT_EQ(f.net->window().bytes_sent, 20u);
  EXPECT_GT(f.net->window_convergence_time(), 0.0);
  EXPECT_LT(f.net->window_convergence_time(), 0.005);
}

TEST(Network, SendRequiresAdjacency) {
  NetFixture f(3);
  EXPECT_THROW(f.net->send(0, 2, std::make_shared<PingMessage>(0)),
               std::invalid_argument);
}

TEST(Network, DownLinkDropsMessages) {
  NetFixture f(2);
  f.net->set_link_state(0, false);
  f.net->run_to_convergence();
  EXPECT_EQ(f.nodes[0]->link_events, -1);
  EXPECT_EQ(f.nodes[1]->link_events, -1);

  f.net->mark();
  f.net->send(0, 1, std::make_shared<PingMessage>(0));
  f.net->run_to_convergence();
  EXPECT_EQ(f.nodes[1]->received, 0);
  EXPECT_EQ(f.net->window().messages_dropped, 1u);
  EXPECT_EQ(f.net->window().messages_delivered, 0u);
}

TEST(Network, InFlightMessagesDropWhenLinkFails) {
  NetFixture f(2);
  f.net->mark();
  // Send, then take the link down before the delay elapses.
  f.net->send(0, 1, std::make_shared<PingMessage>(0));
  f.net->set_link_state(0, false);
  f.net->run_to_convergence();
  EXPECT_EQ(f.nodes[1]->received, 0);
  EXPECT_EQ(f.net->window().messages_dropped, 1u);
}

TEST(Network, LinkFlapNotifiesBothEndpoints) {
  NetFixture f(2);
  f.net->set_link_state(0, false);
  f.net->set_link_state(0, true);
  f.net->run_to_convergence();
  EXPECT_EQ(f.nodes[0]->link_events, 0);  // -1 then +1
  EXPECT_EQ(f.nodes[1]->link_events, 0);
}

TEST(Network, RedundantLinkStateChangeIsNoop) {
  NetFixture f(2);
  f.net->set_link_state(0, true);  // already up
  f.net->run_to_convergence();
  EXPECT_EQ(f.nodes[0]->link_events, 0);
}

TEST(Network, DelaysAreDeterministicPerSeed) {
  AsGraph g(2);
  g.add_link(0, 1, Relationship::kPeer);
  util::Rng r1(5), r2(5);
  AsGraph g2 = g;
  Network n1(g, r1), n2(g2, r2);
  EXPECT_DOUBLE_EQ(n1.link_delay(0), n2.link_delay(0));
  EXPECT_GE(n1.link_delay(0), 0.0);
  EXPECT_LT(n1.link_delay(0), 0.005);
}

TEST(Network, MarkResetsWindow) {
  NetFixture f(2);
  f.net->send(0, 1, std::make_shared<PingMessage>(0));
  f.net->run_to_convergence();
  f.net->mark();
  EXPECT_EQ(f.net->window().messages_sent, 0u);
  EXPECT_EQ(f.net->window_convergence_time(), 0.0);
}

}  // namespace
}  // namespace centaur::sim
