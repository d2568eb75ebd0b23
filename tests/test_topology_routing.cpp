#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace gridvc::net {
namespace {

Topology line3() {
  // a -- b -- c, duplex 10G, 1 ms per hop.
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kHost);
  const NodeId b = t.add_node("b", NodeKind::kRouter);
  const NodeId c = t.add_node("c", NodeKind::kHost);
  t.add_duplex_link(a, b, gbps(10), 0.001);
  t.add_duplex_link(b, c, gbps(10), 0.001);
  return t;
}

TEST(Topology, NodeAndLinkAccessors) {
  Topology t = line3();
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.link_count(), 4u);
  EXPECT_EQ(t.node(0).name, "a");
  EXPECT_EQ(t.find_node("b"), std::optional<NodeId>(1));
  EXPECT_FALSE(t.find_node("zzz").has_value());
}

TEST(Topology, DuplicateNameThrows) {
  Topology t;
  t.add_node("x", NodeKind::kHost);
  EXPECT_THROW(t.add_node("x", NodeKind::kRouter), gridvc::PreconditionError);
}

TEST(Topology, InvalidLinksThrow) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kHost);
  const NodeId b = t.add_node("b", NodeKind::kHost);
  EXPECT_THROW(t.add_link(a, a, gbps(1), 0.0), gridvc::PreconditionError);
  EXPECT_THROW(t.add_link(a, b, 0.0, 0.0), gridvc::PreconditionError);
  EXPECT_THROW(t.add_link(a, b, gbps(1), -1.0), gridvc::PreconditionError);
  EXPECT_THROW(t.add_link(a, 99, gbps(1), 0.0), gridvc::PreconditionError);
}

TEST(Topology, PathHelpers) {
  Topology t = line3();
  const Path p{0, 2};  // a->b, b->c
  EXPECT_DOUBLE_EQ(t.path_delay(p), 0.002);
  EXPECT_DOUBLE_EQ(t.path_capacity(p), gbps(10));
  EXPECT_TRUE(t.is_valid_path(p, 0, 2));
  EXPECT_FALSE(t.is_valid_path(p, 2, 0));
  EXPECT_FALSE(t.is_valid_path(Path{2, 0}, 0, 2));  // disconnected chain
}

TEST(Topology, OutgoingLists) {
  Topology t = line3();
  EXPECT_EQ(t.outgoing(0).size(), 1u);  // a->b
  EXPECT_EQ(t.outgoing(1).size(), 2u);  // b->a, b->c
}

TEST(Routing, FindsDirectPath) {
  Topology t = line3();
  const auto p = shortest_path(t, 0, 2);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->size(), 2u);
  EXPECT_TRUE(t.is_valid_path(*p, 0, 2));
}

TEST(Routing, SelfPathIsEmpty) {
  Topology t = line3();
  const auto p = shortest_path(t, 1, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(Routing, UnreachableReturnsNullopt) {
  Topology t;
  t.add_node("a", NodeKind::kHost);
  t.add_node("b", NodeKind::kHost);
  EXPECT_FALSE(shortest_path(t, 0, 1).has_value());
}

TEST(Routing, PrefersLowerDelay) {
  // a->b direct (10 ms) vs a->c->b (2 ms total).
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kHost);
  const NodeId b = t.add_node("b", NodeKind::kHost);
  const NodeId c = t.add_node("c", NodeKind::kRouter);
  t.add_link(a, b, gbps(10), 0.010);
  const LinkId ac = t.add_link(a, c, gbps(10), 0.001);
  const LinkId cb = t.add_link(c, b, gbps(10), 0.001);
  const auto p = shortest_path(t, a, b);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Path{ac, cb}));
}

TEST(Routing, FilterExcludesLinks) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kHost);
  const NodeId b = t.add_node("b", NodeKind::kHost);
  const NodeId c = t.add_node("c", NodeKind::kRouter);
  const LinkId direct = t.add_link(a, b, gbps(10), 0.001);
  t.add_link(a, c, gbps(10), 0.005);
  t.add_link(c, b, gbps(10), 0.005);
  const auto p = shortest_path(t, a, b, [&](LinkId l) { return l != direct; });
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size(), 2u);
}

TEST(Routing, FilterCanDisconnect) {
  Topology t = line3();
  const auto p = shortest_path(t, 0, 2, [](LinkId) { return false; });
  EXPECT_FALSE(p.has_value());
}

TEST(Routing, DeterministicOnEqualCost) {
  // Two parallel equal-delay links a->b: the smaller link id wins.
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kHost);
  const NodeId b = t.add_node("b", NodeKind::kHost);
  const LinkId l0 = t.add_link(a, b, gbps(10), 0.001);
  t.add_link(a, b, gbps(10), 0.001);
  for (int i = 0; i < 5; ++i) {
    const auto p = shortest_path(t, a, b);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->front(), l0);
  }
}

}  // namespace
}  // namespace gridvc::net
