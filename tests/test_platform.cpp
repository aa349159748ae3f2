/// Tests for platform descriptions: hosts/links/routers, explicit and
/// graph-derived routing, the text parser, and the builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/maxmin.hpp"
#include "pkt/pkt.hpp"
#include "platform/builders.hpp"
#include "platform/parser.hpp"
#include "platform/platform.hpp"
#include "xbt/exception.hpp"

namespace {

using namespace sg::platform;

TEST(Platform, HostsAndLookup) {
  Platform p;
  p.add_host("a", 1e9);
  p.add_host("b", 2e9);
  p.seal();
  EXPECT_EQ(p.host_count(), 2u);
  ASSERT_TRUE(p.host_by_name("b").has_value());
  EXPECT_DOUBLE_EQ(p.host(*p.host_by_name("b")).speed_flops, 2e9);
  EXPECT_FALSE(p.host_by_name("zz").has_value());
}

TEST(Platform, DuplicateNamesRejected) {
  Platform p;
  p.add_host("a", 1e9);
  EXPECT_THROW(p.add_host("a", 1e9), sg::xbt::InvalidArgument);
  p.add_link("l", 1e8, 1e-4);
  EXPECT_THROW(p.add_link("l", 1e8, 1e-4), sg::xbt::InvalidArgument);
}

// A cluster zone is created whole or not at all: a taken member name is
// found before the hub or any member exists, and the zone is not registered.
TEST(Platform, ClusterZoneWithATakenMemberNameLeavesNothingBehind) {
  Platform p;
  p.add_host("c1", 1e9);
  const size_t nodes0 = p.node_count();
  ClusterZoneSpec spec;
  spec.name = "c";
  spec.count = 3;
  spec.backbone_bandwidth = 1e9;
  try {
    p.add_cluster_zone(spec);
    ADD_FAILURE() << "zone with a taken member name was accepted";
  } catch (const sg::xbt::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate node name: c1"), std::string::npos) << e.what();
  }
  EXPECT_EQ(p.host_count(), 1u);
  EXPECT_EQ(p.link_count(), 0u);
  EXPECT_EQ(p.zone_count(), 0u);
  EXPECT_EQ(p.node_count(), nodes0);
  EXPECT_TRUE(p.edges().empty());
  EXPECT_FALSE(p.zone_by_name("c").has_value());
  EXPECT_FALSE(p.host_by_name("c0").has_value());
  EXPECT_FALSE(p.link_by_name("c-backbone").has_value());
  // Every name stays free: the zone can be created under another prefix.
  spec.host_prefix = "m";
  const ZoneId z = p.add_cluster_zone(spec);
  EXPECT_EQ(p.zone_host_count(z), 3);
  EXPECT_EQ(p.host_count(), 4u);
}

// Id-keyed accessors refuse an out-of-range id with a typed error naming the
// call and the id; they used to leak std::out_of_range or read past the end.
TEST(Platform, OutOfRangeIdsThrowTypedErrorsNamingTheCall) {
  Platform p;
  ClusterZoneSpec spec;
  spec.name = "c";
  spec.count = 2;
  p.add_cluster_zone(spec);  // zone 0, hosts 0 and 1
  p.seal();
  sg::core::MaxMinSystem sys;
  sys.new_variable(1.0);  // variable 0
  sg::pkt::PacketNet net(p, sg::pkt::TcpParams::ns2());
  net.add_flow({0, 1, 1e4, 0.0});  // flow 0

  struct Call {
    const char* name;
    std::function<void(int)> call;
  };
  const std::vector<Call> calls = {
      {"set_weight", [&](int v) { sys.set_weight(v, 1.0); }},
      {"weight", [&](int v) { (void)sys.weight(v); }},
      {"bound", [&](int v) { (void)sys.bound(v); }},
      {"value", [&](int v) { (void)sys.value(v); }},
      {"host_node", [&](int h) { (void)p.host_node(h); }},
      {"zone_of_host", [&](int h) { (void)p.zone_of_host(h); }},
      {"cluster_zone_spec", [&](int z) { (void)p.cluster_zone_spec(z); }},
      {"zone_kind", [&](int z) { (void)p.zone_kind(z); }},
      {"zone_name", [&](int z) { (void)p.zone_name(z); }},
      {"zone_gateway", [&](int z) { (void)p.zone_gateway(z); }},
      {"zone_first_host", [&](int z) { (void)p.zone_first_host(z); }},
      {"zone_host_count", [&](int z) { (void)p.zone_host_count(z); }},
      {"result", [&](int f) { (void)net.result(f); }},
  };
  for (const Call& c : calls) {
    for (int bad : {-1, 2, 1 << 20}) {
      try {
        c.call(bad);
        ADD_FAILURE() << c.name << " accepted id " << bad;
      } catch (const sg::xbt::InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind(std::string(c.name) + ": ", 0), 0u) << what;
        EXPECT_NE(what.find(" " + std::to_string(bad) + " out of range"), std::string::npos) << what;
      }
    }
  }
  // Valid ids still answer.
  EXPECT_EQ(p.zone_host_count(0), 2);
  EXPECT_EQ(p.zone_of_host(1), 0);
  EXPECT_DOUBLE_EQ(sys.weight(0), 1.0);
  EXPECT_EQ(net.result(0).packets_sent, 0);
}

TEST(Platform, BadLinkSpecsRejected) {
  Platform p;
  EXPECT_THROW(p.add_link("l", 0.0, 1e-4), sg::xbt::InvalidArgument);
  EXPECT_THROW(p.add_link("l", 1e8, -1.0), sg::xbt::InvalidArgument);
}

TEST(Platform, ExplicitRoute) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l1 = p.add_link("l1", 1e8, 1e-3);
  auto l2 = p.add_link("l2", 1e8, 2e-3);
  p.add_route(a, b, {l1, l2});
  p.seal();
  const RouteView r = p.route(0, 1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.latency(), 3e-3);
  // symmetric reverse route
  const std::vector<LinkId> rr = p.route(1, 0).links();
  EXPECT_EQ(rr.front(), l2);
  EXPECT_EQ(rr.back(), l1);
}

TEST(Platform, OneWayRoute) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 1e-3);
  p.add_route(a, b, {l}, /*symmetric=*/false);
  p.seal();
  EXPECT_TRUE(p.reachable(0, 1));
  EXPECT_FALSE(p.reachable(1, 0));
}

TEST(Platform, GraphRoutingShortestLatency) {
  // a - r1 - b with a slow direct path a - r2 - b; Dijkstra must choose the
  // lower-latency path through r1.
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto r1 = p.add_router("r1");
  auto r2 = p.add_router("r2");
  auto fast1 = p.add_link("fast1", 1e8, 1e-4);
  auto fast2 = p.add_link("fast2", 1e8, 1e-4);
  auto slow1 = p.add_link("slow1", 1e9, 1e-2);
  auto slow2 = p.add_link("slow2", 1e9, 1e-2);
  p.add_edge(a, r1, fast1);
  p.add_edge(r1, b, fast2);
  p.add_edge(a, r2, slow1);
  p.add_edge(r2, b, slow2);
  p.seal();
  const std::vector<LinkId> r = p.route(0, 1).links();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], fast1);
  EXPECT_EQ(r[1], fast2);
  EXPECT_NEAR(p.route(0, 1).latency(), 2e-4, 1e-12);
}

TEST(Platform, GraphRoutingMultiHopChain) {
  Platform p;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 5; ++i)
    hosts.push_back(p.add_host("h" + std::to_string(i), 1e9));
  for (int i = 0; i < 4; ++i) {
    auto l = p.add_link("l" + std::to_string(i), 1e8, 1e-3);
    p.add_edge(hosts[static_cast<size_t>(i)], hosts[static_cast<size_t>(i + 1)], l);
  }
  p.seal();
  EXPECT_EQ(p.route(0, 4).size(), 4u);
  EXPECT_NEAR(p.route(0, 4).latency(), 4e-3, 1e-12);
  EXPECT_EQ(p.route(2, 3).size(), 1u);
}

TEST(Platform, UnreachableHosts) {
  Platform p;
  p.add_host("a", 1e9);
  p.add_host("b", 1e9);
  p.seal();
  EXPECT_FALSE(p.reachable(0, 1));
  EXPECT_THROW(p.route(0, 1), sg::xbt::InvalidArgument);
}

TEST(Platform, LoopbackRouteAlwaysExists) {
  Platform p;
  p.add_host("a", 1e9);
  p.seal();
  EXPECT_TRUE(p.reachable(0, 0));
  EXPECT_TRUE(p.route(0, 0).empty());
}

TEST(Platform, ExplicitRouteWinsOverGraph) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto graph_link = p.add_link("g", 1e8, 1e-4);
  auto special = p.add_link("s", 1e8, 5e-2);
  p.add_edge(a, b, graph_link);
  p.add_route(a, b, {special});
  p.seal();
  EXPECT_EQ(p.route(0, 1).links().front(), special);
}

TEST(PlatformParser, RoundTrip) {
  const std::string text = R"(
# test platform
host n0 speed:2Gf
host n1 speed:500Mf
router r0
link l0 bw:125MBps lat:50us
link l1 bw:1Gbps lat:10ms fatpipe
edge n0 r0 l0
edge n1 r0 l1
)";
  Platform p = parse_platform(text);
  EXPECT_EQ(p.host_count(), 2u);
  EXPECT_EQ(p.link_count(), 2u);
  EXPECT_DOUBLE_EQ(p.host(0).speed_flops, 2e9);
  EXPECT_DOUBLE_EQ(p.link(0).bandwidth_Bps, 1.25e8);
  EXPECT_DOUBLE_EQ(p.link(1).latency_s, 1e-2);
  EXPECT_EQ(p.link(1).policy, SharingPolicy::kFatpipe);
  EXPECT_EQ(p.route(0, 1).size(), 2u);

  // dump and re-parse: same structure
  Platform p2 = parse_platform(dump_platform(p));
  EXPECT_EQ(p2.host_count(), p.host_count());
  EXPECT_EQ(p2.link_count(), p.link_count());
  EXPECT_EQ(p2.route(0, 1).size(), 2u);
}

TEST(PlatformParser, InlineTraces) {
  const std::string text =
      "host n0 speed:1Gf avail:\"0 1.0;5 0.5;P:10\" state:\"0 1;8 0;P:10\"\n";
  Platform p = parse_platform(text);
  const auto& h = p.host(0);
  ASSERT_FALSE(h.availability.empty());
  EXPECT_DOUBLE_EQ(h.availability.value_at(6.0), 0.5);
  EXPECT_DOUBLE_EQ(h.availability.periodicity(), 10.0);
  EXPECT_DOUBLE_EQ(h.state.value_at(9.0), 0.0);
}

TEST(PlatformParser, ExplicitRouteDirective) {
  const std::string text = R"(
host a speed:1Gf
host b speed:1Gf
link l0 bw:100MBps lat:1ms
route a b l0
)";
  Platform p = parse_platform(text);
  EXPECT_EQ(p.route(0, 1).size(), 1u);
  EXPECT_EQ(p.route(1, 0).size(), 1u);
}

// Malformed numbers must fail as xbt::InvalidArgument naming the line and
// the item: never a raw std:: exception, and never a valid prefix silently
// taken for the whole value.
TEST(PlatformParser, MalformedNumbersRejected) {
  auto expect_rejected = [](const std::string& text, const std::string& needle) {
    try {
      parse_platform(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const sg::xbt::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("platform line 1"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "leaked " << typeid(e).name() << ": " << e.what();
    }
  };
  expect_rejected("host n0 speed:1Gf avail:\"0 abc\"\n", "n0.avail item '0 abc'");
  expect_rejected("host n0 speed:1Gf state:\"0 1;P:x\"\n", "n0.state item 'P:x'");
  expect_rejected("host n0 speed:1Gf churn:\"0 1x\"\n", "n0.churn item '0 1x'");
  expect_rejected("link l0 bw:1MBps state:\"0 1;5 nan\"\n", "l0.state item '5 nan'");
  expect_rejected("cluster c0 hosts:12x\n", "bad hosts count: 12x");
  expect_rejected("cluster c0 hosts:4702868.716\n", "bad hosts count: 4702868.716");
}

TEST(PlatformParser, Errors) {
  EXPECT_THROW(parse_platform("bogus x\n"), sg::xbt::InvalidArgument);
  EXPECT_THROW(parse_platform("host\n"), sg::xbt::InvalidArgument);
  EXPECT_THROW(parse_platform("edge a b c\n"), sg::xbt::InvalidArgument);
  EXPECT_THROW(parse_platform("host a speed:1Gf\nroute a zz\n"), sg::xbt::InvalidArgument);
}

TEST(Builders, Cluster) {
  ClusterSpec spec;
  spec.count = 4;
  Platform p = make_cluster(spec);
  EXPECT_EQ(p.host_count(), 4u);
  // node0 -> node1: private link, backbone? no — both behind the same switch.
  const RouteView r = p.route(0, 1);
  EXPECT_EQ(r.size(), 2u);  // up + down private links
}

TEST(Builders, ClusterCrossBackbone) {
  // Traffic leaving through -out is not exercised here, but all intra-cluster
  // routes must avoid the backbone (pure star through the switch).
  ClusterSpec spec;
  spec.count = 3;
  Platform p = make_cluster(spec);
  auto bb = p.link_by_name("node-backbone");
  ASSERT_TRUE(bb.has_value());
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      if (i == j)
        continue;
      for (auto l : p.route(i, j))
        EXPECT_NE(l, *bb);
    }
}

TEST(Builders, Dumbbell) {
  Platform p = make_dumbbell(1e9, 1.25e8, 1e-4);
  EXPECT_EQ(p.host_count(), 2u);
  EXPECT_EQ(p.route(0, 1).size(), 1u);
}

TEST(Builders, ClientServerLanSharedSegment) {
  Platform p = make_client_server_lan(3, 2);
  EXPECT_EQ(p.host_count(), 5u);
  auto c1 = *p.host_by_name("client1");
  auto c2 = *p.host_by_name("client2");
  auto s1 = *p.host_by_name("server1");
  // All client->server routes share the hub segment.
  auto hub = *p.link_by_name("hub-segment");
  const auto r1 = p.route(c1, s1).links();
  const auto r2 = p.route(c2, s1).links();
  EXPECT_NE(std::find(r1.begin(), r1.end(), hub), r1.end());
  EXPECT_NE(std::find(r2.begin(), r2.end(), hub), r2.end());
}

// ---------------------------------------------------------------------------
// Cluster zones: the `cluster` parser directive and zone introspection.
// ---------------------------------------------------------------------------

TEST(PlatformParser, ClusterDirective) {
  const std::string text =
      "cluster c0 hosts:16 speed:1Gf bw:125MBps lat:50us backbone:10GBps blat:500us fatpipe\n";
  Platform p = parse_platform(text);
  EXPECT_EQ(p.host_count(), 16u);
  EXPECT_EQ(p.link_count(), 17u);  // 16 up-links + backbone
  ASSERT_EQ(p.zone_count(), 1u);
  EXPECT_EQ(p.zone_kind(0), ZoneKind::kCluster);
  EXPECT_EQ(p.zone_name(0), "c0");
  ASSERT_TRUE(p.host_by_name("c00").has_value());
  EXPECT_DOUBLE_EQ(p.host(*p.host_by_name("c00")).speed_flops, 1e9);
  auto bb = p.link_by_name("c0-backbone");
  ASSERT_TRUE(bb.has_value());
  EXPECT_EQ(p.link(*bb).policy, SharingPolicy::kFatpipe);
  EXPECT_DOUBLE_EQ(p.link(*bb).bandwidth_Bps, 1e10);
  EXPECT_DOUBLE_EQ(p.link(*bb).latency_s, 5e-4);
  // Member routes: private up + down, composed by the zone rule.
  EXPECT_EQ(p.route(0, 15).size(), 2u);
  EXPECT_NEAR(p.route(0, 15).latency(), 1e-4, 1e-12);
  // Zone composition leaves no per-pair state behind.
  EXPECT_EQ(p.resolved_route_count(), 0u);
}

TEST(PlatformParser, ClusterDirectiveWithoutBackbone) {
  Platform p = parse_platform("cluster lan hosts:4 bw:1Gbps lat:10us\n");
  EXPECT_EQ(p.link_count(), 4u);  // no backbone link
  EXPECT_FALSE(p.link_by_name("lan-backbone").has_value());
  // Without a backbone the hub doubles as the gateway.
  EXPECT_EQ(p.zone_gateway(0), *p.node_by_name("lan-switch"));
  EXPECT_EQ(p.route(1, 3).size(), 2u);
}

TEST(PlatformParser, ClusterDirectiveErrors) {
  EXPECT_THROW(parse_platform("cluster\n"), sg::xbt::InvalidArgument);
  EXPECT_THROW(parse_platform("cluster c0\n"), sg::xbt::InvalidArgument);  // no hosts:
  EXPECT_THROW(parse_platform("cluster c0 hosts:0\n"), sg::xbt::InvalidArgument);
  EXPECT_THROW(parse_platform("cluster c0 hosts:abc\n"), sg::xbt::InvalidArgument);  // not std::
  EXPECT_THROW(parse_platform("cluster c0 hosts:99999999999999\n"), sg::xbt::InvalidArgument);
  // Backbone attributes without a backbone would silently change the shape.
  EXPECT_THROW(parse_platform("cluster c0 hosts:4 blat:1ms\n"), sg::xbt::InvalidArgument);
  EXPECT_THROW(parse_platform("cluster c0 hosts:4 fatpipe\n"), sg::xbt::InvalidArgument);
}

TEST(PlatformParser, ClusterRoundTrip) {
  const std::string text = R"(
cluster c0 hosts:8 speed:2Gf bw:125MBps lat:50us backbone:1250MBps blat:500us fatpipe
cluster c1 hosts:4 prefix:edge- speed:1Gf bw:250MBps lat:20us
host lone speed:1Gf
router wan
link wan0 bw:12.5MBps lat:20ms
link wan1 bw:12.5MBps lat:30ms
link wan2 bw:25MBps lat:15ms
edge c0-out wan wan0
edge c1-switch wan wan1
edge lone wan wan2
)";
  Platform p = parse_platform(text);
  Platform p2 = parse_platform(dump_platform(p));
  EXPECT_EQ(p2.host_count(), p.host_count());
  EXPECT_EQ(p2.link_count(), p.link_count());
  EXPECT_EQ(p2.zone_count(), p.zone_count());
  // Same routes (by link name) between the same hosts across the round-trip.
  auto names = [](const Platform& plat, int s, int d) {
    std::vector<std::string> out;
    for (LinkId l : plat.route(s, d))
      out.push_back(plat.link(l).name);
    return out;
  };
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"c00", "c07"}, {"c00", "edge-0"}, {"edge-2", "lone"}, {"c03", "lone"}};
  for (const auto& [a, b] : pairs) {
    const int s1 = *p.host_by_name(a), d1 = *p.host_by_name(b);
    const int s2 = *p2.host_by_name(a), d2 = *p2.host_by_name(b);
    EXPECT_EQ(names(p, s1, d1), names(p2, s2, d2)) << a << " -> " << b;
    EXPECT_DOUBLE_EQ(p.route(s1, d1).latency(), p2.route(s2, d2).latency()) << a << " -> " << b;
  }
}

TEST(Platform, ClusterZoneInteriorIsSealedOffFromAdHocEdges) {
  Platform p;
  ClusterZoneSpec spec;
  spec.name = "c";
  spec.count = 2;
  p.add_cluster_zone(spec);
  const NodeId outsider = p.add_host("outsider", 1e9);
  const LinkId l = p.add_link("wild", 1e8, 1e-4);
  // Splicing into a member or the hub would break the gateway invariant that
  // makes O(1) composition exact.
  EXPECT_THROW(p.add_edge(outsider, *p.node_by_name("c0"), l), sg::xbt::InvalidArgument);
  EXPECT_THROW(p.add_edge(outsider, *p.node_by_name("c-switch"), l), sg::xbt::InvalidArgument);
  // The gateway is the attach point.
  p.add_edge(outsider, *p.node_by_name("c-out"), l);
  p.seal();
  EXPECT_EQ(p.route(*p.host_by_name("c0"), *p.host_by_name("outsider")).size(), 3u);
}

TEST(Builders, ClusterIsZoneBacked) {
  ClusterSpec spec;
  spec.count = 6;
  Platform p = make_cluster(spec);
  ASSERT_EQ(p.zone_count(), 1u);
  EXPECT_EQ(p.zone_kind(0), ZoneKind::kCluster);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(p.zone_of_host(i), 0);
  // All member pairs compose without touching the pair cache or Dijkstra.
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j)
      if (i != j) {
        EXPECT_EQ(p.route(i, j).size(), 2u);
      }
  EXPECT_EQ(p.resolved_route_count(), 0u);
  EXPECT_EQ(p.cached_sssp_tree_count(), 0u);
}

// Two 4-host cluster zones behind a WAN fatpipe, plus one unzoned host on a
// router — the standard mixed-topology fixture.
Platform make_two_zone_platform(int per_zone = 4) {
  Platform p;
  for (int z = 0; z < 2; ++z) {
    ClusterZoneSpec zone;
    zone.name = "z" + std::to_string(z);
    zone.count = per_zone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1e8;
    zone.link_latency = 0;
    zone.backbone_bandwidth = 1e9;
    zone.backbone_latency = 0;
    p.add_cluster_zone(zone);
  }
  const LinkId wan = p.add_link("wan", 5e8, 0, SharingPolicy::kFatpipe);
  p.add_edge(p.zone_gateway(0), p.zone_gateway(1), wan);
  const auto router = p.add_router("r");
  const LinkId rlink = p.add_link("r-up", 2e8, 0);
  p.add_edge(p.zone_gateway(0), router, rlink);
  const auto lone = p.add_host("lone", 1e9);
  const LinkId lonelink = p.add_link("lone-up", 2e8, 0);
  p.add_edge(router, lone, lonelink);
  p.seal();
  return p;
}

// Zone membership of the mixed-topology fixture's hosts. The suite and test
// names are kept from the retired sharded-core tests (and the removed
// platform shard map), so the test id stays stable.
TEST(ShardedEngineTest, ShardMapPartitionsZonesAndBackbone) {
  Platform p = make_two_zone_platform();
  EXPECT_EQ(p.zone_count(), 2u);
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(p.zone_of_host(h), 0);      // z00..z03
    EXPECT_EQ(p.zone_of_host(h + 4), 1);  // z10..z13
  }
  EXPECT_EQ(p.zone_of_host(8), -1);  // the lone host on the router is unzoned
}

}  // namespace
