/// Tests for the sharded simulation core: the ShardedMaxMin façade (per-zone
/// solver shards, cross-shard variables as linked replicas, joint group
/// solves), the per-shard event heaps, and the engine-level guarantee that
/// sharding never changes results — rates, completion order, and clocks match
/// an unsharded engine to 1e-9 on random mixed zone platforms under churn and
/// fault flaps, including cross-zone flows spanning >= 3 shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/engine.hpp"
#include "platform/platform.hpp"
#include "xbt/config.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

namespace {

using namespace sg::core;
using sg::platform::ClusterZoneSpec;
using sg::platform::LinkId;
using sg::platform::Platform;
using sg::platform::SharingPolicy;

// ---------------------------------------------------------------------------
// ShardedMaxMin unit behaviour
// ---------------------------------------------------------------------------

TEST(ShardedMaxMin, SingleShardBehavesLikeGlobalSystem) {
  ShardedMaxMin sys(1);
  const auto cpu = sys.new_constraint(100.0);
  const auto a = sys.new_variable(1.0);
  const auto b = sys.new_variable(3.0);
  sys.expand(cpu, a);
  sys.expand(cpu, b);
  sys.solve();
  EXPECT_NEAR(sys.value(a), 25.0, 1e-9);
  EXPECT_NEAR(sys.value(b), 75.0, 1e-9);
  EXPECT_NEAR(sys.usage(cpu), 100.0, 1e-9);
  EXPECT_EQ(sys.variable_shard_span(a), 1);
  EXPECT_EQ(sys.group_solve_count(), 0u);
}

TEST(ShardedMaxMin, SetBoundRejectsNaN) {
  ShardedMaxMin sys(2);
  const auto c = sys.new_constraint_in(1, 10.0);
  const auto v = sys.new_variable(1.0, 5.0);
  sys.expand(c, v);
  try {
    sys.set_bound(v, std::numeric_limits<double>::quiet_NaN());
    ADD_FAILURE() << "set_bound accepted NaN";
  } catch (const sg::xbt::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("set_bound"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos) << e.what();
  }
  EXPECT_EQ(sys.bound(v), 5.0);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v), 5.0);
}

TEST(ShardedMaxMin, DetachedVariableGetsUnconstrainedRate) {
  ShardedMaxMin sys(3);
  const auto v = sys.new_variable(2.0);
  EXPECT_EQ(sys.variable_shard_span(v), 0);
  EXPECT_TRUE(sys.needs_solve());
  sys.solve();
  EXPECT_GE(sys.value(v), ShardedMaxMin::kUnlimited);
  sys.set_weight(v, 0.0);
  sys.solve();
  EXPECT_EQ(sys.value(v), 0.0);
}

TEST(ShardedMaxMin, CrossShardVariableCouplesItsShards) {
  // One flow crossing three shards: zone 1 uplink, backbone WAN, zone 2
  // downlink. The allocation must respect the tightest constraint wherever
  // it lives, and all shards must agree on the value.
  ShardedMaxMin sys(3);
  const auto up = sys.new_constraint_in(1, 100.0);
  const auto wan = sys.new_constraint_in(0, 40.0);
  const auto down = sys.new_constraint_in(2, 100.0);
  const auto flow = sys.new_variable(1.0);
  sys.expand(up, flow);
  sys.expand(wan, flow);
  sys.expand(down, flow);
  EXPECT_EQ(sys.variable_shard_span(flow), 3);
  sys.solve();
  EXPECT_NEAR(sys.value(flow), 40.0, 1e-9);
  EXPECT_EQ(sys.group_solve_count(), 1u);
  EXPECT_NEAR(sys.usage(up), 40.0, 1e-9);
  EXPECT_NEAR(sys.usage(down), 40.0, 1e-9);

  // Tighten the zone-2 downlink: the change must propagate through the
  // coupled group even though the mutation is in a different shard.
  sys.set_capacity(down, 10.0);
  sys.solve();
  EXPECT_NEAR(sys.value(flow), 10.0, 1e-9);
}

TEST(ShardedMaxMin, CrossShardFlowSharesWithLocalFlows) {
  // An intra-zone flow shares the uplink with a cross-zone flow; the global
  // max-min solution couples the zones through it.
  ShardedMaxMin sys(3);
  const auto up1 = sys.new_constraint_in(1, 100.0);
  const auto wan = sys.new_constraint_in(0, 1000.0);
  const auto up2 = sys.new_constraint_in(2, 30.0);
  const auto local = sys.new_variable(1.0);
  sys.expand(up1, local);
  const auto cross = sys.new_variable(1.0);
  sys.expand(up1, cross);
  sys.expand(wan, cross);
  sys.expand(up2, cross);
  sys.solve();
  // cross is capped at 30 by zone 2; local then grows to 70 on up1.
  EXPECT_NEAR(sys.value(cross), 30.0, 1e-9);
  EXPECT_NEAR(sys.value(local), 70.0, 1e-9);
}

TEST(ShardedMaxMin, IntraShardChurnNeverTouchesOtherShards) {
  ShardedMaxMin sys(4);
  std::vector<ShardedMaxMin::CnstId> cnsts;
  for (ShardedMaxMin::ShardId s = 1; s <= 3; ++s)
    cnsts.push_back(sys.new_constraint_in(s, 100.0));
  // Seed every shard with one flow and solve once (first solve is full).
  std::vector<ShardedMaxMin::VarId> seed;
  for (auto c : cnsts) {
    const auto v = sys.new_variable(1.0);
    sys.expand(c, v);
    seed.push_back(v);
  }
  sys.solve();
  const auto idle2 = sys.shard(2).solve_stats();
  const auto idle3 = sys.shard(3).solve_stats();

  // Churn only in shard 1.
  for (int i = 0; i < 100; ++i) {
    const auto v = sys.new_variable(1.0);
    sys.expand(cnsts[0], v);
    sys.solve();
    sys.release_variable(v);
    sys.solve();
  }
  EXPECT_EQ(sys.group_solve_count(), 0u);
  EXPECT_EQ(sys.shard(2).solve_stats().solves, idle2.solves);
  EXPECT_EQ(sys.shard(3).solve_stats().solves, idle3.solves);
  EXPECT_NEAR(sys.value(seed[1]), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(seed[2]), 100.0, 1e-9);
}

TEST(ShardedMaxMin, ReleasedCrossShardVariableRecyclesCleanly) {
  ShardedMaxMin sys(3);
  const auto c1 = sys.new_constraint_in(1, 100.0);
  const auto c2 = sys.new_constraint_in(2, 50.0);
  const auto cross = sys.new_variable(1.0);
  sys.expand(c1, cross);
  sys.expand(c2, cross);
  sys.solve();
  EXPECT_NEAR(sys.value(cross), 50.0, 1e-9);
  sys.release_variable(cross);
  sys.solve();
  EXPECT_NEAR(sys.usage(c1), 0.0, 1e-12);
  EXPECT_NEAR(sys.usage(c2), 0.0, 1e-12);
  // The recycled id must come back as a fresh single-shard variable.
  const auto v = sys.new_variable(1.0);
  EXPECT_EQ(v, cross);
  sys.expand(c1, v);
  sys.solve();
  EXPECT_EQ(sys.variable_shard_span(v), 1);
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9);
}

TEST(ShardedMaxMin, FatpipeCapsFoldAcrossShards) {
  // A fatpipe in another shard must cap the linked variable exactly like the
  // global solver would (effective bound = min over all shards' caps).
  ShardedMaxMin sys(3);
  const auto shared1 = sys.new_constraint_in(1, 100.0);
  const auto fat = sys.new_constraint_in(0, 12.0, /*shared=*/false);
  const auto v = sys.new_variable(1.0);
  sys.expand(shared1, v);
  sys.expand(fat, v, 2.0);  // cap: 12 / 2 = 6
  const auto other = sys.new_variable(1.0);
  sys.expand(shared1, other);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 6.0, 1e-9);
  EXPECT_NEAR(sys.value(other), 94.0, 1e-9);
}

// Regression: a local churn whose closure covers more than half of a shard's
// live variables used to escalate to a whole-shard solve_full(), which
// recomputed the shard's linked replicas *locally* — ignoring the sibling
// shards' constraints and splitting the replica values. The escalation must
// stay disabled in any shard hosting linked replicas.
TEST(ShardedMaxMin, LocalFullSolveEscalationMustNotSplitLinkedReplicas) {
  ShardedMaxMin sys(2);
  const auto zone_link = sys.new_constraint_in(1, 100.0);
  const auto backbone = sys.new_constraint_in(0, 10.0);
  const auto cross = sys.new_variable(1.0);
  sys.expand(zone_link, cross);
  sys.expand(backbone, cross);
  // Four zone-local variables on their own constraints: churning them makes
  // the closure cover 4 of the shard's 5 live variables (> half).
  std::vector<ShardedMaxMin::VarId> locals;
  for (int i = 0; i < 4; ++i) {
    const auto c = sys.new_constraint_in(1, 50.0);
    const auto v = sys.new_variable(1.0);
    sys.expand(c, v);
    locals.push_back(v);
  }
  sys.solve();
  ASSERT_NEAR(sys.value(cross), 10.0, 1e-9);  // capped by the backbone

  for (double w : {2.0, 3.0, 1.5}) {
    for (auto v : locals)
      sys.set_weight(v, w);
    sys.solve();
    // The cross flow was not in the dirty closure: its value must not move,
    // and in particular must not be recomputed against zone constraints only.
    EXPECT_NEAR(sys.value(cross), 10.0, 1e-9);
    EXPECT_NEAR(sys.usage(backbone), 10.0, 1e-9);
    EXPECT_NEAR(sys.usage(zone_link), 10.0, 1e-9);
  }
  // And a change that does reach it still solves the coupled group.
  sys.set_capacity(backbone, 25.0);
  sys.solve();
  EXPECT_NEAR(sys.value(cross), 25.0, 1e-9);
}

TEST(ShardedMaxMin, InvalidArgumentsThrow) {
  ShardedMaxMin sys(2);
  EXPECT_THROW(sys.new_constraint_in(2, 10.0), sg::xbt::InvalidArgument);
  EXPECT_THROW(sys.new_constraint_in(-1, 10.0), sg::xbt::InvalidArgument);
  const auto c = sys.new_constraint_in(1, 10.0);
  const auto v = sys.new_variable(1.0);
  EXPECT_THROW(sys.expand(c + 100, v), sg::xbt::InvalidArgument);
  EXPECT_THROW(sys.expand(c, v + 100), sg::xbt::InvalidArgument);
  sys.release_variable(v);
  EXPECT_THROW(sys.expand(c, v), sg::xbt::InvalidArgument);
  ShardedMaxMin busy(1);
  busy.new_constraint(1.0);
  EXPECT_THROW(busy.init_shards(4), sg::xbt::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Property sweep: sharded ≡ global at the solver level
// ---------------------------------------------------------------------------

// Mirror a random mutation history into a sharded system (4 zone shards +
// backbone) and a single global MaxMinSystem. Variables pick a random zone
// route (intra-zone) or a cross route through the backbone touching up to 3
// zones (>= 3 shards); mutations include weight/bound churn, releases, and
// capacity fault flaps (capacity -> 0 and back). After every solve, every
// live variable must agree to 1e-9.
TEST(ShardedEquivalence, MatchesGlobalSolverUnderChurnAndFaults) {
  sg::xbt::Rng rng(20260731);
  constexpr int kZones = 4;
  constexpr int kCnstsPerZone = 4;
  constexpr int kBackboneCnsts = 3;
  ShardedMaxMin sharded(kZones + 1);
  MaxMinSystem global;

  struct Cnst {
    ShardedMaxMin::CnstId s;
    MaxMinSystem::CnstId g;
    double capacity;
  };
  std::vector<std::vector<Cnst>> zone_cnsts(kZones);
  std::vector<Cnst> backbone;
  for (int z = 0; z < kZones; ++z)
    for (int c = 0; c < kCnstsPerZone; ++c) {
      const double cap = rng.uniform(20.0, 500.0);
      const bool shared = rng.uniform01() < 0.8;
      zone_cnsts[static_cast<size_t>(z)].push_back(
          {sharded.new_constraint_in(z + 1, cap, shared), global.new_constraint(cap, shared), cap});
    }
  for (int c = 0; c < kBackboneCnsts; ++c) {
    const double cap = rng.uniform(50.0, 800.0);
    const bool shared = rng.uniform01() < 0.5;  // WANs are often fatpipes
    backbone.push_back(
        {sharded.new_constraint_in(0, cap, shared), global.new_constraint(cap, shared), cap});
  }

  struct Var {
    ShardedMaxMin::VarId s;
    MaxMinSystem::VarId g;
  };
  std::vector<Var> live;
  int cross_flows = 0;
  auto add_var = [&] {
    const double weight = rng.uniform01() < 0.1 ? 0.0 : rng.uniform(0.5, 4.0);
    const double bound = rng.uniform01() < 0.3 ? rng.uniform(5.0, 200.0) : MaxMinSystem::kNoBound;
    Var v{sharded.new_variable(weight, bound), global.new_variable(weight, bound)};
    auto touch = [&](const Cnst& c) {
      const double coeff = rng.uniform(0.5, 2.0);
      sharded.expand(c.s, v.s, coeff);
      global.expand(c.g, v.g, coeff);
    };
    const size_t za = rng.uniform_int(0, kZones - 1);
    touch(zone_cnsts[za][rng.uniform_int(0, kCnstsPerZone - 1)]);
    if (rng.uniform01() < 0.35) {
      // Cross-zone: backbone plus up to two more zones (span up to 4 shards).
      ++cross_flows;
      touch(backbone[rng.uniform_int(0, kBackboneCnsts - 1)]);
      const size_t zb = rng.uniform_int(0, kZones - 1);
      if (zb != za)
        touch(zone_cnsts[zb][rng.uniform_int(0, kCnstsPerZone - 1)]);
      if (rng.uniform01() < 0.3) {
        const size_t zc = rng.uniform_int(0, kZones - 1);
        if (zc != za && zc != zb)
          touch(zone_cnsts[zc][rng.uniform_int(0, kCnstsPerZone - 1)]);
      }
    } else if (rng.uniform01() < 0.3) {
      touch(zone_cnsts[za][rng.uniform_int(0, kCnstsPerZone - 1)]);
    }
    live.push_back(v);
  };

  auto all_cnsts = [&](auto&& fn) {
    for (auto& zc : zone_cnsts)
      for (Cnst& c : zc)
        fn(c);
    for (Cnst& c : backbone)
      fn(c);
  };
  std::vector<Cnst*> flat_cnsts;
  all_cnsts([&](Cnst& c) { flat_cnsts.push_back(&c); });
  std::vector<Cnst*> dead;  // fault-flapped constraints awaiting heal

  for (int i = 0; i < 40; ++i)
    add_var();

  int checked = 0;
  for (int step = 1; step <= 1200; ++step) {
    const double kind = rng.uniform01();
    if (kind < 0.3 || live.empty()) {
      add_var();
    } else if (kind < 0.5) {
      const size_t k = rng.uniform_int(0, live.size() - 1);
      sharded.release_variable(live[k].s);
      global.release_variable(live[k].g);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (kind < 0.65) {
      const Var& v = live[rng.uniform_int(0, live.size() - 1)];
      const double w = rng.uniform01() < 0.15 ? 0.0 : rng.uniform(0.5, 4.0);
      sharded.set_weight(v.s, w);
      global.set_weight(v.g, w);
    } else if (kind < 0.78) {
      const Var& v = live[rng.uniform_int(0, live.size() - 1)];
      const double b = rng.uniform01() < 0.3 ? MaxMinSystem::kNoBound : rng.uniform(5.0, 200.0);
      sharded.set_bound(v.s, b);
      global.set_bound(v.g, b);
    } else if (kind < 0.92 || dead.empty()) {
      // Fault flap down: a resource loses all capacity.
      Cnst* c = flat_cnsts[rng.uniform_int(0, flat_cnsts.size() - 1)];
      sharded.set_capacity(c->s, 0.0);
      global.set_capacity(c->g, 0.0);
      dead.push_back(c);
    } else {
      // Heal a dead resource.
      const size_t k = rng.uniform_int(0, dead.size() - 1);
      Cnst* c = dead[k];
      sharded.set_capacity(c->s, c->capacity);
      global.set_capacity(c->g, c->capacity);
      dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(k));
    }

    sharded.solve();
    global.solve();
    if (step % 3 == 0) {
      for (const Var& v : live) {
        const double want = global.value(v.g);
        ASSERT_NEAR(sharded.value(v.s), want, 1e-9 * std::max(1.0, std::abs(want)))
            << "step " << step << " sharded var " << v.s;
        ++checked;
      }
    }
  }
  EXPECT_GT(cross_flows, 50);
  EXPECT_GT(checked, 1000);
  EXPECT_GT(sharded.group_solve_count(), 0u);
  // Sharded full-solve must agree too.
  sharded.solve_full();
  global.solve_full();
  for (const Var& v : live) {
    const double want = global.value(v.g);
    EXPECT_NEAR(sharded.value(v.s), want, 1e-9 * std::max(1.0, std::abs(want)));
  }
}

// changed_variables() must report exactly the moved allocations (the engine
// refreshes only those rates — a missed report is a silently wrong clock).
TEST(ShardedEquivalence, ChangedVariablesCoverEveryMovedAllocation) {
  sg::xbt::Rng rng(987);
  ShardedMaxMin sys(3);
  std::vector<ShardedMaxMin::CnstId> cnsts;
  for (int s = 0; s < 3; ++s)
    for (int c = 0; c < 2; ++c)
      cnsts.push_back(sys.new_constraint_in(s, rng.uniform(50.0, 200.0)));
  std::vector<ShardedMaxMin::VarId> live;
  for (int i = 0; i < 30; ++i) {
    const auto v = sys.new_variable(rng.uniform(0.5, 2.0));
    sys.expand(cnsts[rng.uniform_int(0, cnsts.size() - 1)], v);
    if (rng.uniform01() < 0.4)
      sys.expand(cnsts[rng.uniform_int(0, cnsts.size() - 1)], v);
    live.push_back(v);
  }
  sys.solve();
  std::vector<double> last(live.size());
  for (size_t k = 0; k < live.size(); ++k)
    last[k] = sys.value(live[k]);

  for (int step = 0; step < 200; ++step) {
    sys.set_weight(live[rng.uniform_int(0, live.size() - 1)], rng.uniform(0.5, 3.0));
    if (step % 7 == 0)
      sys.set_capacity(cnsts[rng.uniform_int(0, cnsts.size() - 1)], rng.uniform(50.0, 200.0));
    sys.solve();
    std::vector<char> reported(live.size(), 0);
    for (ShardedMaxMin::VarId v : sys.changed_variables())
      for (size_t k = 0; k < live.size(); ++k)
        if (live[k] == v)
          reported[k] = 1;
    for (size_t k = 0; k < live.size(); ++k) {
      const double now = sys.value(live[k]);
      if (now != last[k]) {
        ASSERT_TRUE(reported[k]) << "allocation of var " << live[k] << " moved from " << last[k]
                                 << " to " << now << " without a changed_variables report";
      }
      last[k] = now;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine level
// ---------------------------------------------------------------------------

/// Pin the model parameters to clean values and restore defaults afterwards.
class ShardedEngineTest : public ::testing::Test {
protected:
  void SetUp() override {
    declare_engine_config();
    auto& cfg = sg::xbt::Config::instance();
    cfg.set("network/bandwidth-factor", 1.0);
    cfg.set("network/tcp-gamma", 1e18);  // effectively no window cap
    cfg.set("engine/sharding", 1.0);
    cfg.set("engine/kill-transit-comms", 0.0);
  }
  void TearDown() override {
    auto& cfg = sg::xbt::Config::instance();
    cfg.set("network/bandwidth-factor", 1460.0 / 1500.0);
    cfg.set("network/tcp-gamma", 65536.0);
    cfg.set("engine/sharding", 1.0);
    cfg.set("engine/kill-transit-comms", 0.0);
  }
};

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
    zone.link_latency = 0;  // keep the fluid math exact for unit checks
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

TEST_F(ShardedEngineTest, ShardMapPartitionsZonesAndBackbone) {
  Platform p = make_two_zone_platform();
  const auto& map = p.shard_map();
  EXPECT_EQ(map.shard_count, 3);
  EXPECT_EQ(map.host_shard[0], 1);  // z00
  EXPECT_EQ(map.host_shard[4], 2);  // z10
  EXPECT_EQ(map.host_shard[8], 0);  // lone host is backbone
  EXPECT_EQ(map.link_shard[*p.link_by_name("z00-link")], 1);
  EXPECT_EQ(map.link_shard[*p.link_by_name("z10-link")], 2);
  EXPECT_EQ(map.link_shard[*p.link_by_name("wan")], 0);
  EXPECT_EQ(map.link_shard[*p.link_by_name("z0-backbone")], 0);
  // Gateway links: the WAN and the router uplink hang off gateways; the
  // cluster backbones cross into the gateways too.
  EXPECT_FALSE(map.gateway_links.empty());
  const auto& gl = map.gateway_links;
  EXPECT_NE(std::find(gl.begin(), gl.end(), *p.link_by_name("wan")), gl.end());
}

TEST_F(ShardedEngineTest, CrossZoneCommSpansThreeShards) {
  Engine e(make_two_zone_platform());
  EXPECT_EQ(e.shard_count(), 3);
  auto comm = e.comm_start(0, 4, 1e6);  // z00 -> z10
  e.step(0.0);  // assign rates without firing the completion
  const ShardedMaxMin& sys = e.sharing_system();
  // The flow's variable has replicas in zone 1, backbone, and zone 2.
  EXPECT_GT(sys.shard(1).variable_count(), 0u);
  EXPECT_GT(sys.shard(0).variable_count(), 0u);
  EXPECT_GT(sys.shard(2).variable_count(), 0u);
  EXPECT_GT(sys.group_solve_count(), 0u);
  // Rate: min(uplink 1e8, backbone, wan fatpipe, downlink) = 1e8.
  EXPECT_NEAR(comm->rate(), 1e8, 1.0);
}

TEST_F(ShardedEngineTest, IntraZoneChurnLeavesOtherShardsCold) {
  Engine e(make_two_zone_platform());
  // Park a flow in zone 2 so its shard has state that must stay untouched.
  auto parked = e.comm_start(4, 5, 1e18);
  e.step(0.0);
  const auto idle = e.sharing_system().shard(2).solve_stats();
  const auto idle_groups = e.sharing_system().group_solve_count();

  // Churn in zone 1 only.
  auto flow = e.comm_start(0, 1, 1e6);
  for (int i = 0; i < 200; ++i) {
    auto fired = e.step();
    for (auto& ev : fired)
      if (ev.action.get() == flow.get())
        flow = e.comm_start(0, 1, 1e6);
  }
  EXPECT_EQ(e.sharing_system().shard(2).solve_stats().solves, idle.solves);
  EXPECT_EQ(e.sharing_system().group_solve_count(), idle_groups);
  EXPECT_EQ(parked->state(), ActionState::kRunning);
}

// The headline engine property: a sharded engine and a single-shard engine
// must produce the same simulation — completion clocks, rates, failure sets
// — on a random mixed-zone platform under churn and trace-free fault flaps.
TEST_F(ShardedEngineTest, ShardedEngineMatchesGlobalEngineUnderChurnAndFaults) {
  constexpr int kZones = 3;
  constexpr int kPerZone = 4;
  constexpr int kSlots = 24;
  constexpr int kSteps = 600;
  sg::xbt::Rng rng(777);

  auto build = [&] {
    Platform p;
    for (int z = 0; z < kZones; ++z) {
      ClusterZoneSpec zone;
      zone.name = "z" + std::to_string(z);
      zone.count = kPerZone;
      zone.host_speed = 1e9;
      zone.link_bandwidth = 1e8;
      zone.link_latency = 5e-5;
      zone.backbone_bandwidth = 6e8;
      zone.backbone_latency = 1e-4;
      zone.backbone_fatpipe = (z == 1);
      p.add_cluster_zone(zone);
    }
    for (int z = 1; z < kZones; ++z) {
      const LinkId wan = p.add_link("wan" + std::to_string(z), 4e8, 1e-3, SharingPolicy::kFatpipe);
      p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
    }
    p.seal();
    return p;
  };

  auto& cfg = sg::xbt::Config::instance();
  cfg.set("engine/sharding", 1.0);
  Engine sharded(build());
  cfg.set("engine/sharding", 0.0);
  Engine global(build());
  ASSERT_EQ(sharded.shard_count(), kZones + 1);
  ASSERT_EQ(global.shard_count(), 1);

  const int n_hosts = kZones * kPerZone;
  // Deterministic slot plan: slot -> (src, dst, kind). A third of the slots
  // cross zones (>= 3 shards), the rest stay inside one zone.
  struct Slot {
    int src, dst;
    bool exec;
    int completions = 0;
  };
  std::vector<Slot> slots;
  for (int s = 0; s < kSlots; ++s) {
    Slot slot;
    slot.exec = (s % 6 == 5);
    const int za = s % kZones;
    slot.src = za * kPerZone + static_cast<int>(rng.uniform_int(0, kPerZone - 1));
    if (s % 3 == 0 && !slot.exec) {
      const int zb = (za + 1 + s / 3) % kZones;
      slot.dst = zb * kPerZone + static_cast<int>(rng.uniform_int(0, kPerZone - 1));
    } else {
      slot.dst = za * kPerZone + static_cast<int>(rng.uniform_int(0, kPerZone - 1));
    }
    slots.push_back(slot);
  }
  auto work_of = [](const Slot& s, int completion) {
    // Deterministic per-restart size, order-independent.
    return s.exec ? 3e7 * (1.0 + (completion % 5)) : 2e6 * (1.0 + ((s.src + completion) % 7));
  };

  struct Driver {
    Engine* e;
    std::vector<ActionPtr> current;   // per slot; null while slot is idle
    std::vector<int> completions;
    std::vector<int> failures;
  };
  Driver A{&sharded, {}, {}, {}};
  Driver B{&global, {}, {}, {}};
  auto start_slot = [&](Driver& d, const std::vector<Slot>& sl, size_t k) {
    const Slot& s = sl[k];
    if (!d.e->host_is_on(s.src) || !d.e->host_is_on(s.dst)) {
      d.current[k] = nullptr;
      return;
    }
    ActionPtr a = s.exec ? d.e->exec_start(s.src, work_of(s, d.completions[k]))
                         : d.e->comm_start(s.src, s.dst, work_of(s, d.completions[k]));
    a->user_data = reinterpret_cast<void*>(k + 1);
    d.current[k] = a;
  };
  for (Driver* d : {&A, &B}) {
    d->current.resize(kSlots);
    d->completions.assign(kSlots, 0);
    d->failures.assign(kSlots, 0);
    for (size_t k = 0; k < kSlots; ++k)
      start_slot(*d, slots, k);
  }

  // Fault plan: (time, host-or-link, index, on) — applied to both engines at
  // the same simulated instant.
  struct Fault {
    double t;
    bool is_host;
    int index;
    bool on;
  };
  std::vector<Fault> faults;
  {
    sg::xbt::Rng frng(4242);
    double t = 0.02;
    for (int i = 0; i < 25; ++i) {
      const bool is_host = frng.uniform01() < 0.5;
      const int index = is_host ? static_cast<int>(frng.uniform_int(0, n_hosts - 1))
                                : static_cast<int>(frng.uniform_int(0, kZones * kPerZone - 1));
      faults.push_back({t, is_host, index, false});
      faults.push_back({t + frng.uniform(0.01, 0.05), is_host, index, true});
      t += frng.uniform(0.02, 0.08);
    }
    std::sort(faults.begin(), faults.end(), [](const Fault& a, const Fault& b) { return a.t < b.t; });
  }

  auto drive = [&](Driver& d) {
    size_t next_fault = 0;
    for (int step = 0; step < kSteps; ++step) {
      const double bound = next_fault < faults.size() ? faults[next_fault].t
                                                      : std::numeric_limits<double>::infinity();
      auto fired = d.e->step(bound);
      if (fired.empty() && next_fault < faults.size() && d.e->now() >= faults[next_fault].t) {
        const Fault& f = faults[next_fault++];
        if (f.is_host)
          d.e->set_host_state(f.index, f.on);
        else
          d.e->set_link_state(f.index, f.on);
        if (f.on)  // heal: restart every idle slot
          for (size_t k = 0; k < slots.size(); ++k)
            if (d.current[k] == nullptr)
              start_slot(d, slots, k);
        continue;
      }
      for (auto& ev : fired) {
        const size_t k = reinterpret_cast<size_t>(ev.action->user_data);
        if (k == 0 || k > slots.size())
          continue;
        if (ev.failed) {
          // Stay idle until a heal restarts the slot: an immediate retry over
          // a still-dead link would fail right back, step after step.
          ++d.failures[k - 1];
          d.current[k - 1] = nullptr;
        } else {
          ++d.completions[k - 1];
          start_slot(d, slots, k - 1);
        }
      }
    }
  };
  drive(A);
  drive(B);

  // The two engines ran the same scenario: clocks, counts and failure sets
  // must agree (1e-9 relative on time; exact on integer counts).
  EXPECT_NEAR(A.e->now(), B.e->now(), 1e-9 * std::max(1.0, B.e->now()));
  int total_completions = 0, total_failures = 0;
  for (size_t k = 0; k < slots.size(); ++k) {
    EXPECT_EQ(A.completions[k], B.completions[k]) << "slot " << k;
    EXPECT_EQ(A.failures[k], B.failures[k]) << "slot " << k;
    total_completions += A.completions[k];
    total_failures += A.failures[k];
    const ActionPtr& a = A.current[k];
    const ActionPtr& b = B.current[k];
    ASSERT_EQ(a == nullptr, b == nullptr) << "slot " << k;
    if (a && a->state() == ActionState::kRunning && b->state() == ActionState::kRunning) {
      EXPECT_NEAR(a->rate(), b->rate(), 1e-9 * std::max(1.0, b->rate())) << "slot " << k;
      EXPECT_NEAR(a->remaining(), b->remaining(), 1e-6 * std::max(1.0, b->remaining()))
          << "slot " << k;
    }
  }
  // The sweep must have exercised real churn, real faults, and real
  // cross-shard coupling.
  EXPECT_GT(total_completions, 200);
  EXPECT_GT(total_failures, 5);
  EXPECT_GT(sharded.sharing_system().group_solve_count(), 0u);
  EXPECT_EQ(global.sharing_system().group_solve_count(), 0u);
}

// ---------------------------------------------------------------------------
// engine/kill-transit-comms (L07-style host-death semantics)
// ---------------------------------------------------------------------------

// Three hosts on a switch: a comm src -> dst does not touch a third host,
// and — in CM02 — does not touch its own endpoints' CPUs either.
Platform make_star3() {
  Platform p;
  const auto sw = p.add_router("sw");
  for (int i = 0; i < 3; ++i) {
    const auto h = p.add_host("h" + std::to_string(i), 1e9);
    const LinkId l = p.add_link("l" + std::to_string(i), 1e8, 0);
    p.add_edge(h, sw, l);
  }
  p.seal();
  return p;
}

TEST_F(ShardedEngineTest, TransitCommSurvivesEndpointDeathByDefault) {
  Engine e(make_star3());
  auto comm = e.comm_start(0, 1, 1e8);
  e.step(0.0);
  e.set_host_state(0, false);  // source host dies mid-transfer
  auto events = e.step();
  for (auto& ev : events)
    EXPECT_FALSE(ev.failed) << "CM02 transit comm must not fail with its endpoint";
  // It still completes at the normal date (1e8 B at 1e8 B/s = 1 s).
  while (comm->state() == ActionState::kRunning)
    e.step();
  EXPECT_EQ(comm->state(), ActionState::kDone);
  EXPECT_NEAR(comm->finish_time(), 1.0, 1e-9);
}

TEST_F(ShardedEngineTest, KillTransitCommsFailsCommsOfDeadEndpoints) {
  sg::xbt::Config::instance().set("engine/kill-transit-comms", 1.0);
  Engine e(make_star3());
  auto out = e.comm_start(0, 1, 1e8);       // dead host is the source
  auto in = e.comm_start(2, 0, 1e8);        // dead host is the destination
  auto bystander = e.comm_start(1, 2, 1e8); // does not touch host 0
  e.step(0.0);
  e.set_host_state(0, false);
  auto events = e.step();
  int failed = 0;
  for (auto& ev : events) {
    EXPECT_TRUE(ev.failed);
    EXPECT_TRUE(ev.action.get() == out.get() || ev.action.get() == in.get());
    ++failed;
  }
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(out->state(), ActionState::kFailed);
  EXPECT_EQ(in->state(), ActionState::kFailed);
  EXPECT_EQ(bystander->state(), ActionState::kRunning);
  while (bystander->state() == ActionState::kRunning)
    e.step();
  EXPECT_EQ(bystander->state(), ActionState::kDone);
}

TEST_F(ShardedEngineTest, KillTransitLoopbackCommFailsExactlyOnce) {
  sg::xbt::Config::instance().set("engine/kill-transit-comms", 1.0);
  Engine e(make_star3());
  auto loop = e.comm_start(0, 0, 1e8);  // loopback: registered once, also on
  e.step(0.0);                          // the loopback constraint
  e.set_host_state(0, false);
  auto events = e.step();
  int failures = 0;
  for (auto& ev : events)
    if (ev.action.get() == loop.get())
      ++failures;
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(loop->state(), ActionState::kFailed);
}

TEST_F(ShardedEngineTest, KillTransitCompletedCommLeavesNoStaleIndexEntry) {
  sg::xbt::Config::instance().set("engine/kill-transit-comms", 1.0);
  Engine e(make_star3());
  auto first = e.comm_start(0, 1, 1e6);
  while (first->state() == ActionState::kRunning)
    e.step();
  EXPECT_EQ(first->state(), ActionState::kDone);
  auto second = e.comm_start(1, 2, 1e8);  // re-uses the recycled slot
  e.step(0.0);
  e.set_host_state(0, false);  // must not fail anything (old entry is gone)
  auto events = e.step(0.1);   // second's completion is at t=1
  for (auto& ev : events)
    EXPECT_FALSE(ev.failed);
  EXPECT_EQ(second->state(), ActionState::kRunning);
}

TEST_F(ShardedEngineTest, KillTransitSuspendedCommFailsToo) {
  sg::xbt::Config::instance().set("engine/kill-transit-comms", 1.0);
  Engine e(make_star3());
  auto comm = e.comm_start(0, 1, 1e8);
  e.step(0.0);
  comm->suspend();
  e.set_host_state(1, false);
  e.step();
  EXPECT_EQ(comm->state(), ActionState::kFailed);
}

}  // namespace
