/// Dynamic platform membership: join/leave/rejoin after seal(), with every
/// seal-time structure updated incrementally. The headline sweep churns a
/// sealed platform through a random join/leave/rejoin sequence and demands
/// that routes, shard grouping, and solver results match a freshly
/// built-and-sealed platform of the survivors to 1e-9; a kernel-level churn
/// workload (trace-driven membership driver + retry helpers) must give the
/// same log on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "kernel/membership.hpp"
#include "platform/parser.hpp"
#include "platform/platform.hpp"
#include "trace/trace.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

namespace {

using namespace sg::kernel;
using sg::core::ActionEvent;
using sg::core::ActionKind;
using sg::core::Engine;
using sg::platform::ClusterZoneSpec;
using sg::platform::LinkId;
using sg::platform::Platform;
using sg::platform::ZoneId;

class MembershipTest : public ::testing::Test {
protected:
  void SetUp() override {
    sg::core::declare_engine_config();
    declare_context_config();
  }
};

/// A backboneless cluster zone (hub doubles as gateway): member routes are
/// [up(src), up(dst)], which a flat star graph reproduces link for link —
/// the shape the churn ≡ rebuild sweep compares against.
Platform make_star_zone(int count) {
  Platform p;
  ClusterZoneSpec spec;
  spec.name = "star";
  spec.host_prefix = "n";
  spec.count = count;
  spec.host_speed = 1e9;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 5e-5;
  spec.backbone_bandwidth = 0.0;  // hub is the gateway
  p.add_cluster_zone(spec);
  p.seal();
  return p;
}

// ---------------------------------------------------------------------------
// Incremental structure updates
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, JoinExtendsSealedStructuresInPlace) {
  Platform p = make_star_zone(4);
  const size_t hosts0 = p.host_count();
  const size_t links0 = p.link_count();
  const auto zone = *p.zone_by_name("star");

  const int h = p.join_host(zone);
  EXPECT_EQ(p.host_count(), hosts0 + 1);
  EXPECT_EQ(p.link_count(), links0 + 1);
  EXPECT_EQ(p.host(h).name, "n4");  // members ever created
  EXPECT_EQ(p.zone_of_host(h), zone);

  // The member got exactly one private uplink, wired in place.
  const auto uplinks = p.host_private_links(h);
  ASSERT_EQ(uplinks.size(), 1u);
  EXPECT_EQ(p.link(uplinks[0]).name, "n4-link");

  // Routes to and from the joined member compose like any other member's.
  const auto r01 = p.route(0, 1).links();
  const auto r0h = p.route(0, h).links();
  ASSERT_EQ(r0h.size(), r01.size());
  EXPECT_NEAR(p.route(0, h).latency(), p.route(0, 1).latency(), 1e-12);
  EXPECT_EQ(p.link(r0h.back()).name, "n4-link");
}

// A join claims both of its names (the host and `<host>-link`) before it
// changes anything. A generated name used to skip the name maps, so it could
// shadow a graph host of the same name; an explicit one whose link name was
// taken left a half-joined host behind.
TEST_F(MembershipTest, JoinNameCollisionThrowsAndLeavesPlatformUnchanged) {
  Platform p = make_star_zone(4);
  const auto zone = *p.zone_by_name("star");
  sg::platform::HostSpec squatter;
  squatter.name = "n4";  // the next generated member name
  sg::platform::LinkSpec up;
  up.name = "taken-link";
  const int graph_host = p.join_host(squatter, p.zone_gateway(zone), up);
  const size_t hosts0 = p.host_count();
  const size_t links0 = p.link_count();
  const size_t edges0 = p.edges().size();

  auto expect_refused = [&](auto&& join, const std::string& dup) {
    try {
      join();
      ADD_FAILURE() << "join accepted duplicate " << dup;
    } catch (const sg::xbt::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(dup), std::string::npos) << e.what();
    }
    EXPECT_EQ(p.host_count(), hosts0);
    EXPECT_EQ(p.link_count(), links0);
    EXPECT_EQ(p.edges().size(), edges0);
    EXPECT_EQ(p.zone_host_count(zone), 4);
  };
  expect_refused([&] { p.join_host(zone); }, "n4");                // generated host name
  expect_refused([&] { p.join_host(zone, "taken"); }, "taken-link");  // explicit, link name taken
  sg::platform::HostSpec other;
  other.name = "other";
  expect_refused([&] { p.join_host(other, p.zone_gateway(zone), up); }, "taken-link");

  EXPECT_EQ(p.host_by_name("n4"), graph_host);
  EXPECT_EQ(p.link_by_name("n4-link"), std::nullopt);
  EXPECT_EQ(p.host_by_name("taken"), std::nullopt);
  EXPECT_EQ(p.host_by_name("other"), std::nullopt);
  // The refused names stay free for a later join; routing is intact.
  const int h = p.join_host(zone, "n5");
  EXPECT_EQ(p.host_by_name("n5"), h);
  EXPECT_EQ(p.route(0, h).size(), 2u);
  EXPECT_EQ(p.route(graph_host, h).size(), 2u);
}

// A refused generated name is skipped: the join after it takes the next
// name and succeeds, instead of colliding on the same name forever.
TEST_F(MembershipTest, GeneratedJoinSkipsANameItWasRefused) {
  Platform p = make_star_zone(4);
  const auto zone = *p.zone_by_name("star");
  sg::platform::HostSpec squatter;
  squatter.name = "n4";  // the next generated member name
  sg::platform::LinkSpec up;
  up.name = "squatter-link";
  const int graph_host = p.join_host(squatter, p.zone_gateway(zone), up);
  const size_t hosts0 = p.host_count();
  EXPECT_THROW(p.join_host(zone), sg::xbt::InvalidArgument);
  EXPECT_EQ(p.host_count(), hosts0);
  EXPECT_EQ(p.zone_host_count(zone), 4);
  const int h = p.join_host(zone);
  EXPECT_EQ(p.host_by_name("n5"), h);
  EXPECT_EQ(p.host_by_name("n4"), graph_host);
  EXPECT_EQ(p.zone_host_count(zone), 5);
  EXPECT_EQ(p.route(0, h).size(), 2u);
  EXPECT_EQ(p.host_by_name("n6"), p.join_host(zone));
}

// Generated joins are in the name maps as soon as they exist, and joined
// members of backboned zones route like base members across zones.
TEST_F(MembershipTest, GeneratedJoinsAreFoundByNameAndRouteLikeBaseMembers) {
  Platform p;
  for (const char* name : {"a", "b"}) {
    ClusterZoneSpec spec;
    spec.name = name;
    spec.count = 3;
    p.add_cluster_zone(spec);
  }
  const ZoneId za = *p.zone_by_name("a");
  const ZoneId zb = *p.zone_by_name("b");
  p.add_edge(p.zone_gateway(za), p.zone_gateway(zb), p.add_link("wan", 1e8, 1e-2));
  p.seal();
  auto names = [&p](int s, int d) {
    std::vector<std::string> out;
    for (LinkId l : p.route(s, d))
      out.push_back(p.link(l).name);
    return out;
  };
  for (int i = 0; i < 40; ++i) {
    const ZoneId z = i % 2 == 0 ? za : zb;
    const int h = p.join_host(z);
    const std::string name = p.host(h).name;
    EXPECT_EQ(name, sg::xbt::format("%s%d", p.zone_name(z).c_str(), 3 + i / 2));
    EXPECT_EQ(p.host_by_name(name), h);
    EXPECT_EQ(p.link_by_name(name + "-link"), p.host_private_links(h).at(0));
    const int peer = z == za ? *p.host_by_name("b1") : *p.host_by_name("a1");
    const std::string other = p.host(peer).name;
    const std::string zn = p.zone_name(z);
    const std::string pz = z == za ? "b" : "a";
    EXPECT_EQ(names(h, peer), (std::vector<std::string>{name + "-link", zn + "-backbone", "wan",
                                                          pz + "-backbone", other + "-link"}));
    EXPECT_EQ(names(peer, h), (std::vector<std::string>{other + "-link", pz + "-backbone", "wan",
                                                          zn + "-backbone", name + "-link"}));
    EXPECT_EQ(names(h, *p.host_by_name(zn + "0")),
              (std::vector<std::string>{name + "-link", zn + "0-link"}));
  }
}

TEST_F(MembershipTest, LeaveAndRejoinFlipPresenceAndRouting) {
  Platform p = make_star_zone(4);
  EXPECT_TRUE(p.host_present(2));
  EXPECT_EQ(p.departed_host_count(), 0u);

  p.leave_host(2, /*at=*/3.25);
  EXPECT_FALSE(p.host_present(2));
  EXPECT_EQ(p.departed_host_count(), 1u);
  EXPECT_DOUBLE_EQ(p.host_departed_at(2), 3.25);
  EXPECT_FALSE(p.reachable(0, 2));
  EXPECT_TRUE(p.reachable(0, 1));
  EXPECT_THROW(p.leave_host(2), sg::xbt::InvalidArgument);  // double leave

  p.rejoin_host(2);
  EXPECT_TRUE(p.host_present(2));
  EXPECT_EQ(p.departed_host_count(), 0u);
  EXPECT_TRUE(p.reachable(0, 2));
  EXPECT_EQ(p.route(0, 2).links().size(), 2u);
  EXPECT_THROW(p.rejoin_host(2), sg::xbt::InvalidArgument);  // not departed
}

// ---------------------------------------------------------------------------
// Satellite: departed hosts name themselves in errors
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, DepartedHostErrorsNameHostAndDate) {
  Platform p = make_star_zone(4);
  p.leave_host(1, /*at=*/7.5);
  try {
    p.route(0, 1);
    FAIL() << "route() to a departed host resolved";
  } catch (const sg::xbt::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("n1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("departed at t=7.5"), std::string::npos) << e.what();
  }
}

TEST_F(MembershipTest, EngineActivitiesOnDepartedHostsFailWithDeparture) {
  Engine e(make_star_zone(4));
  e.leave_host(1);

  try {
    e.exec_start(1, 1e9);
    FAIL() << "exec started on a departed host";
  } catch (const sg::xbt::HostFailureException& ex) {
    EXPECT_NE(std::string(ex.what()).find("n1"), std::string::npos) << ex.what();
    EXPECT_NE(std::string(ex.what()).find("departed at t="), std::string::npos) << ex.what();
  }
  EXPECT_THROW(e.sleep_start(1, 1.0), sg::xbt::HostFailureException);
  EXPECT_THROW(e.set_host_state(1, false), sg::xbt::InvalidArgument);

  // Comms to/from a departed endpoint fail immediately (no route resolution).
  auto c = e.comm_start(0, 1, 1e6);
  EXPECT_EQ(c->state(), sg::core::ActionState::kFailed);

  e.rejoin_host(1);
  auto c2 = e.comm_start(0, 1, 1e6);
  EXPECT_EQ(c2->state(), sg::core::ActionState::kRunning);
}

TEST_F(MembershipTest, SpawnOnDepartedHostNamesDeparture) {
  Kernel k(make_star_zone(4));
  k.leave_host(2);
  try {
    k.spawn("ghost", 2, [] {});
    FAIL() << "spawned on a departed host";
  } catch (const sg::xbt::HostFailureException& e) {
    EXPECT_NE(std::string(e.what()).find("n2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("departed at t="), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Churn ≡ rebuild property sweep
// ---------------------------------------------------------------------------

/// (bandwidth, latency) fingerprint of a route — host/link *ids* differ
/// between a churned platform and a fresh build of the survivors, but the
/// physical link sequence must not.
std::vector<std::pair<double, double>> route_fingerprint(const Platform& p, int src, int dst) {
  std::vector<std::pair<double, double>> out;
  for (LinkId l : p.route(src, dst))
    out.push_back({p.link(l).bandwidth_Bps, p.link(l).latency_s});
  return out;
}

/// Star graph of exactly the churned platform's present hosts, flat (no
/// zone): host names, speeds, and uplink specs copied from the survivors.
Platform rebuild_survivors(const Platform& churned) {
  Platform fresh;
  const auto hub = fresh.add_router("hub");
  for (size_t h = 0; h < churned.host_count(); ++h) {
    const int hi = static_cast<int>(h);
    if (!churned.host_present(hi))
      continue;
    const auto& spec = churned.host(hi);
    const auto node = fresh.add_host(spec.name, spec.speed_flops);
    const auto uplinks = churned.host_private_links(hi);
    EXPECT_EQ(uplinks.size(), 1u) << "star member " << spec.name;
    const auto& lspec = churned.link(uplinks[0]);
    const LinkId l = fresh.add_link(lspec.name, lspec.bandwidth_Bps, lspec.latency_s);
    fresh.add_edge(node, hub, l);
  }
  fresh.seal();
  return fresh;
}

/// Drain an engine to quiescence, returning each completion keyed by
/// (kind, host name, peer name) — names, again, because indices differ.
std::map<std::string, double> drain_completions(Engine& e) {
  std::map<std::string, double> done;
  while (e.running_action_count() > 0) {
    const double before = e.now();
    const sg::core::StepLog fired = e.run_until();
    // Empty with a frozen clock: nothing will ever happen again.
    EXPECT_FALSE(fired.empty() && e.now() == before) << "stranded actions";
    if (fired.empty() && e.now() == before)
      return done;
    for (const auto& ev : fired) {
      EXPECT_FALSE(ev.failed);
      std::string key = ev.action->kind() == ActionKind::kComm
                            ? "comm " + e.platform().host(ev.action->host()).name + ">" +
                                  e.platform().host(ev.action->peer_host()).name
                            : "exec " + e.platform().host(ev.action->host()).name;
      done[key] = e.now();
    }
  }
  return done;
}

TEST_F(MembershipTest, ChurnEqualsRebuildSweep) {
  for (std::uint64_t seed : {5u, 17u, 41u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sg::xbt::Rng rng(seed);
    Engine e(make_star_zone(10));
    const ZoneId zone = *e.platform().zone_by_name("star");

    // Random churn: joins, leaves, rejoins — always keeping a quorum.
    for (int op = 0; op < 40; ++op) {
      const auto& pf = e.platform();
      std::vector<int> present;
      std::vector<int> departed;
      for (size_t h = 0; h < pf.host_count(); ++h)
        (pf.host_present(static_cast<int>(h)) ? present : departed).push_back(static_cast<int>(h));
      const double pick = rng.uniform01();
      if (pick < 0.3 && pf.host_count() < 24) {
        e.join_host(zone);
      } else if (pick < 0.65 && present.size() > 4) {
        e.leave_host(present[rng.uniform_int(0, present.size() - 1)]);
      } else if (!departed.empty()) {
        e.rejoin_host(departed[rng.uniform_int(0, departed.size() - 1)]);
      }
    }

    const auto& churned = e.platform();
    Platform fresh = rebuild_survivors(churned);

    // Map names to indices on both sides.
    std::vector<int> survivors;
    for (size_t h = 0; h < churned.host_count(); ++h)
      if (churned.host_present(static_cast<int>(h)))
        survivors.push_back(static_cast<int>(h));
    ASSERT_GE(survivors.size(), 4u);
    ASSERT_EQ(fresh.host_count(), survivors.size());

    for (size_t i = 0; i < survivors.size(); ++i) {
      const int ci = survivors[i];
      const int fi = *fresh.host_by_name(churned.host(ci).name);
      // Zone membership: every present member (seal-time or joined) is in
      // the zone, and owns exactly its one private uplink.
      EXPECT_EQ(churned.zone_of_host(ci), zone);
      EXPECT_EQ(churned.host_private_links(ci).size(), 1u);
      // Routes: same latency, same physical link sequence as the rebuild.
      for (size_t j = 0; j < survivors.size(); ++j) {
        if (i == j)
          continue;
        const int cj = survivors[j];
        const int fj = *fresh.host_by_name(churned.host(cj).name);
        EXPECT_NEAR(churned.route(ci, cj).latency(), fresh.route(fi, fj).latency(), 1e-9);
        EXPECT_EQ(route_fingerprint(churned, ci, cj), route_fingerprint(fresh, fi, fj))
            << churned.host(ci).name << " -> " << churned.host(cj).name;
      }
    }

    // Solver results: an identical workload (ring comms + per-host execs
    // over the survivors) completes at identical clocks on both engines.
    Engine ef(std::move(fresh));
    for (size_t i = 0; i < survivors.size(); ++i) {
      const int ci = survivors[i];
      const int cj = survivors[(i + 1) % survivors.size()];
      const int fi = *ef.platform().host_by_name(churned.host(ci).name);
      const int fj = *ef.platform().host_by_name(churned.host(cj).name);
      e.comm_start(ci, cj, 1e7);
      ef.comm_start(fi, fj, 1e7);
      e.exec_start(ci, 4e8);
      ef.exec_start(fi, 4e8);
    }
    const auto done_churned = drain_completions(e);
    const auto done_fresh = drain_completions(ef);
    ASSERT_EQ(done_churned.size(), done_fresh.size());
    ASSERT_EQ(done_churned.size(), 2 * survivors.size());
    for (const auto& [key, t] : done_churned) {
      auto it = done_fresh.find(key);
      ASSERT_NE(it, done_fresh.end()) << key;
      EXPECT_NEAR(t, it->second, 1e-9 * std::max(1.0, it->second)) << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: suspended residents are reaped exactly once
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, SuspendedResidentsReapedExactlyOnce) {
  Kernel k(make_star_zone(4));
  std::atomic<int> exec_exits{0};
  std::atomic<int> sleep_exits{0};
  std::atomic<int> parked_exits{0};

  const ActorId exec_victim = k.spawn("exec-victim", 1, [&k] { k.execute(1e15); });
  const ActorId sleep_victim = k.spawn("sleep-victim", 1, [&k] { k.sleep_for(1e9); });
  const ActorId parked_victim = k.spawn("parked-victim", 1, [&k] {
    k.suspend(Kernel::self()->id());  // parks itself until resumed — or killed
  });
  k.actor(exec_victim)->on_exit([&](bool failed) {
    EXPECT_TRUE(failed);
    ++exec_exits;
  });
  k.actor(sleep_victim)->on_exit([&](bool failed) {
    EXPECT_TRUE(failed);
    ++sleep_exits;
  });
  k.actor(parked_victim)->on_exit([&](bool failed) {
    EXPECT_TRUE(failed);
    ++parked_exits;
  });

  k.spawn("controller", 0, [&] {
    k.sleep_for(0.1);  // let the victims block
    k.suspend(exec_victim);
    k.suspend(sleep_victim);
    k.sleep_for(0.1);
    k.host_off(1);  // reaps all three, suspended or not
    k.sleep_for(0.1);
    EXPECT_FALSE(k.is_alive(exec_victim));
    EXPECT_FALSE(k.is_alive(sleep_victim));
    EXPECT_FALSE(k.is_alive(parked_victim));
  });
  k.run();
  EXPECT_EQ(exec_exits.load(), 1);
  EXPECT_EQ(sleep_exits.load(), 1);
  EXPECT_EQ(parked_exits.load(), 1);
}

TEST_F(MembershipTest, SuspendedResidentsReapedOnceByDeparture) {
  Kernel k(make_star_zone(4));
  std::atomic<int> exits{0};
  const ActorId victim = k.spawn("victim", 2, [&k] { k.execute(1e15); });
  k.actor(victim)->on_exit([&](bool) { ++exits; });
  k.spawn("controller", 0, [&] {
    k.sleep_for(0.1);
    k.suspend(victim);
    k.leave_host(2);
    k.sleep_for(0.1);
    EXPECT_FALSE(k.is_alive(victim));
  });
  k.run();
  EXPECT_EQ(exits.load(), 1);
}

// ---------------------------------------------------------------------------
// Graceful degradation: rejoin daemons, retry helpers, membership driver
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, RejoinDaemonRestartsWhenHostReturns) {
  Kernel k(make_star_zone(4));
  std::atomic<int> incarnations{0};
  register_rejoin_daemon(k, "beacon", 3, [&] {
    ++incarnations;
    k.sleep_for(1e9);  // idles until killed with its host
  });
  k.spawn("controller", 0, [&] {
    k.sleep_for(0.5);
    k.leave_host(3);
    EXPECT_FALSE(k.engine().host_present(3));
    k.sleep_for(0.5);
    EXPECT_EQ(incarnations.load(), 1);
    k.rejoin_host(3);
    k.sleep_for(0.5);
    EXPECT_EQ(incarnations.load(), 2);  // restarted on rejoin
  });
  k.run();
  EXPECT_EQ(incarnations.load(), 2);
}

TEST_F(MembershipTest, RetrySendRidesOutDepartureAndReturn) {
  Kernel k(make_star_zone(4));
  std::atomic<int> received{0};
  std::atomic<bool> sent_ok{false};

  register_rejoin_daemon(k, "worker", 2, [&] {
    void* raw = k.recv("inbox");
    received += static_cast<int>(reinterpret_cast<std::intptr_t>(raw));
    k.sleep_for(1e9);
  });
  k.spawn("chaos", 0,
          [&] {
            k.sleep_for(0.05);
            k.leave_host(2);
            k.sleep_for(1.0);
            k.rejoin_host(2);
          },
          /*daemon=*/true);
  k.spawn("master", 1, [&] {
    k.sleep_for(0.1);  // after departure: first attempts fail
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.timeout = 0.25;
    policy.backoff = 2.0;
    sent_ok = retry_send(k, k.mailbox_by_name("inbox"),
                         reinterpret_cast<void*>(static_cast<std::intptr_t>(7)), 1e6, policy);
  });
  k.run();
  EXPECT_TRUE(sent_ok.load());
  EXPECT_EQ(received.load(), 7);
}

TEST_F(MembershipTest, RetryGivesUpAfterBoundedAttempts) {
  Kernel k(make_star_zone(4));
  double gave_up_at = -1.0;
  k.spawn("master", 0, [&] {
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.timeout = 0.5;
    policy.backoff = 2.0;
    // Nobody ever receives: 3 attempts (0.5 + 1.0 + 2.0) with backoff
    // sleeps (0.5 + 1.0) between them.
    EXPECT_FALSE(retry_send(k, k.mailbox_by_name("void"), nullptr, 1e6, policy));
    gave_up_at = k.now();
  });
  k.run();
  EXPECT_NEAR(gave_up_at, 0.5 + 0.5 + 1.0 + 1.0 + 2.0, 1e-9);
}

TEST_F(MembershipTest, MembershipDriverFollowsChurnTraces) {
  // The parser accepts churn: traces; the driver promotes their edges to
  // whole-host departure and return.
  Platform p = sg::platform::parse_platform(R"(
host stable speed:1e9
host flappy speed:1e9 churn:"0 1;2 0;4 1"
link l bw:1e8 lat:1e-4
edge stable flappy l
)");
  ASSERT_FALSE(p.host(1).churn.empty());
  Kernel k(std::move(p));
  start_membership_driver(k, /*driver_host=*/0);
  k.spawn("observer", 0, [&] {
    EXPECT_TRUE(k.engine().host_present(1));
    k.sleep_for(3.0);  // t=3: past the departure edge at t=2
    EXPECT_FALSE(k.engine().host_present(1));
    k.sleep_for(2.0);  // t=5: past the return edge at t=4
    EXPECT_TRUE(k.engine().host_present(1));
  });
  k.run();
}

// ---------------------------------------------------------------------------
// Reproducible log of a kernel-level churn workload
// ---------------------------------------------------------------------------

/// Multi-zone platform (the kernel keys its run queues off the zones).
Platform make_zoned_platform(int zones, int per_zone) {
  Platform p;
  for (int z = 0; z < zones; ++z) {
    ClusterZoneSpec zone;
    zone.name = "zone" + std::to_string(z);
    zone.host_prefix = "z" + std::to_string(z) + "-";
    zone.count = per_zone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1e8;
    zone.link_latency = 5e-5;
    p.add_cluster_zone(zone);
  }
  for (int z = 1; z < zones; ++z) {
    const LinkId wan =
        p.add_link("wan" + std::to_string(z), 4e8, 1e-3, sg::platform::SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
  }
  p.seal();
  return p;
}

/// Trace-churned master/worker run: one worker host per zone flaps its
/// membership on a square wave (each zone phase-shifted); workers are rejoin
/// daemons, the master rides the churn with retry_send/recv. Returns the
/// per-actor logs concatenated in actor order plus the end clock.
std::pair<std::vector<std::string>, double> run_churn_workload() {
  constexpr int kZones = 3;
  constexpr int kPerZone = 4;
  Kernel k(make_zoned_platform(kZones, kPerZone));

  // Worker w lives on host 1 of zone w; that host churns on a square wave
  // (1.1s member, 0.6s departed), staggered so departures never collide.
  std::vector<HostChurn> churn;
  std::vector<int> worker_hosts;
  for (int z = 0; z < kZones; ++z) {
    const int host = z * kPerZone + 1;
    worker_hosts.push_back(host);
    auto wave = sg::trace::square_wave("churn" + std::to_string(z), 1.0, 1.1 + 0.2 * z, 0.0, 0.6);
    churn.push_back({host, std::move(wave)});
  }
  const int n_workers = static_cast<int>(worker_hosts.size());

  std::vector<std::vector<std::string>> logs(1 + static_cast<size_t>(n_workers));
  for (int w = 0; w < n_workers; ++w) {
    register_rejoin_daemon(k, "worker" + std::to_string(w), worker_hosts[static_cast<size_t>(w)],
                           [&k, &logs, w] {
                             const MailboxId inbox = k.mailbox_by_name("tasks:" + std::to_string(w));
                             const MailboxId results = k.mailbox_by_name("results");
                             while (true) {
                               void* raw = k.recv(inbox);
                               const auto task = reinterpret_cast<std::intptr_t>(raw);
                               logs[static_cast<size_t>(1 + w)].push_back(
                                   sg::xbt::format("%.9f w%d task=%ld", k.now(), w, task));
                               k.execute(4e7 + 1e7 * static_cast<double>(task % 5));
                               k.send(results, raw, 1e4);
                             }
                           });
  }

  start_membership_driver(k, /*driver_host=*/0, std::move(churn));

  k.spawn("master", 0, [&] {
    const MailboxId results = k.mailbox_by_name("results");
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.timeout = 0.4;
    policy.backoff = 2.0;
    for (int t = 1; t <= 24; ++t) {
      const int w = t % n_workers;
      if (!retry_send(k, k.mailbox_by_name("tasks:" + std::to_string(w)),
                      reinterpret_cast<void*>(static_cast<std::intptr_t>(t)), 1e5, policy)) {
        logs[0].push_back(sg::xbt::format("%.9f give-up task=%d worker=%d", k.now(), t, w));
        continue;
      }
      void* ack = retry_recv(k, results, policy);
      if (ack != nullptr)
        logs[0].push_back(sg::xbt::format("%.9f done task=%ld worker=%d", k.now(),
                                          reinterpret_cast<std::intptr_t>(ack), w));
      else
        logs[0].push_back(sg::xbt::format("%.9f lost task=%d worker=%d", k.now(), t, w));
    }
    logs[0].push_back(sg::xbt::format("%.9f master finished", k.now()));
  });

  const double end = k.run();
  std::vector<std::string> log;
  for (const auto& l : logs)
    log.insert(log.end(), l.begin(), l.end());
  return {log, end};
}

// The name is kept from when this compared serial and parallel-actor runs,
// so the test id stays stable; two runs must now give the same log.
TEST_F(MembershipTest, ParallelChurnWorkloadMatchesSerialLog) {
  const auto first = run_churn_workload();
  EXPECT_GT(first.first.size(), 20u);
  const auto second = run_churn_workload();
  EXPECT_EQ(second.first, first.first);
  EXPECT_EQ(second.second, first.second);
}

}  // namespace
