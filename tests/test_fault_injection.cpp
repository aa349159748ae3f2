/// Fault-injection property sweep: random host/link flaps under a running
/// mix of execs, comms, sleeps, and ptasks. The engine finds failure victims
/// through the solver's element arena and the per-host sleep index
/// (O(affected)); the reference here is the brute-force definition — scan
/// every tracked running action and ask whether it uses the dead resource.
/// Event sets, delivery counts, and failure clocks must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "platform/builders.hpp"
#include "platform/parser.hpp"
#include "trace/trace.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

#include "ideal_network.hpp"

namespace {

using namespace sg::core;
using sg::platform::LinkId;
using sg::platform::Platform;

class FaultInjectionTest : public ::testing::Test {
  sg::test::IdealNetwork ideal_network_;
};

/// What the brute-force reference knows about one running action.
struct TrackedAction {
  ActionPtr action;
  std::set<int> hosts;      ///< hosts whose death must fail it
  std::set<LinkId> links;   ///< links whose death must fail it
};

/// The brute-force victim set for a resource death.
std::set<const Action*> expected_victims(const std::vector<TrackedAction>& tracked, bool is_host,
                                         int index) {
  std::set<const Action*> out;
  for (const TrackedAction& t : tracked) {
    const bool hit = is_host ? t.hosts.count(index) > 0 : t.links.count(index) > 0;
    if (hit)
      out.insert(t.action.get());
  }
  return out;
}

TEST_F(FaultInjectionTest, RandomFlapsMatchBruteForceReference) {
  for (std::uint64_t seed : {11u, 23u, 37u}) {
    sg::xbt::Rng rng(seed);
    sg::platform::ClusterSpec spec;
    spec.count = 24;
    spec.backbone_fatpipe = true;
    Engine e(sg::platform::make_cluster(spec));
    const auto& platform = e.platform();
    const int n_hosts = static_cast<int>(platform.host_count());
    const int n_links = static_cast<int>(platform.link_count());

    std::vector<TrackedAction> tracked;
    // Keyed by ActionPtr, not raw pointer: holding the reference keeps the
    // engine's action block pool from recycling the address, which would
    // conflate two different actions' delivery counts.
    std::map<ActionPtr, int> failure_deliveries;

    auto track_comm = [&](int src, int dst, const ActionPtr& a) {
      TrackedAction t;
      t.action = a;
      if (src == dst) {
        t.hosts.insert(src);  // loopback dies with its host
      } else {
        for (LinkId l : platform.route(src, dst))
          t.links.insert(l);
      }
      tracked.push_back(std::move(t));
    };

    auto start_random_action = [&] {
      const double pick = rng.uniform01();
      const int h = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_hosts - 1)));
      if (!e.host_is_on(h))
        return;
      if (pick < 0.35) {
        TrackedAction t;
        t.action = e.exec_start(h, rng.uniform(1e8, 1e11));
        t.hosts.insert(h);
        tracked.push_back(std::move(t));
      } else if (pick < 0.7) {
        const int d = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_hosts - 1)));
        auto a = e.comm_start(h, d, rng.uniform(1e6, 1e9));
        if (a->state() == ActionState::kFailed)
          return;  // started over a currently-dead route: not running
        track_comm(h, d, a);
      } else if (pick < 0.9) {
        TrackedAction t;
        t.action = e.sleep_start(h, rng.uniform(0.5, 50.0));
        t.hosts.insert(h);
        tracked.push_back(std::move(t));
      } else {
        const int h2 = (h + 1 + static_cast<int>(rng.uniform_int(0, 5))) % n_hosts;
        if (!e.host_is_on(h2) || h2 == h)
          return;
        TrackedAction t;
        t.action = e.ptask_start({h, h2}, {rng.uniform(1e8, 1e10), rng.uniform(1e8, 1e10)},
                                 {{0.0, 1e7}, {0.0, 0.0}});
        t.hosts.insert(h);
        t.hosts.insert(h2);
        for (LinkId l : platform.route(h, h2))
          t.links.insert(l);
        tracked.push_back(std::move(t));
      }
    };

    auto drop_finished = [&](const Action* a) {
      tracked.erase(std::remove_if(tracked.begin(), tracked.end(),
                                   [a](const TrackedAction& t) { return t.action.get() == a; }),
                    tracked.end());
    };

    auto drain = [&](StepLog events) {
      for (const auto& ev : events) {
        if (ev.failed)
          ++failure_deliveries[ev.action];
        drop_finished(ev.action.get());
      }
    };

    for (int i = 0; i < 40; ++i)
      start_random_action();

    for (int round = 0; round < 120; ++round) {
      // Advance a little, letting completions interleave with failures.
      const double until = e.now() + rng.uniform(0.01, 0.3);
      do
        drain(e.run_until(until));
      while (e.now() < until);

      const double op = rng.uniform01();
      if (op < 0.4) {
        start_random_action();
        continue;
      }

      const bool is_host = rng.uniform01() < 0.5;
      const int index = is_host
                            ? static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_hosts - 1)))
                            : static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n_links - 1)));
      const bool currently_on = is_host ? e.host_is_on(index) : e.link_is_on(index);
      if (!currently_on) {
        // Heal it; nothing may fail because of a recovery. run_until(now)
        // cannot advance time, so only pending events (and completions due
        // exactly now) surface here.
        if (is_host)
          e.set_host_state(index, true);
        else
          e.set_link_state(index, true);
        for (const auto& ev : e.run_until(e.now())) {
          EXPECT_FALSE(ev.failed) << "recovery produced a failure event";
          drop_finished(ev.action.get());
        }
        continue;
      }

      const auto expected = expected_victims(tracked, is_host, index);
      const double flap_time = e.now();
      if (is_host)
        e.set_host_state(index, false);
      else
        e.set_link_state(index, false);

      // run_until(now) delivers the pending failures without advancing the
      // clock; completions that happen to be due exactly now are drained
      // normally.
      std::set<const Action*> actual;
      for (const auto& ev : e.run_until(flap_time)) {
        if (!ev.failed) {
          drop_finished(ev.action.get());
          continue;
        }
        EXPECT_NEAR(ev.action->finish_time(), flap_time, 1e-9 * std::max(1.0, flap_time))
            << "failure clock diverged from the flap date";
        EXPECT_EQ(ev.action->state(), ActionState::kFailed);
        EXPECT_TRUE(actual.insert(ev.action.get()).second)
            << "the same action was delivered twice in one flap";
        ++failure_deliveries[ev.action];
        drop_finished(ev.action.get());
      }
      EXPECT_EQ(actual, expected)
          << "index-based victim set diverged from the brute-force reference (seed " << seed
          << ", round " << round << ", " << (is_host ? "host " : "link ") << index << ")";

      // The running count must now match the reference's books exactly.
      EXPECT_EQ(e.running_action_count(), tracked.size());
    }

    // Every failure was delivered exactly once over the whole run.
    for (const auto& [action, count] : failure_deliveries)
      EXPECT_EQ(count, 1) << "an action emitted " << count << " failure events";
  }
}

// ---------------------------------------------------------------------------
// Trace-driven ≡ direct-injection equivalence: the same failure schedule
// applied through state traces and through set_*_state must produce the same
// event sequence at the same clocks (1e-9).
// ---------------------------------------------------------------------------

struct LoggedEvent {
  double time;
  bool failed;
  ActionKind kind;
  int host;
};

/// Deterministic workload driver shared by both runs: every completed or
/// failed activity is restarted (execs/sleeps when the host is up, comms
/// when the route is up), so the two runs stay in lockstep.
std::vector<LoggedEvent> run_workload(Engine& e, double horizon,
                                      const std::vector<std::pair<double, bool>>& manual_flaps,
                                      int flapping_host) {
  std::vector<LoggedEvent> log;
  auto submit_exec = [&](int host) {
    if (e.host_is_on(host))
      e.exec_start(host, 3e8);
  };
  auto submit_comm = [&](int src, int dst) {
    if (e.host_is_on(src))  // keep both runs deterministic
      e.comm_start(src, dst, 1e7);
  };
  const int n = static_cast<int>(e.platform().host_count());
  for (int h = 0; h < n; ++h) {
    submit_exec(h);
    submit_comm(h, (h + 1) % n);
  }
  size_t next_flap = 0;
  while (true) {
    double bound = horizon;
    if (next_flap < manual_flaps.size())
      bound = std::min(bound, manual_flaps[next_flap].first);
    for (const auto& ev : e.run_until(bound)) {
      log.push_back({e.now(), ev.failed, ev.action->kind(), ev.action->host()});
      if (ev.action->kind() == ActionKind::kExec)
        submit_exec(ev.action->host());
      else if (ev.action->kind() == ActionKind::kComm)
        submit_comm(ev.action->host(), ev.action->peer_host());
    }
    if (next_flap < manual_flaps.size() && e.now() >= manual_flaps[next_flap].first - 1e-12) {
      e.set_host_state(flapping_host, manual_flaps[next_flap].second);
      for (const auto& ev : e.run_until()) {  // deliver the injected failures
        log.push_back({e.now(), ev.failed, ev.action->kind(), ev.action->host()});
        if (ev.action->kind() == ActionKind::kExec)
          submit_exec(ev.action->host());
        else if (ev.action->kind() == ActionKind::kComm)
          submit_comm(ev.action->host(), ev.action->peer_host());
      }
      ++next_flap;
    }
    if (e.now() >= horizon)
      break;
  }
  return log;
}

TEST_F(FaultInjectionTest, TraceDrivenEqualsDirectInjection) {
  constexpr int kFlappingHost = 2;
  constexpr double kHorizon = 7.9;  // strictly between flap dates

  // Run A: host 2 flaps via a state trace (down at 2.0, up at 2.5, period 3).
  sg::platform::ClusterSpec spec;
  spec.count = 6;
  auto platform_a = sg::platform::make_cluster(spec);
  platform_a.host_mutable(kFlappingHost).state =
      sg::trace::Trace("flap", {{0.0, 1.0}, {2.0, 0.0}, {2.5, 1.0}}, 3.0);
  Engine ea(std::move(platform_a));
  auto log_a = run_workload(ea, kHorizon, {}, kFlappingHost);

  // Run B: the same schedule injected with set_host_state at the same dates.
  Engine eb(sg::platform::make_cluster(spec));
  const std::vector<std::pair<double, bool>> flaps = {
      {2.0, false}, {2.5, true}, {5.0, false}, {5.5, true}};
  auto log_b = run_workload(eb, kHorizon, flaps, kFlappingHost);

  // Events at one instant may be delivered in either order by the two
  // mechanisms (trace events fire inside the step; direct injection queues
  // pending events); normalize before comparing.
  auto normalize = [](std::vector<LoggedEvent>& log) {
    std::stable_sort(log.begin(), log.end(), [](const LoggedEvent& x, const LoggedEvent& y) {
      if (x.time != y.time)
        return x.time < y.time;
      if (x.failed != y.failed)
        return x.failed < y.failed;
      if (x.kind != y.kind)
        return x.kind < y.kind;
      return x.host < y.host;
    });
  };
  normalize(log_a);
  normalize(log_b);

  size_t failures = 0;
  ASSERT_EQ(log_a.size(), log_b.size());
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_NEAR(log_a[i].time, log_b[i].time, 1e-9 * std::max(1.0, log_b[i].time)) << "event " << i;
    EXPECT_EQ(log_a[i].failed, log_b[i].failed) << "event " << i;
    EXPECT_EQ(log_a[i].kind, log_b[i].kind) << "event " << i;
    EXPECT_EQ(log_a[i].host, log_b[i].host) << "event " << i;
    failures += log_a[i].failed;
  }
  EXPECT_GT(failures, 0u) << "the scenario never exercised a failure";
}

// ---------------------------------------------------------------------------
// Multi-zone churn over flapping WAN links: every failure must trace back to
// a link that is down at that moment, no flow may beat its solo lower bound,
// and the ordered log must be reproducible.
// ---------------------------------------------------------------------------

struct ZoneChurnEvent {
  int slot;
  bool failed;
  double time;
  bool operator==(const ZoneChurnEvent& o) const {
    return slot == o.slot && failed == o.failed && time == o.time;
  }
};

/// Four cluster zones behind fat-pipe backbones, joined through a core
/// router by fat-pipe WAN links; the WAN links of zones 1 and 3 flap on
/// periodic state traces. Each client/server pair keeps one flow in flight,
/// replaced when it ends; one replacement in ten targets another zone.
/// After every run_until(), a failed flow must have a dead link on its
/// route and a running one none.
std::vector<ZoneChurnEvent> run_zone_churn(size_t n_events) {
  constexpr int kZones = 4;
  constexpr int kPairs = 24;  // per zone
  std::string text;
  for (int z = 0; z < kZones; ++z)
    text += sg::xbt::format(
        "cluster z%d hosts:%d prefix:z%d- speed:1Gf bw:125MBps lat:50us backbone:10GBps "
        "blat:50us fatpipe\n",
        z, 2 * kPairs, z);
  text += "router core\n";
  for (int z = 0; z < kZones; ++z) {
    text += sg::xbt::format("link wan%d bw:1.25GBps lat:100us fatpipe", z);
    if (z % 2 == 1)  // down 4 ms in every 20 ms, at a per-link phase
      text += sg::xbt::format(" state:\"0 1;%.4f 0;%.4f 1;P:0.02\"", 0.003 * z, 0.003 * z + 0.004);
    text += sg::xbt::format("\nedge core z%d-out wan%d\n", z, z);
  }
  Engine e(sg::platform::parse_platform(text));
  const Platform& p = e.platform();
  std::vector<int> first;
  for (int z = 0; z < kZones; ++z)
    first.push_back(p.zone_first_host(*p.zone_by_name(sg::xbt::format("z%d", z))));

  sg::xbt::Rng rng(2006);
  std::vector<ActionPtr> flows(kZones * kPairs);
  auto start_flow = [&](int slot) {
    const int zone = slot / kPairs;
    const int src = first[static_cast<size_t>(zone)] + 2 * (slot % kPairs);
    int dst = src + 1;
    if (rng.uniform01() < 0.1) {
      const int other = (zone + 1 + static_cast<int>(rng.uniform_int(0, kZones - 2))) % kZones;
      dst = first[static_cast<size_t>(other)] + static_cast<int>(rng.uniform_int(0, 2 * kPairs - 1));
    }
    ActionPtr a = e.comm_start(src, dst, std::pow(10.0, rng.uniform(4.0, 6.5)));
    a->user_data = reinterpret_cast<void*>(static_cast<std::intptr_t>(slot));
    flows[static_cast<size_t>(slot)] = std::move(a);
  };
  for (int slot = 0; slot < kZones * kPairs; ++slot)
    start_flow(slot);

  auto route_has_dead_link = [&](const Action& a) {
    for (LinkId l : p.route(a.host(), a.peer_host()))
      if (!e.link_is_on(l))
        return true;
    return false;
  };
  auto solo_lower_bound = [&](const Action& a) {
    const auto route = p.route(a.host(), a.peer_host());
    double min_bw = INFINITY;
    for (LinkId l : route)
      min_bw = std::min(min_bw, p.link(l).bandwidth_Bps);
    return route.latency() + a.total() / min_bw;
  };

  std::vector<ZoneChurnEvent> log;
  while (log.size() < n_events) {
    for (const ActionEvent& ev : e.run_until()) {
      const Action& a = *ev.action;
      const int slot = static_cast<int>(reinterpret_cast<std::intptr_t>(a.user_data));
      log.push_back({slot, ev.failed, a.finish_time()});
      if (ev.failed) {
        EXPECT_TRUE(route_has_dead_link(a))
            << "flow of slot " << slot << " failed at t=" << e.now() << " with every link up";
      } else {
        EXPECT_EQ(a.state(), ActionState::kDone);
        const double bound = solo_lower_bound(a);
        EXPECT_GE(a.finish_time() - a.start_time(), bound * (1 - 1e-9) - 1e-12)
            << "flow of slot " << slot << " beat its solo lower bound";
      }
      start_flow(slot);
    }
    for (const ActionPtr& a : flows)
      if (a->state() == ActionState::kRunning && route_has_dead_link(*a)) {
        ADD_FAILURE() << "a flow kept running over a dead link at t=" << e.now();
        return log;
      }
  }
  return log;
}

TEST(FaultInjection, CrossZoneFailuresHappenOnlyWhileALinkIsDown) {
  const std::vector<ZoneChurnEvent> log = run_zone_churn(20000);
  const auto failures =
      std::count_if(log.begin(), log.end(), [](const ZoneChurnEvent& ev) { return ev.failed; });
  EXPECT_GT(failures, 100) << "the WAN flaps never failed a flow";
  EXPECT_GT(log.size() - static_cast<size_t>(failures), 10000u);
  EXPECT_TRUE(run_zone_churn(20000) == log) << "two runs gave different ordered logs";
}

}  // namespace
