/// Tests for the SURF engine: action timing, resource sharing, latency
/// phases, TCP window bound, traces, failures, parallel tasks, the
/// engine/kill-transit-comms semantics, the phase profiler, run_until()'s
/// deadline semantics, and the typed sg::config registry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "kernel/context.hpp"
#include "platform/builders.hpp"
#include "topo/brite.hpp"
#include "trace/trace.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"
#include "xbt/str.hpp"

#include "ideal_network.hpp"

namespace {

using namespace sg::core;
using sg::platform::ClusterZoneSpec;
using sg::platform::LinkId;
using sg::platform::Platform;
using sg::platform::SharingPolicy;

/// Runs every test on the ideal network model (see ideal_network.hpp).
class EngineTest : public ::testing::Test {
protected:
  /// Run the engine until the given action completes; returns finish time.
  static double run_until_done(Engine& e, const ActionPtr& a) {
    for (int guard = 0; guard < 100000; ++guard) {
      if (a->state() != ActionState::kRunning && a->state() != ActionState::kSuspended)
        return a->finish_time();
      e.run_until();
    }
    ADD_FAILURE() << "action never completed";
    return -1;
  }

private:
  sg::test::IdealNetwork ideal_network_;
};

TEST_F(EngineTest, ExecTiming) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  EXPECT_DOUBLE_EQ(run_until_done(e, a), 2.0);
  EXPECT_EQ(a->state(), ActionState::kDone);
}

TEST_F(EngineTest, TwoExecsShareCpu) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e9);
  auto b = e.exec_start(0, 1e9);
  run_until_done(e, a);
  // Each ran at 5e8 flop/s -> both end at t=2.
  EXPECT_DOUBLE_EQ(a->finish_time(), 2.0);
  EXPECT_DOUBLE_EQ(run_until_done(e, b), 2.0);
}

TEST_F(EngineTest, ExecPriorityShares) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto hi = e.exec_start(0, 1e9, 3.0);
  auto lo = e.exec_start(0, 1e9, 1.0);
  run_until_done(e, hi);
  // hi gets 7.5e8, lo 2.5e8 until hi ends at 4/3.
  EXPECT_NEAR(hi->finish_time(), 4.0 / 3.0, 1e-9);
  run_until_done(e, lo);
  // lo: did 1/3e9 flops by t=4/3, then full speed: 4/3 + 2/3 = 2.
  EXPECT_NEAR(lo->finish_time(), 2.0, 1e-9);
}

TEST_F(EngineTest, ExecStaggeredStarts) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  // Advance time to 1.0, then start a competitor.
  e.run_until(1.0);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  auto b = e.exec_start(0, 1e9);
  run_until_done(e, a);
  // a has 1e9 left at t=1, shares at 5e8 -> needs 2s more.
  EXPECT_DOUBLE_EQ(a->finish_time(), 3.0);
  // b: 5e8 for 2s = 1e9 done exactly when a ends.
  EXPECT_DOUBLE_EQ(run_until_done(e, b), 3.0);
}

TEST_F(EngineTest, CommLatencyPlusBandwidth) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 1e-3));
  auto c = e.comm_start(0, 1, 1e8);
  const double t = run_until_done(e, c);
  EXPECT_NEAR(t, 1e-3 + 1.0, 1e-9);
}

TEST_F(EngineTest, ZeroByteCommTakesLatencyOnly) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 5e-3));
  auto c = e.comm_start(0, 1, 0.0);
  EXPECT_NEAR(run_until_done(e, c), 5e-3, 1e-12);
}

// Activity starts reject NaN, infinite and negative amounts with a typed
// error that names the call and the host, and leave no action behind.
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInfinity = std::numeric_limits<double>::infinity();

template <typename Fn>
void expect_rejected(Engine& e, Fn&& start, const std::string& call, const std::string& host) {
  try {
    start();
    ADD_FAILURE() << call << " accepted a bad amount";
  } catch (const sg::xbt::InvalidArgument& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find(call), std::string::npos) << what;
    EXPECT_NE(what.find(host), std::string::npos) << what;
  }
  EXPECT_EQ(e.running_action_count(), 0u);
}

TEST_F(EngineTest, ExecStartRejectsBadAmounts) {
  Platform p;
  p.add_host("cpu0", 1e9);
  Engine e(std::move(p));
  for (double bad : {kNaN, kInfinity, -1.0}) {
    expect_rejected(e, [&] { e.exec_start(0, bad); }, "exec_start", "cpu0");
    expect_rejected(e, [&] { e.exec_start(0, 1e9, bad); }, "exec_start", "cpu0");
    expect_rejected(e, [&] { e.exec_start(0, 1e9, bad, "named"); }, "exec_start", "cpu0");
  }
  EXPECT_DOUBLE_EQ(run_until_done(e, e.exec_start(0, 1e9)), 1.0);
}

TEST_F(EngineTest, CommStartRejectsBadAmounts) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  const std::string src = e.platform().host(0).name;
  for (double bad : {kNaN, kInfinity, -1.0})
    expect_rejected(e, [&] { e.comm_start(0, 1, bad); }, "comm_start", src);
  // A negative rate limit means "no limit"; NaN and infinities are errors.
  for (double bad : {kNaN, kInfinity, -kInfinity})
    expect_rejected(e, [&] { e.comm_start(0, 1, 1e8, bad, "named"); }, "comm_start", src);
  EXPECT_NEAR(run_until_done(e, e.comm_start(0, 1, 1e8, -1.0)), 1.0, 1e-9);
}

TEST_F(EngineTest, PtaskStartRejectsBadAmounts) {
  Platform p;
  auto a = p.add_host("pa", 1e9);
  auto b = p.add_host("pb", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  for (double bad : {kNaN, kInfinity, -1.0}) {
    expect_rejected(e, [&] { e.ptask_start({0, 1}, {1e9, bad}, {}); }, "ptask_start", "pb");
    expect_rejected(e, [&] { e.ptask_start({0, 1}, {1e9, 1e9}, {{0.0, bad}, {0.0, 0.0}}); },
                    "ptask_start", "pa");
  }
  auto t = e.ptask_start({0, 1}, {1e9, 1e9}, {{0.0, 1e8}, {0.0, 0.0}});
  EXPECT_NEAR(run_until_done(e, t), 1.0, 1e-9);
}

TEST_F(EngineTest, SleepStartRejectsBadDurations) {
  Platform p;
  p.add_host("napper", 1e9);
  Engine e(std::move(p));
  for (double bad : {kNaN, kInfinity, -1.0}) {
    expect_rejected(e, [&] { e.sleep_start(0, bad); }, "sleep_start", "napper");
    expect_rejected(e, [&] { e.sleep_start(0, bad, "named"); }, "sleep_start", "napper");
  }
  EXPECT_DOUBLE_EQ(run_until_done(e, e.sleep_start(0, 2.5)), 2.5);
}

// Out-of-range host and link ids are the caller's error: every entry point
// throws xbt::InvalidArgument naming the call and the id (not a raw
// std::out_of_range), and leaves no action behind.
template <typename Fn>
void expect_bad_id(Engine& e, Fn&& call, const std::string& name) {
  for (int bad : {-1, 2, 1 << 20}) {
    try {
      call(bad);
      ADD_FAILURE() << name << " accepted id " << bad;
    } catch (const sg::xbt::InvalidArgument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(" id " + std::to_string(bad) + " out of range"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(e.running_action_count(), 0u);
}

/// Two hosts and two links: ids 0 and 1 are valid, 2 is one past the end.
Platform two_by_two() {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l0 = p.add_link("l0", 1e8, 1e-3);
  auto l1 = p.add_link("l1", 1e8, 1e-3);
  p.add_edge(a, b, l0);
  p.add_edge(a, b, l1);
  return p;
}

TEST_F(EngineTest, ExecStartRejectsOutOfRangeHost) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { e.exec_start(h, 1e9); }, "exec_start");
}

TEST_F(EngineTest, CommStartRejectsOutOfRangeHost) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { e.comm_start(h, 1, 1e6); }, "comm_start");
  expect_bad_id(e, [&](int h) { e.comm_start(0, h, 1e6); }, "comm_start");
}

TEST_F(EngineTest, SleepStartRejectsOutOfRangeHost) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { e.sleep_start(h, 1.0); }, "sleep_start");
}

TEST_F(EngineTest, SetHostStateRejectsOutOfRangeHost) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { e.set_host_state(h, false); }, "set_host_state");
}

TEST_F(EngineTest, SetLinkStateRejectsOutOfRangeLink) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int l) { e.set_link_state(l, false); }, "set_link_state");
}

TEST_F(EngineTest, SetHostScaleRejectsOutOfRangeHost) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { e.set_host_scale(h, 0.5); }, "set_host_scale");
}

TEST_F(EngineTest, SetLinkScaleRejectsOutOfRangeLink) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int l) { e.set_link_scale(l, 0.5); }, "set_link_scale");
}

TEST_F(EngineTest, ScaleSettersRejectBadScalesWithoutStoringThem) {
  Engine e(two_by_two());
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInfinity = std::numeric_limits<double>::infinity();
  for (double bad : {kNan, kInfinity, -1.0}) {
    try {
      e.set_host_scale(0, bad);
      ADD_FAILURE() << "set_host_scale accepted " << bad;
    } catch (const sg::xbt::InvalidArgument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find("set_host_scale"), std::string::npos) << what;
      EXPECT_NE(what.find("host a"), std::string::npos) << what;
    }
    try {
      e.set_link_scale(1, bad);
      ADD_FAILURE() << "set_link_scale accepted " << bad;
    } catch (const sg::xbt::InvalidArgument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find("set_link_scale"), std::string::npos) << what;
      EXPECT_NE(what.find("link l1"), std::string::npos) << what;
    }
    EXPECT_DOUBLE_EQ(e.host_speed(0), 1e9);
    EXPECT_DOUBLE_EQ(e.link_bandwidth(1), e.link_bandwidth(0));
  }
  // A down host used to accept a negative scale and fail later, inside the
  // solver, when it came back up.
  e.set_host_state(0, false);
  EXPECT_THROW(e.set_host_scale(0, -1.0), sg::xbt::InvalidArgument);
  e.set_host_state(0, true);
  EXPECT_DOUBLE_EQ(e.host_speed(0), 1e9);
  e.set_host_scale(0, 0.0);  // zero is a legal scale (full outage)
  EXPECT_DOUBLE_EQ(e.host_speed(0), 0.0);
}

TEST_F(EngineTest, HostSpeedRejectsOutOfRangeHost) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { (void)e.host_speed(h); }, "host_speed");
  EXPECT_DOUBLE_EQ(e.host_speed(1), 1e9);
}

TEST_F(EngineTest, ResourceStateRejectsOutOfRangeIds) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { (void)e.host_is_on(h); }, "host_is_on");
  expect_bad_id(e, [&](int l) { (void)e.link_is_on(l); }, "link_is_on");
  expect_bad_id(e, [&](int h) { (void)e.host_available_speed_fraction(h); },
                "host_available_speed_fraction");
  EXPECT_TRUE(e.host_is_on(1));
  EXPECT_TRUE(e.link_is_on(1));
}

TEST_F(EngineTest, HostLoadRejectsOutOfRangeHost) {
  Engine e(two_by_two());
  expect_bad_id(e, [&](int h) { (void)e.host_load(h); }, "host_load");
  EXPECT_DOUBLE_EQ(e.host_load(1), 0.0);
}

TEST_F(EngineTest, TwoFlowsShareLink) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c1 = e.comm_start(0, 1, 1e8);
  auto c2 = e.comm_start(0, 1, 1e8);
  run_until_done(e, c1);
  EXPECT_NEAR(c1->finish_time(), 2.0, 1e-9);
  EXPECT_NEAR(run_until_done(e, c2), 2.0, 1e-9);
}

TEST_F(EngineTest, OppositeFlowsAlsoShare) {
  // Links are full-duplex-agnostic single resources here (CM02 behaviour):
  // both directions contend.
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c1 = e.comm_start(0, 1, 5e7);
  auto c2 = e.comm_start(1, 0, 5e7);
  run_until_done(e, c1);
  EXPECT_NEAR(c1->finish_time(), 1.0, 1e-9);
  EXPECT_NEAR(run_until_done(e, c2), 1.0, 1e-9);
}

TEST_F(EngineTest, FatpipeDoesNotDivide) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("bb", 1e8, 0.0, sg::platform::SharingPolicy::kFatpipe);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto c1 = e.comm_start(0, 1, 1e8);
  auto c2 = e.comm_start(0, 1, 1e8);
  run_until_done(e, c1);
  EXPECT_NEAR(c1->finish_time(), 1.0, 1e-9);
  EXPECT_NEAR(run_until_done(e, c2), 1.0, 1e-9);
}

TEST_F(EngineTest, TcpWindowBoundsLongFatLinks) {
  sg::config::set(kCfgTcpGamma, 65536.0);
  // WAN link: 50ms one-way latency -> cap = 65536 / 0.1 = 655360 B/s.
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.05));
  auto c = e.comm_start(0, 1, 655360.0);
  const double t = run_until_done(e, c);
  EXPECT_NEAR(t, 0.05 + 1.0, 1e-6);
}

TEST_F(EngineTest, RateLimitedComm) {
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c = e.comm_start(0, 1, 1e7, /*rate_limit=*/1e6);
  EXPECT_NEAR(run_until_done(e, c), 10.0, 1e-9);
}

TEST_F(EngineTest, LoopbackComm) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto c = e.comm_start(0, 0, 1e9);
  const double t = run_until_done(e, c);
  // loopback defaults: 1e10 B/s, 1e-7 s latency
  EXPECT_NEAR(t, 1e-7 + 0.1, 1e-9);
}

TEST_F(EngineTest, MultiHopRouteSharesEveryLink) {
  // chain a - m - b; flow a->b and flow a->m compete on the first link.
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto m = p.add_host("m", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l1 = p.add_link("l1", 1e8, 0.0);
  auto l2 = p.add_link("l2", 1e8, 0.0);
  p.add_edge(a, m, l1);
  p.add_edge(m, b, l2);
  Engine e(std::move(p));
  auto long_flow = e.comm_start(0, 2, 1e8);
  auto short_flow = e.comm_start(0, 1, 5e7);
  run_until_done(e, short_flow);
  EXPECT_NEAR(short_flow->finish_time(), 1.0, 1e-9);  // 5e7 at 5e7/s
  run_until_done(e, long_flow);
  // long flow: 5e7 B by t=1 (rate 5e7), then full 1e8 -> 0.5s more.
  EXPECT_NEAR(long_flow->finish_time(), 1.5, 1e-9);
}

TEST_F(EngineTest, BandwidthFactorApplied) {
  sg::config::set(kCfgBandwidthFactor, 0.5);
  Engine e(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  auto c = e.comm_start(0, 1, 1e8);
  EXPECT_NEAR(run_until_done(e, c), 2.0, 1e-9);
}

TEST_F(EngineTest, SuspendResumeFreezesProgress) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  e.run_until(1.0);
  a->suspend();
  EXPECT_EQ(a->state(), ActionState::kSuspended);
  e.run_until(5.0);  // nothing progresses
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_NEAR(a->remaining(), 1e9, 1.0);
  a->resume();
  EXPECT_DOUBLE_EQ(run_until_done(e, a), 6.0);
}

TEST_F(EngineTest, CancelAction) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  e.run_until(0.5);
  a->cancel();
  EXPECT_EQ(a->state(), ActionState::kCanceled);
  auto events = e.run_until();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].action.get(), a.get());
}

TEST_F(EngineTest, AvailabilityTraceSlowsExec) {
  Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  // 100% for 1s, then 50% for 1s, repeating.
  spec.availability = sg::trace::square_wave("avail", 1.0, 1.0, 0.5, 1.0);
  p.add_host(spec);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 2e9);
  // 1e9 flops in [0,1) at full speed; 5e8 in [1,2); rest 5e8 in [2, 2.5).
  EXPECT_NEAR(run_until_done(e, a), 2.5, 1e-9);
}

TEST_F(EngineTest, StateTraceFailsRunningExec) {
  Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  spec.state = sg::trace::Trace("state", {{0.0, 1.0}, {1.5, 0.0}}, -1.0);
  p.add_host(spec);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e12);
  bool failed = false;
  for (int i = 0; i < 1000 && !failed; ++i) {
    for (const auto& ev : e.run_until())
      if (ev.action.get() == a.get() && ev.failed)
        failed = true;
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(a->state(), ActionState::kFailed);
  EXPECT_DOUBLE_EQ(a->finish_time(), 1.5);
  EXPECT_FALSE(e.host_is_on(0));
  EXPECT_THROW(e.exec_start(0, 1.0), sg::xbt::HostFailureException);
}

TEST_F(EngineTest, LinkFailureKillsComm) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  sg::platform::LinkSpec lspec;
  lspec.name = "l";
  lspec.bandwidth_Bps = 1e6;
  lspec.latency_s = 0.0;
  lspec.state = sg::trace::Trace("ls", {{0.0, 1.0}, {2.0, 0.0}}, -1.0);
  auto l = p.add_link(lspec);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto c = e.comm_start(0, 1, 1e9);
  bool failed = false;
  for (int i = 0; i < 1000 && !failed; ++i)
    for (const auto& ev : e.run_until())
      if (ev.action.get() == c.get() && ev.failed)
        failed = true;
  EXPECT_TRUE(failed);
  EXPECT_DOUBLE_EQ(c->finish_time(), 2.0);
}

TEST_F(EngineTest, CommOnDeadRouteFailsImmediately) {
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  e.set_link_state(0, false);
  auto c = e.comm_start(0, 1, 100.0);
  EXPECT_EQ(c->state(), ActionState::kFailed);
  auto events = e.run_until();
  bool found = false;
  for (const auto& ev : events)
    if (ev.action.get() == c.get() && ev.failed)
      found = true;
  EXPECT_TRUE(found);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);  // no time elapsed
}

TEST_F(EngineTest, HostRecoversAfterFailure) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  e.set_host_state(0, false);
  e.run_until();  // drain events
  EXPECT_FALSE(e.host_is_on(0));
  e.set_host_state(0, true);
  EXPECT_TRUE(e.host_is_on(0));
  auto a = e.exec_start(0, 1e9);
  const double finish = run_until_done(e, a);
  EXPECT_DOUBLE_EQ(finish, e.now());
  EXPECT_EQ(a->state(), ActionState::kDone);
}

TEST_F(EngineTest, ParallelTaskCoupledRates) {
  // Two hosts compute 1e9 flops each while exchanging 1e8 bytes over a 1e8 B/s
  // link: the communication is the bottleneck (1s); computation would take 1s
  // alone as well -> both saturate, total 2s (cpu gets 1e9/2s = rate .5e9
  // since progress is limited by min ratio).
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  // progress rate limited by: cpu: 1e9/1e9 = 1/s ; link: 1e8/1e8 = 1/s.
  // combined constraint is independent (different resources): rate = 1 -> 1s.
  auto t = e.ptask_start({0, 1}, {1e9, 1e9}, {{0.0, 1e8}, {0.0, 0.0}});
  EXPECT_NEAR(run_until_done(e, t), 1.0, 1e-9);
}

TEST_F(EngineTest, ParallelTaskSharesCpuWithExec) {
  Platform p;
  p.add_host("a", 1e9);
  p.add_host("b", 1e9);
  Engine e(std::move(p));
  auto pt = e.ptask_start({0, 1}, {1e9, 1e9}, {});
  auto ex = e.exec_start(0, 1e9);
  // On host a: ptask consumes 1e9 * rate, exec consumes rate'. MaxMin splits:
  // ptask rate r with coeff 1e9, exec rate x with coeff 1: growth equalizes
  // consumption shares... both saturate host a: 1e9*r + x = 1e9.
  // Progressive filling: both grow until a saturates; r grows at 1 (weight 1,
  // value in units of progress/s), x at 1 (flop/s)! Units differ wildly, so r
  // saturates a almost alone: delta where 1e9*d + d = 1e9 -> d ~= 1.
  run_until_done(e, pt);
  const double r = pt->finish_time();
  EXPECT_GT(r, 1.0);  // slowed down by the competing exec a bit
  run_until_done(e, ex);
  EXPECT_GT(ex->finish_time(), 1.0);
}

TEST_F(EngineTest, StepBoundStopsEarly) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e10);
  auto events = e.run_until(3.0);
  EXPECT_TRUE(events.empty());
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_NEAR(a->remaining(), 7e9, 1.0);
}

TEST_F(EngineTest, NextEventTimeEmptyEngine) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  EXPECT_TRUE(std::isinf(e.next_event_time()));
  auto events = e.run_until();
  EXPECT_TRUE(events.empty());
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST_F(EngineTest, LoadIntrospection) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  EXPECT_DOUBLE_EQ(e.host_load(0), 0.0);
  auto a = e.exec_start(0, 1e10);
  EXPECT_DOUBLE_EQ(e.host_load(0), 1e9);
  (void)a;
}

// ---------------------------------------------------------------------------
// Completion-heap equivalence sweep: the heap-driven run_until() must order and
// date completions exactly like the old exhaustive scan. The reference is an
// independent fluid simulation of weighted max-min sharing on one link
// (rate_i = C * w_i / sum of active weights), driven through the same random
// schedule of starts, suspends, resumes, and priority changes — every such
// event re-rates all flows, exercising heap invalidation en masse.
// ---------------------------------------------------------------------------

namespace heap_sweep {

struct RefFlow {
  double remaining;
  double weight;
  bool suspended = false;
  bool done = false;
  double finish = -1.0;
};

class RefLink {
public:
  explicit RefLink(double capacity) : capacity_(capacity) {}

  int start(double bytes, double weight) {
    flows_.push_back({bytes, weight});
    return static_cast<int>(flows_.size()) - 1;
  }
  // Mutators apply at the model's current date: callers must run_until(t)
  // to the mutation time first.
  void suspend(int i) { flows_[static_cast<size_t>(i)].suspended = true; }
  void resume(int i) { flows_[static_cast<size_t>(i)].suspended = false; }
  void set_weight(int i, double w) { flows_[static_cast<size_t>(i)].weight = w; }

  /// Advance the fluid model to `t`, completing flows on the way.
  void run_until(double t) {
    while (true) {
      const double w_sum = active_weight();
      double next_done = std::numeric_limits<double>::infinity();
      int which = -1;
      if (w_sum > 0) {
        for (size_t i = 0; i < flows_.size(); ++i) {
          const RefFlow& f = flows_[i];
          if (f.done || f.suspended || f.weight <= 0)
            continue;
          const double rate = capacity_ * f.weight / w_sum;
          const double eta = now_ + f.remaining / rate;
          if (eta < next_done) {
            next_done = eta;
            which = static_cast<int>(i);
          }
        }
      }
      if (which < 0 || next_done > t) {
        advance_to(t);
        return;
      }
      advance_to(next_done);
      flows_[static_cast<size_t>(which)].done = true;
      flows_[static_cast<size_t>(which)].finish = next_done;
      flows_[static_cast<size_t>(which)].remaining = 0;
    }
  }

  const RefFlow& flow(int i) const { return flows_[static_cast<size_t>(i)]; }
  size_t flow_count() const { return flows_.size(); }

private:
  double active_weight() const {
    double s = 0;
    for (const RefFlow& f : flows_)
      if (!f.done && !f.suspended)
        s += f.weight;
    return s;
  }
  void advance_to(double t) {
    const double dt = t - now_;
    if (dt > 0) {
      const double w_sum = active_weight();
      if (w_sum > 0)
        for (RefFlow& f : flows_)
          if (!f.done && !f.suspended && f.weight > 0)
            f.remaining = std::max(0.0, f.remaining - capacity_ * f.weight / w_sum * dt);
    }
    now_ = t;
  }

  double capacity_;
  double now_ = 0;
  std::vector<RefFlow> flows_;
};

}  // namespace heap_sweep

TEST_F(EngineTest, HeapMatchesScanUnderRateChurn) {
  using namespace heap_sweep;
  sg::xbt::Rng rng(2024);
  const double kCapacity = 1e8;
  Engine e(sg::platform::make_dumbbell(1e9, kCapacity, 0.0));
  RefLink ref(kCapacity);

  std::vector<ActionPtr> actions;
  std::vector<double> engine_finish;  // filled as completions fire

  auto drain = [&](StepLog events) {
    for (const auto& ev : events) {
      EXPECT_EQ(ev.action->state(), ActionState::kDone);
      EXPECT_FALSE(ev.failed);
    }
  };

  // Random schedule: 30 ops at increasing dates, each a start / suspend /
  // resume / priority change. Every op shifts every active flow's rate.
  double t = 0;
  for (int op = 0; op < 30; ++op) {
    t += rng.uniform(0.05, 0.6);
    // Run both models to date t.
    do
      drain(e.run_until(t));
    while (e.now() < t);
    ASSERT_DOUBLE_EQ(e.now(), t);
    ref.run_until(t);

    const double pick = rng.uniform01();
    if (pick < 0.45 || actions.empty()) {
      const double bytes = rng.uniform(1e6, 5e8);
      const double prio = rng.uniform(0.5, 4.0);
      auto a = e.comm_start(0, 1, bytes);
      a->set_priority(prio);
      actions.push_back(a);
      ref.start(bytes, prio);
    } else {
      const int i = static_cast<int>(rng.uniform_int(0, actions.size() - 1));
      if (pick < 0.65) {
        actions[static_cast<size_t>(i)]->suspend();
        if (actions[static_cast<size_t>(i)]->state() == ActionState::kSuspended)
          ref.suspend(i);
      } else if (pick < 0.85) {
        actions[static_cast<size_t>(i)]->resume();
        if (!ref.flow(i).done)
          ref.resume(i);
      } else {
        const double prio = rng.uniform(0.5, 4.0);
        if (actions[static_cast<size_t>(i)]->state() == ActionState::kRunning ||
            actions[static_cast<size_t>(i)]->state() == ActionState::kSuspended) {
          actions[static_cast<size_t>(i)]->set_priority(prio);
          ref.set_weight(i, prio);
        }
      }
    }
  }

  // Resume any still-suspended flows and run both models dry.
  for (size_t i = 0; i < actions.size(); ++i)
    if (actions[i]->state() == ActionState::kSuspended) {
      actions[i]->resume();
      ref.resume(static_cast<int>(i));
    }
  for (int guard = 0; guard < 100000 && e.running_action_count() > 0; ++guard)
    drain(e.run_until());
  ref.run_until(1e9);

  // Every flow completed, at the reference date. The completion *ordering*
  // is implied: identical dates means identical order.
  ASSERT_EQ(actions.size(), ref.flow_count());
  for (size_t i = 0; i < actions.size(); ++i) {
    ASSERT_EQ(actions[i]->state(), ActionState::kDone) << "flow " << i;
    ASSERT_TRUE(ref.flow(static_cast<int>(i)).done) << "flow " << i;
    EXPECT_NEAR(actions[i]->finish_time(), ref.flow(static_cast<int>(i)).finish,
                1e-6 * std::max(1.0, ref.flow(static_cast<int>(i)).finish))
        << "flow " << i;
  }
}

TEST_F(EngineTest, HeapCompletionsAreChronological) {
  // Many independent execs with random sizes completing in bursts: events
  // must fire in non-decreasing time order and at their own finish dates.
  sg::xbt::Rng rng(7);
  Platform p;
  for (int i = 0; i < 64; ++i)
    p.add_host(sg::xbt::format("h%d", i), 1e9);
  Engine e(std::move(p));
  std::vector<ActionPtr> actions;
  for (int i = 0; i < 256; ++i)
    actions.push_back(e.exec_start(i % 64, rng.uniform(1e7, 1e10)));

  double last = 0;
  size_t fired = 0;
  for (int guard = 0; guard < 100000 && fired < actions.size(); ++guard) {
    for (const auto& ev : e.run_until()) {
      EXPECT_GE(e.now(), last);
      last = e.now();
      EXPECT_DOUBLE_EQ(ev.action->finish_time(), e.now());
      ++fired;
    }
  }
  EXPECT_EQ(fired, actions.size());
  EXPECT_EQ(e.running_action_count(), 0u);
}

TEST_F(EngineTest, ZeroWorkActionCompletesOnStarvedResource) {
  // A 0-flop exec on a host whose availability is currently 0 must still
  // complete immediately: its solver allocation never changes (0 -> 0), so
  // the completion has to be scheduled at creation, not via a rate refresh.
  Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  spec.availability = sg::trace::Trace("a", {{0.0, 0.0}}, -1.0);  // starved
  p.add_host(spec);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 0.0);
  EXPECT_DOUBLE_EQ(run_until_done(e, a), 0.0);
  EXPECT_EQ(a->state(), ActionState::kDone);
}

TEST_F(EngineTest, CanceledActionsAreNotPinnedByStaleHeapEntries) {
  // Cancelling actions whose completion dates lie far in the future leaves
  // stale heap entries buried under the top; compaction must release them
  // (and the actions they hold) without waiting for simulated time to reach
  // those dates.
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  std::vector<std::weak_ptr<Action>> ghosts;
  {
    std::vector<ActionPtr> sleeps;
    for (int i = 0; i < 20; ++i)
      sleeps.push_back(e.sleep_start(0, 1e9));
    for (auto& s : sleeps) {
      s->cancel();
      ghosts.push_back(s);
    }
  }
  e.run_until();  // deliver the cancellation events
  // Any new scheduling triggers the stale-dominated compaction.
  auto trigger = e.sleep_start(0, 1.0);
  (void)trigger;
  // Drop the delivered log, which holds the last strong refs; the trigger is
  // the valid heap top, so this call reaps nothing.
  e.run_until(0.5);
  int expired = 0;
  for (const auto& g : ghosts)
    expired += g.expired();
  EXPECT_EQ(expired, 20);
}

TEST_F(EngineTest, ReentrantObserverCancelDoesNotDoubleFinish) {
  // A host failure collects its victims up front; an observer that reacts to
  // the first failure by cancelling a sibling must not make the engine
  // finish that sibling twice (regression: stale run_idx_ reuse corrupted
  // the running set).
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e12, 1.0, "a");
  auto b = e.exec_start(0, 1e12, 1.0, "b");
  auto c = e.exec_start(0, 1e12, 1.0, "c");
  e.set_action_observer([&](const Action& act, ActionState, ActionState ns) {
    if (ns == ActionState::kFailed && act.name() == "a")
      b->cancel();  // re-enters finish_action while b is a pending victim
  });
  e.set_host_state(0, false);
  auto events = e.run_until();  // drain pending failure events
  EXPECT_EQ(a->state(), ActionState::kFailed);
  EXPECT_EQ(b->state(), ActionState::kCanceled);
  EXPECT_EQ(c->state(), ActionState::kFailed);
  EXPECT_EQ(e.running_action_count(), 0u);
  // Each action reported exactly once.
  int seen_a = 0, seen_b = 0, seen_c = 0;
  for (const auto& ev : events) {
    seen_a += ev.action.get() == a.get();
    seen_b += ev.action.get() == b.get();
    seen_c += ev.action.get() == c.get();
  }
  EXPECT_EQ(seen_a, 1);
  EXPECT_EQ(seen_b, 1);
  EXPECT_EQ(seen_c, 1);
}

// ---------------------------------------------------------------------------
// Failure propagation through the arena index: victims are found via the
// solver's element lists (cnst -> vars -> actions) and the per-host sleep
// index, never by scanning the running set. These tests pin the delivery
// invariants — most importantly exactly-one-event per failed action.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, PtaskSpanningTwoFailedConstraintsEmitsOneEvent) {
  // A ptask over host 0's CPU and the 0-1 link; host 0 and the link die at
  // the same instant. The action sits on both dead constraints but must
  // emit exactly one failure event.
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto pt = e.ptask_start({0, 1}, {1e12, 1e12}, {{0.0, 1e12}, {0.0, 0.0}});
  auto bystander = e.exec_start(1, 1e12);
  e.run_until(0.5);
  e.set_host_state(0, false);
  e.set_link_state(0, false);
  auto events = e.run_until();
  int pt_failures = 0;
  for (const auto& ev : events)
    if (ev.action.get() == pt.get()) {
      EXPECT_TRUE(ev.failed);
      ++pt_failures;
    }
  EXPECT_EQ(pt_failures, 1) << "action spanning two failed constraints double-delivered";
  EXPECT_EQ(pt->state(), ActionState::kFailed);
  EXPECT_EQ(bystander->state(), ActionState::kRunning) << "unaffected action was touched";
  EXPECT_EQ(e.running_action_count(), 1u);
}

TEST_F(EngineTest, DuplicateElementsOnOneConstraintFailOnce) {
  // Symmetric ptask traffic puts the same variable twice on the same link
  // constraint; the link's death must still deliver a single event.
  Platform p;
  auto a = p.add_host("a", 1e9);
  auto b = p.add_host("b", 1e9);
  auto l = p.add_link("l", 1e8, 0.0);
  p.add_route(a, b, {l});
  Engine e(std::move(p));
  auto pt = e.ptask_start({0, 1}, {0.0, 0.0}, {{0.0, 1e12}, {1e12, 0.0}});
  e.run_until(0.25);
  e.set_link_state(0, false);
  auto events = e.run_until();
  int failures = 0;
  for (const auto& ev : events)
    if (ev.action.get() == pt.get() && ev.failed)
      ++failures;
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(pt->state(), ActionState::kFailed);
}

TEST_F(EngineTest, LoopbackCommDiesWithItsHost) {
  Platform p;
  p.add_host("h", 1e9);
  p.add_host("other", 1e9);
  Engine e(std::move(p));
  auto c = e.comm_start(0, 0, 1e12);
  e.run_until(0.1);
  EXPECT_EQ(c->state(), ActionState::kRunning);
  e.set_host_state(0, false);
  auto events = e.run_until();
  int failures = 0;
  for (const auto& ev : events)
    if (ev.action.get() == c.get() && ev.failed)
      ++failures;
  EXPECT_EQ(failures, 1) << "loopback comm must die with its host";
  EXPECT_EQ(c->state(), ActionState::kFailed);

  // Starting a loopback transfer on a dead host fails immediately, like a
  // transfer over a dead route.
  auto dead = e.comm_start(0, 0, 100.0);
  EXPECT_EQ(dead->state(), ActionState::kFailed);

  // After recovery the loopback works again at full speed.
  e.set_host_state(0, true);
  e.run_until();
  auto revived = e.comm_start(0, 0, 1e9);
  for (int guard = 0; guard < 1000 && revived->state() == ActionState::kRunning; ++guard)
    e.run_until();
  EXPECT_EQ(revived->state(), ActionState::kDone);
}

TEST_F(EngineTest, SleepIndexKillsOnlyAffectedHost) {
  Platform p;
  p.add_host("a", 1e9);
  p.add_host("b", 1e9);
  Engine e(std::move(p));
  auto s_a1 = e.sleep_start(0, 100.0);
  auto s_b = e.sleep_start(1, 100.0);
  auto s_a2 = e.sleep_start(0, 200.0);
  e.run_until(1.0);
  e.set_host_state(0, false);
  auto events = e.run_until();
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(s_a1->state(), ActionState::kFailed);
  EXPECT_EQ(s_a2->state(), ActionState::kFailed);
  EXPECT_EQ(s_b->state(), ActionState::kRunning);
  // The index stays consistent after the swap-removals: the survivor still
  // completes at its own date.
  EXPECT_DOUBLE_EQ(run_until_done(e, s_b), 100.0);
}

TEST_F(EngineTest, SuspendedActionStillFailsWithItsResource) {
  // A suspended exec keeps its solver variable, so the arena index must
  // still find it when the host dies.
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e12);
  e.run_until(0.5);
  a->suspend();
  e.set_host_state(0, false);
  e.run_until();
  EXPECT_EQ(a->state(), ActionState::kFailed);
}

TEST_F(EngineTest, NamedActionOutlivesEngine) {
  // The action owns its name, and the block pool it lives in is co-owned by
  // its control block, so an ActionPtr — named or not — may legally outlive
  // its engine; destroying it afterwards must not touch freed engine memory
  // (regression caught by ASan).
  ActionPtr survivor_named;
  ActionPtr survivor_plain;
  {
    Platform p;
    p.add_host("h", 1e9);
    Engine e(std::move(p));
    survivor_named = e.exec_start(0, 1e9, 1.0, "long-lived");
    survivor_plain = e.exec_start(0, 1e9);
    run_until_done(e, survivor_named);
    run_until_done(e, survivor_plain);
  }
  // name() reads only the action, not the engine.
  EXPECT_EQ(survivor_named->name(), "long-lived");
  EXPECT_EQ(survivor_plain->name(), "exec");
  survivor_named.reset();
  survivor_plain.reset();
}

TEST_F(EngineTest, NamedAndDefaultActionNames) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  // The creation notify must already see the custom name.
  std::vector<std::string> observed;
  e.set_action_observer([&](const Action& a, ActionState, ActionState ns) {
    if (ns == ActionState::kRunning)
      observed.push_back(a.name());
  });
  auto plain = e.exec_start(0, 1e9);
  auto named = e.exec_start(0, 1e9, 1.0, "my-job");
  auto empty = e.exec_start(0, 1e9, 1.0, "");
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_EQ(observed[0], "exec");
  EXPECT_EQ(observed[1], "my-job");
  EXPECT_EQ(observed[2], "exec") << "an empty name means the kind's default";
  e.set_action_observer(nullptr);
  auto explicit_default = e.sleep_start(0, 1.0, "sleep");
  auto empty_sleep = e.sleep_start(0, 1.0, "");
  EXPECT_EQ(plain->name(), "exec");
  EXPECT_EQ(named->name(), "my-job");
  EXPECT_EQ(empty->name(), "exec");
  EXPECT_EQ(explicit_default->name(), "sleep");
  EXPECT_EQ(empty_sleep->name(), "sleep");
  run_until_done(e, named);
  EXPECT_EQ(named->name(), "my-job") << "name must survive completion";
}

TEST_F(EngineTest, ObserverSeesTransitions) {
  Platform p;
  p.add_host("h", 1e9);
  Engine e(std::move(p));
  int done_count = 0;
  e.set_action_observer([&](const Action&, ActionState, ActionState ns) {
    if (ns == ActionState::kDone)
      ++done_count;
  });
  auto a = e.exec_start(0, 1e9);
  run_until_done(e, a);
  EXPECT_EQ(done_count, 1);
}

// ---------------------------------------------------------------------------
// engine/kill-transit-comms (L07-style host-death semantics). The suite
// keeps the name it had in the retired sharded-core tests, so the test ids
// stay stable.
// ---------------------------------------------------------------------------

class ShardedEngineTest : public EngineTest {
protected:
  void SetUp() override {
    EngineTest::SetUp();
    sg::config::set(kCfgKillTransitComms, false);
  }
  void TearDown() override {
    sg::config::set(kCfgKillTransitComms, false);
    EngineTest::TearDown();
  }
};

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
  e.run_until(0.0);
  e.set_host_state(0, false);  // source host dies mid-transfer
  for (const auto& ev : e.run_until())
    EXPECT_FALSE(ev.failed) << "CM02 transit comm must not fail with its endpoint";
  // It still completes at the normal date (1e8 B at 1e8 B/s = 1 s).
  while (comm->state() == ActionState::kRunning)
    e.run_until();
  EXPECT_EQ(comm->state(), ActionState::kDone);
  EXPECT_NEAR(comm->finish_time(), 1.0, 1e-9);
}

TEST_F(ShardedEngineTest, KillTransitCommsFailsCommsOfDeadEndpoints) {
  sg::config::set(kCfgKillTransitComms, true);
  Engine e(make_star3());
  auto out = e.comm_start(0, 1, 1e8);       // dead host is the source
  auto in = e.comm_start(2, 0, 1e8);        // dead host is the destination
  auto bystander = e.comm_start(1, 2, 1e8); // does not touch host 0
  e.run_until(0.0);
  e.set_host_state(0, false);
  int failed = 0;
  for (const auto& ev : e.run_until()) {
    EXPECT_TRUE(ev.failed);
    EXPECT_TRUE(ev.action.get() == out.get() || ev.action.get() == in.get());
    ++failed;
  }
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(out->state(), ActionState::kFailed);
  EXPECT_EQ(in->state(), ActionState::kFailed);
  EXPECT_EQ(bystander->state(), ActionState::kRunning);
  while (bystander->state() == ActionState::kRunning)
    e.run_until();
  EXPECT_EQ(bystander->state(), ActionState::kDone);
}

TEST_F(ShardedEngineTest, KillTransitLoopbackCommFailsExactlyOnce) {
  sg::config::set(kCfgKillTransitComms, true);
  Engine e(make_star3());
  auto loop = e.comm_start(0, 0, 1e8);  // loopback: registered once, also on
  e.run_until(0.0);                     // the loopback constraint
  e.set_host_state(0, false);
  int failures = 0;
  for (const auto& ev : e.run_until())
    if (ev.action.get() == loop.get())
      ++failures;
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(loop->state(), ActionState::kFailed);
}

TEST_F(ShardedEngineTest, KillTransitCompletedCommLeavesNoStaleIndexEntry) {
  sg::config::set(kCfgKillTransitComms, true);
  Engine e(make_star3());
  auto first = e.comm_start(0, 1, 1e6);
  while (first->state() == ActionState::kRunning)
    e.run_until();
  EXPECT_EQ(first->state(), ActionState::kDone);
  auto second = e.comm_start(1, 2, 1e8);  // re-uses the recycled slot
  e.run_until(0.0);
  e.set_host_state(0, false);  // must not fail anything (old entry is gone)
  for (const auto& ev : e.run_until(0.1))  // second's completion is at t=1
    EXPECT_FALSE(ev.failed);
  EXPECT_EQ(second->state(), ActionState::kRunning);
}

TEST_F(ShardedEngineTest, KillTransitSuspendedCommFailsToo) {
  sg::config::set(kCfgKillTransitComms, true);
  Engine e(make_star3());
  auto comm = e.comm_start(0, 1, 1e8);
  e.run_until(0.0);
  comm->suspend();
  e.set_host_state(1, false);
  e.run_until();
  EXPECT_EQ(comm->state(), ActionState::kFailed);
}

// ---------------------------------------------------------------------------
// Multi-zone platforms: one solver over every zone's links
// ---------------------------------------------------------------------------

// Two 4-host cluster zones behind a WAN fat pipe, plus one unzoned host on a
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

TEST_F(ShardedEngineTest, CrossZoneCommSpansThreeShards) {
  Engine e(make_two_zone_platform());
  // z00 -> z10 crosses zone 0's links, the WAN and zone 1's links.
  std::set<std::string> crossed;
  for (LinkId l : e.platform().route(0, 4))
    crossed.insert(e.platform().link(l).name);
  for (const char* name : {"z00-link", "z0-backbone", "wan", "z1-backbone", "z10-link"})
    EXPECT_EQ(crossed.count(name), 1u) << name;

  auto comm = e.comm_start(0, 4, 1e6);
  e.run_until(0.0);  // assign rates without firing the completion
  // One solver variable, on a constraint of every link of the route.
  EXPECT_EQ(e.sharing_system().variable_count(), 1u);
  // Rate: min(uplink 1e8, backbone, wan fat pipe, downlink) = 1e8.
  EXPECT_NEAR(comm->rate(), 1e8, 1.0);
  // A flow inside zone 1 on the far side shares z10's downlink with it.
  auto local = e.comm_start(5, 4, 1e6);
  e.run_until(0.0);
  EXPECT_NEAR(comm->rate(), 5e7, 1.0);
  EXPECT_NEAR(local->rate(), 5e7, 1.0);
  EXPECT_NEAR(run_until_done(e, comm), 0.02, 1e-9);
  EXPECT_NEAR(local->finish_time(), 0.02, 1e-9);
}

TEST_F(ShardedEngineTest, IntraZoneChurnLeavesOtherShardsCold) {
  Engine e(make_two_zone_platform());
  // Park a flow inside zone 1: churn inside zone 0 must never re-solve it.
  auto parked = e.comm_start(4, 5, 1e18);
  e.run_until(0.0);
  const double parked_rate = parked->rate();
  const auto before = e.sharing_system().solve_stats();

  auto flow = e.comm_start(0, 1, 1e6);
  int restarts = 0;
  for (int i = 0; i < 200; ++i) {
    for (const auto& ev : e.run_until())
      if (ev.action.get() == flow.get()) {
        flow = e.comm_start(0, 1, 1e6);
        ++restarts;
      }
  }
  const auto after = e.sharing_system().solve_stats();
  EXPECT_EQ(restarts, 200);
  EXPECT_EQ(after.full_solves, before.full_solves);
  // Every solve re-solved the churned flow alone.
  EXPECT_GT(after.solves, before.solves);
  EXPECT_EQ(after.vars_visited - before.vars_visited, after.solves - before.solves);
  EXPECT_EQ(parked->state(), ActionState::kRunning);
  EXPECT_EQ(parked->rate(), parked_rate);
}

// ---------------------------------------------------------------------------
// The phase profiler, the tie-break and run_until() semantics. The suite
// keeps the name it had in the retired parallel-stepping tests, so the test
// ids stay stable.
// ---------------------------------------------------------------------------

using ParallelStepTest = EngineTest;

// Multi-zone platform with square-wave state traces on two hosts per zone and
// on a stride of links (private up/down links and some backbones).
Platform make_flapping_platform(int zones, int per_zone) {
  Platform p;
  for (int z = 0; z < zones; ++z) {
    ClusterZoneSpec zone;
    zone.name = "z" + std::to_string(z);
    zone.count = per_zone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1e8;
    zone.link_latency = 5e-5;
    zone.backbone_bandwidth = 6e8;
    zone.backbone_latency = 1e-4;
    zone.backbone_fatpipe = (z % 2 == 1);
    p.add_cluster_zone(zone);
  }
  for (int z = 1; z < zones; ++z) {
    const LinkId wan = p.add_link("wan" + std::to_string(z), 4e8, 1e-3, SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
  }
  for (int z = 0; z < zones; ++z)
    for (int k : {0, 2}) {
      const int h = z * per_zone + k;
      p.host_mutable(h).state = sg::trace::square_wave(
          "hf" + std::to_string(h), 1.0, 0.013 + 0.0017 * h, 0.0, 0.004 + 0.0011 * k);
    }
  for (LinkId l = 1; l < static_cast<LinkId>(p.link_count()); l += 5)
    p.link_mutable(l).state = sg::trace::square_wave(
        "lf" + std::to_string(l), 1.0, 0.019 + 0.0013 * l, 0.0, 0.0035);
  p.seal();
  return p;
}

TEST_F(ParallelStepTest, PhaseStatsSanity) {
  const bool prev_profile = sg::config::get(kCfgProfile);
  sg::config::set(kCfgProfile, true);
  Engine e(make_flapping_platform(3, 4));
  for (int h = 0; h < 12; ++h)
    e.exec_start(h, 1e6 * (1 + h % 3));
  for (int i = 0; i < 8; ++i)
    e.run_until();
  const Engine::PhaseStats s1 = e.phase_stats();
  EXPECT_GT(s1.rounds, 0u);
  EXPECT_GT(s1.events, 0u);
  EXPECT_GT(s1.total_ns, 0u);
  // The four phases tile each round's wall time exactly.
  const auto phase_sum = [](const Engine::PhaseStats& s) {
    return s.solve_ns + s.pick_ns + s.advance_ns + s.epilogue_ns;
  };
  EXPECT_LE(phase_sum(s1), s1.total_ns);
  EXPECT_GE(phase_sum(s1), s1.total_ns / 2);
  // No worker fan-out: the engine runs on the caller's thread only.
  EXPECT_EQ(s1.parallel_ns, 0u);
  EXPECT_TRUE(s1.lane_busy_ns.empty());
  EXPECT_EQ(e.thread_count(), 1);
  // Counters are cumulative: more rounds only grow them.
  for (int h = 0; h < 12; ++h)
    if (e.host_is_on(h))
      e.exec_start(h, 2e6);
  for (int i = 0; i < 8; ++i)
    e.run_until();
  const Engine::PhaseStats s2 = e.phase_stats();
  EXPECT_GE(s2.rounds, s1.rounds);
  EXPECT_GE(s2.events, s1.events);
  EXPECT_GE(s2.total_ns, s1.total_ns);
  EXPECT_GE(s2.solve_ns, s1.solve_ns);
  EXPECT_GE(s2.pick_ns, s1.pick_ns);
  EXPECT_GE(s2.advance_ns, s1.advance_ns);
  EXPECT_GE(s2.epilogue_ns, s1.epilogue_ns);
  // Profiling off: zero overhead, zero stats.
  sg::config::set(kCfgProfile, false);
  Engine off(make_flapping_platform(2, 4));
  off.exec_start(0, 1e6);
  off.run_until();
  EXPECT_EQ(off.phase_stats().total_ns, 0u);
  EXPECT_EQ(off.phase_stats().rounds, 0u);
  sg::config::set(kCfgProfile, prev_profile);
}

TEST_F(ParallelStepTest, TraceEventBeatsCompletionAtTheSameDate) {
  // A 1e9-flop exec on a 1e9 flop/s host completes at exactly t=1.0; a state
  // trace kills the host at exactly t=1.0. Engine::kTraceEventsBeforeCompletions
  // says the host dies FIRST, so the exec must fail.
  Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  spec.state = sg::trace::Trace("die", {{0.0, 1.0}, {1.0, 0.0}}, -1.0);
  p.add_host(spec);
  p.seal();
  Engine e(std::move(p));
  auto a = e.exec_start(0, 1e9);
  bool saw = false, failed = false;
  for (int i = 0; i < 10 && !saw; ++i)
    for (const auto& ev : e.run_until())
      if (ev.action.get() == a.get()) {
        saw = true;
        failed = ev.failed;
      }
  ASSERT_TRUE(saw);
  EXPECT_TRUE(failed) << "completion was delivered before the equal-date trace event";
  EXPECT_EQ(a->state(), ActionState::kFailed);
  EXPECT_DOUBLE_EQ(a->finish_time(), 1.0);
  EXPECT_FALSE(e.host_is_on(0));
}

TEST_F(EngineTest, SameDateCompletionsComeOutInStartOrder) {
  // Eight execs on eight hosts, started in host order. At t=1 the host
  // scales halve in reverse host order, so the solver refreshes the rates,
  // and the engine pushes the new completion dates, last-started first. Every
  // exec then completes at exactly t=3; one round must deliver all eight,
  // in start order.
  constexpr int kHosts = 8;
  Platform p;
  for (int h = 0; h < kHosts; ++h)
    p.add_host("h" + std::to_string(h), 1.0);
  Engine e(std::move(p));
  std::vector<ActionPtr> execs;
  for (int h = 0; h < kHosts; ++h)
    execs.push_back(e.exec_start(h, 2.0));
  EXPECT_TRUE(e.run_until(1.0).empty());
  for (int h = kHosts; h-- > 0;)
    e.set_host_scale(h, 0.5);
  const StepLog log = e.run_until();
  ASSERT_EQ(log.size(), static_cast<size_t>(kHosts));
  for (int h = 0; h < kHosts; ++h) {
    EXPECT_EQ(log[static_cast<size_t>(h)].action, execs[static_cast<size_t>(h)]) << "position " << h;
    EXPECT_EQ(execs[static_cast<size_t>(h)]->finish_time(), 3.0);
  }
}

TEST_F(ParallelStepTest, SameDateMultiShardBatch) {
  // Three zones, one exec each, all completing at EXACTLY t=1.0 — plus a
  // state trace killing the middle zone's host at exactly t=1.0, so that
  // exec fails while its neighbours complete. One run_until() must deliver
  // all three events of that date.
  constexpr int kZones = 3;
  Platform p;
  for (int z = 0; z < kZones; ++z) {
    ClusterZoneSpec zone;
    zone.name = "b" + std::to_string(z);
    zone.count = 2;
    zone.host_speed = 1e9;
    p.add_cluster_zone(zone);
  }
  p.host_mutable(2).state = sg::trace::Trace("die", {{0.0, 1.0}, {1.0, 0.0}}, -1.0);
  p.seal();
  Engine e(std::move(p));
  ASSERT_EQ(e.platform().zone_count(), static_cast<size_t>(kZones));
  std::vector<ActionPtr> execs;
  for (int z = 0; z < kZones; ++z)
    execs.push_back(e.exec_start(z * 2, 1e9));  // completes at exactly 1.0
  const auto fired = e.run_until();
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  ASSERT_EQ(fired.size(), 3u) << "same-date events must come out of one run_until()";
  // The trace event applies first (kTraceEventsBeforeCompletions): zone 1's
  // failure leads, then both completions.
  EXPECT_EQ(fired[0].action.get(), execs[1].get());
  EXPECT_TRUE(fired[0].failed) << "equal-date trace event must beat the completion";
  for (size_t k : {size_t{1}, size_t{2}}) {
    EXPECT_FALSE(fired[k].failed);
    EXPECT_TRUE(fired[k].action.get() == execs[0].get() || fired[k].action.get() == execs[2].get());
  }
  EXPECT_NE(fired[1].action.get(), fired[2].action.get());
  for (int z = 0; z < kZones; ++z)
    EXPECT_DOUBLE_EQ(execs[static_cast<size_t>(z)]->finish_time(), 1.0);
  EXPECT_TRUE(e.run_until().empty());
}

TEST_F(ParallelStepTest, RunUntilJumpsToDeadlineWhenNothingFires) {
  Platform p;
  p.add_host("h", 1e9);
  p.seal();
  Engine e(std::move(p));
  // Nothing pending at all: +inf deadline must not move time.
  EXPECT_TRUE(e.run_until().empty());
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  // Finite deadline with nothing due: empty span, clock lands on it.
  EXPECT_TRUE(e.run_until(0.5).empty());
  EXPECT_DOUBLE_EQ(e.now(), 0.5);
  // An event beyond the deadline stays queued; the deadline wins.
  auto a = e.exec_start(0, 1e9);  // completes at 1.5
  EXPECT_TRUE(e.run_until(1.0).empty());
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  const auto fired = e.run_until(10.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].action.get(), a.get());
  EXPECT_NEAR(e.now(), 1.5, 1e-9);
}

TEST_F(ParallelStepTest, RunUntilSpanStaysValidUntilNextCall) {
  Platform p;
  p.add_host("h", 1e9);
  p.seal();
  Engine e(std::move(p));
  e.exec_start(0, 1e8);
  e.exec_start(0, 1e8);
  const auto fired = e.run_until();
  ASSERT_EQ(fired.size(), 2u);
  // The span is a view into engine-owned storage: readable after the call,
  // and starting or cancelling activities does not touch it...
  auto c = e.exec_start(0, 1e8);
  c->cancel();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].action->state(), ActionState::kDone);
  EXPECT_EQ(fired[1].action->state(), ActionState::kDone);
  // ...while the cancellation is delivered by the next call.
  const auto next = e.run_until();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].action.get(), c.get());
}

// ---------------------------------------------------------------------------
// Pinned event logs. Each test runs a seeded closed-loop churn (one flow in
// flight per slot, a finished flow replaced by the slot's next one) and pins
// an FNV-1a-64 digest of the event log plus the final clock. A change that
// moves a completion date by one ulp moves the digest, so any change to
// what the simulator computes shows up here as a visible re-pin.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words, as the perfbench driver folds its event log.
struct EventDigest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
};

/// Replace-on-finish churn: `slots` flows in flight, `events` completions,
/// then a drain. `next_flow(slot, rng, &src, &dst, &bytes)` draws a flow.
template <typename NextFlow>
std::pair<std::uint64_t, double> churn_digest(Engine& e, int slots, int events, std::uint64_t seed,
                                              NextFlow next_flow) {
  sg::xbt::Rng rng(seed);
  EventDigest digest;
  auto start = [&](int slot) {
    int src = 0, dst = 0;
    double bytes = 0;
    next_flow(slot, rng, &src, &dst, &bytes);
    e.comm_start(src, dst, bytes)->user_data = reinterpret_cast<void*>(static_cast<std::intptr_t>(slot));
  };
  for (int s = 0; s < slots; ++s)
    start(s);
  int done = 0;
  while (e.running_action_count() > 0) {
    for (const ActionEvent& ev : e.run_until()) {
      const int slot = static_cast<int>(reinterpret_cast<std::intptr_t>(ev.action->user_data));
      digest.add(static_cast<std::uint64_t>(slot));
      digest.add(static_cast<std::uint64_t>(ev.failed));
      digest.add(ev.action->finish_time());
      digest.add(ev.action->total());
      if (++done <= events)
        start(slot);
    }
  }
  digest.add(e.now());
  return {digest.h, e.now()};
}

// Big coupled closures: four 100-node Waxman graphs hanging off a core
// router, 200 flows per graph between random pairs of one graph, so every
// event re-solves a component of ~200 flows (perfbench's waxman_coupled).
TEST_F(EngineTest, CoupledWaxmanChurnEventLogIsPinned) {
  constexpr int kGraphs = 4;
  constexpr int kNodes = 100;
  Platform p;
  const auto core = p.add_router("core");
  for (int g = 0; g < kGraphs; ++g) {
    sg::topo::WaxmanSpec spec;
    spec.n_nodes = kNodes;
    spec.seed = 7919 + 104729 * static_cast<std::uint64_t>(g);
    spec.latency_per_unit = 2e-6;
    const std::string prefix = "g" + std::to_string(g) + "-n";
    const auto zone = sg::topo::add_to_platform(p, sg::topo::generate_waxman(spec), prefix);
    const LinkId up = p.add_link(prefix + "up", 1.25e8, 1e-3);
    p.add_edge(p.zone_gateway(zone), core, up);
  }
  p.seal();
  Engine e(std::move(p));
  const auto [digest, clock] =
      churn_digest(e, kGraphs * 200, 2000, 1, [&](int slot, sg::xbt::Rng& rng, int* src, int* dst, double* bytes) {
        const int base = (slot % kGraphs) * kNodes;
        const int s = static_cast<int>(rng.uniform_int(0, kNodes - 1));
        *src = base + s;
        *dst = base + static_cast<int>((s + 1 + rng.uniform_int(0, kNodes - 2)) % kNodes);
        *bytes = std::pow(10.0, rng.uniform(4.0, 6.0));
      });
  EXPECT_EQ(digest, 0xac0926126a05f952ull) << std::hex << digest;
  EXPECT_EQ(clock, 13.3202783988514) << sg::xbt::format("%.17g", clock);
  const auto& stats = e.sharing_system().solve_stats();
  EXPECT_GT(stats.vars_visited, 50 * stats.solves) << "closures are not coupled";
}

// Small closures: four cluster zones with fat-pipe backbones joined by
// fat-pipe WAN links; each flow has its hosts' private links to itself, so a
// solve touches one or two flows (perfbench's zones_spread regime).
TEST_F(EngineTest, ClusterChurnEventLogIsPinned) {
  constexpr int kZones = 4;
  constexpr int kPerZone = 32;
  Platform p;
  for (int z = 0; z < kZones; ++z) {
    ClusterZoneSpec zone;
    zone.name = "c" + std::to_string(z);
    zone.count = kPerZone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1.25e8;
    zone.link_latency = 5e-5;
    zone.backbone_bandwidth = 1.25e9;
    zone.backbone_latency = 1e-4;
    zone.backbone_fatpipe = true;
    p.add_cluster_zone(zone);
  }
  for (int z = 1; z < kZones; ++z) {
    const LinkId wan = p.add_link("wan" + std::to_string(z), 1.25e9, 2e-3, SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
  }
  p.seal();
  Engine e(std::move(p));
  const int hosts = kZones * kPerZone;
  const auto [digest, clock] =
      churn_digest(e, hosts / 2, 10000, 7, [&](int slot, sg::xbt::Rng& rng, int* src, int* dst, double* bytes) {
        // Slot s owns hosts 2s and 2s+1; one flow in eight leaves the zone.
        *src = 2 * slot;
        *dst = rng.uniform01() < 0.125 ? static_cast<int>((2 * slot + 1 + kPerZone * (1 + rng.uniform_int(0, kZones - 2))) % hosts)
                                       : 2 * slot + 1;
        *bytes = std::pow(10.0, rng.uniform(3.0, 6.0));
      });
  EXPECT_EQ(digest, 0xd8293ad5ac9e1f1dull) << std::hex << digest;
  EXPECT_EQ(clock, 0.29455861752134094) << sg::xbt::format("%.17g", clock);
  const auto& stats = e.sharing_system().solve_stats();
  EXPECT_LT(stats.vars_visited, 2 * stats.solves) << "closures are not small";
}

// ---------------------------------------------------------------------------
// The typed config registry
// ---------------------------------------------------------------------------

TEST(ConfigRegistryTest, TypedGettersReturnDeclaredValues) {
  declare_engine_config();
  sg::kernel::declare_context_config();
  EXPECT_GE(sg::config::get(kCfgTcpGamma), 0.0);
  EXPECT_FALSE(sg::config::get(kCfgKillTransitComms));
  const long guard = sg::config::get(sg::kernel::kCfgContextGuardPages);
  sg::config::set(sg::kernel::kCfgContextGuardPages, 4);
  EXPECT_EQ(sg::config::get(sg::kernel::kCfgContextGuardPages), 4);
  sg::config::set(sg::kernel::kCfgContextGuardPages, guard);
}

TEST(ConfigRegistryTest, TypeMismatchThrows) {
  declare_engine_config();
  sg::kernel::declare_context_config();
  // engine/kill-transit-comms is a flag; reading it through an IntKey is a
  // bug in the caller and must throw, not silently coerce.
  EXPECT_THROW(sg::config::get(sg::config::IntKey{"engine/kill-transit-comms"}),
               sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::get(sg::config::NumberKey{"contexts/guard-pages"}),
               sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::set(sg::config::FlagKey{"contexts/stack-size"}, true),
               sg::xbt::InvalidArgument);
}

TEST(ConfigRegistryTest, UnknownKeyDiagnosticListsValidKeys) {
  declare_engine_config();
  try {
    sg::config::get(sg::config::FlagKey{"engine/no-such-key"});
    FAIL() << "expected InvalidArgument";
  } catch (const sg::xbt::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown config key: engine/no-such-key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("engine/kill-transit-comms"), std::string::npos) << msg;
    EXPECT_NE(msg.find("engine/profile"), std::string::npos) << msg;
  }
}

TEST(ConfigRegistryTest, IntRangeIsEnforced) {
  sg::kernel::declare_context_config();
  const auto key = sg::kernel::kCfgContextGuardPages;  // declared range [0, 64]
  const long guard = sg::config::get(key);
  EXPECT_THROW(sg::config::set(key, -1), sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::set(key, 1000), sg::xbt::InvalidArgument);
  // String input gets the same check: a value out of range or not an integer
  // throws instead of being clamped, and the stored value stays as it was.
  for (const char* bad : {"1e9", "-3", "1.5"})
    EXPECT_THROW(sg::config::apply(std::string("contexts/guard-pages:") + bad),
                 sg::xbt::InvalidArgument)
        << bad;
  EXPECT_EQ(sg::config::get(key), guard);
}

TEST(ConfigRegistryTest, KeysEnumerationDocumentsEnvSeeds) {
  declare_engine_config();
  sg::kernel::declare_context_config();
  bool saw_profile = false, saw_guard = false;
  for (const auto& info : sg::config::keys()) {
    if (info.name == "engine/profile") {
      saw_profile = true;
      EXPECT_EQ(info.env, "SG_PROFILE");
      EXPECT_EQ(info.type, sg::config::Type::kFlag);
      EXPECT_FALSE(info.description.empty());
    }
    if (info.name == "contexts/guard-pages") {
      saw_guard = true;
      EXPECT_TRUE(info.env.empty());  // set from code only
      EXPECT_EQ(info.type, sg::config::Type::kInt);
      EXPECT_FALSE(info.description.empty());
    }
  }
  EXPECT_TRUE(saw_profile);
  EXPECT_TRUE(saw_guard);
}

TEST(ConfigRegistryTest, ApplyAndTypedAccessShareOneValue) {
  // Name-keyed apply() and the typed accessors read and write the same
  // value.
  sg::kernel::declare_context_config();
  const auto key = sg::kernel::kCfgContextGuardPages;
  const long guard = sg::config::get(key);
  sg::config::apply("contexts/guard-pages:2");
  EXPECT_EQ(sg::config::get(key), 2);
  sg::config::set(key, 3);
  sg::config::apply("contexts/guard-pages:" + std::to_string(sg::config::get(key) + 1));
  EXPECT_EQ(sg::config::get(key), 4);
  sg::config::set(key, guard);
}

TEST(ConfigRegistryTest, ApplyReadsNumbersAsWholeTokens) {
  declare_engine_config();
  const double gamma = sg::config::get(kCfgTcpGamma);
  for (const char* bad : {"abc", "1.5x", "", " ", "1 2"})
    EXPECT_THROW(sg::config::apply(std::string("network/tcp-gamma:") + bad),
                 sg::xbt::InvalidArgument)
        << "'" << bad << "'";
  EXPECT_EQ(sg::config::get(kCfgTcpGamma), gamma);
  sg::config::apply("network/tcp-gamma: 131072 ");
  EXPECT_EQ(sg::config::get(kCfgTcpGamma), 131072.0);
  sg::config::set(kCfgTcpGamma, gamma);
}

TEST(ConfigRegistryTest, FlagLiteralsAreTheSameOnApplyAndEnv) {
  declare_engine_config();
  const bool profile = sg::config::get(kCfgProfile);
  for (const char* on : {"1", "true", "on", "yes"}) {
    sg::config::set(kCfgProfile, false);
    sg::config::apply(std::string("engine/profile:") + on);
    EXPECT_TRUE(sg::config::get(kCfgProfile)) << on;
  }
  for (const char* off : {"0", "false", "off", "no"}) {
    sg::config::set(kCfgProfile, true);
    sg::config::apply(std::string("engine/profile:") + off);
    EXPECT_FALSE(sg::config::get(kCfgProfile)) << off;
  }
  for (const char* bad : {"2", "1.0", "maybe", ""})
    EXPECT_THROW(sg::config::apply(std::string("engine/profile:") + bad),
                 sg::xbt::InvalidArgument)
        << "'" << bad << "'";
  sg::config::set(kCfgProfile, profile);

  // The env seed reads the same literals (test-only key and variable).
  ::setenv("SG_TEST_CFG_FLAG", "yes", 1);
  const sg::config::FlagKey seeded{"test/env-flag"};
  sg::config::declare(seeded, false, "test-only key", "SG_TEST_CFG_FLAG");
  ::unsetenv("SG_TEST_CFG_FLAG");
  EXPECT_TRUE(sg::config::get(seeded));
  ::setenv("SG_TEST_CFG_BAD_FLAG", "2", 1);
  EXPECT_THROW(sg::config::declare(sg::config::FlagKey{"test/env-bad-flag"}, false,
                                   "test-only key", "SG_TEST_CFG_BAD_FLAG"),
               sg::xbt::InvalidArgument);
  ::unsetenv("SG_TEST_CFG_BAD_FLAG");
}

TEST(ConfigRegistryTest, BadEnvSeedThrowsNamingVariableAndKey) {
  const sg::config::NumberKey key{"test/env-number"};
  for (const char* bad : {"abc", "1.5x", "", "11"}) {  // "11" is outside [0, 10]
    ::setenv("SG_TEST_CFG_NUMBER", bad, 1);
    try {
      sg::config::declare(key, 1.0, 0.0, 10.0, "test-only key", "SG_TEST_CFG_NUMBER");
      ADD_FAILURE() << "expected InvalidArgument for '" << bad << "'";
    } catch (const sg::xbt::InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("SG_TEST_CFG_NUMBER"), std::string::npos) << msg;
      EXPECT_NE(msg.find("test/env-number"), std::string::npos) << msg;
    }
  }
  // A refused seed leaves the key undeclared; a good one seeds it.
  EXPECT_THROW(sg::config::get(key), sg::xbt::InvalidArgument);
  ::setenv("SG_TEST_CFG_NUMBER", " 7.25 ", 1);
  sg::config::declare(key, 1.0, 0.0, 10.0, "test-only key", "SG_TEST_CFG_NUMBER");
  ::unsetenv("SG_TEST_CFG_NUMBER");
  EXPECT_EQ(sg::config::get(key), 7.25);
}

TEST(ConfigRegistryTest, RedeclaringUnderAnotherTypeThrows) {
  const sg::config::NumberKey key{"test/retyped"};
  sg::config::declare(key, 1.0, 0.0, 2.0, "test-only key");
  EXPECT_THROW(sg::config::declare(sg::config::IntKey{"test/retyped"}, 1, 0, 2, "test-only key"),
               sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::declare(sg::config::FlagKey{"test/retyped"}, true, "test-only key"),
               sg::xbt::InvalidArgument);
  sg::config::set(key, 1.5);
  sg::config::declare(key, 1.0, 0.0, 2.0, "test-only key");  // same type: keeps the value
  EXPECT_EQ(sg::config::get(key), 1.5);
}

TEST(ConfigRegistryTest, NumberKeysRefuseNanAndOutOfRange) {
  declare_engine_config();
  const double gamma = sg::config::get(kCfgTcpGamma);
  const double factor = sg::config::get(kCfgBandwidthFactor);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sg::config::set(kCfgTcpGamma, nan), sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::set(kCfgTcpGamma, inf), sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::set(kCfgLoopbackBw, -1.0), sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::apply("network/bandwidth-factor:nan"), sg::xbt::InvalidArgument);
  try {
    sg::config::set(kCfgBandwidthFactor, -1.0);
    FAIL() << "expected InvalidArgument";
  } catch (const sg::xbt::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("network/bandwidth-factor"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sg::config::get(kCfgTcpGamma), gamma);
  EXPECT_EQ(sg::config::get(kCfgBandwidthFactor), factor);
  // Every value the test suite sets is inside the declared ranges.
  sg::config::set(kCfgTcpGamma, 1e18);
  sg::config::set(kCfgBandwidthFactor, 0.5);
  sg::config::set(kCfgBandwidthFactor, 1.0);
  sg::config::set(kCfgTcpGamma, gamma);
  sg::config::set(kCfgBandwidthFactor, factor);
}

TEST(ConfigRegistryTest, ApplyChecksEveryItemBeforeStoringAny) {
  declare_engine_config();
  const double gamma = sg::config::get(kCfgTcpGamma);
  EXPECT_THROW(sg::config::apply("network/tcp-gamma:1000,network/bandwidth-factor:-1"),
               sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::apply("network/tcp-gamma:1000,network/no-such-key:1"),
               sg::xbt::InvalidArgument);
  EXPECT_EQ(sg::config::get(kCfgTcpGamma), gamma);
}

}  // namespace
