/// Tests for the simulation kernel: actor scheduling, rendezvous
/// communication, timeouts, suspension, kills, failures, restarts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"
#include "platform/builders.hpp"
#include "xbt/exception.hpp"
#include "xbt/str.hpp"

#include "ideal_network.hpp"

namespace {

using namespace sg::kernel;
using sg::platform::Platform;

class KernelTest : public ::testing::Test {
protected:
  static Platform two_hosts() { return sg::platform::make_dumbbell(1e9, 1e8, 0.0); }

private:
  sg::test::IdealNetwork ideal_network_;
};

TEST_F(KernelTest, SingleActorRuns) {
  Kernel k(two_hosts());
  bool ran = false;
  k.spawn("a", 0, [&] { ran = true; });
  k.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(k.deadlocked());
}

TEST_F(KernelTest, ExecuteAdvancesClock) {
  Kernel k(two_hosts());
  double end_time = -1;
  k.spawn("a", 0, [&] {
    k.execute(2e9);
    end_time = k.now();
  });
  k.run();
  EXPECT_DOUBLE_EQ(end_time, 2.0);
}

TEST_F(KernelTest, SleepOrdering) {
  Kernel k(two_hosts());
  std::vector<std::string> order;
  k.spawn("slow", 0, [&] {
    k.sleep_for(2.0);
    order.push_back("slow");
  });
  k.spawn("fast", 1, [&] {
    k.sleep_for(1.0);
    order.push_back("fast");
  });
  const double end = k.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "fast");
  EXPECT_EQ(order[1], "slow");
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST_F(KernelTest, SendRecvTransfersPayloadAndTime) {
  Kernel k(two_hosts());
  int value = 42;
  void* received = nullptr;
  double recv_time = -1;
  ActorId src_id = -1;
  ActorId sender_id = k.spawn("sender", 0, [&] { k.send("mb", &value, 1e8); });
  k.spawn("receiver", 1, [&] {
    received = k.recv("mb", -1.0, &src_id);
    recv_time = k.now();
  });
  k.run();
  EXPECT_EQ(received, &value);
  EXPECT_DOUBLE_EQ(recv_time, 1.0);  // 1e8 bytes at 1e8 B/s
  EXPECT_EQ(src_id, sender_id);
}

TEST_F(KernelTest, RendezvousWaitsForBothSides) {
  Kernel k(two_hosts());
  double send_done = -1;
  k.spawn("sender", 0, [&] {
    k.send("mb", nullptr, 1e8);
    send_done = k.now();
  });
  k.spawn("receiver", 1, [&] {
    k.sleep_for(5.0);  // receiver arrives late
    k.recv("mb");
  });
  k.run();
  EXPECT_DOUBLE_EQ(send_done, 6.0);  // 5s wait + 1s transfer
}

TEST_F(KernelTest, RecvTimeoutThrows) {
  Kernel k(two_hosts());
  bool timed_out = false;
  double when = -1;
  k.spawn("receiver", 0, [&] {
    try {
      k.recv("empty", 0.5);
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
      when = k.now();
    }
  });
  k.run();
  EXPECT_TRUE(timed_out);
  EXPECT_DOUBLE_EQ(when, 0.5);
}

TEST_F(KernelTest, SendTimeoutThrows) {
  Kernel k(two_hosts());
  bool timed_out = false;
  k.spawn("sender", 0, [&] {
    try {
      k.send("nobody", nullptr, 100.0, /*timeout=*/1.5);
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
    }
  });
  k.run();
  EXPECT_TRUE(timed_out);
}

TEST_F(KernelTest, TimeoutMidTransferCancelsPeer) {
  // Tiny timeout on the receiver expires while the (huge) transfer is in
  // flight; the sender sees a network failure.
  Kernel k(two_hosts());
  bool recv_timeout = false;
  bool send_failed = false;
  k.spawn("sender", 0, [&] {
    try {
      k.send("mb", nullptr, 1e12);
    } catch (const sg::xbt::NetworkFailureException&) {
      send_failed = true;
    }
  });
  k.spawn("receiver", 1, [&] {
    try {
      k.recv("mb", 2.0);
    } catch (const sg::xbt::TimeoutException&) {
      recv_timeout = true;
    }
  });
  k.run();
  EXPECT_TRUE(recv_timeout);
  EXPECT_TRUE(send_failed);
}

TEST_F(KernelTest, DetachedSendDelivers) {
  Kernel k(two_hosts());
  double sender_free_at = -1;
  void* got = nullptr;
  int value = 7;
  k.spawn("sender", 0, [&] {
    k.send_detached("mb", &value, 1e8);
    sender_free_at = k.now();  // immediately free
  });
  k.spawn("receiver", 1, [&] { got = k.recv("mb"); });
  k.run();
  EXPECT_DOUBLE_EQ(sender_free_at, 0.0);
  EXPECT_EQ(got, &value);
}

TEST_F(KernelTest, AsyncCommsOverlap) {
  Kernel k(two_hosts());
  double done_at = -1;
  k.spawn("sender", 0, [&] {
    auto c1 = k.send_async("mb1", nullptr, 1e8);
    auto c2 = k.send_async("mb2", nullptr, 1e8);
    k.comm_wait(c1);
    k.comm_wait(c2);
    done_at = k.now();
  });
  k.spawn("receiver", 1, [&] {
    auto c1 = k.recv_async("mb1");
    auto c2 = k.recv_async("mb2");
    k.comm_wait(c2);
    k.comm_wait(c1);
  });
  k.run();
  // The two transfers share the link: 2 x 1e8 bytes at 1e8 B/s total = 2s.
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST_F(KernelTest, CommTestPolling) {
  Kernel k(two_hosts());
  int polls = 0;
  k.spawn("sender", 0, [&] {
    k.sleep_for(1.0);
    k.send("mb", nullptr, 1e8);
  });
  k.spawn("receiver", 1, [&] {
    auto c = k.recv_async("mb");
    while (!k.comm_test(c)) {
      ++polls;
      k.sleep_for(0.5);
    }
  });
  k.run();
  EXPECT_GE(polls, 3);  // ~4 polls: transfer ends at t=2
}

TEST_F(KernelTest, SuspendResumeActor) {
  Kernel k(two_hosts());
  double end_time = -1;
  ActorId worker = k.spawn("worker", 0, [&] {
    k.execute(2e9);  // 2s of work
    end_time = k.now();
  });
  k.spawn("controller", 1, [&] {
    k.sleep_for(1.0);
    k.suspend(worker);
    k.sleep_for(3.0);
    k.resume(worker);
  });
  k.run();
  // 1s of work, 3s frozen, 1s of work.
  EXPECT_DOUBLE_EQ(end_time, 5.0);
}

TEST_F(KernelTest, SelfSuspendUntilResumed) {
  Kernel k(two_hosts());
  double resumed_at = -1;
  ActorId sleeper = k.spawn("sleeper", 0, [&] {
    k.suspend(k.self()->id());
    resumed_at = k.now();
  });
  k.spawn("waker", 1, [&] {
    k.sleep_for(2.5);
    k.resume(sleeper);
  });
  k.run();
  EXPECT_DOUBLE_EQ(resumed_at, 2.5);
}

TEST_F(KernelTest, KillActorRunsRaii) {
  Kernel k(two_hosts());
  bool cleaned_up = false;
  struct Raii {
    bool* flag;
    ~Raii() { *flag = true; }
  };
  ActorId victim = k.spawn("victim", 0, [&] {
    Raii raii{&cleaned_up};
    k.sleep_for(100.0);
  });
  k.spawn("killer", 1, [&] {
    k.sleep_for(1.0);
    k.kill(victim);
  });
  const double end = k.run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_DOUBLE_EQ(end, 1.0);
  EXPECT_FALSE(k.is_alive(victim));
}

TEST_F(KernelTest, KillWakesBlockedPeer) {
  Kernel k(two_hosts());
  bool peer_failed = false;
  ActorId receiver = k.spawn("receiver", 1, [&] { k.recv("mb"); });
  k.spawn("sender", 0, [&] {
    try {
      k.send("mb", nullptr, 1e12);  // huge transfer
    } catch (const sg::xbt::NetworkFailureException&) {
      peer_failed = true;
    }
  });
  k.spawn("killer", 0, [&] {
    k.sleep_for(1.0);
    k.kill(receiver);
  });
  k.run();
  EXPECT_TRUE(peer_failed);
}

TEST_F(KernelTest, ExitSelfTerminates) {
  Kernel k(two_hosts());
  bool after = false;
  k.spawn("quitter", 0, [&] {
    k.exit_self();
    after = true;  // must not run
  });
  k.run();
  EXPECT_FALSE(after);
}

TEST_F(KernelTest, HostFailureKillsResidents) {
  Kernel k(two_hosts());
  bool failure_flagged = false;
  ActorId victim = k.spawn("victim", 0, [&] { k.execute(1e15); });
  k.actor(victim)->on_exit([&](bool failed) { failure_flagged = failed; });
  k.spawn("controller", 1, [&] {
    k.sleep_for(1.0);
    k.host_off(0);
  });
  k.run();
  EXPECT_FALSE(k.is_alive(victim));
  EXPECT_TRUE(failure_flagged);
}

TEST_F(KernelTest, AutoRestartAfterReboot) {
  Kernel k(two_hosts());
  int runs = 0;
  k.spawn("phoenix", 0,
          [&] {
            ++runs;
            Kernel::current()->sleep_for(50.0);
          },
          /*daemon=*/true, /*auto_restart=*/true);
  k.spawn("controller", 1, [&] {
    k.sleep_for(1.0);
    k.host_off(0);
    k.sleep_for(1.0);
    k.host_on(0);
    k.sleep_for(1.0);
  });
  k.run();
  EXPECT_EQ(runs, 2);
}

TEST_F(KernelTest, DaemonsDoNotBlockTermination) {
  Kernel k(two_hosts());
  k.spawn("daemon", 0, [&] {
    while (true)
      k.sleep_for(1.0);
  }, /*daemon=*/true);
  double end_time = -1;
  k.spawn("main", 1, [&] {
    k.sleep_for(2.5);
    end_time = k.now();
  });
  k.run();
  EXPECT_DOUBLE_EQ(end_time, 2.5);
}

TEST_F(KernelTest, DeadlockDetected) {
  Kernel k(two_hosts());
  k.spawn("stuck", 0, [&] { k.recv("never"); });
  k.run();
  EXPECT_TRUE(k.deadlocked());
}

TEST_F(KernelTest, SpawnOnDeadHostThrows) {
  Kernel k(two_hosts());
  k.engine().set_host_state(0, false);
  EXPECT_THROW(k.spawn("x", 0, [] {}), sg::xbt::HostFailureException);
  EXPECT_THROW(k.spawn("x", 99, [] {}), sg::xbt::InvalidArgument);
}

TEST_F(KernelTest, DynamicSpawnFromActor) {
  Kernel k(two_hosts());
  std::vector<int> order;
  k.spawn("parent", 0, [&] {
    order.push_back(1);
    k.spawn("child", 1, [&] { order.push_back(2); });
    k.sleep_for(1.0);
    order.push_back(3);
  });
  k.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST_F(KernelTest, YieldInterleavesActors) {
  Kernel k(two_hosts());
  std::vector<std::string> order;
  k.spawn("a", 0, [&] {
    order.push_back("a1");
    k.yield_now();
    order.push_back("a2");
  });
  k.spawn("b", 1, [&] {
    order.push_back("b1");
    k.yield_now();
    order.push_back("b2");
  });
  k.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a1");
  EXPECT_EQ(order[1], "b1");
  EXPECT_EQ(order[2], "a2");
  EXPECT_EQ(order[3], "b2");
}

TEST_F(KernelTest, DeterministicReplay) {
  auto run_once = [this]() {
    Kernel k(two_hosts());
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      k.spawn("w" + std::to_string(i), i % 2, [&, i] {
        k.execute(1e8 * (i + 1));
        k.send("sink", nullptr, 1e6 * (i + 1));
      });
    }
    k.spawn("sink", 0, [&] {
      for (int i = 0; i < 5; ++i) {
        k.recv("sink");
        times.push_back(k.now());
      }
    });
    k.run();
    return times;
  };
  const auto t1 = run_once();
  const auto t2 = run_once();
  ASSERT_EQ(t1.size(), 5u);
  EXPECT_EQ(t1, t2);
}

TEST_F(KernelTest, ExecutePriorityFavorsHighWeight) {
  Kernel k(two_hosts());
  double hi_done = -1, lo_done = -1;
  k.spawn("hi", 0, [&] {
    k.execute(1e9, 3.0);
    hi_done = k.now();
  });
  k.spawn("lo", 0, [&] {
    k.execute(1e9, 1.0);
    lo_done = k.now();
  });
  k.run();
  EXPECT_NEAR(hi_done, 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(lo_done, 2.0, 1e-9);
}

TEST_F(KernelTest, ParallelExecute) {
  Kernel k(two_hosts());
  double done = -1;
  k.spawn("p", 0, [&] {
    k.execute_parallel({0, 1}, {1e9, 1e9}, {{0.0, 1e8}, {0.0, 0.0}});
    done = k.now();
  });
  k.run();
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST_F(KernelTest, UncaughtActorExceptionIsContained) {
  Kernel k(two_hosts());
  k.spawn("thrower", 0, [] { throw std::runtime_error("boom"); });
  bool other_ran = false;
  k.spawn("other", 1, [&] {
    Kernel::current()->sleep_for(1.0);
    other_ran = true;
  });
  k.run();  // must not crash
  EXPECT_TRUE(other_ran);
}

// Bad send arguments are refused in the sender, before anything is queued.
// Queued unchecked, they surfaced only when a receiver matched the comm,
// as an exception out of Kernel::run() itself.
TEST_F(KernelTest, SendRejectsBadBytesAndRateInTheCaller) {
  Kernel k(two_hosts());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::string> errors;
  std::intptr_t got = 0;
  k.spawn("tx", 0, [&] {
    auto refused = [&errors](auto&& call) {
      try {
        call();
        errors.push_back("accepted");
      } catch (const sg::xbt::InvalidArgument& e) {
        errors.push_back(e.what());
      }
    };
    refused([&] { k.send("mb", nullptr, nan); });
    refused([&] { k.send_detached("mb", nullptr, inf); });
    refused([&] { k.send_async("mb", nullptr, -1.0); });
    refused([&] { k.send("mb", nullptr, 1e3, -1.0, nan); });
    k.send("mb", reinterpret_cast<void*>(std::intptr_t{42}), 1e3);
  });
  k.spawn("rx", 1, [&] { got = reinterpret_cast<std::intptr_t>(k.recv("mb")); });
  EXPECT_NO_THROW(k.run());
  EXPECT_FALSE(k.deadlocked());
  EXPECT_EQ(got, 42);
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors[0].rfind("send: bytes", 0), 0u) << errors[0];
  EXPECT_EQ(errors[1].rfind("send_detached: bytes", 0), 0u) << errors[1];
  EXPECT_EQ(errors[2].rfind("send_async: bytes", 0), 0u) << errors[2];
  EXPECT_EQ(errors[3].rfind("send: rate", 0), 0u) << errors[3];
}

// A NaN timeout is refused, naming the call; it used to wait forever and
// end the run in a deadlock. Negative timeouts still mean "wait forever".
TEST_F(KernelTest, NanTimeoutIsRefusedNotWaitedOn) {
  Kernel k(two_hosts());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::string> errors;
  bool timed_out = false;
  k.spawn("a", 0, [&] {
    auto refused = [&errors](auto&& call) {
      try {
        call();
        errors.push_back("accepted");
      } catch (const sg::xbt::InvalidArgument& e) {
        errors.push_back(e.what());
      }
    };
    const MailboxId mb = k.mailbox_by_name("nobody");
    refused([&] { k.recv(mb, nan); });
    refused([&] { k.send(mb, nullptr, 1e3, nan); });
    CommPtr c = k.recv_async(mb);
    refused([&] { k.comm_wait(c, nan); });
    try {
      k.comm_wait(c, 0.5);  // the queued recv still times out normally
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
    }
  });
  k.run();
  EXPECT_FALSE(k.deadlocked());
  EXPECT_TRUE(timed_out);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0].rfind("recv: timeout", 0), 0u) << errors[0];
  EXPECT_EQ(errors[1].rfind("send: timeout", 0), 0u) << errors[1];
  EXPECT_EQ(errors[2].rfind("comm_wait: timeout", 0), 0u) << errors[2];
}

// Both parties drop a started comm. The kernel keeps no reference to it, so
// the Comm dies at once, but its engine transfer runs to completion, keeps
// sharing the link until then, and its completion event wakes no one: the
// actors are asleep on something else when it fires.
TEST_F(KernelTest, DroppedInFlightCommCompletesAndWakesNoOne) {
  Kernel k(two_hosts());
  sg::core::ActionPtr transfer;  // the engine action only, not the Comm
  double probe_done = -1, sender_woke = -1, receiver_woke = -1;
  k.spawn("sender", 0, [&] {
    (void)k.send_async("dropped", nullptr, 2e8);
    k.send("probe", nullptr, 1e8);
    k.sleep_for(10.0);
    sender_woke = k.now();
  });
  k.spawn("receiver", 1, [&] {
    {
      CommPtr c = k.recv_async("dropped");
      ASSERT_NE(c->action, nullptr);
      transfer = c->action;
    }
    EXPECT_EQ(transfer->user_data, nullptr) << "~Comm must clear the back-pointer";
    k.recv("probe");
    probe_done = k.now();
    k.sleep_for(10.0);
    receiver_woke = k.now();
  });
  const std::uint64_t wakeups_before = k.stats().wakeups;
  EXPECT_DOUBLE_EQ(k.run(), 12.0);
  // Shared link: the probe gets half of 1e8 B/s, so 1e8 bytes take 2 s; the
  // dropped transfer has 1e8 bytes left then and ends alone at t = 3.
  EXPECT_DOUBLE_EQ(probe_done, 2.0);
  ASSERT_NE(transfer, nullptr);
  EXPECT_EQ(transfer->state(), sg::core::ActionState::kDone);
  EXPECT_DOUBLE_EQ(transfer->finish_time(), 3.0);
  // Sleepers woken by their own timers only: the probe's two parties, then
  // the two sleeps.
  EXPECT_DOUBLE_EQ(sender_woke, 12.0);
  EXPECT_DOUBLE_EQ(receiver_woke, 12.0);
  EXPECT_EQ(k.stats().wakeups - wakeups_before, 4u);
  EXPECT_FALSE(k.deadlocked());
}

// Mailbox ids that mailbox_by_name() never handed out are refused by every
// id-keyed call, naming it, before anything is queued; they used to index
// past the mailbox table.
TEST_F(KernelTest, IdKeyedMailboxCallsRejectUnknownIds) {
  Kernel k(two_hosts());
  const MailboxId known = k.mailbox_by_name("mb");
  std::vector<std::string> errors;
  std::intptr_t got = 0;
  k.spawn("a", 0, [&] {
    auto refused = [&errors](auto&& call) {
      try {
        call();
        errors.push_back("accepted");
      } catch (const sg::xbt::InvalidArgument& e) {
        errors.push_back(e.what());
      }
    };
    for (MailboxId bad : {MailboxId{-1}, known + 1, MailboxId{1 << 20}}) {
      refused([&] { k.send(bad, nullptr, 1e3); });
      refused([&] { k.send_detached(bad, nullptr, 1e3); });
      refused([&] { k.send_async(bad, nullptr, 1e3); });
      refused([&] { k.recv(bad); });
      refused([&] { k.recv_async(bad); });
      refused([&] { (void)k.comm_waiting(bad); });
      refused([&] { (void)k.mailbox_name(bad); });
    }
    EXPECT_FALSE(k.comm_waiting(known));  // nothing was queued anywhere
    k.send(known, reinterpret_cast<void*>(std::intptr_t{7}), 1e3);
  });
  k.spawn("b", 1, [&] { got = reinterpret_cast<std::intptr_t>(k.recv(known)); });
  EXPECT_NO_THROW(k.run());
  EXPECT_FALSE(k.deadlocked());
  EXPECT_EQ(got, 7);
  const char* calls[] = {"send", "send_detached", "send_async", "recv", "recv_async", "comm_waiting",
                         "mailbox_name"};
  ASSERT_EQ(errors.size(), 21u);
  for (size_t i = 0; i < errors.size(); ++i) {
    EXPECT_EQ(errors[i].rfind(std::string(calls[i % 7]) + ": mailbox id", 0), 0u) << errors[i];
    EXPECT_NE(errors[i].find("out of range"), std::string::npos) << errors[i];
  }
}

// A simcall blocks its caller, and only an actor can block: called from
// outside any actor, each one throws naming the call (it used to dereference
// a null actor and segfault). A null comm is refused the same way.
TEST_F(KernelTest, SimcallsOutsideAnActorThrowInvalidArgument) {
  Kernel k(two_hosts());
  const MailboxId mb = k.mailbox_by_name("mb");
  const std::pair<const char*, std::function<void()>> calls[] = {
      {"execute", [&] { k.execute(1e6); }},
      {"execute_parallel", [&] { k.execute_parallel({0, 1}, {1e6, 1e6}, {{0, 0}, {0, 0}}); }},
      {"sleep_for", [&] { k.sleep_for(1.0); }},
      {"yield_now", [&] { k.yield_now(); }},
      {"exit_self", [&] { k.exit_self(); }},
      {"send", [&] { k.send(mb, nullptr, 1e3); }},
      {"send_detached", [&] { k.send_detached(mb, nullptr, 1e3); }},
      {"send_async", [&] { (void)k.send_async(mb, nullptr, 1e3); }},
      {"recv", [&] { (void)k.recv(mb); }},
      {"recv_async", [&] { (void)k.recv_async(mb); }},
      {"comm_wait", [&] { (void)k.comm_wait(nullptr); }},
  };
  for (const auto& [name, call] : calls) {
    try {
      call();
      ADD_FAILURE() << name << " ran outside an actor";
    } catch (const sg::xbt::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(std::string(name) + ": ", 0), 0u) << what;
      EXPECT_NE(what.find("actor"), std::string::npos) << what;
    }
  }
  EXPECT_FALSE(k.comm_waiting(mb));  // nothing was queued
  EXPECT_EQ(k.engine().running_action_count(), 0u);

  EXPECT_THROW((void)k.comm_test(nullptr), sg::xbt::InvalidArgument);
  std::string null_wait;
  k.spawn("a", 0, [&] {
    try {
      (void)k.comm_wait(nullptr);
    } catch (const sg::xbt::InvalidArgument& e) {
      null_wait = e.what();
    }
  });
  k.run();
  EXPECT_EQ(null_wait, "comm_wait: null comm");
  EXPECT_EQ(k.now(), 0.0);
}

// ---------------------------------------------------------------------------
// Cross-zone mailbox traffic. Every simcall takes effect on the spot, so
// neither the zone of an actor nor who interned a mailbox (an actor or the
// maestro) changes the simulation: one FIFO ready queue runs every actor.
// The suite keeps the name it had in the retired parallel-actor tests, so
// the test ids stay stable.
// ---------------------------------------------------------------------------

using ParallelActorsTest = KernelTest;

/// Multi-zone platform: zone z holds hosts [z * per_zone, (z + 1) * per_zone).
Platform make_zoned_platform(int zones, int per_zone) {
  Platform p;
  for (int z = 0; z < zones; ++z) {
    sg::platform::ClusterZoneSpec zone;
    zone.name = "zone" + std::to_string(z);
    zone.host_prefix = "z" + std::to_string(z) + "-";
    zone.count = per_zone;
    zone.host_speed = 1e9;
    zone.link_bandwidth = 1e8;
    zone.link_latency = 5e-5;
    p.add_cluster_zone(zone);
  }
  for (int z = 1; z < zones; ++z) {
    const sg::platform::LinkId wan = p.add_link("wan" + std::to_string(z), 4e8, 1e-3,
                                                sg::platform::SharingPolicy::kFatpipe);
    p.add_edge(p.zone_gateway(0), p.zone_gateway(z), wan);
  }
  p.seal();
  return p;
}

/// Everything observable about one run. The log is the concatenation of
/// per-actor logs in actor order.
struct TrafficResult {
  std::vector<std::string> log;
  double end_clock = 0.0;
  int completions = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t switches = 0;
};

/// Six sender/receiver pairs between zone 1 and zone 2. With
/// `maestro_boxes`, every mailbox is interned from the maestro before the
/// run; otherwise each actor interns its pair's mailbox itself. The scenario
/// mixes blocking pairs, async+wait, detached sends, polling via
/// comm_waiting/comm_test, and timeouts that actually fire.
TrafficResult run_cross_shard_traffic(bool maestro_boxes) {
  constexpr int kZones = 3;
  constexpr int kPerZone = 4;
  constexpr int kPairs = 6;
  Kernel k(make_zoned_platform(kZones, kPerZone));

  std::vector<MailboxId> boxes;
  if (maestro_boxes)
    for (int i = 0; i < kPairs; ++i)
      boxes.push_back(k.mailbox_by_name("x:" + std::to_string(i)));
  auto box = [&k, &boxes, maestro_boxes](int i) {
    return maestro_boxes ? boxes[static_cast<size_t>(i)] : k.mailbox_by_name("x:" + std::to_string(i));
  };

  TrafficResult res;
  std::vector<std::vector<std::string>> logs(2 * kPairs);

  for (int i = 0; i < kPairs; ++i) {
    const int tx_host = kPerZone + i % kPerZone;      // zone 1
    const int rx_host = 2 * kPerZone + i % kPerZone;  // zone 2
    auto& tx_log = logs[static_cast<size_t>(2 * i)];
    auto& rx_log = logs[static_cast<size_t>(2 * i + 1)];

    k.spawn("tx" + std::to_string(i), tx_host, [&k, &tx_log, box, i] {
      const MailboxId mb = box(i);
      const MailboxId nobody = k.mailbox_by_name("nobody-sends-here");
      for (int round = 0; round < 3; ++round) {
        void* payload = reinterpret_cast<void*>(static_cast<std::intptr_t>(100 * i + round));
        if (i % 3 == 0) {
          k.send_detached(mb, payload, 2e4);
          k.execute(1e7);  // detached: keep the quantum honest before looping
        } else {
          CommPtr c = k.send_async(mb, payload, 2e4);
          k.comm_wait(c);
        }
        tx_log.push_back(sg::xbt::format("%.9f tx%d sent round=%d", k.now(), i, round));
      }
      // A recv on a mailbox nobody sends to: the timeout must fire.
      try {
        k.recv(nobody, /*timeout=*/0.05);
        tx_log.push_back("unexpected recv success");
      } catch (const sg::xbt::TimeoutException&) {
        tx_log.push_back(sg::xbt::format("%.9f tx%d timed out as expected", k.now(), i));
      }
    });

    k.spawn("rx" + std::to_string(i), rx_host, [&k, &rx_log, &res, box, i] {
      const MailboxId mb = box(i);
      for (int round = 0; round < 3; ++round) {
        if (i % 2 == 0) {
          // Poll the mailbox before committing to the recv.
          while (!k.comm_waiting(mb))
            k.sleep_for(0.001);
          rx_log.push_back(sg::xbt::format("%.9f rx%d saw a queued send", k.now(), i));
          const auto got = reinterpret_cast<std::intptr_t>(k.recv(mb));
          rx_log.push_back(sg::xbt::format("%.9f rx%d got %ld", k.now(), i, static_cast<long>(got)));
        } else {
          CommPtr c = k.recv_async(mb);
          while (!k.comm_test(c))
            k.sleep_for(0.001);
          const auto got = reinterpret_cast<std::intptr_t>(k.comm_wait(c));
          rx_log.push_back(sg::xbt::format("%.9f rx%d polled %ld", k.now(), i, static_cast<long>(got)));
        }
        ++res.completions;
      }
    });
  }

  res.end_clock = k.run();
  res.wakeups = k.stats().wakeups;
  res.switches = k.stats().context_switches;
  for (const auto& log : logs)
    res.log.insert(res.log.end(), log.begin(), log.end());
  return res;
}

TEST_F(ParallelActorsTest, AllCrossShardTrafficReplaysIdentically) {
  const TrafficResult cross = run_cross_shard_traffic(true);
  EXPECT_EQ(cross.completions, 18);  // 6 pairs x 3 rounds, all delivered
  // Four lines per sender; six per polling receiver, three per async one.
  EXPECT_EQ(cross.log.size(), 6u * 4 + 3u * 6 + 3u * 3);
  // The same run twice...
  const TrafficResult again = run_cross_shard_traffic(true);
  EXPECT_EQ(again.log, cross.log);
  EXPECT_EQ(again.end_clock, cross.end_clock);
  EXPECT_EQ(again.wakeups, cross.wakeups);
  EXPECT_EQ(again.switches, cross.switches);
  // ...and the same simulation when the actors intern their own mailboxes.
  const TrafficResult local = run_cross_shard_traffic(false);
  EXPECT_EQ(local.completions, 18);
  EXPECT_EQ(local.log, cross.log);
  EXPECT_EQ(local.end_clock, cross.end_clock);
}

// A simcall takes effect the moment the actor makes it: a detached send
// from zone 0 is queued on the mailbox before the zone-1 actor that
// interned it runs again, later in the same drain of the ready queue.
TEST_F(ParallelActorsTest, CrossZoneSendIsVisibleLaterInTheSameDrain) {
  Kernel k(make_zoned_platform(2, 2));
  bool seen = false;
  double probed_at = -1.0;
  std::intptr_t got = 0;
  k.spawn("a", 0, [&k] {
    k.yield_now();  // b interns its mailbox first
    k.send_detached(k.mailbox_by_name("b"), reinterpret_cast<void*>(std::intptr_t{7}), 1e3);
  });
  k.spawn("b", 2, [&] {
    const MailboxId mb = k.mailbox_by_name("b");
    k.yield_now();  // queued behind a, which sends now
    seen = k.comm_waiting(mb);
    probed_at = k.now();
    got = reinterpret_cast<std::intptr_t>(k.recv(mb));
  });
  k.run();
  EXPECT_TRUE(seen);
  EXPECT_EQ(probed_at, 0.0);
  EXPECT_EQ(got, 7);
  EXPECT_FALSE(k.deadlocked());
}

}  // namespace
