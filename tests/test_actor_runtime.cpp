/// Tests for the fiber actor runtime: pinned schedules (FNV-1a-64 digests of
/// the logs, clocks and counters of randomized fault-flapping scenarios, a
/// yield storm and a ring over three zones), fiber stack-pool recycling
/// under spawn/die/restart churn, and mailbox interning.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "platform/builders.hpp"
#include "platform/platform.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"
#include "xbt/str.hpp"

namespace {

using namespace sg::kernel;
using sg::platform::Platform;

/// FNV-1a-64 over the bytes of a scenario's log lines and over 64-bit words,
/// as the engine's pinned churn logs fold theirs.
struct LogDigest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void add(const std::string& line) {
    for (char c : line)
      byte(static_cast<unsigned char>(c));
    byte('\n');
  }
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i)
      byte(static_cast<unsigned char>((word >> (8 * i)) & 0xff));
  }
  void add(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
};

/// Everything observable about one scenario run: an ordered event log (with
/// 9-digit clocks, so "identical schedule" means identical interleaving AND
/// identical timings), the final clock, and the scheduler counters.
struct ScenarioResult {
  std::vector<std::string> log;
  double end_clock = 0.0;
  std::uint64_t wakeups = 0;
  std::uint64_t switches = 0;
  int completions = 0;

  std::uint64_t digest() const {
    LogDigest d;
    for (const std::string& line : log)
      d.add(line);
    d.add(end_clock);
    d.add(wakeups);
    d.add(switches);
    d.add(static_cast<std::uint64_t>(completions));
    return d.h;
  }
};

std::uint64_t digest_of(const std::vector<std::string>& log) {
  LogDigest d;
  for (const std::string& line : log)
    d.add(line);
  return d.h;
}

/// Randomized master/worker with fault flaps: a master farms tasks to
/// auto-restarting workers over per-worker mailboxes while a chaos daemon
/// powers worker hosts off and on. Every completion, timeout, and failure
/// exception lands in the log, so the pinned digest covers every scheduling
/// decision and every wake status mapping.
ScenarioResult run_faulty_master_worker(unsigned seed) {
  sg::platform::ClusterSpec spec;
  spec.count = 5;  // node0 = master, nodes 1..4 = workers
  spec.host_speed = 1e9;
  Kernel k(sg::platform::make_cluster(spec));

  ScenarioResult res;
  auto log_event = [&](const std::string& what) {
    res.log.push_back(sg::xbt::format("%.9f %s", k.now(), what.c_str()));
  };

  const int n_workers = 4;
  const int n_tasks = 24;
  const MailboxId results = k.mailbox_by_name("results");
  std::vector<MailboxId> tasks;
  tasks.push_back(kNoMailbox);
  for (int w = 1; w <= n_workers; ++w)
    tasks.push_back(k.mailbox_by_name("tasks:" + std::to_string(w)));

  for (int w = 1; w <= n_workers; ++w) {
    k.spawn("worker" + std::to_string(w), w,
            [&k, &tasks, results, w] {
              while (true) {
                void* raw = k.recv(tasks[static_cast<size_t>(w)]);
                const auto task = reinterpret_cast<std::intptr_t>(raw);
                k.execute(1e8 + 1e7 * static_cast<double>(task));
                k.send(results, raw, 1e4);
              }
            },
            /*daemon=*/true, /*auto_restart=*/true);
  }

  k.spawn("master", 0, [&] {
    sg::xbt::Rng rng(seed);
    for (int t = 1; t <= n_tasks; ++t) {
      const int w = 1 + static_cast<int>(rng.uniform_int(0, n_workers - 1));
      try {
        k.send(tasks[static_cast<size_t>(w)], reinterpret_cast<void*>(static_cast<std::intptr_t>(t)),
               1e5, /*timeout=*/1.5);
        void* ack = k.recv(results, /*timeout=*/1.5);
        ++res.completions;
        log_event(sg::xbt::format("done task=%ld worker=%d", reinterpret_cast<std::intptr_t>(ack), w));
      } catch (const sg::xbt::Exception& e) {
        log_event(sg::xbt::format("fail task=%d worker=%d: %s", t, w, e.what()));
        k.sleep_for(0.25);  // let the flapped host come back
      }
    }
    log_event("master finished");
  });

  k.spawn("chaos", 0,
          [&] {
            sg::xbt::Rng rng(seed * 31 + 7);
            for (int i = 0; i < 5; ++i) {
              k.sleep_for(rng.uniform(0.4, 1.2));
              const int victim = 1 + static_cast<int>(rng.uniform_int(0, n_workers - 1));
              log_event(sg::xbt::format("chaos: host %d off", victim));
              k.host_off(victim);
              k.sleep_for(0.3);
              k.host_on(victim);
              log_event(sg::xbt::format("chaos: host %d on", victim));
            }
          },
          /*daemon=*/true);

  res.end_clock = k.run();
  res.wakeups = k.stats().wakeups;
  res.switches = k.stats().context_switches;
  return res;
}

// Each seed's log, final clock and counters fold into one pinned FNV-1a-64
// digest. The pins were taken when an OS-thread context backend still ran
// next to the fibers, and both reproduced them; this test and the next two
// keep the names they had then, so the test ids stay stable.
TEST(ActorRuntimeTest, ThreadAndFiberBackendsProduceIdenticalSchedules) {
  struct Pin {
    unsigned seed;
    std::uint64_t digest;
    double clock;
  };
  const Pin pins[] = {{1u, 0x102bf9fa9322f95full, 6.9863164383561642},
                      {17u, 0x3f01d98db73a3f93ull, 7.0063164383561638},
                      {424242u, 0xd8e30081d4fd2f94ull, 7.1010164240850191}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed=" + std::to_string(pin.seed));
    const ScenarioResult res = run_faulty_master_worker(pin.seed);
    EXPECT_EQ(res.digest(), pin.digest) << std::hex << res.digest();
    EXPECT_EQ(res.end_clock, pin.clock) << sg::xbt::format("%.17g", res.end_clock);
    EXPECT_GT(res.completions, 0);  // the scenario must do real work
    // With fault flaps in play, some sends/recvs must have failed: that is
    // the WakeStatus mapping the pin covers.
    bool saw_failure = false;
    for (const std::string& line : res.log)
      saw_failure |= line.find("fail ") != std::string::npos;
    EXPECT_TRUE(saw_failure);
  }
}

TEST(ActorRuntimeTest, BackendsAgreeOnPureYieldInterleaving) {
  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  std::vector<std::string> order;
  for (int a = 0; a < 8; ++a)
    k.spawn("y" + std::to_string(a), a % 2, [&k, &order, a] {
      for (int round = 0; round < 5; ++round) {
        order.push_back(std::to_string(a) + ":" + std::to_string(round));
        k.yield_now();
      }
    });
  k.run();
  const std::uint64_t digest = digest_of(order);
  EXPECT_EQ(digest, 0xda7b5352e9125815ull) << std::hex << digest;
}

TEST(ActorRuntimeTest, FiberPoolRecyclesStacksAcrossWaves) {
  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));

  constexpr int kWaves = 5;
  constexpr int kPerWave = 400;
  k.spawn("driver", 0, [&k] {
    for (int wave = 0; wave < kWaves; ++wave) {
      for (int i = 0; i < kPerWave; ++i)
        k.spawn("ephemeral", i % 2, [&k] { k.execute(1e6); });
      k.sleep_for(1.0);  // every spawned actor finishes well within this
    }
  });
  k.run();

  EXPECT_EQ(k.stats().actors_spawned, 1u + kWaves * kPerWave);
  const ContextFactory::PoolStats pool = k.context_factory().pool_stats();
  // Stacks are recycled between waves: the pool never carves anywhere near
  // one stack per spawned actor, only enough for the peak concurrency.
  EXPECT_GT(pool.stacks_allocated, 0u);
  EXPECT_LE(pool.stacks_allocated, static_cast<size_t>(kPerWave) + 2);
  EXPECT_EQ(pool.stacks_free, pool.stacks_allocated);  // all dead => all parked
  EXPECT_GE(pool.stack_bytes, 4096u);
}

TEST(ActorRuntimeTest, FiberPoolSurvivesKillRestartChurn) {
  sg::platform::ClusterSpec spec;
  spec.count = 3;
  Kernel k(sg::platform::make_cluster(spec));

  int restarts = 0;
  for (int i = 0; i < 50; ++i)
    k.spawn("flappy" + std::to_string(i), 1 + i % 2,
            [&k, &restarts] {
              ++restarts;
              k.sleep_for(100.0);  // parked until killed by the next flap
            },
            /*daemon=*/true, /*auto_restart=*/true);
  k.spawn("flapper", 0, [&k] {
    for (int round = 0; round < 4; ++round) {
      k.sleep_for(1.0);
      k.host_off(1);
      k.host_on(1);
      k.sleep_for(1.0);
      k.host_off(2);
      k.host_on(2);
    }
  });
  k.run();

  EXPECT_GT(restarts, 50);  // every flap re-ran the residents of that host
  const ContextFactory::PoolStats pool = k.context_factory().pool_stats();
  // Kill + restart reuses parked stacks instead of growing the pool.
  EXPECT_LE(pool.stacks_allocated, 60u);
}

// contexts/stack-size feeds a size_t cast when the context factory is
// built: a negative, NaN or huge value must stop at the config boundary with
// an error naming the key, and a kernel then still runs an actor.
TEST(ActorRuntimeTest, BadStackSizeIsRefusedBeforeTheFactorySeesIt) {
  declare_context_config();
  const long stack = sg::config::get(kCfgContextStackSize);  // bytes, [16 KiB, 1 GiB]
  for (const char* bad : {"-1", "nan", "1e30", "0", "4096", "2e9", "65536.5"})
    EXPECT_THROW(sg::config::apply(std::string("contexts/stack-size:") + bad),
                 sg::xbt::InvalidArgument)
        << bad;
  EXPECT_THROW(sg::config::set(kCfgContextStackSize, -1), sg::xbt::InvalidArgument);
  EXPECT_THROW(sg::config::set(kCfgContextStackSize, 1L << 40), sg::xbt::InvalidArgument);
  EXPECT_EQ(sg::config::get(kCfgContextStackSize), stack);

  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  bool ran = false;
  k.spawn("probe", 0, [&ran] { ran = true; });
  k.run();
  EXPECT_TRUE(ran);
}

TEST(ActorRuntimeTest, MailboxNamesInternToStableDenseIds) {
  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  const MailboxId a = k.mailbox_by_name("alpha");
  const MailboxId b = k.mailbox_by_name("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, k.mailbox_by_name("alpha"));  // same name, same id
  EXPECT_EQ(b, k.mailbox_by_name("beta"));
  EXPECT_EQ("alpha", k.mailbox_name(a));  // round-trip
  EXPECT_EQ("beta", k.mailbox_name(b));
}

TEST(ActorRuntimeTest, StringAndIdKeyedSimcallsShareTheMailbox) {
  Kernel k(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  const MailboxId mbox = k.mailbox_by_name("shared");
  std::intptr_t got = 0;
  k.spawn("tx", 0,
          [&k] { k.send("shared", reinterpret_cast<void*>(static_cast<std::intptr_t>(99)), 1e3); });
  k.spawn("rx", 1, [&k, &got, mbox] {
    got = reinterpret_cast<std::intptr_t>(k.recv(mbox));  // id-keyed recv
  });
  k.run();
  EXPECT_EQ(99, got);
  EXPECT_FALSE(k.comm_waiting(mbox));
  EXPECT_FALSE(k.comm_waiting("never-used"));  // probe must not intern
}

// A ring over three cluster zones reproduces one pinned schedule, also on a
// rerun. The name is kept from when the kernel split its ready set into
// per-zone run queues and ran two context backends.
TEST(ActorRuntimeTest, ShardedRunQueuesStayDeterministicAcrossBackends) {
  auto run_ring = [] {
    Platform p;
    for (int z = 0; z < 3; ++z) {
      sg::platform::ClusterZoneSpec zone;
      zone.name = "zone" + std::to_string(z);
      zone.host_prefix = "z" + std::to_string(z) + "-";
      zone.count = 4;
      p.add_cluster_zone(zone);
    }
    p.seal();
    Kernel k(std::move(p));

    // One log per actor, concatenated in actor order.
    std::vector<std::vector<std::string>> logs(12);
    const MailboxId ring = k.mailbox_by_name("ring");
    for (int a = 0; a < 12; ++a)
      k.spawn("actor" + std::to_string(a), a, [&k, &logs, &ring, a] {
        for (int round = 0; round < 3; ++round) {
          if (a % 2 == 0) {
            k.send(ring, reinterpret_cast<void*>(static_cast<std::intptr_t>(a + 1)), 1e4);
          } else {
            k.recv(ring);
          }
          logs[static_cast<size_t>(a)].push_back(sg::xbt::format("%d:%d@%.9f", a, round, k.now()));
        }
      });
    const double end = k.run();
    std::vector<std::string> order;
    for (const auto& log : logs)
      order.insert(order.end(), log.begin(), log.end());
    order.push_back(sg::xbt::format("end@%.9f", end));
    return order;
  };
  const auto order = run_ring();
  const std::uint64_t digest = digest_of(order);
  EXPECT_EQ(digest, 0x5f054744a413623eull) << std::hex << digest;
  EXPECT_EQ(order, run_ring());  // rerun determinism
}

}  // namespace
