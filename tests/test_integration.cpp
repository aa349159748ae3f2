/// Cross-layer integration and property tests: the full stack exercised
/// end-to-end (platform -> engine -> kernel -> MSG/GRAS/SMPI), with
/// parameterized sweeps over platform shapes and scales.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/engine.hpp"
#include "gras/gras.hpp"
#include "msg/msg.hpp"
#include "pkt/pkt.hpp"
#include "platform/builders.hpp"
#include "platform/parser.hpp"
#include "datadesc/pastry.hpp"
#include "smpi/smpi.hpp"
#include "topo/brite.hpp"
#include "trace/trace.hpp"
#include "viz/gantt.hpp"
#include "xbt/exception.hpp"

#include "ideal_network.hpp"

namespace {

class IntegrationTest : public ::testing::Test {
protected:
  void TearDown() override {
    sg::msg::MSG_clean();
    sg::smpi::bench_reset();
  }

private:
  sg::test::IdealNetwork ideal_network_;
};

// -- MSG on generated topologies ---------------------------------------------------

TEST_F(IntegrationTest, MsgAllPairsPingOnWaxman) {
  // Every host pings every other host; all pings must arrive, and the
  // simulation must stay deterministic across two runs.
  auto run_once = [] {
    using namespace sg::msg;
    sg::topo::WaxmanSpec spec;
    spec.n_nodes = 8;
    spec.seed = 5;
    MSG_init(sg::topo::to_platform(sg::topo::generate_waxman(spec)));
    static int received;
    received = 0;
    const int n = MSG_get_host_number();
    for (int i = 0; i < n; ++i) {
      MSG_process_create("pinger" + std::to_string(i), [i, n] {
        for (int j = 0; j < n; ++j) {
          if (j == i)
            continue;
          m_task_t t = MSG_task_create("ping", 0, 1e4);
          MSG_task_put(t, MSG_host_by_index(j), 0);
        }
      }, MSG_host_by_index(i));
      MSG_process_create("ponger" + std::to_string(i), [i, n] {
        (void)i;
        for (int j = 0; j < n - 1; ++j) {
          m_task_t t = nullptr;
          MSG_task_get(&t, 0);
          MSG_task_destroy(t);
          ++received;
        }
      }, MSG_host_by_index(i));
    }
    const double end = MSG_main();
    EXPECT_EQ(received, n * (n - 1));
    MSG_clean();
    return end;
  };
  const double t1 = run_once();
  const double t2 = run_once();
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST_F(IntegrationTest, MsgWorkConservationUnderAvailabilityTrace) {
  // Total simulated work time equals work / integral of available speed:
  // a host at 50% availability half the time does 0.75x work per second.
  using namespace sg::msg;
  sg::platform::Platform p;
  sg::platform::HostSpec spec;
  spec.name = "h";
  spec.speed_flops = 1e9;
  spec.availability = sg::trace::square_wave("w", 1.0, 1.0, 0.5, 1.0);
  p.add_host(spec);
  MSG_init(std::move(p));
  double done = -1;
  MSG_process_create("worker", [&] {
    m_task_t t = MSG_task_create("work", 7.5e9, 0);
    MSG_task_execute(t);
    MSG_task_destroy(t);
    done = MSG_get_clock();
  }, MSG_host_by_index(0));
  MSG_main();
  // 7.5e9 flops at avg 0.75e9 flop/s = 10 s (and 10s is a whole number of
  // trace periods, so the equality is exact).
  EXPECT_NEAR(done, 10.0, 1e-6);
}

// -- parameterized MSG pipeline sweep -------------------------------------------------

class MsgPipelineSweep : public IntegrationTest, public ::testing::WithParamInterface<int> {};

TEST_P(MsgPipelineSweep, TokenRingCompletes) {
  // A token circles a ring of n processes k times; total hops = n*k, and the
  // finish time scales linearly with hops on a uniform ring.
  using namespace sg::msg;
  const int n = GetParam();
  sg::platform::Platform p;
  std::vector<sg::platform::NodeId> hosts;
  for (int i = 0; i < n; ++i)
    hosts.push_back(p.add_host("r" + std::to_string(i), 1e9));
  for (int i = 0; i < n; ++i) {
    auto l = p.add_link("rl" + std::to_string(i), 1e8, 1e-3);
    p.add_edge(hosts[static_cast<size_t>(i)], hosts[static_cast<size_t>((i + 1) % n)], l);
  }
  p.seal();
  MSG_init(std::move(p));
  const int laps = 3;
  static int hops;
  hops = 0;
  for (int i = 0; i < n; ++i) {
    MSG_process_create("node" + std::to_string(i), [i, n, laps] {
      const int my_rounds = laps;
      if (i == 0) {
        m_task_t token = MSG_task_create("token", 0, 1e5);
        MSG_task_put(token, MSG_host_by_index(1 % n), 0);
      }
      for (int r = 0; r < my_rounds; ++r) {
        if (i == 0 && r == my_rounds - 1)
          break;  // the initiator stops after receiving the last lap
        m_task_t token = nullptr;
        MSG_task_get(&token, 0);
        ++hops;
        const int next = (i + 1) % n;
        if (i == 0 && r == my_rounds - 2) {
          MSG_task_destroy(token);
          break;
        }
        MSG_task_put(token, MSG_host_by_index(next), 0);
      }
    }, MSG_host_by_index(i));
  }
  MSG_main();
  EXPECT_GT(hops, n);  // the token circulated
  MSG_clean();
}

INSTANTIATE_TEST_SUITE_P(RingSizes, MsgPipelineSweep, ::testing::Values(2, 3, 5, 8, 13));

// -- SMPI collectives on varied platform shapes ------------------------------------------

// gtest names each case by the raw bytes of its parameter. `name_bytes` fills
// what would otherwise be uninitialised padding, so every build lists the same
// names; the values keep the names this suite has always been listed under.
struct CollectiveCase {
  int ranks;
  bool hetero;
  unsigned char name_bytes[3];
};
static_assert(sizeof(CollectiveCase) == 8, "CollectiveCase must have no padding");

class SmpiCollectiveSweep : public IntegrationTest,
                            public ::testing::WithParamInterface<CollectiveCase> {};

TEST_P(SmpiCollectiveSweep, AllreduceAllgatherAgree) {
  using namespace sg::smpi;
  const auto param = GetParam();
  const int P = param.ranks;
  sg::platform::Platform p;
  auto sw = p.add_router("sw");
  for (int i = 0; i < P; ++i) {
    const double speed = param.hetero ? 1e9 / (1 + i % 3) : 1e9;
    auto h = p.add_host("h" + std::to_string(i), speed);
    p.add_edge(h, sw, p.add_link("l" + std::to_string(i), 1.25e8, 5e-5));
  }
  p.seal();
  bool ok = true;
  smpi_run(std::move(p), P, [&](int rank) {
    // Allreduce of rank -> everyone has sum; allgather of rank -> identity.
    int sum = 0;
    MPI_Allreduce(&rank, &sum, 1, MPI_INT, MPI_SUM);
    if (sum != P * (P - 1) / 2)
      ok = false;
    std::vector<int> all(static_cast<size_t>(P), -1);
    MPI_Allgather(&rank, 1, MPI_INT, all.data());
    for (int r = 0; r < P; ++r)
      if (all[static_cast<size_t>(r)] != r)
        ok = false;
    MPI_Barrier();
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SmpiCollectiveSweep,
                         ::testing::Values(CollectiveCase{2, false, {0x00, 0x00, 0x00}},
                                           CollectiveCase{3, true, {0xFF, 0xFF, 0xFF}},
                                           CollectiveCase{4, false, {0x00, 0x00, 0x00}},
                                           CollectiveCase{7, true, {0x00, 0x00, 0x00}},
                                           CollectiveCase{8, false, {0x00, 0x00, 0x00}},
                                           CollectiveCase{16, true, {0x55, 0x00, 0x00}}));

// -- GRAS across the stack -------------------------------------------------------------

TEST_F(IntegrationTest, GrasRequestReplyFarmOnCluster) {
  // One GRAS server, many clients, platform from the parser: end-to-end
  // through parsing, routing, kernel, datadesc and the GRAS transport.
  const std::string platform_text = R"(
host hub speed:2Gf
host c0 speed:1Gf
host c1 speed:1Gf
host c2 speed:1Gf
router sw
link lhub bw:125MBps lat:100us
link l0 bw:12.5MBps lat:1ms
link l1 bw:12.5MBps lat:1ms
link l2 bw:12.5MBps lat:1ms
edge hub sw lhub
edge c0 sw l0
edge c1 sw l1
edge c2 sw l2
)";
  sg::gras::SimWorld world(sg::platform::parse_platform(platform_text));
  sg::gras::msgtype_declare("work", sg::datadesc::datadesc_by_name("int"));
  sg::gras::msgtype_declare("done", sg::datadesc::datadesc_by_name("int"));
  int handled = 0;
  world.spawn("server", "hub", [&] {
    sg::gras::cb_register("work", [&](sg::gras::Message& m) {
      ++handled;
      sg::gras::msg_send(m.source, "done", sg::datadesc::Value(m.payload.as_int() * 2));
    });
    sg::gras::socket_server(4000);
    for (int i = 0; i < 9; ++i)
      sg::gras::msg_handle(60.0);
  });
  std::vector<int> replies;
  for (int c = 0; c < 3; ++c) {
    world.spawn("client" + std::to_string(c), "c" + std::to_string(c), [&, c] {
      sg::gras::os_sleep(0.01);
      auto peer = sg::gras::socket_client("hub", 4000);
      for (int i = 0; i < 3; ++i) {
        sg::gras::msg_send(peer, "work", sg::datadesc::Value(c * 10 + i));
        auto m = sg::gras::msg_wait(30.0, "done");
        replies.push_back(static_cast<int>(m.payload.as_int()));
      }
    });
  }
  world.run();
  EXPECT_EQ(handled, 9);
  ASSERT_EQ(replies.size(), 9u);
  int sum = std::accumulate(replies.begin(), replies.end(), 0);
  EXPECT_EQ(sum, 2 * (0 + 1 + 2 + 10 + 11 + 12 + 20 + 21 + 22));
}

// -- engine + viz + failures end-to-end ----------------------------------------------

TEST_F(IntegrationTest, TracedExecutionSurvivesFailuresAndRendersGantt) {
  using namespace sg::msg;
  sg::platform::Platform p;
  sg::platform::HostSpec flaky;
  flaky.name = "flaky";
  flaky.speed_flops = 1e9;
  flaky.state = sg::trace::Trace("s", {{0.0, 1.0}, {2.0, 0.0}, {4.0, 1.0}}, -1.0);
  p.add_host(flaky);
  auto stable = p.add_host("stable", 1e9);
  p.add_route(p.node_by_name("flaky").value(), stable, {p.add_link("l", 1e8, 1e-4)});
  MSG_init(std::move(p));
  sg::viz::Tracer tracer(MSG_kernel().engine());

  static int attempts;
  attempts = 0;
  MSG_process_create("phoenix", [] {
    ++attempts;
    m_task_t t = MSG_task_create("work", 10e9, 0);  // 10 s of work: dies at t=2
    try {
      MSG_task_execute(t);
    } catch (...) {
      MSG_task_destroy(t);  // host failure unwinds the actor mid-execute
      throw;
    }
    MSG_task_destroy(t);
  }, MSG_get_host_by_name("flaky"), /*daemon=*/true, /*auto_restart=*/true);
  MSG_process_create("observer", [] { MSG_process_sleep(6.0); },
                     MSG_get_host_by_name("stable"));
  MSG_main();
  EXPECT_EQ(attempts, 2);  // killed at t=2, restarted at t=4
  // The tracer saw a failed interval and the render mentions both hosts.
  bool saw_flaky_interval = false;
  for (const auto& iv : tracer.intervals())
    if (iv.host == 0 && iv.kind == sg::viz::IntervalKind::kCompute)
      saw_flaky_interval = true;
  EXPECT_TRUE(saw_flaky_interval);
  const std::string chart = tracer.render_ascii(60);
  EXPECT_NE(chart.find("flaky"), std::string::npos);
  tracer.detach();
}

// -- fluid vs packet consistency through the MSG layer ----------------------------------

TEST_F(IntegrationTest, MsgTransferTimeMatchesEngineAndPacketBallpark) {
  sg::config::set(sg::core::kCfgBandwidthFactor, 1460.0 / 1500.0);
  sg::config::set(sg::core::kCfgTcpGamma, 65536.0);
  const double bytes = 4e6;
  const auto platform = sg::platform::make_dumbbell(1e9, 1.25e6, 2e-3);

  // MSG-level transfer.
  using namespace sg::msg;
  MSG_init(sg::platform::Platform(platform));
  double msg_time = -1;
  MSG_process_create("s", [&] {
    m_task_t t = MSG_task_create("blob", 0, bytes);
    MSG_task_put(t, MSG_host_by_index(1), 0);
  }, MSG_host_by_index(0));
  MSG_process_create("r", [&] {
    m_task_t t = nullptr;
    MSG_task_get(&t, 0);
    MSG_task_destroy(t);
    msg_time = MSG_get_clock();
  }, MSG_host_by_index(1));
  MSG_main();

  // Packet-level reference.
  sg::pkt::PacketNet net(platform, sg::pkt::TcpParams::ns2());
  net.add_flow({0, 1, bytes, 0.0});
  net.run();
  const double pkt_time = net.result(0).finish_time;

  EXPECT_NEAR(msg_time / pkt_time, 1.0, 0.15)
      << "MSG " << msg_time << " vs packet " << pkt_time;
}

// -- datadesc through GRAS across simulated architectures -------------------------------

TEST_F(IntegrationTest, PastryStateFloodsThroughSimWorld) {
  // Pastry-like state exchange among 4 nodes: every node sends its state to
  // every other; payloads survive the codec + transport round trip intact.
  sg::gras::msgtype_declare("pastry-state", sg::datadesc::pastry_message_desc());
  sg::platform::ClusterSpec spec;
  spec.count = 4;
  spec.prefix = "peer";
  sg::gras::SimWorld world(sg::platform::make_cluster(spec));
  sg::xbt::Rng rng(31);
  std::vector<sg::datadesc::Value> states;
  for (int i = 0; i < 4; ++i)
    states.push_back(sg::datadesc::make_pastry_message(rng, 128));
  int verified = 0;
  for (int i = 0; i < 4; ++i) {
    world.spawn("peer" + std::to_string(i), "peer" + std::to_string(i), [&, i] {
      sg::gras::socket_server(7000 + i);
      sg::gras::os_sleep(0.05);
      for (int j = 0; j < 4; ++j) {
        if (j == i)
          continue;
        auto sock = sg::gras::socket_client("peer" + std::to_string(j), 7000 + j);
        sg::gras::msg_send(sock, "pastry-state", states[static_cast<size_t>(i)]);
      }
      for (int j = 0; j < 3; ++j) {
        auto m = sg::gras::msg_wait(60.0, "pastry-state");
        // Identify the sender by matching payloads (they are all distinct).
        bool matched = false;
        for (const auto& s : states)
          if (m.payload == s)
            matched = true;
        if (matched)
          ++verified;
      }
    });
  }
  world.run();
  EXPECT_EQ(verified, 12);  // 4 nodes x 3 incoming states each, all intact
}

}  // namespace
