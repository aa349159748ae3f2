/// Tests for GRAS: the same user code running in simulation mode (on the
/// kernel) and in real-world mode (threads + real TCP on localhost) — the
/// paper's headline feature.
#include <gtest/gtest.h>

#include <atomic>

#include "gras/gras.hpp"
#include "platform/builders.hpp"
#include "xbt/exception.hpp"

#include "ideal_network.hpp"

namespace {

using namespace sg::gras;
using sg::datadesc::Value;
using sg::datadesc::datadesc_by_name;

class GrasTest : public ::testing::Test {
protected:
  void SetUp() override {
    msgtype_declare("ping", datadesc_by_name("int"));
    msgtype_declare("pong", datadesc_by_name("int"));
  }

private:
  sg::test::IdealNetwork ideal_network_;
};

/// The paper's ping-pong, written once and deployed twice (sim + real).
struct PingPongApp {
  std::atomic<int> received_pong{0};
  std::atomic<int> server_got{0};

  std::function<void()> client = [this] {
    os_sleep(0.1);  // wait for the server startup (as in the paper)
    auto peer = socket_client("server-host", 4000);
    msg_send(peer, "ping", Value(1234));
    Message m = msg_wait(6.0, "pong");
    received_pong = static_cast<int>(m.payload.as_int());
  };

  std::function<void()> server = [this] {
    cb_register("ping", [this](Message& m) {
      server_got = static_cast<int>(m.payload.as_int());
      msg_send(m.source, "pong", Value(static_cast<int>(m.payload.as_int()) + 1));
    });
    socket_server(4000);
    msg_handle(600.0);
  };
};

TEST_F(GrasTest, PingPongSimulationMode) {
  PingPongApp app;
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 1e-3));
  // Host names in the app are platform hosts; rename via a platform with the
  // right names.
  sg::platform::Platform p;
  auto a = p.add_host("client-host", 1e9);
  auto b = p.add_host("server-host", 1e9);
  p.add_route(a, b, {p.add_link("lan", 1.25e8, 1e-4)});
  SimWorld world2(std::move(p));
  world2.spawn("client", "client-host", app.client);
  world2.spawn("server", "server-host", app.server);
  const double t = world2.run();
  EXPECT_EQ(app.received_pong.load(), 1235);
  EXPECT_EQ(app.server_got.load(), 1234);
  EXPECT_GT(t, 0.1);  // at least the startup sleep
  EXPECT_LT(t, 1.0);  // LAN exchange is fast
}

TEST_F(GrasTest, PingPongRealWorldMode) {
  PingPongApp app;
  RealWorld world;
  world.spawn("server", "server-host", app.server);
  world.spawn("client", "client-host", app.client);
  world.join_all();
  EXPECT_EQ(app.received_pong.load(), 1235);
  EXPECT_EQ(app.server_got.load(), 1234);
}

TEST_F(GrasTest, SimTimedBySurf) {
  // One 1 MB message over a 1 MB/s link: the receiver sees it ~1s later.
  msgtype_declare("blob", datadesc_by_name("string"));
  sg::platform::Platform p;
  auto a = p.add_host("ha", 1e9);
  auto b = p.add_host("hb", 1e9);
  p.add_route(a, b, {p.add_link("slow", 1e6, 0.0)});
  SimWorld world(std::move(p));
  double received_at = -1;
  world.spawn("sender", "ha", [] {
    auto peer = socket_client("hb", 9);
    msg_send(peer, "blob", Value(std::string(1000000, 'x')));
  });
  world.spawn("receiver", "hb", [&] {
    socket_server(9);
    (void)msg_wait(30.0, "blob");
    received_at = os_time();
  });
  world.run();
  // ~1 MB (+ encoding overhead) at 1e6 B/s.
  EXPECT_GT(received_at, 0.9);
  EXPECT_LT(received_at, 1.3);
}

TEST_F(GrasTest, MsgWaitTimeoutSim) {
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  bool timed_out = false;
  double when = -1;
  world.spawn("lonely", "left", [&] {
    socket_server(1);
    try {
      (void)msg_wait(2.0, "ping");
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
      when = os_time();
    }
  });
  world.run();
  EXPECT_TRUE(timed_out);
  EXPECT_NEAR(when, 2.0, 1e-6);
}

TEST_F(GrasTest, MsgWaitTimeoutReal) {
  RealWorld world;
  std::atomic<bool> timed_out{false};
  world.spawn("lonely", "h", [&] {
    socket_server(1);
    try {
      (void)msg_wait(0.2, "ping");
    } catch (const sg::xbt::TimeoutException&) {
      timed_out = true;
    }
  });
  world.join_all();
  EXPECT_TRUE(timed_out);
}

TEST_F(GrasTest, OutOfOrderTypesAreBuffered) {
  // A "pong" arriving while waiting for "ping" must not be lost.
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  int got_ping = 0, got_pong = 0;
  world.spawn("receiver", "left", [&] {
    socket_server(5);
    Message ping = msg_wait(10.0, "ping");  // pong arrives first, gets buffered
    got_ping = static_cast<int>(ping.payload.as_int());
    Message pong = msg_wait(10.0, "pong");  // served from the buffer
    got_pong = static_cast<int>(pong.payload.as_int());
  });
  world.spawn("sender", "right", [&] {
    auto peer = socket_client("left", 5);
    msg_send(peer, "pong", Value(2));
    os_sleep(0.5);
    msg_send(peer, "ping", Value(1));
  });
  world.run();
  EXPECT_EQ(got_ping, 1);
  EXPECT_EQ(got_pong, 2);
}

TEST_F(GrasTest, ConnectToMissingServerFails) {
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  bool refused = false;
  world.spawn("client", "left", [&] {
    try {
      (void)socket_client("right", 404);
    } catch (const sg::xbt::NetworkFailureException&) {
      refused = true;
    }
  });
  world.run();
  EXPECT_TRUE(refused);
}

TEST_F(GrasTest, UnknownMessageTypeRejected) {
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  bool threw = false;
  world.spawn("a", "left", [&] {
    socket_server(1);
    try {
      msg_send(socket_client("left", 1), "undeclared-type", Value(1));
    } catch (const sg::xbt::InvalidArgument&) {
      threw = true;
    }
  });
  world.run();
  EXPECT_TRUE(threw);
}

TEST_F(GrasTest, PayloadShapeCheckedAtSend) {
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  bool threw = false;
  world.spawn("a", "left", [&] {
    socket_server(2);
    auto self_sock = socket_client("left", 2);
    try {
      msg_send(self_sock, "ping", Value("not an int"));
    } catch (const sg::xbt::InvalidArgument&) {
      threw = true;
    }
  });
  world.run();
  EXPECT_TRUE(threw);
}

TEST_F(GrasTest, BenchAlwaysInjectsSimTime) {
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  double sim_elapsed = -1;
  world.spawn("bencher", "left", [&] {
    const double t0 = os_time();
    GRAS_BENCH_ALWAYS_BEGIN();
    // A real computation whose duration gets measured and simulated.
    volatile double x = 1.0;
    for (int i = 0; i < 2000000; ++i)
      x = x * 1.0000001;
    GRAS_BENCH_ALWAYS_END();
    sim_elapsed = os_time() - t0;
  });
  world.run();
  EXPECT_GT(sim_elapsed, 0.0);  // some simulated time passed
  EXPECT_LT(sim_elapsed, 10.0);
}

TEST_F(GrasTest, BenchOnceRunsBlockOnlyOnce) {
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  int executions = 0;
  std::vector<double> durations;
  world.spawn("bencher", "left", [&] {
    for (int i = 0; i < 5; ++i) {
      const double t0 = os_time();
      GRAS_BENCH_ONCE_RUN_ONCE_BEGIN();
      ++executions;
      volatile double x = 1.0;
      for (int j = 0; j < 1000000; ++j)
        x = x * 1.0000001;
      GRAS_BENCH_ONCE_RUN_ONCE_END();
      durations.push_back(os_time() - t0);
    }
  });
  world.run();
  EXPECT_EQ(executions, 1);
  ASSERT_EQ(durations.size(), 5u);
  // Every pass gets charged (roughly) the recorded duration.
  for (double d : durations)
    EXPECT_GT(d, 0.0);
}

TEST_F(GrasTest, MsgHandleDispatchesToCallback) {
  SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
  int handled = 0;
  world.spawn("server", "right", [&] {
    cb_register("ping", [&](Message& m) { handled = static_cast<int>(m.payload.as_int()); });
    socket_server(7);
    msg_handle(60.0);
  });
  world.spawn("client", "left", [&] {
    os_sleep(0.1);
    msg_send(socket_client("right", 7), "ping", Value(99));
  });
  world.run();
  EXPECT_EQ(handled, 99);
}

TEST_F(GrasTest, ApiOutsideProcessThrows) {
  EXPECT_THROW(os_time(), sg::xbt::InvalidArgument);
  EXPECT_THROW(socket_server(1), sg::xbt::InvalidArgument);
  EXPECT_THROW(msg_wait(1.0), sg::xbt::InvalidArgument);
}

TEST_F(GrasTest, RealWorldManyMessages) {
  msgtype_declare("count", datadesc_by_name("int"));
  RealWorld world;
  std::atomic<int> sum{0};
  world.spawn("server", "hs", [&] {
    socket_server(4100);
    for (int i = 0; i < 50; ++i) {
      Message m = msg_wait(10.0, "count");
      sum += static_cast<int>(m.payload.as_int());
    }
  });
  world.spawn("client", "hc", [&] {
    auto peer = socket_client("hs", 4100);
    for (int i = 1; i <= 50; ++i)
      msg_send(peer, "count", Value(i));
  });
  world.join_all();
  EXPECT_EQ(sum.load(), 50 * 51 / 2);
}

TEST_F(GrasTest, StructuredPayloadBothModes) {
  auto desc = sg::datadesc::DataDesc::struct_(
      "job", {{"id", datadesc_by_name("int")},
              {"sizes", sg::datadesc::DataDesc::dyn_array(datadesc_by_name("double"), "sizes")},
              {"tag", datadesc_by_name("string")}});
  msgtype_declare("job", desc);
  const Value job(sg::datadesc::ValueStruct{
      {"id", Value(7)},
      {"sizes", Value(sg::datadesc::ValueList{Value(1.5), Value(2.5)})},
      {"tag", Value("hello")},
  });

  // simulation
  {
    SimWorld world(sg::platform::make_dumbbell(1e9, 1e8, 0.0));
    Value got;
    world.spawn("s", "left", [&] {
      socket_server(3);
      got = msg_wait(10.0, "job").payload;
    });
    world.spawn("c", "right", [&] {
      os_sleep(0.01);
      msg_send(socket_client("left", 3), "job", job);
    });
    world.run();
    EXPECT_EQ(got, job);
  }
  // real world
  {
    RealWorld world;
    Value got;
    world.spawn("s", "left", [&] {
      socket_server(3);
      got = msg_wait(10.0, "job").payload;
    });
    world.spawn("c", "right", [&] {
      msg_send(socket_client("left", 3), "job", job);
    });
    world.join_all();
    EXPECT_EQ(got, job);
  }
}

}  // namespace
