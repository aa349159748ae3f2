/// E7 — ablation behind the paper's "work in progress" note: "MaxMin
/// fairness less accurate for short-lived TCP flows. For short-lived flows,
/// one can use more accurate, but more expensive, packet-level simulation."
/// We sweep the flow size on the validation topology and report the fluid
/// model's error against packet level: it should grow as flows shrink below
/// the regime where slow start and the latency phase dominate.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "pkt/pkt.hpp"

namespace {

double mean_abs_error(const bench::ValidationScenario& sc, double bytes, double* worst) {
  sg::pkt::PacketNet net(sc.platform, sg::pkt::TcpParams::ns2());
  for (const auto& f : sc.flows)
    net.add_flow({f.src, f.dst, bytes, 0.0});
  net.run();

  sg::platform::Platform copy = sc.platform;
  sg::core::Engine engine(std::move(copy));
  std::vector<sg::core::ActionPtr> comms;
  for (const auto& f : sc.flows)
    comms.push_back(engine.comm_start(f.src, f.dst, bytes));
  while (engine.running_action_count() > 0)
    engine.run_until();

  double sum = 0;
  *worst = 0;
  for (size_t i = 0; i < sc.flows.size(); ++i) {
    const double t_pkt = net.result(static_cast<int>(i)).finish_time;
    const double t_fluid = comms[i]->finish_time();
    const double err = std::abs(t_fluid - t_pkt) / t_pkt;
    sum += err;
    *worst = std::max(*worst, err);
  }
  return sum / static_cast<double>(sc.flows.size());
}

}  // namespace

int main() {
  sg::core::declare_engine_config();
  auto sc = bench::make_validation_scenario(30, 10, 2006);

  std::printf("E7: fluid-model accuracy vs flow size (short-flow ablation)\n");
  std::printf("    10 flows on the validation topology, NS2-like packet reference\n\n");
  std::printf("%12s %18s %18s\n", "size/flow", "mean |error| (%)", "worst |error| (%)");
  for (double bytes : {1e4, 1e5, 1e6, 1e7, 1e8}) {
    double worst = 0;
    const double mean = mean_abs_error(sc, bytes, &worst);
    std::printf("%9.3g MB %17.1f%% %17.1f%%\n", bytes / 1e6, mean * 100, worst * 100);
  }
  std::printf("\npaper shape: errors shrink as flows grow (steady state); short flows are\n");
  std::printf("dominated by slow start, which the fluid model does not capture\n");
  return 0;
}
