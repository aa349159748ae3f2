/// waxman_coupled — engine only. A flat-graph platform of four BRITE/Waxman
/// graphs (100 nodes each, random bandwidths and latencies as in the paper's
/// validation topology), generated from the seed and passed in as parser
/// text; each graph's node 0 hangs off a core router. 800 concurrent flows
/// run between seeded random pairs inside one graph, under the same
/// replace-on-finish churn as zones_spread. The flows of a graph share its
/// links, so each event re-solves a coupled component of about 200 flows,
/// and the fresh pairs keep missing the SSSP/pair route caches.
///
/// Why: it uses maxmin and platform the other way round from zones_spread —
/// big closures instead of tiny ones, Dijkstra routing instead of cluster
/// composition — so a solver or routing gain for one regime that costs the
/// other shows here. Four graphs rather than one keep the per-event cost
/// from hinging on a single random topology: every timed slice mixes events
/// of all four, so seeds compare like for like.
#include <cmath>

#include "engine_churn.hpp"
#include "xbt/str.hpp"

namespace perfbench {
namespace {

constexpr int kGraphs = 4;
constexpr int kNodes = 100;  // per graph
constexpr int kFlowsPerGraph = 200;

class WaxmanCoupled final : public ChurnWorkload {
public:
  explicit WaxmanCoupled(std::uint64_t seed) {
    for (int g = 0; g < kGraphs; ++g)
      text_ += waxman_platform_text(kNodes, seed * 7919 + 3 + 104729 * static_cast<std::uint64_t>(g),
                                    2e-6, sg::xbt::format("g%d-n", g));
    text_ += "router core\n";
    for (int g = 0; g < kGraphs; ++g)
      text_ += sg::xbt::format("link g%d-up bw:125MBps lat:1ms\nedge g%d-n0 core g%d-up\n", g, g, g);
  }

  const std::string& text() const { return text_; }

  int bind(const sg::platform::Platform&) override { return kGraphs * kFlowsPerGraph; }

  void next_flow(int slot, sg::xbt::Rng& rng, int* src, int* dst, double* bytes) override {
    const int base = (slot % kGraphs) * kNodes;  // graph g's hosts are [g * kNodes, (g + 1) * kNodes)
    const int s = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    *src = base + s;
    *dst = base + static_cast<int>((s + 1 + rng.uniform_int(0, kNodes - 2)) % kNodes);
    *bytes = std::pow(10.0, rng.uniform(4.0, 6.0));  // 10 kB .. 1 MB, log-uniform
  }

  bool failure_expected(const sg::core::Engine&, const sg::core::Action&) const override {
    return false;  // no traces on this platform
  }

private:
  std::string text_;
};

}  // namespace

Outcome run_waxman_coupled(const Options& opt) {
  WaxmanCoupled w(opt.seed);
  ChurnBudget budget;
  budget.warmup_events = kGraphs * kFlowsPerGraph / 2;
  budget.timed_events = 3000;
  budget.slice_events = 100;
  budget.sample_every_rounds = 64;
  RepMode nthread;  // no zones: engine/threads clamps to the single shard
  nthread.threads = 4;
  nthread.profile = true;
  return drive(opt, [&](const RepMode& mode, Checks& checks) {
    return run_churn_rep(w.text(), opt.seed, w, budget, mode, checks);
  }, nthread);
}

}  // namespace perfbench
