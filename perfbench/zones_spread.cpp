/// zones_spread — engine only, no actors. 16 cluster zones x 2000
/// client/server pairs behind fat-pipe backbones, joined through a core
/// router by fat-pipe WAN links; three WAN links flap on seeded periodic
/// state traces. Each pair keeps one flow in flight, replaced on finish or
/// failure by a flow of log-uniform size (so completion dates rarely
/// coincide: about one event per run_until()); about 5% of replacements
/// target another zone and cross the WAN.
///
/// Why: the per-event serial spine does all the work — one tiny-component
/// incremental solve, a heap pop, the target pick — over ~32k live flows
/// whose solver and action state overflow a core's L2. This is the regime
/// where the sharded engine measured slower than engine/sharding:0, and the
/// WAN flaps drive the cross-shard failure paths.
#include <cmath>

#include "engine_churn.hpp"
#include "xbt/str.hpp"

namespace perfbench {
namespace {

constexpr int kZones = 16;
constexpr int kPairs = 2000;  // per zone
constexpr int kFlapping = 3;  // WAN links with a state trace
constexpr double kCrossZone = 0.05;

class ZonesSpread final : public ChurnWorkload {
public:
  explicit ZonesSpread(std::uint64_t seed) {
    sg::xbt::Rng rng(seed * 7919 + 1);
    for (int z = 0; z < kZones; ++z)
      text_ += sg::xbt::format(
          "cluster z%d hosts:%d prefix:z%d- speed:1Gf bw:125MBps lat:50us backbone:10GBps "
          "blat:50us fatpipe\n",
          z, 2 * kPairs, z);
    text_ += "router core\n";
    std::vector<bool> flaps(kZones, false);
    for (int n = 0; n < kFlapping;) {
      const auto z = static_cast<size_t>(rng.uniform_int(0, kZones - 1));
      if (!flaps[z]) {
        flaps[z] = true;
        ++n;
      }
    }
    for (int z = 0; z < kZones; ++z) {
      text_ += sg::xbt::format("link wan%d bw:1.25GBps lat:100us fatpipe", z);
      if (flaps[static_cast<size_t>(z)]) {
        // Down for 4 ms once every 40 ms simulated, at a seeded phase.
        const double down = rng.uniform(0.002, 0.034);
        text_ += sg::xbt::format(" state:\"0 1;%.6f 0;%.6f 1;P:0.04\"", down, down + 0.004);
      }
      text_ += sg::xbt::format("\nedge core z%d-out wan%d\n", z, z);
    }
  }

  const std::string& text() const { return text_; }

  int bind(const sg::platform::Platform& p) override {
    first_.clear();
    for (int z = 0; z < kZones; ++z)
      first_.push_back(p.zone_first_host(*p.zone_by_name(sg::xbt::format("z%d", z))));
    flapping_.assign(p.link_count(), false);
    for (size_t l = 0; l < p.link_count(); ++l)
      flapping_[l] = !p.link(static_cast<sg::platform::LinkId>(l)).state.empty();
    return kZones * kPairs;
  }

  void next_flow(int slot, sg::xbt::Rng& rng, int* src, int* dst, double* bytes) override {
    const int zone = slot / kPairs;
    const int pair = slot % kPairs;
    *src = first_[static_cast<size_t>(zone)] + 2 * pair;
    *dst = *src + 1;
    if (rng.uniform01() < kCrossZone) {
      const auto other = static_cast<int>((zone + 1 + rng.uniform_int(0, kZones - 2)) % kZones);
      *dst = first_[static_cast<size_t>(other)] + static_cast<int>(rng.uniform_int(0, 2 * kPairs - 1));
    }
    *bytes = std::pow(10.0, rng.uniform(5.0, 7.0));  // 100 kB .. 10 MB, log-uniform
  }

  bool failure_expected(const sg::core::Engine& engine, const sg::core::Action& a) const override {
    for (sg::platform::LinkId l : engine.platform().route(a.host(), a.peer_host()))
      if (flapping_[static_cast<size_t>(l)] && !engine.link_is_on(l))
        return true;
    return false;
  }

private:
  std::string text_;
  std::vector<int> first_;      // first member host of each zone
  std::vector<bool> flapping_;  // link id -> carries a state trace
};

}  // namespace

Outcome run_zones_spread(const Options& opt) {
  ZonesSpread w(opt.seed);
  ChurnBudget budget;
  budget.warmup_events = 5 * kZones * kPairs;
  budget.timed_events = 500000;
  budget.slice_events = 10000;
  RepMode nthread;
  nthread.threads = 4;
  nthread.profile = true;
  return drive(opt, [&](const RepMode& mode, Checks& checks) {
    return run_churn_rep(w.text(), opt.seed, w, budget, mode, checks);
  }, nthread);
}

}  // namespace perfbench
