/// Model fidelity: the paper's validation scenario (30-node BRITE/Waxman
/// topology, 10 random flows x 100 MB), fluid model against the two
/// packet-level references. Seed 2006 is the scenario bench_validation_flows
/// prints (7/10 flows within +/-15%, worst 20.5%); 2007 and 2008 are held
/// out. The scenarios are fixed, not drawn from --seed: the figures are a
/// property of the model, and every run must report the same ones.
///
/// The packet-level references are deterministic for a given build and cost
/// seconds per run, so untraced runs reuse them from a cache file next to
/// the driver binary, keyed by a hash of the binary itself (any rebuild
/// invalidates it). Traced runs always recompute them (pkt.ref_s,
/// pkt.events). The fluid side is recomputed on every run.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "core/engine.hpp"
#include "pkt/pkt.hpp"
#include "platform/parser.hpp"
#include "topo/brite.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

namespace perfbench {

std::string waxman_platform_text(int n_nodes, std::uint64_t seed, double latency_per_unit,
                                 const std::string& prefix) {
  sg::topo::WaxmanSpec spec;
  spec.n_nodes = n_nodes;
  spec.m_edges_per_node = 2;
  spec.seed = seed;
  spec.bw_min_Bps = 1.25e6;  // 10 Mb/s
  spec.bw_max_Bps = 1.25e7;  // 100 Mb/s
  spec.latency_per_unit = latency_per_unit;
  const sg::topo::Topology topo = sg::topo::generate_waxman(spec);
  std::string text;
  const char* pre = prefix.c_str();
  for (size_t i = 0; i < topo.nodes.size(); ++i)
    text += sg::xbt::format("host %s%zu speed:1e9\n", pre, i);
  for (size_t i = 0; i < topo.edges.size(); ++i) {
    const sg::topo::TopoEdge& e = topo.edges[i];
    text += sg::xbt::format("link %s-l%zu bw:%.17g lat:%.17g\n", pre, i, e.bandwidth_Bps, e.latency_s);
    text += sg::xbt::format("edge %s%d %s%d %s-l%zu\n", pre, e.from, pre, e.to, pre, i);
  }
  return text;
}

namespace {

constexpr int kNodes = 30;
constexpr int kFlows = 10;
constexpr double kBytes = 1e8;  // 100 MB, as in the paper

struct Pair {
  int src;
  int dst;
};

/// The flow pairs bench_validation_flows draws for the same seed.
std::vector<Pair> scenario_pairs(std::uint64_t seed) {
  sg::xbt::Rng rng(seed * 1000 + 7);
  std::vector<Pair> pairs;
  while (static_cast<int>(pairs.size()) < kFlows) {
    const int s = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    const int d = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    if (s != d)
      pairs.push_back({s, d});
  }
  return pairs;
}

std::vector<double> fluid_rates(const sg::platform::Platform& p, const std::vector<Pair>& pairs,
                                Checks& checks) {
  sg::core::Engine engine(p);
  std::vector<sg::core::ActionPtr> comms;
  for (const Pair& f : pairs)
    comms.push_back(engine.comm_start(f.src, f.dst, kBytes));
  while (engine.running_action_count() > 0)
    engine.run_until();
  std::vector<double> rates;
  for (size_t i = 0; i < comms.size(); ++i) {
    const double d = comms[i]->finish_time();
    checks.check(comms[i]->state() == sg::core::ActionState::kDone &&
                     respects_bound(d, solo_lower_bound(p, pairs[i].src, pairs[i].dst, kBytes)),
                 "fidelity: fluid flow did not finish within its solo bound");
    rates.push_back(kBytes / d);
  }
  return rates;
}

std::vector<double> packet_rates(const sg::platform::Platform& p, const std::vector<Pair>& pairs,
                                 const sg::pkt::TcpParams& params, Checks& checks, Fidelity& fid) {
  const auto t0 = Clock::now();
  sg::pkt::PacketNet net(p, params);
  for (const Pair& f : pairs)
    net.add_flow({f.src, f.dst, kBytes, 0.0});
  net.run();
  fid.ref_s += seconds_since(t0);
  fid.pkt_events += static_cast<double>(net.events_processed());
  std::vector<double> rates;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const sg::pkt::FlowResult& r = net.result(static_cast<int>(i));
    checks.check(r.finished && r.finish_time > 0, "fidelity: packet-level flow did not finish");
    rates.push_back(kBytes / r.finish_time);
  }
  return rates;
}

/// Reference rates per "<seed> <preset>", cached as text next to the binary.
class ReferenceCache {
public:
  ReferenceCache() {
    char exe[4096] = {};
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
      return;
    path_ = std::string(exe, static_cast<size_t>(n)) + ".pkt-cache";
    std::ifstream bin(std::string(exe, static_cast<size_t>(n)), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(bin)), std::istreambuf_iterator<char>());
    Digest d;
    for (size_t i = 0; i < bytes.size(); i += sizeof(std::uint64_t)) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i, std::min(sizeof word, bytes.size() - i));
      d.add(word);
    }
    key_ = sg::xbt::format("%016llx", static_cast<unsigned long long>(d.value()));
    std::ifstream in(path_);
    std::string line;
    if (!std::getline(in, line) || line != key_)
      return;
    while (std::getline(in, line)) {
      std::istringstream row(line);
      std::string name, preset;
      row >> name >> preset;
      std::vector<double> rates;
      for (double r = 0; row >> r;)
        rates.push_back(r);
      if (rates.size() == kFlows)
        entries_[name + " " + preset] = rates;
    }
  }

  const std::vector<double>* find(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }
  void put(const std::string& name, const std::vector<double>& rates) { entries_[name] = rates; }

  /// Write to a temporary file and rename it, so a concurrent reader never
  /// sees half a cache.
  void save() const {
    if (path_.empty() || key_.empty())
      return;
    const std::string tmp = path_ + sg::xbt::format(".%d", static_cast<int>(getpid()));
    {
      std::ofstream out(tmp);
      out << key_ << "\n";
      for (const auto& [name, rates] : entries_) {
        out << name;
        for (double r : rates)
          out << sg::xbt::format(" %.17g", r);
        out << "\n";
      }
    }
    std::rename(tmp.c_str(), path_.c_str());
  }

private:
  std::string path_;
  std::string key_;
  std::map<std::string, std::vector<double>> entries_;
};

}  // namespace

Fidelity run_fidelity(Checks& checks, bool use_cache) {
  Fidelity fid;
  ReferenceCache cache;
  bool dirty = false;
  auto reference = [&](const sg::platform::Platform& p, const std::vector<Pair>& pairs,
                       std::uint64_t seed, const char* preset, const sg::pkt::TcpParams& params) {
    const std::string name = sg::xbt::format("%llu %s", static_cast<unsigned long long>(seed), preset);
    if (const std::vector<double>* hit = use_cache ? cache.find(name) : nullptr) {
      for (double r : *hit)
        checks.check(std::isfinite(r) && r > 0, "fidelity: cached reference rate is not positive");
      return *hit;
    }
    std::vector<double> rates = packet_rates(p, pairs, params, checks, fid);
    cache.put(name, rates);
    dirty = true;
    return rates;
  };
  std::vector<double> errors;
  for (std::uint64_t seed : {2006, 2007, 2008}) {
    const sg::platform::Platform p = sg::platform::parse_platform(
        waxman_platform_text(kNodes, seed, 2e-6));
    const std::vector<Pair> pairs = scenario_pairs(seed);
    const std::vector<double> ns2 = reference(p, pairs, seed, "ns2", sg::pkt::TcpParams::ns2());
    const std::vector<double> gt = reference(p, pairs, seed, "gtnets", sg::pkt::TcpParams::gtnets());
    const std::vector<double> fluid = fluid_rates(p, pairs, checks);
    int within = 0;
    double worst = 0;
    for (int i = 0; i < kFlows; ++i) {
      const double e_ns2 = 100.0 * std::abs(fluid[i] - ns2[i]) / ns2[i];
      const double e_gt = 100.0 * std::abs(fluid[i] - gt[i]) / gt[i];
      errors.push_back(e_ns2);
      errors.push_back(e_gt);
      worst = std::max({worst, e_ns2, e_gt});
      within += std::max(e_ns2, e_gt) <= 15.0 ? 1 : 0;
    }
    std::printf("fidelity seed %llu: %d/%d flows within +/-15%% of both references, worst %.1f%%\n",
                static_cast<unsigned long long>(seed), within, kFlows, worst);
    if (seed == 2006) {
      fid.within15_seed2006 = within;
      fid.worst_seed2006_pct = worst;
    }
  }
  if (dirty)
    cache.save();
  fid.err_max_pct = *std::max_element(errors.begin(), errors.end());
  fid.err_p50_pct = median(errors);
  return fid;
}

}  // namespace perfbench
