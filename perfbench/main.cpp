/// perfbench_driver — the simulator's benchmark.
///
///   perfbench_driver --workload <zones_spread|master_worker|waxman_coupled>
///                    --seed <n> --seconds <s> --trace <0|1>
///
/// Prints informational lines, then one JSON object as the last line of
/// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
/// --trace 1 they are the per-layer ones, from a separate traced schedule.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <unistd.h>

#include "bench.hpp"
#include "core/engine.hpp"
#include "xbt/settings.hpp"

namespace perfbench {

// -- helpers -------------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty())
    return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double solo_lower_bound(const sg::platform::Platform& p, int src, int dst, double bytes) {
  const sg::platform::RouteView route = p.route(src, dst);
  double min_bw = INFINITY;
  for (sg::platform::LinkId l : route)
    min_bw = std::min(min_bw, p.link(l).bandwidth_Bps);
  return route.latency() + (std::isfinite(min_bw) ? bytes / min_bw : 0.0);
}

namespace {

// Config keys are set by name, so a row can be dropped rather than failed
// once its key is removed from the library.
bool config_has(const char* key) {
  for (const auto& k : sg::config::keys())
    if (k.name == key)
      return true;
  return false;
}
void config_set_flag(const char* key, bool value) {
  if (config_has(key))
    sg::config::set(sg::config::FlagKey{key}, value);
}
void config_set_int(const char* key, long value) {
  if (config_has(key))
    sg::config::set(sg::config::IntKey{key}, value);
}

}  // namespace

ScopedMode::ScopedMode(const RepMode& mode) {
  config_set_int("engine/threads", mode.threads);
  config_set_flag("engine/parallel-actors", mode.parallel_actors);
  config_set_flag("engine/profile", mode.profile || mode.traced);
}
ScopedMode::~ScopedMode() {
  config_set_int("engine/threads", 1);
  config_set_flag("engine/parallel-actors", false);
  config_set_flag("engine/profile", false);
}

namespace {

/// The reported event rate: the upper decile of the rate samples of all the
/// given reps. On a shared host, neighbours only ever slow a slice down, for
/// seconds to minutes at a time; the fastest tenth of the slices tracks the
/// simulator's own speed, where the median tracks the neighbours' load.
double reported_rate(const std::vector<double>& rates) { return quantile(rates, 0.9); }
double reported_rate(const std::vector<Rep>& reps) {
  std::vector<double> all;
  for (const Rep& r : reps)
    all.insert(all.end(), r.rates.begin(), r.rates.end());
  return reported_rate(all);
}

/// Median of every per-layer metric over the traced reps, in first-seen order.
Metrics median_by_name(const std::vector<Rep>& reps) {
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::vector<double>, std::string>> values;
  for (const Rep& r : reps)
    for (const Metric& m : r.layer) {
      auto [it, fresh] = values.try_emplace(m.name);
      if (fresh) {
        order.push_back(m.name);
        it->second.second = m.unit;
      }
      it->second.first.push_back(m.value);
    }
  Metrics out;
  for (const std::string& name : order)
    out.push_back({name, median(values[name].first), values[name].second});
  return out;
}

}  // namespace

Outcome drive(const Options& opt, const RepFn& rep, const RepMode& nthread_mode) {
  constexpr size_t kMinReps = 3;
  constexpr size_t kMaxReps = 200;
  Outcome out;
  std::vector<Rep> plain, traced;
  double timed = 0;
  auto run_one = [&](const RepMode& mode, const char* kind) {
    Rep r = rep(mode, out.checks);
    std::printf("rep %-8s setup %.3f s  timed %.3f s  %" PRIu64
                " events  events/s: median %.0f, upper decile %.0f\n",
                kind, r.setup_s, r.timed_s, r.events, median(r.rates), reported_rate(r.rates));
    std::fflush(stdout);
    return r;
  };
  double rss = 0;
  while (plain.size() < kMaxReps && (plain.size() < kMinReps || timed < opt.seconds)) {
    plain.push_back(run_one(RepMode{}, "untraced"));
    timed += plain.back().timed_s;
    if (plain.size() == 1)  // one instance's peak, before later reps fragment the heap
      rss = peak_rss_mb();
    if (opt.trace) {  // alternate, so drift hits both sides alike
      RepMode mode;
      mode.traced = true;
      traced.push_back(run_one(mode, "traced"));
      timed += traced.back().timed_s;
    }
  }

  // Every rep simulates the same fixed work: its event log must not vary.
  for (const std::vector<Rep>* reps : {&plain, &traced})
    for (const Rep& r : *reps) {
      out.checks.check(r.digest == plain.front().digest, "event-log digest differs between reps");
      out.checks.check(r.clock == plain.front().clock, "final clock differs between reps");
    }
  std::printf("reps: %zu untraced, %zu traced\n", plain.size(), traced.size());
  std::printf("event-log digest: %016" PRIx64 "  final clock: %.17g\n", plain.front().digest,
              plain.front().clock);
  Rep nthread;
  const bool nthread_row = opt.trace && config_has("engine/threads") &&
                           (!nthread_mode.parallel_actors || config_has("engine/parallel-actors"));
  if (nthread_row) {
    nthread = run_one(nthread_mode, "N-thread");
    std::printf("N-thread event-log digest: %016" PRIx64 "  final clock: %.17g\n", nthread.digest,
                nthread.clock);
  }

  std::vector<double> setup;
  for (const Rep& r : plain)
    setup.push_back(r.setup_s);
  const double plain_eps = reported_rate(plain);
  const Fidelity fid = run_fidelity(out.checks, /*use_cache=*/!opt.trace);

  out.end_to_end = {
      {"events_per_s", plain_eps, "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", rss, "MB"},
      {"fidelity_err_max_pct", fid.err_max_pct, "%"},
      {"fidelity_err_p50_pct", fid.err_p50_pct, "%"},
  };
  if (!opt.trace)
    return out;

  out.per_layer = median_by_name(traced);
  out.per_layer.push_back(
      {"trace.overhead_pct", 100.0 * (plain_eps / reported_rate(traced) - 1.0), "%"});
  if (nthread_row) {
    out.per_layer.push_back({"engine.threads4_speedup", reported_rate(nthread.rates) / plain_eps, "ratio"});
    out.per_layer.insert(out.per_layer.end(), nthread.layer.begin(), nthread.layer.end());
  } else {
    std::printf("N-thread row dropped: its config key no longer exists\n");
    out.per_layer.push_back({"engine.threads4_speedup", 1.0, "ratio"});
    out.per_layer.push_back({"engine.lane_busy_share", 0.0, "ratio"});
  }
  out.per_layer.push_back({"pkt.ref_s", fid.ref_s, "s"});
  out.per_layer.push_back({"pkt.events", fid.pkt_events, "count"});
  out.per_layer.push_back({"fidelity.within15_seed2006", static_cast<double>(fid.within15_seed2006), "count"});
  out.per_layer.push_back({"fidelity.worst_seed2006_pct", fid.worst_seed2006_pct, "%"});
  return out;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload <zones_spread|master_worker|waxman_coupled>"
               " [--seed N] [--seconds S] [--trace 0|1]\n",
               why);
  std::exit(2);
}

void print_result(const perfbench::Outcome& out, const perfbench::Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += out.checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.checks.attempted);
  json += ", \"failed\": " + std::to_string(out.checks.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc)
      usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, &end);
    } else if (arg == "--trace") {
      opt.trace = std::strtol(val, &end, 10) != 0;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == val))
      usage(("bad value for " + arg).c_str());
  }
  if (!(opt.seconds > 0))
    usage("--seconds must be positive");

  sg::core::declare_engine_config();
  perfbench::Outcome out;
  try {
    if (opt.workload == "zones_spread")
      out = perfbench::run_zones_spread(opt);
    else if (opt.workload == "master_worker")
      out = perfbench::run_master_worker(opt);
    else if (opt.workload == "waxman_coupled")
      out = perfbench::run_waxman_coupled(opt);
    else
      usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  const perfbench::Metrics& metrics = opt.trace ? out.per_layer : out.end_to_end;
  for (const perfbench::Metric& m : metrics)
    out.checks.check(std::isfinite(m.value), "metric is not a finite number");
  std::fflush(stderr);
  print_result(out, metrics);
  return 0;
}
