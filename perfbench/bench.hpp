/// \file bench.hpp
/// Shared machinery of the benchmark driver: options, the repetition
/// schedule, output checks, the event-log digest, and metric plumbing.
///
/// A run repeats one workload's *rep* — set up from the seeded input, warm
/// up, time a fixed amount of simulated work, drain, check — until the
/// requested host seconds are spent, and reports medians over the reps
/// (the upper decile over the timed slices of all reps, for the event rate;
/// see main.cpp).
/// Because every rep simulates the same fixed work, every rep of one seed
/// must produce the same event-log digest and final clock; the driver checks
/// that, so speed-only changes can show their simulated results are
/// untouched.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;  ///< default seed; 7 is the held-out seed (README.md)
  double seconds = 10;
  bool trace = false;
};

/// FNV-1a over 64-bit words: the ordered event log's digest.
class Digest {
public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Output checks: every checked simulated operation is attempted once;
/// each violation is a failed operation.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool check(bool ok, const char* what) {
    ++attempted;
    if (!ok && ++failed <= 10)
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    return ok;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// How one rep runs. Traced reps wrap the calls into the library with
/// timestamps and turn engine/profile on; threads > 1 / parallel_actors are
/// the informational N-thread rows.
struct RepMode {
  bool traced = false;
  int threads = 1;
  bool parallel_actors = false;
  bool profile = false;
};

/// What one rep produced.
struct Rep {
  double setup_s = 0;   ///< parse + seal + Engine/Kernel + initial flows/actors
  double timed_s = 0;   ///< host seconds of the timed phase
  std::uint64_t events = 0;  ///< activities completed or failed in the timed phase
  /// events/s samples of the timed phase, one per fixed-size slice of it.
  std::vector<double> rates;
  std::uint64_t digest = 0;  ///< ordered event log of the whole rep
  double clock = 0;          ///< final simulated clock
  Metrics layer;  ///< per-layer metrics (traced reps); engine.lane_busy_share (N-thread reps)
};

using RepFn = std::function<Rep(const RepMode&, Checks&)>;

/// What a workload run reports.
struct Outcome {
  Checks checks;
  Metrics end_to_end;
  Metrics per_layer;
};

/// Run the repetition schedule for one workload (see main.cpp).
/// `nthread_mode` is the informational N-thread row of the traced run.
Outcome drive(const Options& opt, const RepFn& rep, const RepMode& nthread_mode);

Outcome run_zones_spread(const Options& opt);
Outcome run_master_worker(const Options& opt);
Outcome run_waxman_coupled(const Options& opt);

/// The paper's validation scenario (fidelity.cpp).
struct Fidelity {
  double err_max_pct = 0;
  double err_p50_pct = 0;
  int within15_seed2006 = 0;
  double worst_seed2006_pct = 0;
  double ref_s = 0;         ///< host seconds spent in the packet-level references
  double pkt_events = 0;    ///< packet-level events simulated (0 when cached)
};
/// `use_cache`: reuse the packet-level references of an earlier run of the
/// same binary (fidelity.cpp).
Fidelity run_fidelity(Checks& checks, bool use_cache);

/// Platform text for a BRITE/Waxman topology, in the same host/link/edge
/// order sg::topo::to_platform() builds it, so parsing it yields the same
/// platform (and the same routes) bit for bit. Hosts are `<prefix><i>`,
/// links `<prefix>-l<i>`.
std::string waxman_platform_text(int n_nodes, std::uint64_t seed, double latency_per_unit,
                                 const std::string& prefix = "node");

/// Solo lower bound of a transfer: route latency plus bytes over the
/// route's slowest link. A finished flow can never beat it.
double solo_lower_bound(const sg::platform::Platform& p, int src, int dst, double bytes);

/// Does a duration respect its lower bound (relative tolerance 1e-9)?
inline bool respects_bound(double duration, double bound) {
  return duration >= bound * (1 - 1e-9) - 1e-12;
}

/// Sets the engine config keys a RepMode names for the scope's lifetime
/// (keys the library no longer has are skipped).
class ScopedMode {
public:
  explicit ScopedMode(const RepMode& mode);
  ~ScopedMode();
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;
};

double median(std::vector<double> v);
/// Quantile by linear interpolation between order statistics, q in [0, 1].
double quantile(std::vector<double> v, double q);
double peak_rss_mb();
/// Bytes currently allocated through malloc (glibc mallinfo2).
double heap_bytes();
/// Current resident set size in bytes.
double rss_bytes();

}  // namespace perfbench
