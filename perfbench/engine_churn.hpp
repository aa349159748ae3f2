/// \file engine_churn.hpp
/// The rep shared by the two engine-only workloads (zones_spread,
/// waxman_coupled): parse the platform text, keep one flow in flight per
/// slot and replace each finished or failed flow with the slot's next one
/// (a closed loop: one flow per slot, no arrival schedule), then drain.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/engine.hpp"
#include "xbt/random.hpp"

namespace perfbench {

/// What differs between the engine workloads.
class ChurnWorkload {
public:
  virtual ~ChurnWorkload() = default;
  /// Learn host ids from the freshly parsed platform; returns the number of
  /// flow slots (each keeps one flow in flight).
  virtual int bind(const sg::platform::Platform& p) = 0;
  /// The slot's next flow. Only `rng` may be drawn from, so the flow
  /// sequence depends on the seed alone.
  virtual void next_flow(int slot, sg::xbt::Rng& rng, int* src, int* dst, double* bytes) = 0;
  /// Is this failure caused by a trace the benchmark scheduled?
  virtual bool failure_expected(const sg::core::Engine& engine, const sg::core::Action& a) const = 0;
};

/// Fixed simulated work of one rep, in events delivered by run_until().
struct ChurnBudget {
  std::uint64_t warmup_events = 0;
  std::uint64_t timed_events = 0;
  std::uint64_t slice_events = 0;            ///< timed events per rate sample
  std::uint64_t sample_every_rounds = 1024;  ///< link-load check period
};

Rep run_churn_rep(const std::string& platform_text, std::uint64_t seed, ChurnWorkload& w,
                  const ChurnBudget& budget, const RepMode& mode, Checks& checks);

}  // namespace perfbench
