/// Tests for the MaxMin fairness solver — the heart of SURF. Includes
/// parameterized property sweeps checking feasibility and max-min optimality
/// on random systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/maxmin.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"

namespace {

using sg::core::MaxMinSystem;

TEST(MaxMin, SingleVariableGetsFullCapacity) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v), 100.0);
  EXPECT_DOUBLE_EQ(sys.usage(c), 100.0);
}

TEST(MaxMin, EqualSharing) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(90.0);
  std::vector<MaxMinSystem::VarId> vars;
  for (int i = 0; i < 3; ++i) {
    auto v = sys.new_variable(1.0);
    sys.expand(c, v);
    vars.push_back(v);
  }
  sys.solve();
  for (auto v : vars)
    EXPECT_NEAR(sys.value(v), 30.0, 1e-9);
}

TEST(MaxMin, WeightedSharing) {
  // Weights act as growth shares: w=2 gets twice the allocation of w=1.
  MaxMinSystem sys;
  auto c = sys.new_constraint(90.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(2.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 30.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 60.0, 1e-9);
}

TEST(MaxMin, BoundCapsAllocation) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0, /*bound=*/10.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 10.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 90.0, 1e-9);  // leftover goes to the unbounded one
}

TEST(MaxMin, ZeroWeightSuspended) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(0.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v1), 0.0);
  EXPECT_NEAR(sys.value(v2), 100.0, 1e-9);
}

TEST(MaxMin, BottleneckChain) {
  // v1 crosses both constraints; v2 only the wide one. v1 is limited by the
  // narrow constraint, and v2 picks up the slack on the wide one.
  MaxMinSystem sys;
  auto narrow = sys.new_constraint(10.0);
  auto wide = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(narrow, v1);
  sys.expand(wide, v1);
  sys.expand(wide, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 10.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 90.0, 1e-9);
}

TEST(MaxMin, FatpipeCapsIndividually) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(50.0, /*shared=*/false);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  // Each flow gets the full capacity: a fatpipe does not divide.
  EXPECT_NEAR(sys.value(v1), 50.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 50.0, 1e-9);
  EXPECT_NEAR(sys.usage(c), 50.0, 1e-9);  // usage is the max, not the sum
}

TEST(MaxMin, CoefficientScalesConsumption) {
  // v consumes 2 units of c per unit of rate -> rate capped at cap/2.
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v, 2.0);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 50.0, 1e-9);
}

TEST(MaxMin, MultiResourceParallelTaskCoupling) {
  // One variable consuming two constraints with different coefficients is
  // limited by the tightest ratio — the L07 parallel-task situation.
  MaxMinSystem sys;
  auto cpu = sys.new_constraint(1000.0);
  auto link = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(cpu, v, 100.0);  // 100 flops per unit of progress
  sys.expand(link, v, 5.0);   // 5 bytes per unit of progress
  sys.solve();
  // cpu allows 10 units/s; link allows 2 units/s -> 2.
  EXPECT_NEAR(sys.value(v), 2.0, 1e-9);
}

TEST(MaxMin, ReleaseVariableFreesCapacity) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 50.0, 1e-9);
  sys.release_variable(v1);
  sys.solve();
  EXPECT_NEAR(sys.value(v2), 100.0, 1e-9);
  EXPECT_EQ(sys.variable_count(), 1u);
}

TEST(MaxMin, VariableIdReuse) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v1 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.release_variable(v1);
  auto v2 = sys.new_variable(1.0);  // recycles the slot
  EXPECT_EQ(v1, v2);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v2), 10.0, 1e-9);
}

TEST(MaxMin, RecycledVariableDoesNotReviveOldElements) {
  // Regression: release used to leave the released variable's elements in the
  // constraint (lazy compaction). When the id was recycled by a variable on a
  // *different* constraint, the stale element re-attached the new variable to
  // the old constraint as a phantom flow.
  MaxMinSystem sys;
  auto c1 = sys.new_constraint(90.0);
  auto other = sys.new_constraint(10.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  auto v3 = sys.new_variable(1.0);
  sys.expand(c1, v1);
  sys.expand(c1, v2);
  sys.expand(c1, v3);
  sys.solve();
  sys.release_variable(v3);  // 1 dead of 3: lazy compaction would not fire
  auto v4 = sys.new_variable(1.0);
  ASSERT_EQ(v4, v3);  // the id is recycled...
  sys.expand(other, v4);  // ...but onto an unrelated constraint
  sys.solve_full();
  EXPECT_NEAR(sys.value(v1), 45.0, 1e-9);  // c1 shared by v1/v2 only
  EXPECT_NEAR(sys.value(v2), 45.0, 1e-9);
  EXPECT_NEAR(sys.value(v4), 10.0, 1e-9);
  EXPECT_NEAR(sys.usage(c1), 90.0, 1e-9);
}

TEST(MaxMin, ZeroCapacityConstraint) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(0.0);  // failed resource
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v), 0.0);
}

TEST(MaxMin, UnconstrainedVariableGetsHugeRate) {
  MaxMinSystem sys;
  auto v = sys.new_variable(1.0);
  sys.solve();
  EXPECT_GE(sys.value(v), MaxMinSystem::kUnlimited);
}

TEST(MaxMin, UnboundedVariableWithOnlyFatpipe) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(42.0, /*shared=*/false);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 42.0, 1e-9);
}

TEST(MaxMin, InvalidArguments) {
  MaxMinSystem sys;
  EXPECT_THROW(sys.new_constraint(-1.0), sg::xbt::InvalidArgument);
  EXPECT_THROW(sys.new_variable(-1.0), sg::xbt::InvalidArgument);
  auto c = sys.new_constraint(1.0);
  auto v = sys.new_variable(1.0);
  EXPECT_THROW(sys.expand(c, v, 0.0), sg::xbt::InvalidArgument);
}

// Every solver entry point that takes an amount rejects NaN, infinities and
// out-of-range values with a typed error naming the call, and leaves the
// system as it was.
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInfinity = std::numeric_limits<double>::infinity();

template <typename Fn>
void expect_rejected(Fn&& fn, const char* call, double bad) {
  try {
    fn(bad);
    ADD_FAILURE() << call << " accepted " << bad;
  } catch (const sg::xbt::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(call), std::string::npos) << e.what();
  }
}

TEST(MaxMinValidation, NewVariableRejectsBadWeight) {
  MaxMinSystem sys;
  for (double bad : {kNaN, kInfinity, -kInfinity, -1.0})
    expect_rejected([&](double w) { sys.new_variable(w); }, "new_variable", bad);
  EXPECT_EQ(sys.variable_count(), 0u);
  EXPECT_NO_THROW(sys.new_variable(0.0));
}

TEST(MaxMinValidation, SetWeightRejectsBadWeight) {
  MaxMinSystem sys;
  const auto v = sys.new_variable(2.0);
  for (double bad : {kNaN, kInfinity, -kInfinity, -1.0})
    expect_rejected([&](double w) { sys.set_weight(v, w); }, "set_weight", bad);
  EXPECT_EQ(sys.weight(v), 2.0);
}

TEST(MaxMinValidation, ExpandRejectsBadCoefficient) {
  MaxMinSystem sys;
  const auto c = sys.new_constraint(10.0);
  const auto v = sys.new_variable(1.0);
  for (double bad : {kNaN, kInfinity, -kInfinity, -1.0, 0.0})
    expect_rejected([&](double coeff) { sys.expand(c, v, coeff); }, "expand", bad);
  EXPECT_EQ(sys.constraint_degree(c), 0u);
  EXPECT_EQ(sys.variable_degree(v), 0u);
}

TEST(MaxMinValidation, NewConstraintRejectsBadCapacity) {
  MaxMinSystem sys;
  for (bool shared : {true, false})
    for (double bad : {kNaN, kInfinity, -kInfinity, -1.0})
      expect_rejected([&](double cap) { sys.new_constraint(cap, shared); }, "new_constraint", bad);
  EXPECT_EQ(sys.constraint_count(), 0u);
  EXPECT_NO_THROW(sys.new_constraint(0.0));
}

TEST(MaxMinValidation, SetCapacityRejectsBadCapacity) {
  MaxMinSystem sys;
  const auto c = sys.new_constraint(10.0);
  const auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  for (double bad : {kNaN, kInfinity, -kInfinity, -1.0})
    expect_rejected([&](double cap) { sys.set_capacity(c, cap); }, "set_capacity", bad);
  EXPECT_EQ(sys.capacity(c), 10.0);
  EXPECT_FALSE(sys.needs_solve());
}

TEST(MaxMinValidation, SetBoundRejectsNaN) {
  MaxMinSystem sys;
  const auto v = sys.new_variable(1.0, 5.0);
  expect_rejected([&](double b) { sys.set_bound(v, b); }, "set_bound", kNaN);
  EXPECT_EQ(sys.bound(v), 5.0);
  // Negative means "no bound"; infinite bounds nothing either.
  EXPECT_NO_THROW(sys.set_bound(v, MaxMinSystem::kNoBound));
  EXPECT_NO_THROW(sys.set_bound(v, kInfinity));
}

TEST(MaxMin, ExpandRejectsBadIds) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  // Out-of-range ids (both signs) throw the xbt exception, not std::out_of_range.
  EXPECT_THROW(sys.expand(c + 1, v), sg::xbt::Exception);
  EXPECT_THROW(sys.expand(-1, v), sg::xbt::Exception);
  EXPECT_THROW(sys.expand(c, v + 1), sg::xbt::Exception);
  EXPECT_THROW(sys.expand(c, -1), sg::xbt::Exception);
}

TEST(MaxMin, ExpandRejectsReleasedVariable) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.release_variable(v);
  EXPECT_THROW(sys.expand(c, v), sg::xbt::InvalidArgument);
  // The slot stays usable once legitimately recycled.
  auto v2 = sys.new_variable(1.0);
  EXPECT_NO_THROW(sys.expand(c, v2));
}

TEST(MaxMin, CapacityUpdateChangesSolution) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9);
  sys.set_capacity(c, 25.0);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 25.0, 1e-9);
}

// -- property-based sweep -------------------------------------------------------
//
// On random systems, the solution must be (a) feasible: no shared constraint
// over capacity, no fatpipe element over capacity, no variable over bound;
// (b) max-min optimal: every active variable is blocked by *something* — a
// saturated shared constraint it crosses, a fatpipe cap, or its own bound.

// gtest names each case by the raw bytes of its parameter. `name_bytes` fills
// what would otherwise be uninitialised trailing padding, so every build lists
// the same names; left zero, they keep the names this suite is listed under.
struct RandomSystemParams {
  std::uint64_t seed;
  int n_vars;
  int n_cnsts;
  bool with_bounds;
  bool with_fatpipes;
  bool with_weights;
  unsigned char name_bytes[5];
};
static_assert(sizeof(RandomSystemParams) == 24, "RandomSystemParams must have no padding");

class MaxMinProperty : public ::testing::TestWithParam<RandomSystemParams> {};

TEST_P(MaxMinProperty, FeasibleAndMaxMinOptimal) {
  const auto p = GetParam();
  sg::xbt::Rng rng(p.seed);
  MaxMinSystem sys;

  std::vector<MaxMinSystem::CnstId> cnsts;
  std::vector<bool> shared;
  std::vector<double> caps;
  for (int c = 0; c < p.n_cnsts; ++c) {
    const bool sh = !p.with_fatpipes || rng.uniform01() < 0.7;
    const double cap = rng.uniform(10.0, 1000.0);
    cnsts.push_back(sys.new_constraint(cap, sh));
    shared.push_back(sh);
    caps.push_back(cap);
  }

  struct VarInfo {
    MaxMinSystem::VarId id;
    double weight;
    double bound;
    std::vector<int> used;  // constraint indices
    std::vector<double> coeffs;
  };
  std::vector<VarInfo> vars;
  for (int i = 0; i < p.n_vars; ++i) {
    VarInfo info;
    info.weight = p.with_weights ? rng.uniform(0.5, 4.0) : 1.0;
    info.bound = (p.with_bounds && rng.uniform01() < 0.4) ? rng.uniform(5.0, 200.0) : -1.0;
    info.id = sys.new_variable(info.weight, info.bound);
    const int uses = static_cast<int>(rng.uniform_int(1, std::min(3, p.n_cnsts)));
    for (int u = 0; u < uses; ++u) {
      const int c = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(p.n_cnsts - 1)));
      const double coeff = rng.uniform(0.5, 2.0);
      sys.expand(cnsts[static_cast<size_t>(c)], info.id, coeff);
      info.used.push_back(c);
      info.coeffs.push_back(coeff);
    }
    vars.push_back(info);
  }

  sys.solve();

  const double tol = 1e-6;
  // (a) feasibility
  std::vector<double> usage_sum(static_cast<size_t>(p.n_cnsts), 0.0);
  std::vector<double> usage_max(static_cast<size_t>(p.n_cnsts), 0.0);
  for (const auto& v : vars) {
    const double val = sys.value(v.id);
    EXPECT_GE(val, 0.0);
    if (v.bound >= 0) {
      EXPECT_LE(val, v.bound * (1 + tol));
    }
    for (size_t k = 0; k < v.used.size(); ++k) {
      usage_sum[static_cast<size_t>(v.used[k])] += v.coeffs[k] * val;
      usage_max[static_cast<size_t>(v.used[k])] =
          std::max(usage_max[static_cast<size_t>(v.used[k])], v.coeffs[k] * val);
    }
  }
  for (int c = 0; c < p.n_cnsts; ++c) {
    if (shared[static_cast<size_t>(c)])
      EXPECT_LE(usage_sum[static_cast<size_t>(c)], caps[static_cast<size_t>(c)] * (1 + tol))
          << "shared constraint " << c << " over capacity";
    else
      EXPECT_LE(usage_max[static_cast<size_t>(c)], caps[static_cast<size_t>(c)] * (1 + tol))
          << "fatpipe constraint " << c << " over capacity";
  }

  // (b) optimality: every variable is blocked by something.
  for (const auto& v : vars) {
    const double val = sys.value(v.id);
    bool blocked = false;
    if (v.bound >= 0 && val >= v.bound * (1 - tol))
      blocked = true;
    for (size_t k = 0; k < v.used.size() && !blocked; ++k) {
      const int c = v.used[k];
      if (shared[static_cast<size_t>(c)]) {
        if (usage_sum[static_cast<size_t>(c)] >= caps[static_cast<size_t>(c)] * (1 - tol))
          blocked = true;
      } else {
        if (v.coeffs[k] * val >= caps[static_cast<size_t>(c)] * (1 - tol))
          blocked = true;
      }
    }
    EXPECT_TRUE(blocked) << "variable with value " << val << " is not blocked by anything";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSystems, MaxMinProperty,
    ::testing::Values(RandomSystemParams{1, 5, 3, false, false, false, {}},
                      RandomSystemParams{2, 10, 4, true, false, false, {}},
                      RandomSystemParams{3, 10, 4, false, true, false, {}},
                      RandomSystemParams{4, 20, 6, true, true, false, {}},
                      RandomSystemParams{5, 20, 6, true, true, true, {}},
                      RandomSystemParams{6, 50, 10, true, true, true, {}},
                      RandomSystemParams{7, 100, 15, true, true, true, {}},
                      RandomSystemParams{8, 200, 20, true, true, true, {}},
                      RandomSystemParams{9, 40, 2, false, false, true, {}},
                      RandomSystemParams{10, 8, 8, true, false, true, {}}));

// -- incremental solving --------------------------------------------------------

TEST(MaxMinIncremental, UntouchedComponentStaysFrozen) {
  MaxMinSystem sys;
  auto c1 = sys.new_constraint(100.0);
  auto c2 = sys.new_constraint(60.0);
  auto v1 = sys.new_variable(1.0);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c1, v1);
  sys.expand(c2, v2);
  sys.solve();  // first solve is full
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 60.0, 1e-9);

  const auto solves_before = sys.solve_stats().solves;
  const auto visited_before = sys.solve_stats().vars_visited;
  sys.set_capacity(c2, 30.0);
  sys.solve();
  // Only v2's component was re-solved.
  EXPECT_EQ(sys.solve_stats().solves, solves_before + 1);
  EXPECT_EQ(sys.solve_stats().vars_visited, visited_before + 1);
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 30.0, 1e-9);
  ASSERT_EQ(sys.changed_variables().size(), 1u);
  EXPECT_EQ(sys.changed_variables()[0], v2);
}

TEST(MaxMinIncremental, SolveIsNoOpWhenClean) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.solve();
  EXPECT_FALSE(sys.needs_solve());
  const auto solves_before = sys.solve_stats().solves;
  sys.solve();
  EXPECT_EQ(sys.solve_stats().solves, solves_before);
  EXPECT_TRUE(sys.changed_variables().empty());
  // A no-op mutation does not dirty anything either.
  sys.set_capacity(c, 10.0);
  sys.set_weight(v, 1.0);
  EXPECT_FALSE(sys.needs_solve());
}

TEST(MaxMinIncremental, NewFlowOnSharedConstraintResharesPeers) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v1 = sys.new_variable(1.0);
  sys.expand(c, v1);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
  auto v2 = sys.new_variable(1.0);
  sys.expand(c, v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 50.0, 1e-9);
  EXPECT_NEAR(sys.value(v2), 50.0, 1e-9);
  sys.release_variable(v2);
  sys.solve();
  EXPECT_NEAR(sys.value(v1), 100.0, 1e-9);
}

TEST(MaxMinIncremental, FatpipeBackboneDoesNotMergeComponents) {
  // The cluster shape: every flow crosses its private link plus one shared
  // backbone fatpipe. Churning one flow must not pull the other flows'
  // components into the re-solve (a fatpipe caps users independently), but a
  // backbone capacity change must reach all of them.
  MaxMinSystem sys;
  auto backbone = sys.new_constraint(1000.0, /*shared=*/false);
  std::vector<MaxMinSystem::CnstId> links;
  std::vector<MaxMinSystem::VarId> flows;
  for (int i = 0; i < 8; ++i) {
    links.push_back(sys.new_constraint(100.0 + i));
    auto v = sys.new_variable(1.0);
    sys.expand(links.back(), v);
    sys.expand(backbone, v);
    flows.push_back(v);
  }
  sys.solve();

  const auto full_before = sys.solve_stats().full_solves;
  const auto visited_before = sys.solve_stats().vars_visited;
  sys.release_variable(flows[0]);
  flows[0] = sys.new_variable(1.0);
  sys.expand(links[0], flows[0]);
  sys.expand(backbone, flows[0]);
  sys.solve();
  EXPECT_EQ(sys.solve_stats().full_solves, full_before) << "churn fell back to a full solve";
  EXPECT_EQ(sys.solve_stats().vars_visited, visited_before + 1)
      << "churning one flow re-solved other fatpipe users";
  EXPECT_NEAR(sys.value(flows[0]), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(flows[3]), 103.0, 1e-9);

  // Capacity change on the fatpipe affects every user's cap.
  sys.set_capacity(backbone, 50.0);
  sys.solve();
  for (auto v : flows)
    EXPECT_NEAR(sys.value(v), 50.0, 1e-9);
}

// The headline property: after an arbitrary mutation history, the incremental
// solve must produce exactly the allocation a from-scratch solve computes.
// 1000 mixed mutations; every 10 mutations the incremental result is compared
// to solve_full() on every live variable.
TEST(MaxMinIncremental, EquivalentToFullSolveUnderRandomMutations) {
  sg::xbt::Rng rng(20260730);
  MaxMinSystem sys;

  // Constraints come in small clusters and variables only expand within one
  // cluster — the shape of real platforms (mostly-independent flows), which
  // keeps connected components small so the incremental path is exercised
  // instead of always falling back to solve_full().
  constexpr int kClusters = 20;
  constexpr int kCnstsPerCluster = 3;
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < kClusters * kCnstsPerCluster; ++c)
    cnsts.push_back(sys.new_constraint(rng.uniform(10.0, 1000.0), rng.uniform01() < 0.8));
  std::vector<MaxMinSystem::VarId> live;
  auto random_cnst = [&] { return cnsts[rng.uniform_int(0, cnsts.size() - 1)]; };
  auto add_var = [&] {
    const double bound = rng.uniform01() < 0.3 ? rng.uniform(5.0, 200.0) : MaxMinSystem::kNoBound;
    auto v = sys.new_variable(rng.uniform01() < 0.1 ? 0.0 : rng.uniform(0.5, 4.0), bound);
    const auto cluster = rng.uniform_int(0, kClusters - 1);
    const int uses = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int u = 0; u < uses; ++u) {
      const auto c = cluster * kCnstsPerCluster + rng.uniform_int(0, kCnstsPerCluster - 1);
      sys.expand(cnsts[static_cast<size_t>(c)], v, rng.uniform(0.5, 2.0));
    }
    live.push_back(v);
  };
  for (int i = 0; i < 60; ++i)
    add_var();
  sys.solve();

  for (int step = 1; step <= 1000; ++step) {
    const double kind = rng.uniform01();
    if (kind < 0.25 || live.empty()) {
      add_var();
    } else if (kind < 0.45) {
      const size_t k = rng.uniform_int(0, live.size() - 1);
      sys.release_variable(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (kind < 0.65) {
      sys.set_weight(live[rng.uniform_int(0, live.size() - 1)],
                     rng.uniform01() < 0.15 ? 0.0 : rng.uniform(0.5, 4.0));
    } else if (kind < 0.8) {
      sys.set_bound(live[rng.uniform_int(0, live.size() - 1)],
                    rng.uniform01() < 0.3 ? MaxMinSystem::kNoBound : rng.uniform(5.0, 200.0));
    } else {
      sys.set_capacity(random_cnst(), rng.uniform(10.0, 1000.0));
    }

    sys.solve();  // incremental

    if (step % 10 == 0) {
      std::vector<double> incremental(live.size());
      for (size_t k = 0; k < live.size(); ++k)
        incremental[k] = sys.value(live[k]);
      sys.solve_full();
      for (size_t k = 0; k < live.size(); ++k) {
        const double full = sys.value(live[k]);
        EXPECT_NEAR(incremental[k], full, 1e-9 * std::max(1.0, std::abs(full)))
            << "step " << step << ", variable " << live[k];
      }
    }
  }

  // The sweep must actually have exercised the incremental path.
  const auto& stats = sys.solve_stats();
  EXPECT_GT(stats.solves, stats.full_solves * 2)
      << "incremental path was not exercised (solves=" << stats.solves
      << ", full=" << stats.full_solves << ")";
}

// Kept snapshots under the mutations that reshape components. Flows live in
// three clusters of shared constraints, each big enough that its component
// keeps its dense snapshot between solves. Bridge variables merge two kept
// components and their release splits them again; constraints are released
// with their users on them and their ids recycled; fresh idle constraints
// join a kept component through their first user; capacities move on shared
// constraints and on fat pipes every cluster crosses; weights drop to zero
// and come back. A twin system replays every call and is solved from
// scratch: each value must match it, and every moved allocation must be
// reported by changed_variables().
TEST(MaxMinIncremental, EquivalentToFullSolveUnderMergesAndSplits) {
  sg::xbt::Rng rng(20261020);
  MaxMinSystem sys;
  MaxMinSystem ref;
  constexpr int kClusters = 3;
  constexpr int kLinks = 10;  // shared constraints per cluster
  std::vector<std::vector<MaxMinSystem::CnstId>> links(kClusters);
  std::vector<MaxMinSystem::CnstId> pipes;
  auto new_cnst = [&](double cap, bool shared) {
    const auto c = sys.new_constraint(cap, shared);
    EXPECT_EQ(ref.new_constraint(cap, shared), c);
    return c;
  };
  for (auto& cl : links)
    for (int l = 0; l < kLinks; ++l)
      cl.push_back(new_cnst(rng.uniform(50.0, 500.0), true));
  for (int f = 0; f < 2; ++f)
    pipes.push_back(new_cnst(rng.uniform(20.0, 300.0), false));

  std::vector<MaxMinSystem::CnstId> side;  // links of small components
  std::vector<MaxMinSystem::VarId> live;
  std::vector<MaxMinSystem::VarId> bridges;
  std::vector<double> last;  // by var id: the value after the last check
  auto expand = [&](MaxMinSystem::CnstId c, MaxMinSystem::VarId v) {
    const double coeff = rng.uniform01() < 0.7 ? 1.0 : rng.uniform(0.5, 2.0);
    sys.expand(c, v, coeff);
    ref.expand(c, v, coeff);
  };
  auto new_var = [&] {
    const double w = rng.uniform01() < 0.15 ? 0.0 : rng.uniform(0.5, 3.0);
    const double b = rng.uniform01() < 0.25 ? rng.uniform(5.0, 100.0) : MaxMinSystem::kNoBound;
    const auto v = sys.new_variable(w, b);
    EXPECT_EQ(ref.new_variable(w, b), v);
    if (last.size() <= static_cast<size_t>(v))
      last.resize(static_cast<size_t>(v) + 1, 0.0);
    last[static_cast<size_t>(v)] = 0.0;
    live.push_back(v);
    return v;
  };
  auto route = [&](size_t cluster, MaxMinSystem::VarId v) {
    const int hops = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int h = 0; h < hops; ++h) {
      if (rng.uniform01() < 0.15)
        expand(pipes[rng.uniform_int(0, pipes.size() - 1)], v);
      expand(links[cluster][rng.uniform_int(0, links[cluster].size() - 1)], v);
    }
  };
  auto release = [&](MaxMinSystem::VarId v) {
    sys.release_variable(v);
    ref.release_variable(v);
    live.erase(std::find(live.begin(), live.end(), v));
    bridges.erase(std::remove(bridges.begin(), bridges.end(), v), bridges.end());
  };
  for (size_t cl = 0; cl < kClusters; ++cl)
    for (int i = 0; i < 45; ++i)
      route(cl, new_var());

  size_t kept_steps = 0;
  size_t max_kept = 0;
  size_t checked = 0;
  for (int step = 1; step <= 4000; ++step) {
    const double kind = rng.uniform01();
    const size_t cluster = rng.uniform_int(0, kClusters - 1);
    if (kind < 0.2 || live.size() < 60) {
      route(cluster, new_var());
    } else if (kind < 0.23) {
      // A bridge: a route through two clusters merges their components.
      const auto v = new_var();
      route(cluster, v);
      route((cluster + 1 + rng.uniform_int(0, kClusters - 2)) % kClusters, v);
      bridges.push_back(v);
    } else if (kind < 0.26 && !bridges.empty()) {
      release(bridges[rng.uniform_int(0, bridges.size() - 1)]);  // a split
    } else if (kind < 0.45) {
      release(live[rng.uniform_int(0, live.size() - 1)]);
    } else if (kind < 0.46) {
      // A burst of releases: what a snapshot covers shrinks to a fraction.
      for (size_t k = live.size(); k-- > 0 && live.size() > 60;)
        if (rng.uniform01() < 0.7)
          release(live[k]);
    } else if (kind < 0.6) {
      const auto v = live[rng.uniform_int(0, live.size() - 1)];
      const double w = rng.uniform01() < 0.25 ? 0.0 : rng.uniform(0.5, 3.0);
      sys.set_weight(v, w);
      ref.set_weight(v, w);
    } else if (kind < 0.7) {
      const auto v = live[rng.uniform_int(0, live.size() - 1)];
      const double b = rng.uniform01() < 0.4 ? MaxMinSystem::kNoBound : rng.uniform(5.0, 100.0);
      sys.set_bound(v, b);
      ref.set_bound(v, b);
    } else if (kind < 0.84) {
      const bool pipe = rng.uniform01() < 0.3;
      const auto c = pipe ? pipes[rng.uniform_int(0, pipes.size() - 1)]
                          : links[cluster][rng.uniform_int(0, links[cluster].size() - 1)];
      const double cap = rng.uniform01() < 0.1 ? 0.0 : rng.uniform(pipe ? 20.0 : 50.0, pipe ? 300.0 : 500.0);
      sys.set_capacity(c, cap);
      ref.set_capacity(c, cap);
    } else if (kind < 0.855) {
      // Release a link or a fat pipe under its users; a fresh constraint
      // recycles its id.
      const bool pipe = rng.uniform01() < 0.3;
      auto& pool = pipe ? pipes : links[cluster];
      const size_t k = rng.uniform_int(0, pool.size() - 1);
      sys.release_constraint(pool[k]);
      ref.release_constraint(pool[k]);
      const auto c = new_cnst(rng.uniform(pipe ? 20.0 : 50.0, pipe ? 300.0 : 500.0), !pipe);
      EXPECT_EQ(c, pool[k]) << "constraint id not recycled";
      pool[k] = c;
    } else if (kind < 0.87) {
      // An idle link: the next route through it may start there.
      links[cluster].push_back(new_cnst(rng.uniform(50.0, 500.0), true));
      const auto v = new_var();
      expand(links[cluster].back(), v);
      route(cluster, v);
    } else if (kind < 0.88) {
      // A small component of two flows on a link of their own...
      side.push_back(new_cnst(rng.uniform(50.0, 500.0), true));
      for (int k = 0; k < 2; ++k)
        expand(side.back(), new_var());
    } else if (kind < 0.89 && !side.empty()) {
      // ...that a route from it into a cluster merges with the cluster's.
      const auto v = new_var();
      expand(side[rng.uniform_int(0, side.size() - 1)], v);
      route(cluster, v);
    } else {
      // A flow expanded onto one more link of a cluster (a duplicate, at
      // times; a merge, when the cluster is another one).
      const auto v = live[rng.uniform_int(0, live.size() - 1)];
      expand(links[cluster][rng.uniform_int(0, links[cluster].size() - 1)], v);
    }

    sys.solve();
    ref.solve_full();
    const auto kept = sys.memory_stats().kept_snapshots;
    kept_steps += kept > 0 ? 1 : 0;
    max_kept = std::max(max_kept, kept);
    std::vector<char> reported(last.size(), 0);
    for (const auto v : sys.changed_variables())
      reported[static_cast<size_t>(v)] = 1;
    for (const auto v : live) {
      const double got = sys.value(v);
      const double want = ref.value(v);
      ASSERT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << "step " << step << " var " << v;
      ASSERT_TRUE(got == last[static_cast<size_t>(v)] || reported[static_cast<size_t>(v)])
          << "step " << step << ": var " << v << " moved from " << last[static_cast<size_t>(v)] << " to "
          << got << " without a changed_variables report";
      last[static_cast<size_t>(v)] = got;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100000u);
  // The sweep must have run on kept snapshots, several at a time.
  EXPECT_GT(kept_steps, 2000u);
  EXPECT_GE(max_kept, 2u);
}

// A variable suspended (weight 0) since the last solve, then expanded onto
// a kept component, joins that snapshot still holding its old value: the
// next solve must take it to 0.
TEST(MaxMinIncremental, SuspendedVariableJoiningAKeptSnapshotDropsToZero) {
  MaxMinSystem sys;
  const auto shared = sys.new_constraint(100.0);
  for (size_t i = 0; i < MaxMinSystem::kKeepMinVars; ++i)
    sys.expand(shared, sys.new_variable(1.0));
  const auto own = sys.new_constraint(10.0);
  const auto v = sys.new_variable(1.0);
  sys.expand(own, v);
  sys.solve();
  ASSERT_EQ(sys.memory_stats().kept_snapshots, 1u);
  ASSERT_DOUBLE_EQ(sys.value(v), 10.0);
  sys.set_weight(v, 0.0);
  sys.expand(shared, v);
  sys.solve();
  EXPECT_EQ(sys.value(v), 0.0);
  EXPECT_DOUBLE_EQ(sys.value(0), 100.0 / MaxMinSystem::kKeepMinVars);
}

// Kept snapshots count in memory_stats(): the bytes rise when a big
// component keeps its snapshot and fall back when solve_full() drops it and
// the component, shrunk below the size that keeps one, is solved afresh.
TEST(MaxMinIncremental, MemoryStatsCountKeptSnapshots) {
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> links;
  for (int c = 0; c < 8; ++c)
    links.push_back(sys.new_constraint(100.0 + c));
  std::vector<MaxMinSystem::VarId> flows;
  for (size_t i = 0; i < 2 * MaxMinSystem::kKeepMinVars; ++i) {
    flows.push_back(sys.new_variable(1.0));
    sys.expand(links[i % links.size()], flows.back());
    sys.expand(links[(i + 1) % links.size()], flows.back());
  }
  sys.solve();
  const auto kept = sys.memory_stats();
  EXPECT_EQ(kept.kept_snapshots, 1u);
  EXPECT_GT(kept.snapshot_bytes, 0u);
  EXPECT_EQ(kept.total_bytes(), kept.arena_bytes + kept.soa_bytes + kept.snapshot_bytes);

  while (flows.size() >= MaxMinSystem::kKeepMinVars) {
    sys.release_variable(flows.back());
    flows.pop_back();
  }
  sys.solve_full();
  const auto dropped = sys.memory_stats();
  EXPECT_EQ(dropped.kept_snapshots, 0u);
  EXPECT_EQ(dropped.snapshot_bytes, 0u);
  EXPECT_LT(dropped.total_bytes(), kept.total_bytes());
}

// -- element arena ---------------------------------------------------------------
//
// The incidence lists live in a shared arena of 4-entry nodes with an
// index-linked free list. These tests pin the recycling invariants: churn
// must not grow the arena, degree growth past the small-buffer threshold
// must chain nodes correctly, and released ids (variables *and* constraints)
// must never revive stale elements.

TEST(MaxMinArena, ReleaseReuseCyclesKeepFootprintFlat) {
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < 10; ++c)
    cnsts.push_back(sys.new_constraint(100.0 + c));

  auto build = [&] {
    std::vector<MaxMinSystem::VarId> vars;
    for (int i = 0; i < 100; ++i) {
      auto v = sys.new_variable(1.0);
      for (int u = 0; u < 3; ++u)
        sys.expand(cnsts[static_cast<size_t>((i + u) % 10)], v);
      vars.push_back(v);
    }
    return vars;
  };

  auto vars = build();
  sys.solve();
  const auto baseline = sys.memory_stats();
  EXPECT_GT(baseline.arena_nodes_in_use, 0u);

  for (int cycle = 0; cycle < 50; ++cycle) {
    for (auto v : vars)
      sys.release_variable(v);
    EXPECT_EQ(sys.variable_count(), 0u);
    vars = build();
    sys.solve();
  }

  const auto after = sys.memory_stats();
  // Same shape rebuilt 50 times: the free lists must hand back the same
  // nodes and ids, not grow the arena.
  EXPECT_EQ(after.arena_nodes_in_use, baseline.arena_nodes_in_use);
  EXPECT_EQ(after.arena_nodes_allocated, baseline.arena_nodes_allocated);
  EXPECT_EQ(after.arena_bytes, baseline.arena_bytes);
  EXPECT_EQ(after.live_variables, 100u);
}

TEST(MaxMinArena, DegreeGrowthPastSmallBufferThreshold) {
  // Degree <= 4 fits one node; 19 constraints forces a 5-node chain. The
  // allocation must still be limited by the tightest cap / coeff ratio.
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  auto v = sys.new_variable(1.0);
  for (int c = 0; c < 19; ++c) {
    auto id = sys.new_constraint(100.0 + 10.0 * c);
    sys.expand(id, v, 1.0 + c);  // cap/coeff minimized at c=18: 280/19
    cnsts.push_back(id);
  }
  EXPECT_EQ(sys.variable_degree(v), 19u);
  for (auto c : cnsts)
    EXPECT_EQ(sys.constraint_degree(c), 1u);
  sys.solve();
  double tightest = 1e30;
  for (int c = 0; c < 19; ++c)
    tightest = std::min(tightest, (100.0 + 10.0 * c) / (1.0 + c));
  EXPECT_NEAR(sys.value(v), tightest, 1e-9 * tightest);

  const auto in_use = sys.memory_stats().arena_nodes_in_use;
  sys.release_variable(v);
  // The 5-node chain and the 19 single-entry constraint nodes all free.
  EXPECT_EQ(sys.memory_stats().arena_nodes_in_use, in_use - 5 - 19);
}

TEST(MaxMinArena, DuplicateExpandAddsConsumption) {
  // Expanding the same (cnst, var) twice keeps both elements: consumption is
  // additive, exactly like the old per-object vector layout.
  MaxMinSystem sys;
  auto c = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v, 1.0);
  sys.expand(c, v, 1.0);
  EXPECT_EQ(sys.constraint_degree(c), 2u);
  EXPECT_EQ(sys.variable_degree(v), 2u);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 50.0, 1e-9);
  EXPECT_NEAR(sys.usage(c), 100.0, 1e-9);
  sys.release_variable(v);
  EXPECT_EQ(sys.constraint_degree(c), 0u);
}

TEST(MaxMinArena, ConstraintReleaseFreesUsersAndRecyclesId) {
  MaxMinSystem sys;
  auto narrow = sys.new_constraint(10.0);
  auto wide = sys.new_constraint(100.0);
  auto v = sys.new_variable(1.0);
  sys.expand(narrow, v);
  sys.expand(wide, v);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 10.0, 1e-9);

  sys.release_constraint(narrow);
  EXPECT_EQ(sys.constraint_count(), 1u);
  EXPECT_EQ(sys.variable_degree(v), 1u);  // the narrow element is gone
  sys.solve();
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9) << "releasing the bottleneck must free its users";

  // The id is recycled; stale elements must not re-attach to it.
  auto recycled = sys.new_constraint(7.0);
  EXPECT_EQ(recycled, narrow);
  EXPECT_EQ(sys.constraint_degree(recycled), 0u);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9) << "recycled constraint revived a stale element";

  auto v2 = sys.new_variable(1.0);
  sys.expand(recycled, v2);
  sys.solve_full();
  EXPECT_NEAR(sys.value(v2), 7.0, 1e-9);
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9);
}

TEST(MaxMinArena, ReleasedConstraintOperations) {
  MaxMinSystem sys;
  auto c = sys.new_constraint(10.0);
  auto v = sys.new_variable(1.0);
  sys.expand(c, v);
  sys.release_constraint(c);
  EXPECT_THROW(sys.expand(c, v), sg::xbt::InvalidArgument);
  EXPECT_NO_THROW(sys.release_constraint(c));  // idempotent
  EXPECT_THROW(sys.release_constraint(c + 1), sg::xbt::Exception);
  // A release while dirty must not confuse the next incremental solve.
  sys.solve();
  EXPECT_GE(sys.value(v), MaxMinSystem::kUnlimited);  // unconstrained now
}

TEST(MaxMinArena, ConstraintIdRecyclingStress) {
  // Random create/release cycles over both id spaces with full-solve
  // equivalence checks: recycling must be indistinguishable from fresh ids.
  sg::xbt::Rng rng(97);
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  std::vector<std::pair<MaxMinSystem::VarId, std::vector<MaxMinSystem::CnstId>>> vars;

  for (int step = 0; step < 400; ++step) {
    const double op = rng.uniform01();
    if (op < 0.3 || cnsts.size() < 3) {
      cnsts.push_back(sys.new_constraint(rng.uniform(10.0, 500.0)));
    } else if (op < 0.45) {
      // Release a random constraint; forget it from every tracked variable.
      const size_t k = rng.uniform_int(0, cnsts.size() - 1);
      sys.release_constraint(cnsts[k]);
      for (auto& [v, used] : vars)
        std::erase(used, cnsts[k]);
      cnsts.erase(cnsts.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op < 0.75 || vars.empty()) {
      auto v = sys.new_variable(rng.uniform(0.5, 2.0));
      std::vector<MaxMinSystem::CnstId> used;
      const int uses = 1 + static_cast<int>(rng.uniform_int(0, 2));
      for (int u = 0; u < uses; ++u) {
        const auto c = cnsts[rng.uniform_int(0, cnsts.size() - 1)];
        sys.expand(c, v);
        used.push_back(c);
      }
      vars.push_back({v, std::move(used)});
    } else {
      const size_t k = rng.uniform_int(0, vars.size() - 1);
      sys.release_variable(vars[k].first);
      vars.erase(vars.begin() + static_cast<std::ptrdiff_t>(k));
    }

    sys.solve();
    if (step % 20 == 0) {
      std::vector<double> incremental;
      incremental.reserve(vars.size());
      for (const auto& [v, used] : vars)
        incremental.push_back(sys.value(v));
      sys.solve_full();
      for (size_t k = 0; k < vars.size(); ++k)
        EXPECT_NEAR(incremental[k], sys.value(vars[k].first),
                    1e-9 * std::max(1.0, sys.value(vars[k].first)))
            << "step " << step;
      // Degrees must agree with the tracked incidences.
      for (const auto& [v, used] : vars)
        EXPECT_EQ(sys.variable_degree(v), used.size());
    }
  }
  EXPECT_EQ(sys.constraint_count(), cnsts.size());
  EXPECT_EQ(sys.variable_count(), vars.size());
}

// -- agreement with the three-pass filling loop ----------------------------------
//
// The solver fills on one global level over a dense snapshot of the closure,
// updating each constraint's sum in O(1) per freeze. three_pass_fill() below
// is the plain form of progressive filling: every round walks every element
// of every shared constraint three times (denominator, consumption,
// involvement) and adds a delta to every growing variable. The two fold their
// sums in different orders, so they agree to rounding, not bit for bit: the
// comparison allows 1e-9 relative, on purpose. (The solver this loop used to
// pin bitwise kept per-round sums; the largest deviation seen on these sweeps
// is a few ulps, ~1e-15.) Values outside a re-filled closure are still
// compared bitwise.

using VarId = MaxMinSystem::VarId;
using CnstId = MaxMinSystem::CnstId;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// What three_pass_fill() did besides computing values.
struct ThreePassCost {
  size_t rounds = 0;
  size_t elements_walked = 0;
};

/// Plain three-pass progressive filling over `svars` (and every constraint
/// they cross), read through the public API: the bitwise reference. `shared[c]` is the sharing
/// policy the test created constraint c with. Returns values parallel to svars.
std::vector<double> three_pass_fill(const MaxMinSystem& sys, const std::vector<VarId>& svars,
                                    const std::vector<bool>& shared, ThreePassCost* cost = nullptr) {
  ThreePassCost local;
  ThreePassCost& walked = cost != nullptr ? *cost : local;
  auto walk = [&](CnstId c, auto&& fn) {
    walked.elements_walked += sys.constraint_degree(c);
    sys.for_each_variable_on(c, fn);
  };
  constexpr double kEps = 1e-9;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<CnstId> scnsts;
  VarId max_var = 0;
  for (VarId v : svars) {
    max_var = std::max(max_var, v);
    sys.for_each_constraint_of(v, [&](CnstId c, double) { scnsts.push_back(c); });
  }
  std::sort(scnsts.begin(), scnsts.end());
  scnsts.erase(std::unique(scnsts.begin(), scnsts.end()), scnsts.end());

  const size_t nv = static_cast<size_t>(max_var) + 1;
  std::vector<char> active(nv, 0);
  std::vector<double> value(nv, 0.0), eb(nv, kInf), remaining(shared.size(), 0.0);
  size_t n_active = 0;
  for (VarId v : svars) {
    const size_t i = static_cast<size_t>(v);
    if (sys.weight(v) <= 0)
      continue;
    active[i] = 1;
    ++n_active;
    if (sys.bound(v) >= 0)
      eb[i] = sys.bound(v);
  }
  auto is_active = [&](VarId v) {
    return static_cast<size_t>(v) < nv && active[static_cast<size_t>(v)];
  };
  for (CnstId c : scnsts) {
    remaining[static_cast<size_t>(c)] = sys.capacity(c);
    if (shared[static_cast<size_t>(c)])
      continue;
    walk(c, [&](VarId v, double coeff) {
      if (is_active(v))
        eb[static_cast<size_t>(v)] = std::min(eb[static_cast<size_t>(v)], sys.capacity(c) / coeff);
    });
  }
  auto active_weight = [&](CnstId c) {
    double sum = 0;
    walk(c, [&](VarId v, double coeff) {
      if (is_active(v))
        sum += coeff * sys.weight(v);
    });
    return sum;
  };

  while (n_active > 0) {
    ++walked.rounds;
    double delta = kInf;
    for (CnstId c : scnsts) {
      if (!shared[static_cast<size_t>(c)])
        continue;
      const double denom = active_weight(c);  // pass 1
      if (denom > 0)
        delta = std::min(delta, std::max(0.0, remaining[static_cast<size_t>(c)]) / denom);
    }
    for (VarId v : svars) {
      const size_t i = static_cast<size_t>(v);
      if (active[i] && eb[i] < kInf)
        delta = std::min(delta, std::max(0.0, eb[i] - value[i]) / sys.weight(v));
    }
    if (delta == kInf) {
      for (VarId v : svars)
        if (active[static_cast<size_t>(v)]) {
          value[static_cast<size_t>(v)] = MaxMinSystem::kUnlimited;
          active[static_cast<size_t>(v)] = 0;
        }
      break;
    }
    for (VarId v : svars)
      if (active[static_cast<size_t>(v)])
        value[static_cast<size_t>(v)] += delta * sys.weight(v);
    for (CnstId c : scnsts)
      if (shared[static_cast<size_t>(c)])
        remaining[static_cast<size_t>(c)] -= delta * active_weight(c);  // pass 2

    size_t frozen = 0;
    for (CnstId c : scnsts) {
      if (!shared[static_cast<size_t>(c)])
        continue;
      bool involved = false;  // pass 3
      walk(c, [&](VarId v, double) { involved = involved || is_active(v); });
      if (!involved || remaining[static_cast<size_t>(c)] > kEps * std::max(1.0, sys.capacity(c)))
        continue;
      walk(c, [&](VarId v, double) {
        if (is_active(v)) {
          active[static_cast<size_t>(v)] = 0;
          ++frozen;
        }
      });
    }
    for (VarId v : svars) {
      const size_t i = static_cast<size_t>(v);
      if (active[i] && eb[i] < kInf && value[i] >= eb[i] - kEps * std::max(1.0, eb[i])) {
        value[i] = eb[i];
        active[i] = 0;
        ++frozen;
      }
    }
    if (frozen == 0) {
      for (VarId v : svars)
        if (active[static_cast<size_t>(v)]) {
          active[static_cast<size_t>(v)] = 0;
          ++frozen;
          break;
        }
    }
    n_active -= frozen;
  }

  std::vector<double> out;
  for (VarId v : svars)
    out.push_back(value[static_cast<size_t>(v)]);
  return out;
}

/// The live variables connected to `seeds` through shared constraints: the
/// set an incremental solve re-fills jointly (fatpipes cap but never couple).
std::vector<VarId> shared_component(const MaxMinSystem& sys, const std::vector<VarId>& seeds,
                                    const std::vector<bool>& shared, size_t n_var_ids) {
  std::vector<char> seen(n_var_ids, 0);
  std::vector<VarId> out;
  for (VarId s : seeds)
    if (!seen[static_cast<size_t>(s)]) {
      seen[static_cast<size_t>(s)] = 1;
      out.push_back(s);
    }
  for (size_t k = 0; k < out.size(); ++k)
    sys.for_each_constraint_of(out[k], [&](CnstId c, double) {
      if (!shared[static_cast<size_t>(c)])
        return;
      sys.for_each_variable_on(c, [&](VarId v, double) {
        if (!seen[static_cast<size_t>(v)]) {
          seen[static_cast<size_t>(v)] = 1;
          out.push_back(v);
        }
      });
    });
  std::sort(out.begin(), out.end());
  return out;
}

void expect_matches_oracle(const MaxMinSystem& sys, const std::vector<VarId>& svars,
                           const std::vector<double>& ref, const char* what, int step) {
  for (size_t k = 0; k < svars.size(); ++k)
    EXPECT_NEAR(sys.value(svars[k]), ref[k], 1e-9 * std::abs(ref[k]))
        << what << " at step " << step << ", variable " << svars[k] << ": " << sys.value(svars[k])
        << " vs reference " << ref[k];
}

// Random clustered systems with shared and fatpipe constraints, bounds, zero
// weights, coefficients other than 1, duplicate expands and unconstrained
// variables. Seeds below 20 draw capacities, weights and coefficients from
// small sets, so several constraints saturate in the same round and sums are
// exact; the others draw most of them from continuous ranges, where sums
// round. Every value must match the oracle to 1e-9 relative (see above).
// Every incremental solve is compared
// on the component it re-filled (every other value must not move), and every
// tenth step a full solve is compared on the whole system.
TEST(MaxMinFilling, BitIdenticalToThreePassLoop) {
  for (std::uint64_t seed : {11u, 12u, 13u, 21u, 22u, 23u}) {
    sg::xbt::Rng rng(seed);
    MaxMinSystem sys;
    constexpr int kClusters = 8;
    constexpr int kCnstsPerCluster = 5;
    const double caps[] = {10.0, 20.0, 30.0, 60.0};
    const double weights[] = {0.0, 0.5, 1.0, 2.0};
    const double coeffs[] = {0.5, 1.0, 1.0, 2.0};
    const bool ties = seed < 20;
    auto pick = [&](const double (&set)[4]) {
      const auto k = rng.uniform_int(0, 3);
      return ties || k == 0 ? set[k] : rng.uniform(set[1], set[3]);
    };

    std::vector<bool> shared;
    std::vector<CnstId> cnsts;
    for (int c = 0; c < kClusters * kCnstsPerCluster; ++c) {
      const bool sh = rng.uniform01() < 0.75;
      const CnstId id = sys.new_constraint(pick(caps), sh);
      ASSERT_EQ(static_cast<size_t>(id), shared.size());
      cnsts.push_back(id);
      shared.push_back(sh);
    }
    std::vector<VarId> live;
    size_t n_var_ids = 0;
    auto add_var = [&] {
      const double bound = rng.uniform01() < 0.25 ? pick(caps) / 2 : MaxMinSystem::kNoBound;
      const VarId v = sys.new_variable(pick(weights), bound);
      n_var_ids = std::max(n_var_ids, static_cast<size_t>(v) + 1);
      if (rng.uniform01() >= 0.05) {  // else: unconstrained
        const auto cluster = rng.uniform_int(0, kClusters - 1);
        const int uses = 1 + static_cast<int>(rng.uniform_int(0, 3));
        for (int u = 0; u < uses; ++u) {
          const CnstId c = cnsts[cluster * kCnstsPerCluster + rng.uniform_int(0, kCnstsPerCluster - 1)];
          const double coeff = pick(coeffs);
          sys.expand(c, v, coeff);
          if (rng.uniform01() < 0.1)
            sys.expand(c, v, coeff);  // duplicate expand: double consumption
        }
      }
      live.push_back(v);
      return v;
    };
    for (int i = 0; i < 80; ++i)
      add_var();
    sys.solve();
    expect_matches_oracle(sys, live, three_pass_fill(sys, live, shared), "first solve", 0);

    for (int step = 1; step <= 400; ++step) {
      std::vector<VarId> seeds;
      const double kind = rng.uniform01();
      if (kind < 0.3 || live.size() < 10) {
        seeds.push_back(add_var());
      } else if (kind < 0.5) {
        const size_t k = rng.uniform_int(0, live.size() - 1);
        const VarId v = live[k];
        sys.for_each_constraint_of(v, [&](CnstId c, double) {
          if (shared[static_cast<size_t>(c)])
            sys.for_each_variable_on(c, [&](VarId u, double) {
              if (u != v)
                seeds.push_back(u);
            });
        });
        sys.release_variable(v);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (kind < 0.7) {
        const VarId v = live[rng.uniform_int(0, live.size() - 1)];
        const double w = pick(weights);
        if (w != sys.weight(v))
          seeds.push_back(v);
        sys.set_weight(v, w);
      } else if (kind < 0.85) {
        const VarId v = live[rng.uniform_int(0, live.size() - 1)];
        const double b = rng.uniform01() < 0.4 ? MaxMinSystem::kNoBound : pick(caps) / 2;
        if (b != sys.bound(v))
          seeds.push_back(v);
        sys.set_bound(v, b);
      } else {
        const CnstId c = cnsts[rng.uniform_int(0, cnsts.size() - 1)];
        const double cap = pick(caps);
        if (cap != sys.capacity(c))
          sys.for_each_variable_on(c, [&](VarId u, double) { seeds.push_back(u); });
        sys.set_capacity(c, cap);
      }

      std::vector<double> before(n_var_ids, 0.0);
      for (VarId v : live)
        before[static_cast<size_t>(v)] = sys.value(v);
      const size_t full_before = sys.solve_stats().full_solves;
      sys.solve();
      EXPECT_EQ(sys.solve_stats().full_solves, full_before) << "incremental solve ran in full";
      const std::vector<VarId> refilled = shared_component(sys, seeds, shared, n_var_ids);
      expect_matches_oracle(sys, refilled, three_pass_fill(sys, refilled, shared), "incremental", step);
      std::vector<char> in_refilled(n_var_ids, 0);
      for (VarId v : refilled)
        in_refilled[static_cast<size_t>(v)] = 1;
      for (VarId v : live) {
        if (!in_refilled[static_cast<size_t>(v)]) {
          EXPECT_EQ(bits(sys.value(v)), bits(before[static_cast<size_t>(v)]))
              << "untouched variable " << v << " moved at step " << step;
        }
      }

      if (step % 10 == 0) {
        std::sort(live.begin(), live.end());
        sys.solve_full();
        expect_matches_oracle(sys, live, three_pass_fill(sys, live, shared), "full", step);
      }
    }
    EXPECT_GT(sys.solve_stats().solves, sys.solve_stats().full_solves * 2)
        << "incremental path was not exercised";
  }
}

// A coupled re-solve does not walk every element of every shared constraint
// once per round. 200 flows over 40 shared links form one component that takes
// many filling rounds; the solver reads each captured row entry once, plus
// the rare cancellation re-sums, so its count stays within a small multiple
// of the element count, while the three-pass loop's grows with the round
// count (about 85x).
TEST(MaxMinFilling, CoupledSolveScansElementsLinearly) {
  sg::xbt::Rng rng(2006);
  MaxMinSystem sys;
  std::vector<CnstId> links;
  for (int c = 0; c < 40; ++c)
    links.push_back(sys.new_constraint(rng.uniform(10.0, 1000.0)));
  std::vector<VarId> flows;
  size_t elements = 0;
  for (int f = 0; f < 200; ++f) {
    flows.push_back(sys.new_variable(rng.uniform(0.5, 2.0)));
    const int hops = 2 + static_cast<int>(rng.uniform_int(0, 3));
    for (int h = 0; h < hops; ++h, ++elements)
      sys.expand(links[rng.uniform_int(0, links.size() - 1)], flows.back());
  }
  sys.solve();
  const size_t before = sys.solve_stats().elements_scanned;
  sys.solve_full();
  const size_t scanned = sys.solve_stats().elements_scanned - before;

  ThreePassCost old_cost;
  const std::vector<bool> shared(links.size(), true);
  expect_matches_oracle(sys, flows, three_pass_fill(sys, flows, shared, &old_cost), "coupled", 0);
  ASSERT_GE(old_cost.rounds, 20u) << "too few rounds to tell linear from per-round scanning";
  EXPECT_LE(scanned, 10 * elements)
      << "scanned " << scanned << " entries for " << elements << " elements";
  EXPECT_LE(scanned * 5, old_cost.elements_walked)
      << "three-pass loop walked " << old_cost.elements_walked << " entries in "
      << old_cost.rounds << " rounds";
}

// A closure without a multi-user constraint is solved directly: each value
// is its cap. This sweep checks that path against the level-driven one on
// the same variable. Random lone variables (duplicate expands, fat pipes,
// bounds, zero weights) are solved alone. Then a companion with bound 0
// joins every shared constraint they cross. That makes those constraints
// rows the general path fills; the companion freezes at level 0 and takes
// nothing.
TEST(MaxMinFilling, LoneVariablePathMatchesGeneralPath) {
  sg::xbt::Rng rng(1309);
  for (int trial = 0; trial < 400; ++trial) {
    MaxMinSystem sys;
    std::vector<bool> shared;
    std::vector<CnstId> used_shared;
    const double weight = rng.uniform01() < 0.15 ? 0.0 : rng.uniform(0.1, 4.0);
    const double bound = rng.uniform01() < 0.4 ? rng.uniform(1.0, 200.0) : MaxMinSystem::kNoBound;
    const VarId x = sys.new_variable(weight, bound);
    const auto n_cnsts = rng.uniform_int(0, 4);
    for (std::uint64_t c = 0; c < n_cnsts; ++c) {
      const bool sh = rng.uniform01() < 0.7;
      const CnstId id = sys.new_constraint(rng.uniform(10.0, 1000.0), sh);
      shared.push_back(sh);
      if (sh)
        used_shared.push_back(id);
      const int copies = rng.uniform01() < 0.3 ? 2 : 1;  // duplicate expand
      for (int k = 0; k < copies; ++k)
        sys.expand(id, x, rng.uniform(0.25, 3.0));
    }
    sys.solve();
    EXPECT_EQ(sys.solve_stats().rounds, 0u) << "trial " << trial << ": lone variable took the level path";
    const double lone = sys.value(x);
    EXPECT_NEAR(lone, three_pass_fill(sys, {x}, shared)[0], 1e-9 * lone) << "trial " << trial;
    if (weight == 0 || used_shared.empty())
      continue;
    const VarId y = sys.new_variable(1.0, 0.0);
    for (CnstId c : used_shared)
      sys.expand(c, y);
    sys.solve();
    EXPECT_GT(sys.solve_stats().rounds, 0u) << "trial " << trial << ": companion did not make rows";
    EXPECT_EQ(sys.value(y), 0.0) << "trial " << trial;
    EXPECT_NEAR(sys.value(x), lone, 1e-9 * lone) << "trial " << trial;
  }
}

// A freeze subtracts the frozen user's rate from its rows' sums. When that
// cancels (1e17 + 1 - 1e17 is 0 in doubles), the row sums its survivors
// afresh from the captured users instead of dividing by the remainder.
TEST(MaxMinFilling, CancelledSumIsResummedFromTheRow) {
  MaxMinSystem sys;
  const CnstId link = sys.new_constraint(10.0);
  const VarId heavy = sys.new_variable(1e17, 1.0);  // freezes first, at its bound
  const VarId light = sys.new_variable(1.0);
  sys.expand(link, heavy);
  sys.expand(link, light);
  sys.solve();
  EXPECT_EQ(sys.value(heavy), 1.0);
  EXPECT_NEAR(sys.value(light), 9.0, 1e-9 * 9.0);
  // Two captured entries, then a re-sum that reads both again.
  EXPECT_EQ(sys.solve_stats().elements_scanned, 4u);
}

// Caps come from each growing variable's own list, and a release unlinks
// through twin links: neither walks a fat pipe's users. Releasing and
// re-adding one flow beside a fat pipe therefore scans the same number of
// entries whether the pipe carries 10 users or 10,000.
size_t fatpipe_churn_scanned(int users) {
  MaxMinSystem sys;
  const CnstId pipe = sys.new_constraint(1000.0, /*shared=*/false);
  const CnstId link = sys.new_constraint(50.0);
  for (int u = 0; u < users; ++u)
    sys.expand(pipe, sys.new_variable(1.0), 1.0 + u % 3);
  const VarId other = sys.new_variable(1.0);
  sys.expand(link, other);
  VarId flow = sys.new_variable(1.0);
  sys.expand(link, flow);
  sys.expand(pipe, flow);
  sys.solve();

  const MaxMinSystem::SolveStats before = sys.solve_stats();
  sys.release_variable(flow);
  flow = sys.new_variable(1.0);
  sys.expand(link, flow);
  sys.expand(pipe, flow, 50.0);  // cap 1000 / 50 = 20, below the 25 fair share
  sys.solve();
  EXPECT_EQ(sys.solve_stats().full_solves, before.full_solves) << "re-solve escalated";
  EXPECT_EQ(sys.value(flow), 20.0);
  EXPECT_EQ(sys.value(other), 30.0);
  EXPECT_EQ(sys.constraint_degree(pipe), static_cast<size_t>(users) + 1);
  return sys.solve_stats().elements_scanned - before.elements_scanned;
}

TEST(MaxMinFilling, FatpipeDegreeIndependent) {
  const size_t small = fatpipe_churn_scanned(10);
  const size_t large = fatpipe_churn_scanned(10000);
  EXPECT_EQ(small, large);
  EXPECT_GT(small, 0u);
}

// -- list order under twin unlinking ----------------------------------------------
//
// release_variable / release_constraint unlink each incidence through its
// twin link. ScanLists is a test-local copy of the removal they replaced:
// unrolled 4-entry nodes, new nodes prepended, and for each entry of the
// released id's own list a front-to-back, node-local swap-remove of every
// entry of that id from the peer's list. The solver's lists must match it
// entry for entry, in order, after every mutation: list order fixes the fill
// sums' fold order and the failure-propagation order.
struct ScanLists {
  using Entry = std::pair<int, double>;
  using List = std::vector<std::vector<Entry>>;  ///< nodes, head first
  std::vector<List> cnst;
  std::vector<List> var;

  static void insert(List& l, int peer, double coeff) {
    if (l.empty() || l.front().size() == 4)
      l.insert(l.begin(), std::vector<Entry>{});
    l.front().push_back({peer, coeff});
  }
  static void remove_all(List& l, int peer) {
    for (auto& nd : l) {
      for (size_t k = 0; k < nd.size();) {
        if (nd[k].first == peer) {
          nd[k] = nd.back();
          nd.pop_back();
        } else {
          ++k;
        }
      }
    }
    std::erase_if(l, [](const std::vector<Entry>& nd) { return nd.empty(); });
  }
  static std::vector<Entry> flat(const List& l) {
    std::vector<Entry> out;
    for (const auto& nd : l)
      out.insert(out.end(), nd.begin(), nd.end());
    return out;
  }
  static List& at(std::vector<List>& lists, int id) {
    if (lists.size() <= static_cast<size_t>(id))
      lists.resize(static_cast<size_t>(id) + 1);
    return lists[static_cast<size_t>(id)];
  }

  void expand(CnstId c, VarId v, double coeff) {
    insert(at(cnst, c), v, coeff);
    insert(at(var, v), c, coeff);
  }
  void release_variable(VarId v) {
    for (const Entry& e : flat(at(var, v)))
      remove_all(at(cnst, e.first), v);
    at(var, v).clear();
  }
  void release_constraint(CnstId c) {
    for (const Entry& e : flat(at(cnst, c)))
      remove_all(at(var, e.first), c);
    at(cnst, c).clear();
  }
};

void expect_same_lists(const MaxMinSystem& sys, ScanLists& ref, const std::vector<VarId>& vars,
                       const std::vector<CnstId>& cnsts, int step) {
  std::vector<ScanLists::Entry> got;
  for (CnstId c : cnsts) {
    got.clear();
    sys.for_each_variable_on(c, [&](VarId v, double coeff) { got.push_back({v, coeff}); });
    ASSERT_EQ(got, ScanLists::flat(ScanLists::at(ref.cnst, c)))
        << "users of constraint " << c << " at step " << step;
    ASSERT_EQ(sys.constraint_degree(c), got.size());
  }
  for (VarId v : vars) {
    got.clear();
    sys.for_each_constraint_of(v, [&](CnstId c, double coeff) { got.push_back({c, coeff}); });
    ASSERT_EQ(got, ScanLists::flat(ScanLists::at(ref.var, v)))
        << "constraints of variable " << v << " at step " << step;
    ASSERT_EQ(sys.variable_degree(v), got.size());
  }
}

TEST(MaxMinLists, TwinUnlinkMatchesScanOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sg::xbt::Rng rng(seed);
    MaxMinSystem sys;
    ScanLists ref;
    std::vector<CnstId> cnsts;
    std::vector<VarId> vars;
    auto pick = [&](const auto& ids) { return ids[rng.uniform_int(0, ids.size() - 1)]; };
    auto add_cnst = [&] {
      // Every third constraint is a fat pipe; pipes collect most entries.
      cnsts.push_back(sys.new_constraint(rng.uniform(10.0, 100.0), cnsts.size() % 3 != 0));
      ScanLists::at(ref.cnst, cnsts.back()).clear();
    };
    auto add_var = [&] {
      vars.push_back(sys.new_variable(1.0));
      ScanLists::at(ref.var, vars.back()).clear();
    };
    for (int i = 0; i < 6; ++i)
      add_cnst();
    for (int i = 0; i < 12; ++i)
      add_var();

    size_t widest_pipe = 0;
    for (int step = 0; step < 1500; ++step) {
      const double op = rng.uniform01();
      if (op < 0.50 && !vars.empty() && !cnsts.empty()) {
        const VarId v = pick(vars);
        CnstId c = pick(cnsts);
        const double where = rng.uniform01();
        if (where < 0.35) {
          c = cnsts[0];  // a fat pipe with a long, multi-node user list
        } else if (where < 0.65 && !ScanLists::at(ref.var, v).empty()) {
          c = pick(ScanLists::flat(ScanLists::at(ref.var, v))).first;  // duplicate incidence
        }
        const double coeff = 0.5 + static_cast<double>(rng.uniform_int(0, 7)) / 4;
        sys.expand(c, v, coeff);
        ref.expand(c, v, coeff);
      } else if (op < 0.68 && !vars.empty()) {
        const size_t k = rng.uniform_int(0, vars.size() - 1);
        sys.release_variable(vars[k]);
        ref.release_variable(vars[k]);
        vars.erase(vars.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (op < 0.84) {
        add_var();
      } else if (op < 0.89 && cnsts.size() > 2) {
        // Never the pipe at index 0: it keeps the long list alive.
        const size_t k = rng.uniform_int(1, cnsts.size() - 1);
        sys.release_constraint(cnsts[k]);
        ref.release_constraint(cnsts[k]);
        cnsts.erase(cnsts.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (op < 0.94) {
        add_cnst();
      } else {
        sys.solve();
      }
      expect_same_lists(sys, ref, vars, cnsts, step);
      if (::testing::Test::HasFatalFailure())
        return;
      widest_pipe = std::max(widest_pipe, sys.constraint_degree(cnsts[0]));
    }
    EXPECT_GT(widest_pipe, 8u) << "the pipe never spanned several nodes";
  }
}

// -- zone-structured systems -------------------------------------------------------
//
// The constraints of a multi-zone platform fall into zones (each cluster's
// links) and a backbone (WANs, gateways), and a cross-zone flow couples
// them. One system solves them all; these tests pin what that must give on
// such shapes. The suites keep the names they had when each zone was a
// separate solver shard, so the test ids stay stable.

TEST(ShardedMaxMin, DetachedVariableGetsUnconstrainedRate) {
  MaxMinSystem sys;
  const auto v = sys.new_variable(2.0);
  EXPECT_EQ(sys.variable_degree(v), 0u);
  EXPECT_TRUE(sys.needs_solve());
  sys.solve();
  EXPECT_GE(sys.value(v), MaxMinSystem::kUnlimited);
  sys.set_weight(v, 0.0);
  sys.solve();
  EXPECT_EQ(sys.value(v), 0.0);
}

TEST(ShardedMaxMin, CrossShardVariableCouplesItsShards) {
  // One flow crossing zone 1's uplink, the backbone WAN and zone 2's
  // downlink: the tightest of the three sets the rate, wherever it lives.
  MaxMinSystem sys;
  const auto up = sys.new_constraint(100.0);
  const auto wan = sys.new_constraint(40.0);
  const auto down = sys.new_constraint(100.0);
  const auto flow = sys.new_variable(1.0);
  sys.expand(up, flow);
  sys.expand(wan, flow);
  sys.expand(down, flow);
  EXPECT_EQ(sys.variable_degree(flow), 3u);
  sys.solve();
  EXPECT_NEAR(sys.value(flow), 40.0, 1e-9);
  EXPECT_NEAR(sys.usage(up), 40.0, 1e-9);
  EXPECT_NEAR(sys.usage(down), 40.0, 1e-9);

  // Tightening the far zone's downlink reaches the flow incrementally.
  sys.set_capacity(down, 10.0);
  sys.solve();
  EXPECT_NEAR(sys.value(flow), 10.0, 1e-9);
  ASSERT_EQ(sys.changed_variables().size(), 1u);
  EXPECT_EQ(sys.changed_variables()[0], flow);
  EXPECT_NEAR(sys.usage(up), 10.0, 1e-9);
  EXPECT_NEAR(sys.usage(wan), 10.0, 1e-9);
}

TEST(ShardedMaxMin, CrossShardFlowSharesWithLocalFlows) {
  // An intra-zone flow shares zone 1's uplink with a cross-zone flow; the
  // max-min solution couples the zones through it.
  MaxMinSystem sys;
  const auto up1 = sys.new_constraint(100.0);
  const auto wan = sys.new_constraint(1000.0);
  const auto up2 = sys.new_constraint(30.0);
  const auto local = sys.new_variable(1.0);
  sys.expand(up1, local);
  const auto cross = sys.new_variable(1.0);
  sys.expand(up1, cross);
  sys.expand(wan, cross);
  sys.expand(up2, cross);
  sys.solve();
  // cross is capped at 30 by zone 2; local then grows to 70 on up1.
  EXPECT_NEAR(sys.value(cross), 30.0, 1e-9);
  EXPECT_NEAR(sys.value(local), 70.0, 1e-9);
}

TEST(ShardedMaxMin, IntraShardChurnNeverTouchesOtherShards) {
  // Three zones with one flow each; churn in zone 1 only. The incremental
  // solve must re-solve zone 1's component and nothing else.
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  std::vector<MaxMinSystem::VarId> seed;
  for (int z = 0; z < 3; ++z) {
    cnsts.push_back(sys.new_constraint(100.0));
    seed.push_back(sys.new_variable(1.0));
    sys.expand(cnsts.back(), seed.back());
  }
  sys.solve();  // the first solve is full
  const auto before = sys.solve_stats();

  auto expect_zone1_only = [&](size_t max_visited) {
    const auto visited = sys.solve_stats().vars_visited;
    sys.solve();
    EXPECT_LE(sys.solve_stats().vars_visited - visited, max_visited);
    for (MaxMinSystem::VarId v : sys.changed_variables()) {
      EXPECT_NE(v, seed[1]);
      EXPECT_NE(v, seed[2]);
    }
  };
  for (int i = 0; i < 100; ++i) {
    const auto v = sys.new_variable(1.0);
    sys.expand(cnsts[0], v);
    expect_zone1_only(2);  // the new flow and zone 1's seed
    EXPECT_NEAR(sys.value(seed[0]), 50.0, 1e-9);
    sys.release_variable(v);
    expect_zone1_only(1);
    EXPECT_NEAR(sys.value(seed[0]), 100.0, 1e-9);
  }
  EXPECT_EQ(sys.solve_stats().solves, before.solves + 200);
  EXPECT_EQ(sys.solve_stats().full_solves, before.full_solves);
  EXPECT_NEAR(sys.value(seed[1]), 100.0, 1e-9);
  EXPECT_NEAR(sys.value(seed[2]), 100.0, 1e-9);
}

TEST(ShardedMaxMin, ReleasedCrossShardVariableRecyclesCleanly) {
  MaxMinSystem sys;
  const auto c1 = sys.new_constraint(100.0);
  const auto c2 = sys.new_constraint(50.0);
  const auto cross = sys.new_variable(1.0);
  sys.expand(c1, cross);
  sys.expand(c2, cross);
  sys.solve();
  EXPECT_NEAR(sys.value(cross), 50.0, 1e-9);
  sys.release_variable(cross);
  sys.solve();
  EXPECT_NEAR(sys.usage(c1), 0.0, 1e-12);
  EXPECT_NEAR(sys.usage(c2), 0.0, 1e-12);
  EXPECT_EQ(sys.constraint_degree(c1), 0u);
  EXPECT_EQ(sys.constraint_degree(c2), 0u);
  // The recycled id comes back as a fresh variable on one zone's link only.
  const auto v = sys.new_variable(1.0);
  EXPECT_EQ(v, cross);
  sys.expand(c1, v);
  sys.solve();
  EXPECT_EQ(sys.variable_degree(v), 1u);
  EXPECT_NEAR(sys.value(v), 100.0, 1e-9);
  EXPECT_NEAR(sys.usage(c2), 0.0, 1e-12);
}

TEST(ShardedMaxMin, FatpipeCapsFoldAcrossShards) {
  // A backbone fat pipe caps a zone flow on its own (capacity / coeff),
  // without sharing, while the zone link is shared as usual.
  MaxMinSystem sys;
  const auto shared1 = sys.new_constraint(100.0);
  const auto fat = sys.new_constraint(12.0, /*shared=*/false);
  const auto v = sys.new_variable(1.0);
  sys.expand(shared1, v);
  sys.expand(fat, v, 2.0);  // cap: 12 / 2 = 6
  const auto other = sys.new_variable(1.0);
  sys.expand(shared1, other);
  sys.solve();
  EXPECT_NEAR(sys.value(v), 6.0, 1e-9);
  EXPECT_NEAR(sys.value(other), 94.0, 1e-9);
}

// Mirror a random mutation history into two systems over four zones and a
// backbone: `sys` solves incrementally, `ref` from scratch every time.
// Variables take an intra-zone route or a cross route through the backbone
// touching up to three zones; mutations include weight/bound churn,
// releases and capacity fault flaps (capacity -> 0 and back). After every
// third solve, every live variable must agree to 1e-9.
TEST(ShardedEquivalence, MatchesGlobalSolverUnderChurnAndFaults) {
  sg::xbt::Rng rng(20260731);
  constexpr int kZones = 4;
  constexpr int kCnstsPerZone = 4;
  constexpr int kBackboneCnsts = 3;
  MaxMinSystem sys;
  MaxMinSystem ref;

  struct Cnst {
    MaxMinSystem::CnstId id;
    double capacity;
  };
  auto add_cnst = [&](double cap, bool shared) {
    const auto id = sys.new_constraint(cap, shared);
    EXPECT_EQ(ref.new_constraint(cap, shared), id);
    return Cnst{id, cap};
  };
  std::vector<std::vector<Cnst>> zone_cnsts(kZones);
  std::vector<Cnst> backbone;
  for (auto& zc : zone_cnsts)
    for (int c = 0; c < kCnstsPerZone; ++c) {
      const double cap = rng.uniform(20.0, 500.0);
      zc.push_back(add_cnst(cap, rng.uniform01() < 0.8));
    }
  for (int c = 0; c < kBackboneCnsts; ++c) {
    const double cap = rng.uniform(50.0, 800.0);
    backbone.push_back(add_cnst(cap, rng.uniform01() < 0.5));  // WANs are often fat pipes
  }

  std::vector<MaxMinSystem::VarId> live;
  int cross_flows = 0;
  auto add_var = [&] {
    const double weight = rng.uniform01() < 0.1 ? 0.0 : rng.uniform(0.5, 4.0);
    const double bound = rng.uniform01() < 0.3 ? rng.uniform(5.0, 200.0) : MaxMinSystem::kNoBound;
    const auto v = sys.new_variable(weight, bound);
    EXPECT_EQ(ref.new_variable(weight, bound), v);
    auto touch = [&](const Cnst& c) {
      const double coeff = rng.uniform(0.5, 2.0);
      sys.expand(c.id, v, coeff);
      ref.expand(c.id, v, coeff);
    };
    const size_t za = rng.uniform_int(0, kZones - 1);
    touch(zone_cnsts[za][rng.uniform_int(0, kCnstsPerZone - 1)]);
    if (rng.uniform01() < 0.35) {
      // Cross-zone: the backbone plus up to two more zones.
      ++cross_flows;
      touch(backbone[rng.uniform_int(0, kBackboneCnsts - 1)]);
      const size_t zb = rng.uniform_int(0, kZones - 1);
      if (zb != za)
        touch(zone_cnsts[zb][rng.uniform_int(0, kCnstsPerZone - 1)]);
      if (rng.uniform01() < 0.3) {
        const size_t zc = rng.uniform_int(0, kZones - 1);
        if (zc != za && zc != zb)
          touch(zone_cnsts[zc][rng.uniform_int(0, kCnstsPerZone - 1)]);
      }
    } else if (rng.uniform01() < 0.3) {
      touch(zone_cnsts[za][rng.uniform_int(0, kCnstsPerZone - 1)]);
    }
    live.push_back(v);
  };

  std::vector<Cnst*> flat_cnsts;
  for (auto& zc : zone_cnsts)
    for (Cnst& c : zc)
      flat_cnsts.push_back(&c);
  for (Cnst& c : backbone)
    flat_cnsts.push_back(&c);
  std::vector<Cnst*> dead;  // fault-flapped constraints awaiting heal

  for (int i = 0; i < 40; ++i)
    add_var();

  int checked = 0;
  for (int step = 1; step <= 1200; ++step) {
    const double kind = rng.uniform01();
    if (kind < 0.3 || live.empty()) {
      add_var();
    } else if (kind < 0.5) {
      const size_t k = rng.uniform_int(0, live.size() - 1);
      sys.release_variable(live[k]);
      ref.release_variable(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (kind < 0.65) {
      const auto v = live[rng.uniform_int(0, live.size() - 1)];
      const double w = rng.uniform01() < 0.15 ? 0.0 : rng.uniform(0.5, 4.0);
      sys.set_weight(v, w);
      ref.set_weight(v, w);
    } else if (kind < 0.78) {
      const auto v = live[rng.uniform_int(0, live.size() - 1)];
      const double b = rng.uniform01() < 0.3 ? MaxMinSystem::kNoBound : rng.uniform(5.0, 200.0);
      sys.set_bound(v, b);
      ref.set_bound(v, b);
    } else if (kind < 0.92 || dead.empty()) {
      // Fault flap down: a resource loses all capacity.
      Cnst* c = flat_cnsts[rng.uniform_int(0, flat_cnsts.size() - 1)];
      sys.set_capacity(c->id, 0.0);
      ref.set_capacity(c->id, 0.0);
      dead.push_back(c);
    } else {
      // Heal a dead resource.
      const size_t k = rng.uniform_int(0, dead.size() - 1);
      Cnst* c = dead[k];
      sys.set_capacity(c->id, c->capacity);
      ref.set_capacity(c->id, c->capacity);
      dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(k));
    }

    sys.solve();
    ref.solve_full();
    if (step % 3 == 0) {
      for (const auto v : live) {
        const double want = ref.value(v);
        ASSERT_NEAR(sys.value(v), want, 1e-9 * std::max(1.0, std::abs(want)))
            << "step " << step << " var " << v;
        ++checked;
      }
    }
  }
  EXPECT_GT(cross_flows, 50);
  EXPECT_GT(checked, 1000);
  // Cross flows couple most of the system into one closure; the sweep must
  // still have taken the incremental path, not only the first full solve.
  const auto& stats = sys.solve_stats();
  EXPECT_GT(stats.solves - stats.full_solves, 20u)
      << "solves=" << stats.solves << ", full=" << stats.full_solves;
}

// changed_variables() must report every moved allocation (the engine
// refreshes only those rates — a missed report is a silently wrong clock).
TEST(ShardedEquivalence, ChangedVariablesCoverEveryMovedAllocation) {
  sg::xbt::Rng rng(987);
  MaxMinSystem sys;
  std::vector<MaxMinSystem::CnstId> cnsts;
  for (int c = 0; c < 6; ++c)
    cnsts.push_back(sys.new_constraint(rng.uniform(50.0, 200.0)));
  std::vector<MaxMinSystem::VarId> live;
  for (int i = 0; i < 30; ++i) {
    const auto v = sys.new_variable(rng.uniform(0.5, 2.0));
    sys.expand(cnsts[rng.uniform_int(0, cnsts.size() - 1)], v);
    if (rng.uniform01() < 0.4)
      sys.expand(cnsts[rng.uniform_int(0, cnsts.size() - 1)], v);
    live.push_back(v);
  }
  sys.solve();
  std::vector<double> last(live.size());
  for (size_t k = 0; k < live.size(); ++k)
    last[k] = sys.value(live[k]);

  size_t moved = 0;
  for (int step = 0; step < 200; ++step) {
    sys.set_weight(live[rng.uniform_int(0, live.size() - 1)], rng.uniform(0.5, 3.0));
    if (step % 7 == 0)
      sys.set_capacity(cnsts[rng.uniform_int(0, cnsts.size() - 1)], rng.uniform(50.0, 200.0));
    sys.solve();
    std::vector<char> reported(live.size(), 0);
    for (MaxMinSystem::VarId v : sys.changed_variables())
      for (size_t k = 0; k < live.size(); ++k)
        if (live[k] == v)
          reported[k] = 1;
    for (size_t k = 0; k < live.size(); ++k) {
      const double now = sys.value(live[k]);
      if (now != last[k]) {
        ++moved;
        ASSERT_TRUE(reported[k]) << "allocation of var " << live[k] << " moved from " << last[k]
                                 << " to " << now << " without a changed_variables report";
      }
      last[k] = now;
    }
  }
  EXPECT_GT(moved, 200u);
}

}  // namespace
