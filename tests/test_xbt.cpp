/// Unit tests for the xbt base toolbox: logging, deterministic RNG, string
/// helpers, unit parsing, and the config store.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "xbt/exception.hpp"
#include "xbt/log.hpp"
#include "xbt/random.hpp"
#include "xbt/settings.hpp"
#include "xbt/str.hpp"
#include "xbt/units.hpp"

namespace {

using namespace sg::xbt;

// -- logging ------------------------------------------------------------------

TEST(Log, LevelParsing) {
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::debug);
  EXPECT_EQ(log_level_from_string("VERBOSE"), LogLevel::verbose);
  EXPECT_EQ(log_level_from_string("warn"), LogLevel::warning);
  EXPECT_EQ(log_level_from_string("off"), LogLevel::off);
  EXPECT_EQ(log_level_from_string("bogus"), LogLevel::info);
}

TEST(Log, CategoryThresholds) {
  LogCategory cat("log_test_cat");
  EXPECT_FALSE(cat.enabled(LogLevel::debug));  // default threshold is info
  EXPECT_TRUE(cat.enabled(LogLevel::error));
  log_control_set("log_test_cat", LogLevel::debug);
  EXPECT_TRUE(cat.enabled(LogLevel::debug));
  log_control_set("log_test_cat", LogLevel::off);
  EXPECT_FALSE(cat.enabled(LogLevel::critical));
}

TEST(Log, ControlSpecString) {
  LogCategory cat("log_test_spec");
  log_control_apply("log_test_spec:error");
  EXPECT_FALSE(cat.enabled(LogLevel::warning));
  EXPECT_TRUE(cat.enabled(LogLevel::error));
}

// -- rng ------------------------------------------------------------------------

TEST(Rng, DeterministicSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64())
      ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01Range) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01Mean) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.05);
}

// -- strings ----------------------------------------------------------------------

TEST(Str, Split) {
  auto v = split("a,b,,c", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[2], "");
  auto w = split("a,b,,c", ',', /*skip_empty=*/true);
  ASSERT_EQ(w.size(), 3u);
}

TEST(Str, SplitWs) {
  auto v = split_ws("  foo \t bar\nbaz ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "foo");
  EXPECT_EQ(v[2], "baz");
}

TEST(Str, TrimAndCase) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(Str, Affixes) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(Str, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.2345), "1.23");
}

// -- units -----------------------------------------------------------------------

TEST(Units, Speed) {
  EXPECT_DOUBLE_EQ(parse_speed("1000"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_speed("2Gf"), 2e9);
  EXPECT_DOUBLE_EQ(parse_speed("100Mf"), 1e8);
  EXPECT_THROW(parse_speed("3zips"), InvalidArgument);
}

TEST(Units, Bandwidth) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("125MBps"), 1.25e8);
  EXPECT_DOUBLE_EQ(parse_bandwidth("1Gbps"), 1.25e8);  // bits -> bytes
  EXPECT_DOUBLE_EQ(parse_bandwidth("1KiBps"), 1024.0);
  EXPECT_THROW(parse_bandwidth("5lightyears"), InvalidArgument);
}

TEST(Units, Time) {
  EXPECT_DOUBLE_EQ(parse_time("10ms"), 0.01);
  EXPECT_DOUBLE_EQ(parse_time("50us"), 5e-5);
  EXPECT_DOUBLE_EQ(parse_time("2h"), 7200.0);
  EXPECT_DOUBLE_EQ(parse_time("0.5"), 0.5);
}

TEST(Units, Size) {
  EXPECT_DOUBLE_EQ(parse_size("3.2MB"), 3.2e6);
  EXPECT_DOUBLE_EQ(parse_size("10KiB"), 10240.0);
  EXPECT_DOUBLE_EQ(parse_size("8b"), 1.0);  // bits
  EXPECT_THROW(parse_size(""), InvalidArgument);
}

// -- config -----------------------------------------------------------------------
// The registry is process-wide, so these tests use keys of their own.

TEST(Config, DeclareGetSet) {
  const sg::config::NumberKey key{"test/xbt-declare-get-set"};
  sg::config::declare(key, 3.5, 0.0, 100.0, "test key");
  EXPECT_DOUBLE_EQ(sg::config::get(key), 3.5);
  sg::config::set(key, 4.0);
  EXPECT_DOUBLE_EQ(sg::config::get(key), 4.0);
  sg::config::declare(key, 99.0, 0.0, 100.0, "test key");  // re-declare keeps current value
  EXPECT_DOUBLE_EQ(sg::config::get(key), 4.0);
  sg::config::set(key, 3.5);
}

TEST(Config, UnknownKeyThrows) {
  const sg::config::NumberKey nope{"test/xbt-never-declared"};
  EXPECT_THROW(sg::config::get(nope), InvalidArgument);
  EXPECT_THROW(sg::config::set(nope, 1.0), InvalidArgument);
  EXPECT_THROW(sg::config::apply("test/xbt-never-declared:1"), InvalidArgument);
}

// apply() reads each value from its string form by the key's declared type.
TEST(Config, StringsAndApply) {
  const sg::config::NumberKey a{"test/xbt-apply-a"};
  const sg::config::FlagKey on{"test/xbt-apply-on"};
  const sg::config::IntKey n{"test/xbt-apply-n"};
  sg::config::declare(a, 1.0, 0.0, 10.0, "test key");
  sg::config::declare(on, false, "test key");
  sg::config::declare(n, 0, 0, 100, "test key");
  sg::config::apply("test/xbt-apply-a:2.5, test/xbt-apply-on:yes, test/xbt-apply-n: 7");
  EXPECT_DOUBLE_EQ(sg::config::get(a), 2.5);
  EXPECT_TRUE(sg::config::get(on));
  EXPECT_EQ(sg::config::get(n), 7);
  EXPECT_THROW(sg::config::apply("bogus"), InvalidArgument);
  sg::config::apply("test/xbt-apply-a:1,test/xbt-apply-on:off,test/xbt-apply-n:0");
}

}  // namespace
