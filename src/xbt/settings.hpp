/// \file settings.hpp
/// sg::config — the typed configuration registry.
///
/// The raw xbt::Config store keeps every value as a double or a string
/// behind a string key, which made call sites stringly-typed and left the
/// set of valid keys implicit. This layer declares each key ONCE with a
/// static type, a default, a description, and (optionally) the environment
/// variable that seeds it, and hands out typed key handles:
///
///   namespace cfg = sg::config;
///   constexpr cfg::IntKey kGuardPages{"contexts/guard-pages"};
///   cfg::declare(kGuardPages, 1, 0, 64, "guard pages per fiber stack");
///   int n = cfg::get(kGuardPages);
///
/// The registry is a veneer over xbt::Config::instance(): values still live
/// in the string-keyed store (flags and ints as doubles), so existing raw
/// `Config::set("engine/kill-transit-comms", 1.0)` call sites and the --cfg=key:value
/// passthrough keep working unchanged. What the registry adds:
///   * typed getters/setters — reading a key with the wrong handle kind
///     throws instead of silently reinterpreting,
///   * int range validation at set/get time,
///   * env-var seeding as a declared, documented property of the key (the
///     variable is read once, when the key is declared),
///   * a machine-readable key table (sg::config::keys()) backing the README
///     and the unknown-key diagnostics.
#pragma once

#include <string>
#include <vector>

namespace sg::config {

enum class Type { kFlag, kInt, kNumber, kString };

/// Typed key handles. Intentionally trivial (a tagged name) so keys can be
/// constexpr constants next to the module that owns them.
struct FlagKey { const char* name; };    ///< boolean (stored as 0.0 / 1.0)
struct IntKey { const char* name; };     ///< integer with a declared range
struct NumberKey { const char* name; };  ///< double
struct StringKey { const char* name; };  ///< string

/// Declare a key (idempotent: re-declaring keeps the current value, like
/// xbt::Config). `env`, when given, names the environment variable whose
/// value seeds the default the first time the key is declared — the
/// documented replacement for ad-hoc getenv() paths.
void declare(FlagKey key, bool default_value, const std::string& description,
             const char* env = nullptr);
void declare(IntKey key, long default_value, long min, long max, const std::string& description,
             const char* env = nullptr);
void declare(NumberKey key, double default_value, const std::string& description,
             const char* env = nullptr);
void declare(StringKey key, const std::string& default_value, const std::string& description,
             const char* env = nullptr);

/// Typed reads. Throw xbt::InvalidArgument when the key was never declared
/// (listing the valid keys) or was declared with a different type.
bool get(FlagKey key);
long get(IntKey key);
double get(NumberKey key);
std::string get(StringKey key);

/// Typed writes, same diagnostics as the getters; IntKey enforces its range.
void set(FlagKey key, bool value);
void set(IntKey key, long value);
void set(NumberKey key, double value);
void set(StringKey key, const std::string& value);

/// One row of the registry table (sorted by name): drives documentation and
/// the diagnostics that list valid keys.
struct KeyInfo {
  std::string name;
  Type type = Type::kNumber;
  std::string description;
  std::string env;  ///< seeding environment variable, empty if none
};
std::vector<KeyInfo> keys();

}  // namespace sg::config
