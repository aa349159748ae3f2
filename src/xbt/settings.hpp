/// \file settings.hpp
/// sg::config — the configuration store.
///
/// Every option of the engine, kernel and platform is declared ONCE, by the
/// module that owns it, with a static type, a default, a range (ints and
/// numbers), a description, and optionally the environment variable that
/// seeds it. Modules hand out typed key handles:
///
///   namespace cfg = sg::config;
///   constexpr cfg::IntKey kGuardPages{"contexts/guard-pages"};
///   cfg::declare(kGuardPages, 1, 0, 64, "guard pages per fiber stack");
///   int n = cfg::get(kGuardPages);
///
/// The registry holds the values too, and every write goes through one
/// validation step — a typed set(), the env seed read when the key is
/// declared, and apply("key:value,…") for string input. A value outside the
/// key's type or range is refused with xbt::InvalidArgument naming the key,
/// so a reader never sees one. String input is parsed strictly: numbers are
/// whole tokens, flags are one of 0/1/true/false/on/off/yes/no.
#pragma once

#include <string>
#include <vector>

namespace sg::config {

enum class Type { kFlag, kInt, kNumber };

/// Typed key handles. Intentionally trivial (a tagged name) so keys can be
/// constexpr constants next to the module that owns them.
struct FlagKey { const char* name; };    ///< boolean
struct IntKey { const char* name; };     ///< integer with a declared range
struct NumberKey { const char* name; };  ///< double with a declared range

/// Declare a key. Re-declaring it with the same type keeps the current value;
/// re-declaring it with another type throws. `env`, when given, names the
/// environment variable whose value seeds the key when it is first declared
/// (parsed like apply(); a bad value throws naming the variable and the key).
/// Ranges are inclusive.
void declare(FlagKey key, bool default_value, const std::string& description,
             const char* env = nullptr);
void declare(IntKey key, long default_value, long min, long max, const std::string& description,
             const char* env = nullptr);
void declare(NumberKey key, double default_value, double min, double max,
             const std::string& description, const char* env = nullptr);

/// Typed reads. Throw xbt::InvalidArgument when the key was never declared
/// (listing the valid keys) or was declared with a different type.
bool get(FlagKey key);
long get(IntKey key);
double get(NumberKey key);

/// Typed writes, same diagnostics as the getters; a value outside the key's
/// range (NaN included) throws and leaves the stored value unchanged.
void set(FlagKey key, bool value);
void set(IntKey key, long value);
void set(NumberKey key, double value);

/// Apply "key:value,key:value", each value parsed by its key's declared type.
/// All items are checked before any is stored: a bad item throws and changes
/// nothing.
void apply(const std::string& spec);

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
