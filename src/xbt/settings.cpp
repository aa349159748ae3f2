#include "xbt/settings.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <utility>

#include "xbt/exception.hpp"
#include "xbt/str.hpp"

namespace sg::config {
namespace {

/// One declared key. Its value lives in `num` (flags as 0/1), bounded by
/// [min, max].
struct Entry {
  Type type = Type::kNumber;
  double num = 0.0;
  double min = 0.0, max = 0.0;
  std::string description;
  std::string env;
};

std::map<std::string, Entry>& registry() {
  static std::map<std::string, Entry> r;
  return r;
}

const char* type_name(Type t) {
  switch (t) {
    case Type::kFlag: return "flag";
    case Type::kInt: return "int";
    case Type::kNumber: return "number";
  }
  return "?";
}

Entry& find(const std::string& key) {
  auto it = registry().find(key);
  if (it != registry().end())
    return it->second;
  std::string msg = "unknown config key: " + key + " (valid keys:";
  bool first = true;
  for (const auto& [name, entry] : registry()) {
    msg += first ? " " : ", ";
    msg += name;
    first = false;
  }
  if (first)
    msg += " none declared yet";
  throw xbt::InvalidArgument(msg + ")");
}

Entry& require(const char* key, Type want) {
  Entry& entry = find(key);
  if (entry.type != want)
    throw xbt::InvalidArgument(std::string("config key ") + key + " is a " + type_name(entry.type) +
                               ", accessed as a " + type_name(want));
  return entry;
}

/// The one validation step every write goes through.
/// `origin` says where the value came from, for the diagnostic.
void store(Entry& entry, const std::string& key, double value, const std::string& origin = "") {
  if (!(value >= entry.min && value <= entry.max))  // NaN fails both
    throw xbt::InvalidArgument(xbt::format("config key %s: value %.15g%s outside [%.15g, %.15g]",
                                           key.c_str(), value, origin.c_str(), entry.min,
                                           entry.max));
  if (entry.type != Type::kNumber && value != std::trunc(value))
    throw xbt::InvalidArgument(xbt::format("config key %s: value %.15g%s is not an integer",
                                           key.c_str(), value, origin.c_str()));
  entry.num = value;
}

/// Parse string input (apply() or an env seed) by the entry's type and store
/// it. Numbers must be one whole token; flags one of the literals below.
void assign(Entry& entry, const std::string& key, const std::string& raw,
            const std::string& origin = "") {
  const std::string text = xbt::trim(raw);
  double value = 0.0;
  bool ok = true;
  if (entry.type == Type::kFlag) {
    if (text == "1" || text == "true" || text == "on" || text == "yes")
      value = 1.0;
    else if (!(text == "0" || text == "false" || text == "off" || text == "no"))
      ok = false;
  } else {
    char* end = nullptr;
    value = std::strtod(text.c_str(), &end);
    ok = !text.empty() && *end == '\0';
  }
  if (!ok)
    throw xbt::InvalidArgument(xbt::format("config key %s: cannot read '%s'%s as a %s",
                                           key.c_str(), text.c_str(), origin.c_str(),
                                           type_name(entry.type)));
  store(entry, key, value, origin);
}

void add(const char* key, Entry entry, const char* env) {
  auto it = registry().find(key);
  if (it != registry().end()) {
    if (it->second.type != entry.type)
      throw xbt::InvalidArgument(std::string("config key ") + key + " is a " +
                                 type_name(it->second.type) + ", re-declared as a " +
                                 type_name(entry.type));
    return;
  }
  store(entry, key, entry.num, " (declared default)");
  if (env != nullptr) {
    entry.env = env;
    if (const char* text = std::getenv(env))
      assign(entry, key, text, std::string(" (from environment variable ") + env + ")");
  }
  registry().emplace(key, std::move(entry));
}

}  // namespace

void declare(FlagKey key, bool default_value, const std::string& description, const char* env) {
  add(key.name, Entry{Type::kFlag, default_value ? 1.0 : 0.0, 0.0, 1.0, description, {}}, env);
}

void declare(IntKey key, long default_value, long min, long max, const std::string& description,
             const char* env) {
  add(key.name,
      Entry{Type::kInt, static_cast<double>(default_value), static_cast<double>(min),
            static_cast<double>(max), description, {}},
      env);
}

void declare(NumberKey key, double default_value, double min, double max,
             const std::string& description, const char* env) {
  add(key.name, Entry{Type::kNumber, default_value, min, max, description, {}}, env);
}

bool get(FlagKey key) { return require(key.name, Type::kFlag).num != 0.0; }
long get(IntKey key) { return static_cast<long>(require(key.name, Type::kInt).num); }
double get(NumberKey key) { return require(key.name, Type::kNumber).num; }

void set(FlagKey key, bool value) {
  store(require(key.name, Type::kFlag), key.name, value ? 1.0 : 0.0);
}
void set(IntKey key, long value) {
  store(require(key.name, Type::kInt), key.name, static_cast<double>(value));
}
void set(NumberKey key, double value) { store(require(key.name, Type::kNumber), key.name, value); }

void apply(const std::string& spec) {
  std::vector<std::pair<Entry*, Entry>> staged;
  for (const std::string& item : xbt::split(spec, ',', /*skip_empty=*/true)) {
    const size_t colon = item.find(':');
    if (colon == std::string::npos)
      throw xbt::InvalidArgument("bad config item (want key:value): " + item);
    const std::string key = xbt::trim(item.substr(0, colon));
    Entry& entry = find(key);
    Entry next = entry;
    assign(next, key, item.substr(colon + 1));
    staged.emplace_back(&entry, std::move(next));
  }
  for (auto& [slot, next] : staged)
    *slot = std::move(next);
}

std::vector<KeyInfo> keys() {
  std::vector<KeyInfo> out;
  out.reserve(registry().size());
  for (const auto& [name, entry] : registry())
    out.push_back(KeyInfo{name, entry.type, entry.description, entry.env});
  return out;
}

}  // namespace sg::config
