/// Shared BENCH_*.json writer for the free-standing (non-google-benchmark)
/// benches. One artifact shape for the CI comparator: a "benchmarks" array
/// whose entries carry "wall_time_s" (plus one optional informational
/// metric) or "bytes" for deterministic memory metrics (both tracked
/// lower-is-better by .github/scripts/compare_bench.py).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace bench {

struct JsonRecord {
  std::string name;
  double wall_time_s = 0;
  /// Optional secondary metrics (informational "name#key" rows in CI).
  std::vector<std::pair<std::string, double>> extras;
  double bytes = 0;
  bool is_bytes = false;  ///< memory metric: emitted as "bytes", not wall time
};

class JsonWriter {
 public:
  void record(const std::string& name, double wall, const std::string& extra_key = "",
              double extra_value = 0) {
    JsonRecord r{name, wall, {}, 0, false};
    if (!extra_key.empty())
      r.extras.emplace_back(extra_key, extra_value);
    records_.push_back(std::move(r));
  }

  void record(const std::string& name, double wall,
              std::vector<std::pair<std::string, double>> extras) {
    records_.push_back({name, wall, std::move(extras), 0, false});
  }

  /// Deterministic memory metric (tracked by CI like the wall times: lower
  /// is better, but with no timing-noise floor).
  void record_bytes(const std::string& name, double bytes) {
    records_.push_back({name, 0, {}, bytes, true});
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      if (r.is_bytes) {
        std::fprintf(f, "    {\"name\": \"%s\", \"bytes\": %.9g", r.name.c_str(), r.bytes);
      } else {
        std::fprintf(f, "    {\"name\": \"%s\", \"wall_time_s\": %.9g", r.name.c_str(), r.wall_time_s);
        for (const auto& [key, value] : r.extras)
          std::fprintf(f, ", \"%s\": %.9g", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu benchmarks)\n", path.c_str(), records_.size());
  }

 private:
  std::vector<JsonRecord> records_;
};

}  // namespace bench
