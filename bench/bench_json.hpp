// Shared helpers for the bench binaries: `--json <path>` machine-readable
// output ({bench, nproc, trials, wall_ms, per_workload: [...]}) so CI can
// collect BENCH_*.json trajectory files, `spread()` for a timed metric
// repeated over several trials, plus `--jobs N` parsing for the benches
// that fan compilation out over the parallel driver.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace hli::benchutil {

struct Metric {
  std::string key;
  double value = 0.0;
};

/// The median of `samples` (the mean of the middle two for an even
/// count); 0 when empty.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 != 0 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

/// `key_median`, `key_min` and `key_max` over one metric's trials.
inline std::vector<Metric> spread(const std::string& key,
                                  const std::vector<double>& samples) {
  if (samples.empty()) return {};
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  return {{key + "_median", median(samples)},
          {key + "_min", *lo},
          {key + "_max", *hi}};
}

struct WorkloadReport {
  std::string name;
  std::vector<Metric> metrics;
};

/// One bench run's machine-readable result.
struct JsonReport {
  std::string bench;
  unsigned trials = 1;  ///< Runs behind each spread() metric.
  double wall_ms = 0.0;
  std::vector<WorkloadReport> per_workload;

  void add(const std::string& name, std::vector<Metric> metrics) {
    per_workload.push_back({name, std::move(metrics)});
  }

  /// Writes the report; returns false (with a message on stderr) on I/O
  /// failure so the bench can exit nonzero.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"nproc\": %u,\n"
                      "  \"trials\": %u,\n  \"wall_ms\": %.3f,\n"
                      "  \"per_workload\": [",
                 escaped(bench).c_str(), std::thread::hardware_concurrency(),
                 trials, wall_ms);
    for (std::size_t i = 0; i < per_workload.size(); ++i) {
      const WorkloadReport& w = per_workload[i];
      std::fprintf(out, "%s\n    {\"name\": \"%s\"", i == 0 ? "" : ",",
                   escaped(w.name).c_str());
      for (const Metric& m : w.metrics) {
        // 12 significant digits keep cycle and query counts exact.
        std::fprintf(out, ", \"%s\": %.12g", escaped(m.key).c_str(), m.value);
      }
      std::fputc('}', out);
    }
    std::fprintf(out, "\n  ]\n}\n");
    const bool ok = std::fclose(out) == 0;
    if (!ok) std::fprintf(stderr, "error writing '%s'\n", path.c_str());
    return ok;
  }

 private:
  [[nodiscard]] static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Common bench flags.  Unknown arguments abort with a message — the
/// benches take no positional input.
struct BenchArgs {
  std::string json_path;  ///< Empty: no JSON output.
  unsigned jobs = 0;      ///< 0: caller's default (usually all cores).

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        args.json_path = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        args.json_path = arg.substr(7);
      } else if (arg == "--jobs" && i + 1 < argc) {
        args.jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      } else if (arg.rfind("--jobs=", 0) == 0) {
        args.jobs = static_cast<unsigned>(
            std::strtoul(arg.c_str() + 7, nullptr, 10));
      } else {
        std::fprintf(stderr,
                     "unknown argument '%s' (supported: --json <path>, "
                     "--jobs N)\n",
                     arg.c_str());
        std::exit(2);
      }
    }
    return args;
  }
};

}  // namespace hli::benchutil
