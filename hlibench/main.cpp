// hlibench: the repository benchmark (README.md in this directory).
//
//   hlibench --workload compile|execute_par|serve --seed N
//            --seconds S --trace 0|1 [--short] [--oracle PATH]
//            [--trace-out PATH] [--work-dir DIR] [--revision TEXT]
//
// Prints notes and the host record as '#' lines, then, as the last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set.  Exits non-zero, printing no result, when it cannot run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "host.hpp"
#include "workload.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hlibench: %s\nusage: hlibench --workload "
               "compile|execute_par|serve --seed N --seconds S "
               "--trace 0|1 [--short] [--oracle PATH] [--trace-out PATH] "
               "[--work-dir DIR] [--revision TEXT]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  hlibench::RunConfig config;
  std::string oracle_path = "hlibench/oracle.txt";
  std::string revision = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
        config.trace = trace == "1";
        have_trace = true;
      } else if (arg == "--short") {
        config.short_mode = true;
      } else if (arg == "--oracle") {
        oracle_path = value();
      } else if (arg == "--trace-out") {
        config.trace_out = value();
      } else if (arg == "--work-dir") {
        config.work_dir = value();
      } else if (arg == "--revision") {
        revision = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_seed || !have_trace || !(config.seconds > 0)) {
    usage("--seed, --trace and a positive --seconds are required");
  }
  if (config.workload != "compile" && config.workload != "execute_par" &&
      config.workload != "serve") {
    usage("unknown workload '" + config.workload + "'");
  }
  if (const std::string refusal = hlibench::build_refusal(); !refusal.empty()) {
    std::fprintf(stderr, "hlibench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 3;
  }

  try {
    config.oracle = hlibench::load_oracle(oracle_path);
    std::printf("# host %s\n",
                hlibench::host_record(revision, config.workload, config.seed,
                                      config.trace)
                    .c_str());
    std::fflush(stdout);
    hlibench::Report report;
    if (config.workload == "compile") {
      report = hlibench::run_compile(config);
    } else if (config.workload == "execute_par") {
      report = hlibench::run_execute_par(config);
    } else {
      report = hlibench::run_serve(config);
    }
    for (const std::string& note : report.notes) {
      std::printf("# %s\n", note.c_str());
    }
    for (const hlibench::Metric& metric : report.metrics) {
      std::printf("# %-28s %18.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("%s\n", hlibench::result_json(report.correct,
                                               std::max<std::uint64_t>(
                                                   report.attempted, 1),
                                               report.failed, report.metrics)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "hlibench: %s\n", e.what());
    return 1;
  }
}
