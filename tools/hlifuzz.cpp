// hlifuzz — differential fuzzer for the HLI pipeline.
//
//   hlifuzz [options]                      fuzz: generate + diff programs
//   hlifuzz --reduce <file.c> [options]    shrink a divergent reproducer
//   hlifuzz --emit-source [options]        print the program for --seed
//   hlifuzz --list-features                list feature-mask names
//
//   --seed N          first seed (default 1); iteration i uses seed+i
//   --iterations N    programs to generate and check (default 100)
//   --features LIST   generator feature mask: "all", "default", or a
//                     comma list of names, '-' prefix subtracts
//                     (e.g. "default,-float,-calls")
//   --plant-bug KIND  corrupt each compiled RTL post-compile to self-test
//                     detection + reduction: drop-store | negate-branch.
//                     Every iteration must then diverge; the first hit is
//                     reduced and its minimized line count reported.
//   --emit-repro DIR  write <DIR>/seedN.c, seedN.report.txt and (after
//                     reduction) seedN.min.c for every divergent seed
//   --json PATH       machine-readable summary (bench --json convention)
//   --max-checks N    reducer budget in differential runs (default 4000)
//   --no-reduce       report divergences without minimizing them
//   --quiet           per-iteration progress off
//
// plus the shared tool flags (tools/options.hpp): --frontend=basic runs
// the whole differential matrix over the BASIC rendering of each
// generated program (features outside the dialect — pointer params,
// ++/-- — are masked off; --reduce auto-detects `.bas` inputs);
// --jobs[=]N fans the
// iterations out across threads (reporting/reduction stays in seed order,
// so results and exit status are identical to a serial run);
// --verify-hli[=fatal|warn] and --emit=binary|text override the matrix's
// defaults for every configuration; --stats[=table|json] reports the
// telemetry counters the differential compiles accumulated (table to
// stderr, json as one document on stdout); --trace-out=PATH writes the
// compile timeline.
//
// Each generated program runs through the full configuration matrix —
// no-HLI vs HLI, every optimization pass alone and all together, text vs
// binary interchange encoding, external HliStore import, regalloc +
// second scheduling pass, serial vs compile_many — with the HLI verifier
// fatal at every pass boundary, and every leg's observable behavior
// (emit stream hash, emit count, return value, traps) is compared
// against the unoptimized no-HLI oracle.
//
// Exit status: 0 all iterations agree (or, under --plant-bug, every
// iteration was caught); 1 divergence (or a planted bug missed); 2 usage.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "driver/parallel.hpp"
#include "testing/diff.hpp"
#include "frontend/testgen.hpp"
#include "frontend_basic/testgen.hpp"
#include "testing/reduce.hpp"
#include "tools/options.hpp"

using namespace hli;

namespace {

struct CliOptions {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 100;
  std::uint32_t features = testing::kDefaultFeatures;
  testing::PlantedDefect plant = testing::PlantedDefect::None;
  std::string reduce_path;
  std::string repro_dir;
  std::string json_path;
  unsigned max_checks = 4000;
  bool emit_source = false;
  bool no_reduce = false;
  bool quiet = false;
  tools::CommonOptions common;
};

int usage() {
  std::fprintf(stderr,
               "usage: hlifuzz [--seed N] [--iterations N] [--features LIST]\n"
               "               [--plant-bug drop-store|negate-branch]\n"
               "               [--emit-repro DIR] [--json PATH] [--max-checks N]\n"
               "               [--no-reduce] [--quiet] [shared flags]\n"
               "       hlifuzz --reduce <file.c> [options]\n"
               "       hlifuzz --emit-source [--seed N] [--features LIST]\n"
               "       hlifuzz --list-features\n"
               "shared flags:\n%s",
               tools::common_usage());
  return 2;
}

/// Applies the shared --verify-hli / --emit overrides (when given) onto
/// every configuration of the differential matrix.
void apply_matrix_overrides(const tools::CommonOptions& common,
                            std::vector<testing::DiffConfig>& matrix) {
  for (testing::DiffConfig& config : matrix) {
    driver::PipelineOptions& options = config.options;
    options.verify_hli = common.verify_hli.value_or(options.verify_hli);
    options.hli_encoding = common.emit.value_or(options.hli_encoding);
  }
}

/// `--flag N` into `out` through the shared checked parse.
bool parse_u64(const std::string& text, const char* flag, std::uint64_t max,
               std::uint64_t& out) {
  const std::optional<std::uint64_t> n =
      tools::parse_number(text, flag, "hlifuzz", 0, max);
  if (n) out = *n;
  return n.has_value();
}

testing::GenOptions gen_options(const CliOptions& cli, std::uint64_t seed) {
  testing::GenOptions gen;
  gen.seed = seed;
  gen.features = cli.features;
  return gen;
}

/// The reducer's predicate: still valid, still diverging (any config).
/// The tight insn budget matters: ddmin constantly produces candidates
/// that delete a loop-counter update, and those must fail fast instead
/// of spinning to the default 50M-insn ceiling.
bool still_diverges(const std::string& source,
                    const std::vector<testing::DiffConfig>& matrix,
                    testing::PlantedDefect plant, std::uint64_t max_insns,
                    frontend::Language language) {
  const testing::DiffResult r =
      testing::run_differential(source, matrix, plant, max_insns, language);
  return !r.invalid_input && r.diverged();
}

/// Budget for reduction candidates: generous vs the original run, tiny
/// vs the runaway ceiling.
std::uint64_t reduce_budget(const testing::DiffResult& initial) {
  const std::uint64_t base = initial.baseline.dynamic_insns;
  return std::max<std::uint64_t>(200'000, base * 4);
}

/// Reduction matrix: baseline vs just the config that first disagreed.
/// Every ddmin check is a differential run, so chasing one guilty config
/// instead of thirteen makes reduction an order of magnitude faster —
/// and pins the reproducer to the divergence actually being minimized.
std::vector<testing::DiffConfig> reduction_matrix(
    const std::vector<testing::DiffConfig>& matrix,
    const testing::DiffResult& initial) {
  for (const testing::DiffConfig& cfg : matrix) {
    if (cfg.name == initial.divergences.front().config) return {cfg};
  }
  return matrix;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

struct ReproPaths {
  std::string source;
  std::string report;
  std::string reduced;
};

ReproPaths repro_paths(const std::string& dir, std::uint64_t seed,
                       frontend::Language language) {
  const std::string stem = dir + "/seed" + std::to_string(seed);
  const char* ext = language == frontend::Language::Basic ? ".bas" : ".c";
  return {stem + ext, stem + ".report.txt", stem + ".min" + ext};
}

int run_reduce_mode(const CliOptions& cli) {
  std::ifstream in(cli.reduce_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "hlifuzz: cannot read '%s'\n",
                 cli.reduce_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string source = buf.str();

  // A `.bas` reproducer selects the BASIC front-end on its own;
  // --frontend stays the explicit override.
  const frontend::Language language =
      cli.common.frontend
          ? *cli.common.frontend
          : frontend::language_for_path(cli.reduce_path)
                .value_or(frontend::Language::C);

  const std::vector<testing::DiffConfig> matrix = testing::default_matrix();
  const testing::DiffResult initial = testing::run_differential(
      source, matrix, cli.plant, 50'000'000, language);
  if (initial.invalid_input) {
    std::fprintf(stderr, "hlifuzz: input is invalid: %s\n",
                 initial.invalid_reason.c_str());
    return 2;
  }
  if (!initial.diverged()) {
    std::fprintf(stderr,
                 "hlifuzz: input does not diverge; nothing to reduce\n");
    std::fputs(testing::describe(initial).c_str(), stderr);
    return 2;
  }
  testing::ReduceOptions ropts;
  ropts.max_checks = cli.max_checks;
  const std::vector<testing::DiffConfig> target =
      reduction_matrix(matrix, initial);
  const std::uint64_t budget = reduce_budget(initial);
  const testing::ReduceResult reduced = testing::reduce_source(
      source,
      [&](const std::string& candidate) {
        return still_diverges(candidate, target, cli.plant, budget, language);
      },
      ropts);
  std::fprintf(stderr, "hlifuzz: reduced %zu -> %zu lines in %u checks%s\n",
               reduced.initial_lines, reduced.final_lines, reduced.checks,
               reduced.minimal ? " (1-minimal)" : " (budget hit)");
  std::fputs(reduced.source.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  bool list_features = false;
  for (int i = 1; i < argc; ++i) {
    switch (tools::parse_common_flag(argc, argv, i, "hlifuzz", cli.common)) {
      case tools::ParseStatus::Handled: continue;
      case tools::ParseStatus::Error: return usage();
      case tools::ParseStatus::NotMine: break;
    }
    using tools::flag_value;
    std::string value;
    if (flag_value(argc, argv, i, "--seed", value)) {
      if (!parse_u64(value, "--seed", UINT64_MAX, cli.seed)) return usage();
    } else if (flag_value(argc, argv, i, "--iterations", value)) {
      if (!parse_u64(value, "--iterations", UINT64_MAX, cli.iterations)) {
        return usage();
      }
    } else if (flag_value(argc, argv, i, "--features", value)) {
      if (!testing::parse_features(value, cli.features)) {
        std::fprintf(stderr, "hlifuzz: unknown feature in '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (flag_value(argc, argv, i, "--plant-bug", value)) {
      if (!testing::parse_planted_defect(value, cli.plant)) {
        std::fprintf(stderr, "hlifuzz: unknown defect '%s'\n", value.c_str());
        return 2;
      }
    } else if (flag_value(argc, argv, i, "--reduce", value)) {
      cli.reduce_path = value;
    } else if (flag_value(argc, argv, i, "--emit-repro", value)) {
      cli.repro_dir = value;
    } else if (flag_value(argc, argv, i, "--json", value)) {
      cli.json_path = value;
    } else if (flag_value(argc, argv, i, "--max-checks", value)) {
      std::uint64_t n = 0;
      if (!parse_u64(value, "--max-checks", UINT_MAX, n)) return usage();
      cli.max_checks = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--emit-source") == 0) {
      cli.emit_source = true;
    } else if (std::strcmp(argv[i], "--no-reduce") == 0) {
      cli.no_reduce = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      cli.quiet = true;
    } else if (std::strcmp(argv[i], "--list-features") == 0) {
      list_features = true;
    } else {
      std::fprintf(stderr, "hlifuzz: unknown argument '%s'\n", argv[i]);
      return usage();
    }
  }

  if (list_features) {
    for (const std::string& name : testing::feature_names()) {
      std::printf("%s\n", name.c_str());
    }
    std::printf("default = %s\n",
                testing::render_features(testing::kDefaultFeatures).c_str());
    return 0;
  }

  // --frontend=basic: every generated program fuzzes the BASIC front-end
  // instead, with features the dialect cannot express masked off.
  const frontend::Language language =
      cli.common.frontend.value_or(frontend::Language::C);
  if (language == frontend::Language::Basic) {
    const std::uint32_t expressible = testing::basic_expressible(cli.features);
    if (expressible != cli.features && !cli.quiet) {
      std::fprintf(
          stderr, "hlifuzz: --frontend=basic masks %s (not in the dialect)\n",
          testing::render_features(cli.features & ~expressible).c_str());
    }
    cli.features = expressible;
  }
  const auto generate = [&](std::uint64_t seed) {
    return language == frontend::Language::Basic
               ? testing::generate_basic_source(gen_options(cli, seed))
               : testing::generate_source(gen_options(cli, seed));
  };

  if (cli.emit_source) {
    std::fputs(generate(cli.seed).c_str(), stdout);
    return 0;
  }
  if (!cli.reduce_path.empty()) return run_reduce_mode(cli);

  if (!cli.repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.repro_dir, ec);
    if (ec) {
      std::fprintf(stderr, "hlifuzz: cannot create '%s': %s\n",
                   cli.repro_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  std::vector<testing::DiffConfig> matrix = testing::default_matrix();
  apply_matrix_overrides(cli.common, matrix);
  const bool planted = cli.plant != testing::PlantedDefect::None;

  // Ambient telemetry for --stats/--trace-out: every compile the
  // differential legs run records into this scope (parallel_for
  // re-installs the sink on its workers, merging per-task counters in
  // seed order, so the totals match a serial run exactly).
  telemetry::CounterSet fuzz_counters;
  telemetry::Tracer tracer;
  const telemetry::ScopedRecorder recorder(
      cli.common.stats != tools::StatsFormat::Off ? &fuzz_counters : nullptr,
      cli.common.trace_out.empty() ? nullptr : &tracer);

  benchutil::WallTimer timer;
  std::uint64_t divergent = 0;
  std::uint64_t invalid = 0;
  std::uint64_t missed_plants = 0;
  std::vector<std::uint64_t> divergent_seeds;
  std::size_t first_reduced_lines = 0;

  // Phase 1: generate + differentially run every seed, fanned out on
  // --jobs threads.  Results land in seed order; everything order-
  // sensitive (reporting, reduction, repro files) happens serially below.
  std::vector<std::string> sources(cli.iterations);
  std::vector<testing::DiffResult> results(cli.iterations);
  driver::parallel_for(cli.iterations, cli.common.jobs, [&](std::size_t i) {
    sources[i] = generate(cli.seed + i);
    results[i] = testing::run_differential(sources[i], matrix, cli.plant,
                                           50'000'000, language);
  });

  for (std::uint64_t i = 0; i < cli.iterations; ++i) {
    const std::uint64_t seed = cli.seed + i;
    const std::string& source = sources[i];
    const testing::DiffResult& result = results[i];

    if (result.invalid_input) {
      ++invalid;
      std::fprintf(stderr, "seed %llu: INVALID generated program: %s\n",
                   static_cast<unsigned long long>(seed),
                   result.invalid_reason.c_str());
      continue;
    }
    if (!result.diverged()) {
      if (planted) {
        ++missed_plants;
        std::fprintf(stderr, "seed %llu: planted %s NOT detected\n",
                     static_cast<unsigned long long>(seed),
                     testing::planted_defect_name(cli.plant));
      } else if (!cli.quiet && (i + 1) % 100 == 0) {
        std::fprintf(stderr, "  %llu/%llu iterations clean\n",
                     static_cast<unsigned long long>(i + 1),
                     static_cast<unsigned long long>(cli.iterations));
      }
      continue;
    }

    ++divergent;
    divergent_seeds.push_back(seed);
    if (!planted) {
      std::fprintf(stderr, "seed %llu: DIVERGENCE\n%s",
                   static_cast<unsigned long long>(seed),
                   testing::describe(result).c_str());
    }

    const ReproPaths paths = repro_paths(
        cli.repro_dir.empty() ? std::string(".") : cli.repro_dir, seed,
        language);
    if (!cli.repro_dir.empty()) {
      if (!write_file(paths.source, source) ||
          !write_file(paths.report, testing::describe(result))) {
        std::fprintf(stderr, "hlifuzz: cannot write repro for seed %llu\n",
                     static_cast<unsigned long long>(seed));
        return 2;
      }
    }

    // Minimize the first hit (every hit when emitting repros).
    const bool want_reduce =
        !cli.no_reduce && (divergent == 1 || !cli.repro_dir.empty());
    if (want_reduce) {
      testing::ReduceOptions ropts;
      ropts.max_checks = cli.max_checks;
      const std::vector<testing::DiffConfig> target =
          reduction_matrix(matrix, result);
      const std::uint64_t budget = reduce_budget(result);
      const testing::ReduceResult reduced = testing::reduce_source(
          source,
          [&](const std::string& candidate) {
            return still_diverges(candidate, target, cli.plant, budget,
                                  language);
          },
          ropts);
      if (divergent == 1) first_reduced_lines = reduced.final_lines;
      std::fprintf(stderr, "seed %llu: reduced %zu -> %zu lines (%u checks)\n",
                   static_cast<unsigned long long>(seed),
                   reduced.initial_lines, reduced.final_lines, reduced.checks);
      if (!cli.repro_dir.empty() &&
          !write_file(paths.reduced, reduced.source)) {
        std::fprintf(stderr, "hlifuzz: cannot write %s\n",
                     paths.reduced.c_str());
        return 2;
      }
      if (cli.repro_dir.empty() && !planted) {
        std::fputs(reduced.source.c_str(), stdout);
      }
    }
  }

  const double wall_ms = timer.elapsed_ms();
  const bool failed =
      invalid != 0 || (planted ? missed_plants != 0 : divergent != 0);
  std::string plant_note;
  if (planted) {
    plant_note = std::string(", planted ") +
                 testing::planted_defect_name(cli.plant) +
                 (missed_plants != 0 ? " MISSED" : " caught");
  }
  std::fprintf(stderr,
               "hlifuzz: %llu iterations, %llu divergent, %llu invalid"
               "%s in %.1f ms -> %s\n",
               static_cast<unsigned long long>(cli.iterations),
               static_cast<unsigned long long>(divergent),
               static_cast<unsigned long long>(invalid), plant_note.c_str(),
               wall_ms, failed ? "FAIL" : "ok");

  if (!cli.json_path.empty()) {
    benchutil::JsonReport report;
    report.bench = "hlifuzz";
    report.wall_ms = wall_ms;
    std::vector<benchutil::Metric> metrics = {
        {"iterations", static_cast<double>(cli.iterations)},
        {"divergent", static_cast<double>(divergent)},
        {"invalid", static_cast<double>(invalid)},
        {"configs", static_cast<double>(matrix.size() + 1)},
        {"first_seed", static_cast<double>(cli.seed)},
    };
    if (planted) {
      metrics.push_back({"missed_plants", static_cast<double>(missed_plants)});
      metrics.push_back(
          {"reduced_lines", static_cast<double>(first_reduced_lines)});
    }
    report.add("summary", std::move(metrics));
    for (const std::uint64_t seed : divergent_seeds) {
      report.add("seed" + std::to_string(seed),
                 {{"seed", static_cast<double>(seed)}});
    }
    if (!report.write(cli.json_path)) return 2;
  }

  if (cli.common.stats == tools::StatsFormat::Table) {
    std::fprintf(stderr, "telemetry counters:\n%s",
                 tools::render_counters_table(fuzz_counters, 2).c_str());
  } else if (cli.common.stats == tools::StatsFormat::Json) {
    std::string doc = "{\"counters\":";
    doc += tools::render_counters_json(fuzz_counters);
    doc += "}\n";
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  }
  if (!tools::write_trace(cli.common, tracer, "hlifuzz")) return 2;
  return failed ? 1 : 0;
}
