// hlic — the command-line front door to the whole pipeline.
//
//   hlic [options] <file.c | file.bas | workload-name>...
//
//   --dump-hli        write the serialized HLI interchange bytes to
//                     stdout (text, or raw HLIB with --emit=binary)
//   --pretty          print the HLI tables in Figure-2 style
//   --dump-rtl        print the optimized RTL of every function
//   --run             execute and print output hash / return value
//   --simulate=M      cycle simulation, M in {r4600, r10000}
//   --no-hli          compile with the native oracle only
//   --unroll[=N]      enable loop unrolling (default factor 4)
//   --verify          lint mode: treat each input as a serialized HLI
//                     file (text or HLIB binary, auto-detected by magic),
//                     parse it and check every invariant; exits nonzero
//                     on malformed input or any finding.  Usable by any
//                     front-end emitting the format.
//   --list-workloads  list the built-in benchmark names
//
// plus the shared tool flags (tools/options.hpp): --emit=binary|text,
// --jobs[=]N, --verify-hli[=fatal|warn], --audit-deps[=fatal|warn],
// --analyze=loops, --irdep-fallback, --trace-out=PATH, and
// --stats[=table|json].  --stats=table prints the legacy pass summary
// followed by the telemetry counter catalog; --stats=json emits one
// deterministic JSON document (per-input + per-function counters and the
// aggregated total) that is byte-identical for any --jobs value.
//
// Each positional argument is a path to a source file (mini-C `.c` or
// BASIC `.bas` — the front-end follows the extension unless --frontend
// overrides it), or the name of a built-in workload (e.g. "102.swim",
// "basic.stencil").  Multiple inputs compile in parallel (see --jobs);
// results print in input order, each under a "== <input> ==" banner when
// there is more than one.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/rtl.hpp"
#include "driver/parallel.hpp"
#include "driver/pipeline.hpp"
#include "hli/dump.hpp"
#include "hli/serialize.hpp"
#include "hli/verify.hpp"
#include "support/diagnostics.hpp"
#include "tools/options.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

struct CliOptions {
  bool dump_hli = false;
  bool pretty = false;
  bool dump_rtl = false;
  bool run = false;
  bool verify_files = false;  ///< Lint mode: inputs are serialized HLI.
  std::string simulate;
  tools::CommonOptions common;
  driver::PipelineOptions pipeline;
  std::vector<std::string> inputs;
};

int usage() {
  std::fprintf(stderr,
               "usage: hlic [--dump-hli] [--pretty] [--dump-rtl] [--run]\n"
               "            [--simulate=r4600|r10000] [--no-hli] [--unroll[=N]]\n"
               "            [shared flags] <file.c | file.bas | workload-name>...\n"
               "       hlic --verify <file.hli | file.hlib>...\n"
               "       hlic --list-workloads\n"
               "shared flags:\n%s",
               tools::common_usage());
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    tools::ParseStatus status =
        tools::parse_common_flag(argc, argv, i, "hlic", options.common);
    if (status == tools::ParseStatus::NotMine) {
      status = tools::parse_pipeline_flag(argv[i], "hlic", options.pipeline);
    }
    if (status == tools::ParseStatus::Error) return false;
    if (status == tools::ParseStatus::Handled) continue;
    const std::string arg = argv[i];
    if (arg == "--dump-hli") {
      options.dump_hli = true;
    } else if (arg == "--pretty") {
      options.pretty = true;
    } else if (arg == "--dump-rtl") {
      options.dump_rtl = true;
    } else if (arg == "--run") {
      options.run = true;
    } else if (arg.rfind("--simulate=", 0) == 0) {
      options.simulate = arg.substr(11);
    } else if (arg == "--verify") {
      options.verify_files = true;
    } else if (arg == "--list-workloads") {
      for (const auto& w : workloads::all_workloads()) {
        std::printf("%-14s %s\n", w.name.c_str(), w.suite.c_str());
      }
      for (const auto& w : workloads::basic_workloads()) {
        std::printf("%-14s %s\n", w.name.c_str(), w.suite.c_str());
      }
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "hlic: unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      options.inputs.push_back(arg);
    }
  }
  return !options.inputs.empty();
}

/// `hlic --verify`: parse + statically check one serialized HLI file.
/// Malformed input gets a proper file-prefixed diagnostic and a nonzero
/// exit instead of an uncaught serializer exception; a well-formed file
/// is run through the full invariant verifier with the differential
/// conservativeness audit enabled.
int verify_hli_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "hlic: cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    std::fprintf(stderr, "hlic: error reading '%s'\n", path.c_str());
    return 1;
  }

  // Dispatch on the magic: HLIB containers get the binary reader (which
  // verifies every checksum), anything else the text parser.
  hli::format::HliFile file;
  try {
    file = serialize::read_any(std::move(buffer).str());
  } catch (const std::exception& e) {  // support::CompileError and others.
    std::fprintf(stderr, "hlic: %s: malformed HLI: %s\n", path.c_str(),
                 e.what());
    return 1;
  }

  verify::VerifyOptions vopts;
  vopts.audit_on_findings = true;
  std::string report;
  const verify::VerifyResult result = verify::verify_file(file, vopts, &report);
  if (!result.ok()) {
    std::fprintf(stderr, "hlic: %s: %zu invariant violation(s):\n%s",
                 path.c_str(), result.findings.size(), report.c_str());
    return 1;
  }
  std::printf("%s: ok (%zu units, %zu invariant checks)\n", path.c_str(),
              file.entries.size(), result.checks_run);
  return 0;
}

int emit(const CliOptions& options, const driver::CompiledProgram& compiled) {
  if (options.pipeline.analyze_loops &&
      options.common.stats != tools::StatsFormat::Json) {
    // --analyze=loops: one fixed-width line per loop, each classified
    // under irdep facts alone and under irdep ∪ HLI.  With --stats=json
    // the classification travels inside the stats document instead
    // (one "loops" array per input) so machine consumers parse ONE
    // JSON document per invocation.
    std::fputs(irdep::render_loop_table(compiled.loop_reports).c_str(),
               stdout);
  }
  if (options.dump_hli) {
    // fwrite, not fputs: HLIB interchange bytes contain NULs.
    std::fwrite(compiled.hli_text.data(), 1, compiled.hli_text.size(), stdout);
  }
  if (options.pretty) std::fputs(dump::render_file(compiled.hli).c_str(), stdout);
  if (options.dump_rtl) {
    for (const backend::RtlFunction& func : compiled.rtl.functions) {
      std::fputs(backend::to_string(func).c_str(), stdout);
    }
  }
  if (options.common.stats == tools::StatsFormat::Table) {
    const auto& s = compiled.stats;
    std::printf("source lines:       %zu\n", s.source_lines);
    std::printf("HLI bytes:          %zu\n", s.hli_bytes);
    std::printf("items mapped:       %zu (%s)\n", s.mapped_items,
                s.map_perfect ? "perfect" : "MISMATCHES");
    std::printf("sched queries:      %llu  (gcc yes %llu, hli yes %llu, "
                "combined %llu)\n",
                static_cast<unsigned long long>(s.sched.mem_queries),
                static_cast<unsigned long long>(s.sched.gcc_yes),
                static_cast<unsigned long long>(s.sched.hli_yes),
                static_cast<unsigned long long>(s.sched.combined_yes));
    std::printf("cse reused:         %llu  (kept at calls %llu)\n",
                static_cast<unsigned long long>(s.cse.exprs_reused +
                                                s.cse.loads_reused),
                static_cast<unsigned long long>(s.cse.entries_kept_at_calls));
    std::printf("licm loads hoisted: %llu\n",
                static_cast<unsigned long long>(s.licm.loads_hoisted));
    std::printf("loops unrolled:     %llu\n",
                static_cast<unsigned long long>(s.unroll.loops_unrolled));
    std::printf("telemetry counters:\n%s",
                tools::render_counters_table(compiled.counters.total, 2)
                    .c_str());
  }
  if (options.run) {
    const backend::RunResult result = driver::execute(compiled);
    if (!result.ok) {
      std::fprintf(stderr, "hlic: run failed: %s\n", result.error.c_str());
      return 1;
    }
    std::printf("return value:  %lld\n",
                static_cast<long long>(result.return_value));
    std::printf("output hash:   %016llx (%llu emits)\n",
                static_cast<unsigned long long>(result.output_hash),
                static_cast<unsigned long long>(result.emit_count));
    std::printf("dynamic insns: %llu\n",
                static_cast<unsigned long long>(result.dynamic_insns));
    if (compiled.exec_threads > 1) {
      // Runtime-shape stats go to STDERR: stdout stays byte-identical to
      // a serial run so `hlic --run` output can be diffed across thread
      // counts (scripts/ci.sh stage_parexec does exactly that).
      const backend::ParexecStats& p = result.parexec;
      std::fprintf(stderr,
                   "parexec: loops %llu invocations %llu chunks %llu "
                   "iterations %llu waits %llu elided %llu fallbacks %llu "
                   "cost-declined %llu\n",
                   static_cast<unsigned long long>(p.loops_parallelized),
                   static_cast<unsigned long long>(p.invocations),
                   static_cast<unsigned long long>(p.chunks),
                   static_cast<unsigned long long>(p.par_iterations),
                   static_cast<unsigned long long>(p.sync_waits),
                   static_cast<unsigned long long>(p.sync_elided),
                   static_cast<unsigned long long>(p.serial_fallbacks),
                   static_cast<unsigned long long>(p.cost_declines));
    }
  }
  if (!options.simulate.empty()) {
    machine::MachineDesc mach;
    if (options.simulate == "r4600") {
      mach = machine::r4600();
    } else if (options.simulate == "r10000") {
      mach = machine::r10000();
    } else {
      std::fprintf(stderr, "hlic: unknown machine '%s'\n",
                   options.simulate.c_str());
      return 1;
    }
    const driver::SimResult sim = driver::simulate(compiled, mach);
    if (!sim.run.ok) {
      std::fprintf(stderr, "hlic: simulation failed: %s\n",
                   sim.run.error.c_str());
      return 1;
    }
    std::printf("%s cycles: %llu  (%.3f insns/cycle)\n", mach.name.c_str(),
                static_cast<unsigned long long>(sim.cycles),
                static_cast<double>(sim.run.dynamic_insns) /
                    static_cast<double>(sim.cycles));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return usage();

  if (options.verify_files) {
    int status = 0;
    for (const std::string& input : options.inputs) {
      const int rc = verify_hli_file(input);
      if (rc != 0) status = rc;
    }
    return status;
  }

  std::vector<std::string> sources(options.inputs.size());
  for (std::size_t i = 0; i < options.inputs.size(); ++i) {
    if (!tools::load_source(options.inputs[i], "hlic", sources[i])) return 1;
  }
  if (!tools::resolve_frontend(options.common, options.inputs, "hlic")) {
    return 2;
  }

  telemetry::Tracer tracer;
  options.pipeline =
      tools::apply(options.common, options.pipeline, &tracer);

  std::vector<driver::CompiledProgram> compiled;
  try {
    compiled =
        driver::compile_many(sources, options.pipeline, options.common.jobs);
  } catch (const support::CompileError& e) {
    std::fprintf(stderr, "hlic: %s\n", e.what());
    return 1;
  }

  int status = 0;
  const bool json_stats = options.common.stats == tools::StatsFormat::Json;
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    if (compiled.size() > 1 && !json_stats) {
      std::printf("== %s ==\n", options.inputs[i].c_str());
    }
    if (!compiled[i].verify_log.empty()) {
      std::fprintf(stderr, "%s", compiled[i].verify_log.c_str());
      status = 1;  // --verify-hli=warn: report everything, then fail.
    }
    if (!compiled[i].audit_log.empty()) {
      std::fprintf(stderr, "%s", compiled[i].audit_log.c_str());
      status = 1;  // --audit-deps=warn: same contract as the verifier.
    }
    const int rc = emit(options, compiled[i]);
    if (rc != 0) status = rc;
  }
  if (json_stats) {
    // One deterministic document for the whole invocation — no banners,
    // no timing, counters name-sorted — so the bytes do not depend on
    // --jobs (the telemetry determinism tests diff exactly this).
    const std::string json =
        tools::render_stats_json(options.inputs, compiled);
    std::fwrite(json.data(), 1, json.size(), stdout);
  }
  if (!tools::write_trace(options.common, tracer, "hlic")) status = 1;
  return status;
}
