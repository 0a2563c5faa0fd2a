#include "driver/pipeline.hpp"

#include <bit>
#include <optional>

#include "analysis/irdep/analyzer.hpp"
#include "analysis/irdep/audit.hpp"
#include "backend/parexec/parallelize.hpp"
#include "hli/maintain.hpp"
#include "hli/query.hpp"
#include "hli/serialize.hpp"
#include "hli/verify.hpp"
#include "support/string_utils.hpp"

namespace hli::driver {

using namespace hli::backend;

// -- PipelineOptions: presets, validation ---------------------

PipelineOptions PipelineOptions::paper_table2() { return PipelineOptions{}; }

PipelineOptions PipelineOptions::production() {
  PipelineOptions options;
  options.enable_unroll = true;
  options.unroll_factor = 4;
  options.enable_regalloc = true;
  options.hli_encoding = HliEncoding::Binary;
  return options;
}

PipelineOptions PipelineOptions::frontend_only() {
  PipelineOptions options;
  options.enable_cse = false;
  options.enable_constfold = false;
  options.enable_dce = false;
  options.enable_licm = false;
  options.enable_unroll = false;
  options.enable_sched = false;
  options.enable_regalloc = false;
  return options;
}

PipelineOptions PipelineOptions::with_language(frontend::Language language) const {
  PipelineOptions copy = *this;
  copy.frontend_options.language = language;
  return copy;
}

PipelineOptions PipelineOptions::with_exec_threads(unsigned n) const {
  PipelineOptions copy = *this;
  copy.exec_threads = n;
  return copy;
}

PipelineOptions PipelineOptions::with_counters(bool on) const {
  PipelineOptions copy = *this;
  copy.telemetry.counters = on;
  return copy;
}

PipelineOptions PipelineOptions::with_tracer(telemetry::Tracer* tracer) const {
  PipelineOptions copy = *this;
  copy.telemetry.tracer = tracer;
  return copy;
}

std::vector<std::string> PipelineOptions::validate() const {
  std::vector<std::string> problems;
  if (hli_store != nullptr && !use_hli) {
    problems.emplace_back(
        "hli_store is set but use_hli is false: the external store would be "
        "imported and then ignored by every pass; set use_hli = true (drop "
        "--no-hli) or hli_store = nullptr (drop --store)");
  }
  if (enable_unroll && unroll_factor < 2) {
    problems.push_back(
        "enable_unroll is set with unroll_factor " +
        std::to_string(unroll_factor) +
        ": unrolling needs at least two copies of a loop body; set "
        "unroll_factor >= 2 (--unroll=N with N >= 2) or enable_unroll = "
        "false");
  }
  if (exec_threads == 0) {
    problems.emplace_back(
        "exec_threads is 0: the calling thread is always lane 0, so a run "
        "needs at least one lane; set exec_threads >= 1 (--exec-threads=N; "
        "1 = serial execution)");
  }
  if (exec_threads > kMaxThreads) {
    problems.push_back(
        "exec_threads is " + std::to_string(exec_threads) +
        ": a run starts one thread per lane, and at most " +
        std::to_string(kMaxThreads) + " are allowed; set exec_threads <= " +
        std::to_string(kMaxThreads) + " (--exec-threads=N)");
  }
  if (frontend_options.language == frontend::Language::Basic &&
      frontend_options.open_world_params) {
    problems.emplace_back(
        "open_world_params is set with the BASIC front-end: the flag models "
        "unseen callers handing a C unit aliased POINTER parameters, and "
        "BASIC has no pointers, so the setting could only mask a "
        "misconfiguration; drop --open-world-params or use --frontend=c");
  }
  if (audit_deps != VerifyMode::Off && !use_hli) {
    problems.emplace_back(
        "audit_deps is on but use_hli is false: the audit cross-checks HLI "
        "independence claims, and without HLI there is nothing to audit; "
        "set use_hli = true (drop --no-hli) or audit_deps = VerifyMode::Off "
        "(drop --audit-deps)");
  }
  return problems;
}

ProgramStats& ProgramStats::operator+=(const ProgramStats& other) {
  sched += other.sched;
  sched2 += other.sched2;
  regalloc += other.regalloc;
  cse += other.cse;
  dce += other.dce;
  constfold += other.constfold;
  licm += other.licm;
  unroll += other.unroll;
  hli_bytes += other.hli_bytes;
  source_lines += other.source_lines;
  mapped_items += other.mapped_items;
  map_perfect = map_perfect && other.map_perfect;
  verify_checks += other.verify_checks;
  verify_findings += other.verify_findings;
  audit_checks += other.audit_checks;
  audit_findings += other.audit_findings;
  return *this;
}

std::uint64_t UnitCacheKey::hash() const {
  std::uint64_t h = support::fnv1a64_mix(rtl_fp, support::kFnv64Basis);
  h = support::fnv1a64_mix(hli_fp, h);
  return support::fnv1a64_mix(options_fp, h);
}

namespace {

using support::fnv1a64;
using support::fnv1a64_mix;

// -- Content fingerprints for the unit cache --------------------------------
//
// Field-by-field hashing of the LOWERED instruction stream — NOT
// to_string(), whose rendering may elide pass-relevant fields (line
// numbers, HLI stamps, loop notes).  Every field that any downstream
// pass, verifier, classifier or planner reads must land in the hash;
// when the IR grows a field, add it here and bump kUnitCacheSalt.

inline constexpr std::uint64_t kUnitCacheSalt = 0x484c4944'00000002ULL;  // "HLID" v2: frontend_options

std::uint64_t mix_bool(bool value, std::uint64_t h) {
  return fnv1a64_mix(value ? 1 : 0, h);
}

std::uint64_t mix_str(const std::string& s, std::uint64_t h) {
  // Length prefix keeps ("ab","c") distinct from ("a","bc").
  return fnv1a64(s, fnv1a64_mix(s.size(), h));
}

std::uint64_t fingerprint_insn(const Insn& insn, std::uint64_t h) {
  h = fnv1a64_mix(static_cast<std::uint64_t>(insn.op), h);
  h = mix_bool(insn.is_float, h);
  h = fnv1a64_mix(static_cast<std::uint32_t>(insn.rd), h);
  h = fnv1a64_mix(static_cast<std::uint32_t>(insn.rs1), h);
  h = fnv1a64_mix(static_cast<std::uint32_t>(insn.rs2), h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(insn.imm), h);
  h = fnv1a64_mix(std::bit_cast<std::uint64_t>(insn.fimm), h);
  h = fnv1a64_mix(static_cast<std::uint32_t>(insn.label), h);
  h = fnv1a64_mix(insn.line, h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(insn.mem.base), h);
  h = fnv1a64_mix(static_cast<std::uint32_t>(insn.mem.symbol), h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(insn.mem.frame_offset), h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(insn.mem.const_offset), h);
  h = mix_bool(insn.mem.offset_known, h);
  h = fnv1a64_mix(insn.mem.size, h);
  h = fnv1a64_mix(insn.mem.hli_item, h);
  h = mix_str(insn.callee, h);
  h = fnv1a64_mix(insn.args.size(), h);
  for (const Reg arg : insn.args) {
    h = fnv1a64_mix(static_cast<std::uint32_t>(arg), h);
  }
  h = fnv1a64_mix(insn.hli_item, h);
  h = fnv1a64_mix(insn.loop_region, h);
  h = fnv1a64_mix(static_cast<std::uint32_t>(insn.induction), h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(insn.loop_step), h);
  h = mix_bool(insn.trip_count.has_value(), h);
  if (insn.trip_count) {
    h = fnv1a64_mix(static_cast<std::uint64_t>(*insn.trip_count), h);
  }
  return h;
}

std::uint64_t fingerprint_function(const RtlFunction& func) {
  std::uint64_t h = mix_str(func.name, kUnitCacheSalt);
  h = fnv1a64_mix(static_cast<std::uint32_t>(func.num_regs), h);
  h = fnv1a64_mix(func.frame_size, h);
  h = fnv1a64_mix(func.param_regs.size(), h);
  for (const Reg reg : func.param_regs) {
    h = fnv1a64_mix(static_cast<std::uint32_t>(reg), h);
  }
  for (const bool is_float : func.param_is_float) h = mix_bool(is_float, h);
  h = mix_bool(func.returns_float, h);
  h = fnv1a64_mix(func.insns.size(), h);
  for (const Insn& insn : func.insns) h = fingerprint_insn(insn, h);
  return h;
}

std::uint64_t fingerprint_globals(const RtlProgram& rtl) {
  std::uint64_t h = fnv1a64_mix(rtl.globals.size(), kUnitCacheSalt);
  for (const GlobalVar& global : rtl.globals) {
    h = mix_str(global.name, h);
    h = fnv1a64_mix(global.size, h);
    h = mix_bool(global.is_float_elem, h);
    h = fnv1a64_mix(global.init_int.size(), h);
    for (const std::int64_t v : global.init_int) {
      h = fnv1a64_mix(static_cast<std::uint64_t>(v), h);
    }
    h = fnv1a64_mix(global.init_fp.size(), h);
    for (const double v : global.init_fp) {
      h = fnv1a64_mix(std::bit_cast<std::uint64_t>(v), h);
    }
  }
  return h;
}

}  // namespace

std::uint64_t options_fingerprint(const PipelineOptions& options) {
  std::uint64_t h = fnv1a64_mix(kUnitCacheSalt, support::kFnv64Basis);
  h = mix_bool(options.use_hli, h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(options.verify_hli), h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(options.hli_encoding), h);
  h = mix_bool(options.enable_cse, h);
  h = mix_bool(options.batch_queries, h);  // Changes query counters.
  h = mix_bool(options.enable_constfold, h);
  h = mix_bool(options.enable_dce, h);
  h = mix_bool(options.enable_licm, h);
  h = mix_bool(options.enable_unroll, h);
  h = fnv1a64_mix(options.unroll_factor, h);
  h = mix_bool(options.enable_sched, h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(options.audit_deps), h);
  h = mix_bool(options.irdep_fallback, h);
  h = mix_bool(options.analyze_loops, h);
  h = mix_bool(options.enable_regalloc, h);
  h = fnv1a64_mix(options.regalloc.int_regs, h);
  h = fnv1a64_mix(options.regalloc.fp_regs, h);
  // Only plans-on/off matters: plan CONTENT is proven from the stream,
  // not from the lane count, so exec_threads 2 and 8 share entries.
  h = mix_bool(options.exec_threads > 1, h);
  const machine::MachineDesc& m = options.sched_machine;
  h = mix_str(m.name, h);
  h = mix_bool(m.out_of_order, h);
  h = fnv1a64_mix(m.issue_width, h);
  h = fnv1a64_mix(m.rob_size, h);
  h = fnv1a64_mix(m.lsq_size, h);
  h = fnv1a64_mix(m.branch_penalty, h);
  h = fnv1a64_mix(m.call_overhead, h);
  h = fnv1a64_mix(m.cache_line_bytes, h);
  h = fnv1a64_mix(m.cache_lines, h);
  h = fnv1a64_mix(m.lat_miss, h);
  h = fnv1a64_mix(m.lat_alu, h);
  h = fnv1a64_mix(m.lat_imul, h);
  h = fnv1a64_mix(m.lat_idiv, h);
  h = fnv1a64_mix(m.lat_load, h);
  h = fnv1a64_mix(m.lat_store, h);
  h = fnv1a64_mix(m.lat_fadd, h);
  h = fnv1a64_mix(m.lat_fmul, h);
  h = fnv1a64_mix(m.lat_fdiv, h);
  h = fnv1a64_mix(static_cast<std::uint64_t>(options.frontend_options.language),
                  h);
  h = mix_bool(options.frontend_options.merge_equal_range_classes, h);
  h = mix_bool(options.frontend_options.open_world_params, h);
  // Counters-on and counters-off compiles must never alias: a hit replays
  // the cached per-unit CounterSet, which is empty when recorded with
  // counters off.
  h = mix_bool(options.telemetry.counters, h);
  return h;
}

namespace {

/// Shared by compile_source/compile_many so both entry points reject
/// incoherent options with one aggregated diagnostic.
void throw_if_invalid(const PipelineOptions& options) {
  const std::vector<std::string> problems = options.validate();
  if (problems.empty()) return;
  std::string message = "invalid PipelineOptions:";
  for (const std::string& problem : problems) {
    message += "\n  - " + problem;
  }
  throw support::CompileError(message);
}

/// Every HLI-mapped reference of the function, for the verifier's HV105
/// mapping-congruence check (§3.2.1: the stamp on each Load/Store/Call
/// must point at a line-table item of the matching access class).
std::vector<verify::MappedRef> collect_mapped_refs(const RtlFunction& func) {
  std::vector<verify::MappedRef> refs;
  for (const Insn& insn : func.insns) {
    if (is_memory_op(insn.op) && insn.mem.hli_item != format::kNoItem) {
      refs.push_back({insn.mem.hli_item, insn.op == Opcode::Store, false});
    }
    if (insn.op == Opcode::Call && insn.hli_item != format::kNoItem) {
      refs.push_back({insn.hli_item, false, true});
    }
  }
  return refs;
}

// Pipeline-level telemetry counters (the passes register their own; see
// docs/observability.md for the catalog).
const telemetry::Counter c_hli_bytes_exported =
    telemetry::counter("hli.bytes_exported");
const telemetry::Counter c_functions_compiled =
    telemetry::counter("pipeline.functions_compiled");
const telemetry::Counter c_verify_checks = telemetry::counter("verify.checks");
const telemetry::Counter c_verify_findings =
    telemetry::counter("verify.findings");
const telemetry::Counter c_fallback_queries =
    telemetry::counter("irdep.fallback_queries");
const telemetry::Counter c_fallback_pruned =
    telemetry::counter("irdep.fallback_pruned");

/// One function's back-end sequence, from HLI import to parallel
/// planning.  Every unit runs it; a function without HLI (`imported`
/// null) skips mapping, the optimizing passes and the boundary checks but
/// is still classified and planned from irdep facts alone.  The result
/// is the unit's whole contribution to the program — exactly the record
/// a unit-cache hit replays — so cold and cached units splice alike.
/// The imported entry is copied: maintenance mutates it per compilation,
/// while the (possibly shared) store stays read-only.
CachedUnit compile_unit(RtlFunction lowered, const format::HliEntry* imported,
                        const PipelineOptions& options,
                        const irdep::ProgramDepInfo* irdep_program) {
  CachedUnit unit;
  unit.rtl = std::move(lowered);
  RtlFunction& func = unit.rtl;
  format::HliEntry* const entry = imported != nullptr ? &unit.hli : nullptr;

  // One query index per HLI generation: built on first use and shared by
  // every pass, audit and the planner until maintenance bumps the entry's
  // generation (§3.2 — only deleted, moved or copied references change
  // the tables).
  std::optional<query::HliUnitView> current_view;
  const auto view = [&]() -> const query::HliUnitView* {
    if (entry == nullptr) return nullptr;
    if (!current_view || current_view->stale()) current_view.emplace(*entry);
    return &*current_view;
  };

  // Every pass boundary runs the invariant verifier (each maintenance
  // batch must hand the next pass tables that keep the paper's
  // conservative-correctness contract), then the independent audit: the
  // function model is rebuilt from the current instruction stream and
  // every HLI claim of total independence (may_conflict None + empty
  // LCDD) that irdep refutes with a proof is flagged.
  const auto boundary = [&](const char* name,
                            const std::vector<verify::MappedRef>* refs =
                                nullptr) {
    if (options.verify_hli != VerifyMode::Off) {
      const telemetry::Span span("verify", "verify");
      verify::VerifyOptions vopts;
      vopts.audit_on_findings = true;
      vopts.mapped_refs = refs;
      const verify::VerifyResult result = verify::verify_entry(*entry, vopts);
      unit.stats.verify_checks += result.checks_run;
      c_verify_checks.add(result.checks_run);
      if (!result.ok()) {
        unit.stats.verify_findings += result.findings.size();
        c_verify_findings.add(result.findings.size());
        const std::string report = "HLI verifier: unit '" + func.name +
                                   "' dirty after " + name + ":\n" +
                                   result.render(func.name);
        if (options.verify_hli == VerifyMode::Fatal) {
          throw support::CompileError(report);
        }
        unit.verify_log += report;
      }
    }
    if (options.audit_deps != VerifyMode::Off) {
      const telemetry::Span span("audit-deps", "verify");
      irdep::FunctionDepInfo fdi(*irdep_program, func);
      const irdep::AuditResult result = irdep::audit_function(fdi, *view());
      unit.stats.audit_checks += result.checks;
      if (!result.ok()) {
        unit.stats.audit_findings += result.findings.size();
        std::string report = "irdep audit: unit '" + func.name +
                             "' unsound after " + name + ":\n";
        for (const verify::Finding& finding : result.findings) {
          report += "  " + func.name + ": " + verify::to_string(finding) + "\n";
        }
        if (options.audit_deps == VerifyMode::Fatal) {
          throw support::CompileError(report);
        }
        unit.audit_log += report;
      }
    }
  };

  if (entry != nullptr) {
    unit.hli = *imported;
    const MapResult mapping = map_items(func, *entry);
    mapping.record_telemetry();
    unit.stats.mapped_items = mapping.mapped;
    unit.stats.map_perfect = mapping.perfect();
    const std::vector<verify::MappedRef> refs = collect_mapped_refs(func);
    boundary("import/mapping", &refs);
  }

  // Loop classification (--analyze=loops): right after import/mapping,
  // before any transform reshapes the loops, so the report describes
  // the program the user wrote.  The combined column unions HLI facts
  // in only when this compilation actually uses them.
  if (options.analyze_loops) {
    const telemetry::Span span("analyze-loops", "pass");
    unit.loop_reports = irdep::classify_function(
        *irdep_program, func, options.use_hli ? view() : nullptr);
  }

  if (entry != nullptr) {
    // Each pass publishes its telemetry and folds its stats into the unit.
    const auto tally = [](auto& into, const auto& stats) {
      stats.record_telemetry();
      into += stats;
    };

    // Fallback dependence oracle (--irdep-fallback): handed to CSE, LICM
    // and both scheduling passes.  Built on the post-mapping stream;
    // refreshed before every scheduling pass, since the passes before it
    // rewrite the stream (LICM refreshes internally, per loop).
    std::optional<irdep::IrdepOracle> irdep_oracle;
    if (options.irdep_fallback) {
      irdep_oracle.emplace(*irdep_program, func);
    }

    // CSE (Figure 4): deleted loads drop their items from the HLI.  The
    // deletions are DEFERRED until the pass finishes: maintenance bumps
    // the entry's generation counter and would otherwise invalidate the
    // live view mid-pass (delete_item never changes the answer for the
    // still-live items the pass keeps querying, so deferral is safe).
    if (options.enable_cse) {
      const telemetry::Span span("cse", "pass");
      std::vector<format::ItemId> deleted;
      CseOptions cse;
      cse.use_hli = options.use_hli;
      cse.view = view();
      cse.batch_queries = options.batch_queries;
      cse.on_load_deleted = [&deleted](format::ItemId item) {
        deleted.push_back(item);
      };
      if (irdep_oracle) cse.fallback = &*irdep_oracle;
      tally(unit.stats.cse, cse_function(func, cse));
      for (const format::ItemId item : deleted) {
        maintain::delete_item(*entry, item);
      }
      boundary("CSE maintenance");
    }

    // Combine-style constant folding before the dead-code sweep.
    if (options.enable_constfold) {
      const telemetry::Span span("constfold", "pass");
      tally(unit.stats.constfold, constfold_function(func));
    }

    // Flow-style dead code elimination: sweep the Moves CSE left behind.
    if (options.enable_dce) {
      const telemetry::Span span("dce", "pass");
      DceOptions dce;
      dce.on_load_deleted = [entry](format::ItemId item) {
        maintain::delete_item(*entry, item);
      };
      tally(unit.stats.dce, dce_function(func, dce));
      boundary("DCE maintenance");
    }

    // LICM: hoisted loads move to the loop's parent region (moves applied
    // after the pass, like the CSE deletions, to keep the view fresh).
    if (options.enable_licm) {
      const telemetry::Span span("licm", "pass");
      std::vector<std::pair<format::ItemId, format::RegionId>> hoisted;
      LicmOptions licm;
      licm.use_hli = options.use_hli;
      licm.view = view();
      licm.batch_queries = options.batch_queries;
      licm.on_load_hoisted = [&hoisted, &licm](format::ItemId item,
                                               format::RegionId loop) {
        hoisted.emplace_back(item, licm.view->parent_region(loop));
      };
      if (irdep_oracle) licm.fallback = &*irdep_oracle;
      tally(unit.stats.licm, licm_function(func, licm));
      for (const auto& [item, target] : hoisted) {
        maintain::move_item_to_region(*entry, item, target);
      }
      boundary("LICM maintenance");
    }

    // Unrolling (Figure 6): RTL duplication + HLI table reconstruction.
    if (options.enable_unroll) {
      const telemetry::Span span("unroll", "pass");
      UnrollOptions unroll;
      unroll.factor = options.unroll_factor;
      unroll.entry = entry;
      tally(unit.stats.unroll, unroll_function(func, unroll));
      boundary("unroll maintenance");
    }

    // Both scheduling passes share one configuration and one conflict
    // cache: the HLI is not mutated between them, so the post-RA pass's
    // re-tests hit the answers the first pass memoized.
    query::ConflictCache conflict_cache;
    SchedOptions sched;
    sched.use_hli = options.use_hli;
    sched.cache = &conflict_cache;
    sched.batch_queries = options.batch_queries;
    const machine::MachineDesc& mach = options.sched_machine;
    sched.latency = [&mach](const Insn& insn) { return mach.latency(insn); };
    const auto schedule = [&] {
      sched.view = view();
      if (irdep_oracle) {
        irdep_oracle->refresh(func);  // Earlier passes rewrote the stream.
        sched.fallback = &*irdep_oracle;
      }
      const DepStats stats = schedule_function(func, sched);
      stats.record_telemetry(options.use_hli);
      return stats;
    };

    // First scheduling pass — the instrumented experiment (Table 2).
    if (options.enable_sched) {
      const telemetry::Span span("sched", "pass");
      unit.stats.sched += schedule();
      boundary("scheduling");
    }

    // Hard-register allocation + the second scheduling pass (the rest of
    // the -O2 pipeline the paper's GCC ran after the instrumented pass).
    if (options.enable_regalloc) {
      const telemetry::Span span("regalloc", "pass");
      tally(unit.stats.regalloc, allocate_registers(func, options.regalloc));
      if (options.enable_sched) {
        const telemetry::Span sched2_span("sched2", "pass");
        unit.stats.sched2 += schedule();
      }
      boundary("regalloc/post-RA scheduling");
    }

    if (irdep_oracle) {
      c_fallback_queries.add(irdep_oracle->queries());
      c_fallback_pruned.add(irdep_oracle->pruned());
    }
  }

  // Parallel execution planning — after the LAST transforming pass, so
  // plan positions index the stream the interpreter will actually run.
  // The planner unions the (possibly maintained) HLI tables with fresh
  // irdep facts; it mutates nothing but RtlFunction::parexec.
  if (options.exec_threads > 1) {
    const telemetry::Span span("parallelize", "pass");
    backend::parexec::PlanOptions popts;
    if (options.use_hli) popts.view = view();
    popts.reports = options.analyze_loops ? &unit.loop_reports : nullptr;
    backend::parexec::parallelize_function(*irdep_program, func, popts);
  }
  return unit;
}

}  // namespace

std::size_t count_source_lines(std::string_view source) {
  std::size_t lines = 0;
  for (const std::string_view line : support::split(source, '\n')) {
    if (!support::trim(line).empty()) ++lines;
  }
  return lines;
}

CompiledProgram compile_source(std::string_view source,
                               const PipelineOptions& options) {
  throw_if_invalid(options);

  CompiledProgram out;

  // Program-level recorder: counter increments from every pass land in
  // out.counters.total (and spans in the tracer) for this thread until
  // the end of the compilation.  When telemetry is disabled nothing is
  // installed — an ambient sink set up by the caller (e.g. hlifuzz
  // aggregating across a fuzz run) keeps receiving increments instead.
  std::optional<telemetry::ScopedRecorder> program_recorder;
  if (options.telemetry.enabled()) {
    program_recorder.emplace(
        options.telemetry.counters ? &out.counters.total : nullptr,
        options.telemetry.tracer);
  }

  // Front-end, behind the AnalyzedUnit contract: parse + sema + HLI
  // generation + lowering all happen inside analyze_unit; no AST crosses
  // back.  The serialized HLI bytes are re-imported through an HliStore —
  // the serialized format stays the only front-end/back-end channel, and
  // the store makes the import demand-driven (each function's entry is
  // decoded when the back-end reaches it, never the whole file up front).
  // With an external options.hli_store (a pre-built, possibly mmap'd and
  // shared container) generation is skipped entirely.
  const bool generate_hli = options.hli_store == nullptr;
  out.unit = frontend::analyze_unit(source, options.frontend_options,
                                    options.hli_encoding, generate_hli);
  out.stats.source_lines = out.unit.source_lines;
  out.rtl = std::move(out.unit.rtl);
  out.unit.rtl = backend::RtlProgram{};

  std::optional<hli::HliStore> local_store;
  const hli::HliStore* store = options.hli_store;
  if (generate_hli) {
    out.hli_text = std::move(out.unit.hli_bytes);
    out.unit.hli_bytes.clear();
    out.stats.hli_bytes = out.hli_text.size();
    c_hli_bytes_exported.add(out.hli_text.size());
    local_store.emplace(std::string(out.hli_text));
    store = &*local_store;
  }

  // Independent IR-level dependence analyzer (src/analysis/irdep): one
  // program-level sweep over the lowered RTL — exposure + bottom-up
  // REF/MOD — feeds the soundness audit, the loop classifier, and the
  // per-pass fallback oracle below.  It reads only the instruction
  // stream, never the HLI, so its facts are an independent opinion.
  const bool want_irdep = options.audit_deps != VerifyMode::Off ||
                          options.irdep_fallback || options.analyze_loops ||
                          options.exec_threads > 1;
  std::optional<irdep::ProgramDepInfo> irdep_program;
  if (want_irdep) {
    const telemetry::Span span("irdep-summary", "phase");
    irdep_program.emplace(out.rtl);
  }

  // Content-addressed unit cache: all fingerprints are taken over the
  // LOWERED program, before the per-function loop mutates anything.  The
  // environment fingerprint folds the global layout always, plus every
  // lowered function body when irdep is consulted — its interprocedural
  // REF/MOD summaries make one unit's result depend on callee bodies, so
  // any edit anywhere must miss.  Without irdep a unit's result depends
  // only on its own stream + its HLI entry (which content-captures callee
  // effects), so sibling edits keep hitting.
  UnitCache* const unit_cache = options.unit_cache;
  std::vector<std::uint64_t> lowered_fps;
  std::uint64_t env_fp = 0;
  std::uint64_t options_fp = 0;
  if (unit_cache != nullptr) {
    const telemetry::Span span("unit-cache-fingerprint", "phase");
    options_fp = options_fingerprint(options);
    lowered_fps.reserve(out.rtl.functions.size());
    for (const RtlFunction& func : out.rtl.functions) {
      lowered_fps.push_back(fingerprint_function(func));
    }
    env_fp = fingerprint_globals(out.rtl);
    if (want_irdep) {
      for (const std::uint64_t fp : lowered_fps) {
        env_fp = support::fnv1a64_mix(fp, env_fp);
      }
    }
  }

  out.hli.entries.reserve(out.rtl.functions.size());
  if (options.telemetry.counters) {
    // Reserved up front: each iteration's recorder holds a pointer into
    // this vector across the passes it scopes.
    out.counters.per_function.reserve(out.rtl.functions.size());
  }
  // Appends one finished unit, cold or a unit-cache hit, to the program.
  const auto splice = [&out](std::size_t func_index, CachedUnit unit,
                             bool has_hli) {
    out.rtl.functions[func_index] = std::move(unit.rtl);
    if (has_hli) out.hli.entries.push_back(std::move(unit.hli));
    out.stats += unit.stats;
    out.verify_log += unit.verify_log;
    out.audit_log += unit.audit_log;
    out.loop_reports.insert(out.loop_reports.end(), unit.loop_reports.begin(),
                            unit.loop_reports.end());
  };
  for (std::size_t func_index = 0; func_index < out.rtl.functions.size();
       ++func_index) {
    RtlFunction& func = out.rtl.functions[func_index];
    const telemetry::Span function_span(func.name, "function");
    // Per-function counter attribution; merges into the program total
    // (and any ambient sink beyond it) when the scope closes.
    std::optional<telemetry::ScopedRecorder> function_recorder;
    if (options.telemetry.counters) {
      out.counters.per_function.emplace_back(func.name,
                                             telemetry::CounterSet{});
      function_recorder.emplace(&out.counters.per_function.back().second);
    }

    // Unit-cache lookup.  A hit replaces the unit's whole sequence: the
    // cached record is spliced in like a cold one and the cold run's
    // per-unit counters replayed, so outputs are byte-identical to
    // recompiling.  Only HLI-carrying units participate — unit_checksum
    // is the key's HLI leg, and a unit without HLI runs no pass.  NOTE:
    // the replayed counters already include pipeline.functions_compiled,
    // hence the add(1) after the check.
    std::optional<UnitCacheKey> cache_key;
    if (unit_cache != nullptr) {
      if (const std::optional<std::uint64_t> hli_fp =
              store->unit_checksum(func.name)) {
        cache_key = UnitCacheKey{
            support::fnv1a64_mix(env_fp, lowered_fps[func_index]), *hli_fp,
            options_fp};
        if (const std::shared_ptr<const CachedUnit> hit =
                unit_cache->lookup(*cache_key)) {
          // With counters on this lands in the per-function set installed
          // above and merges up to the program total; with counters off
          // the cached set is empty by keying (telemetry.counters is in
          // options_fp), so ambient sinks observe ZERO pass work for the
          // unit — the property the service's warm-path tests assert.
          if (telemetry::CounterSet* sink = telemetry::current_counters()) {
            *sink += hit->counters;
          }
          splice(func_index, *hit, true);
          continue;
        }
      }
    }
    c_functions_compiled.add(1);

    const format::HliEntry* imported = store->get(func.name);
    CachedUnit unit = compile_unit(
        std::move(func), imported, options,
        irdep_program ? &*irdep_program : nullptr);
    // Publish the finished unit.  Only reached on success — a Fatal
    // verify/audit throw unwinds past this, so a dirty unit is never
    // cached.  The per-function CounterSet is complete here; it is
    // captured before the recorder's scope-exit merge, which only
    // propagates upward and never mutates the per-function set itself.
    if (cache_key) {
      if (options.telemetry.counters) {
        unit.counters = out.counters.per_function.back().second;
      }
      unit_cache->insert(*cache_key, unit);
    }
    splice(func_index, std::move(unit), imported != nullptr);
  }
  out.exec_threads = options.exec_threads;
  return out;
}

backend::RunResult execute(const CompiledProgram& compiled,
                           const std::string& entry) {
  backend::InterpOptions interp;
  interp.exec_threads = compiled.exec_threads;
  return run_program(compiled.rtl, entry, nullptr, interp);
}

SimResult simulate(const CompiledProgram& compiled,
                   const machine::MachineDesc& machine,
                   const std::string& entry) {
  SimResult result;
  if (machine.out_of_order) {
    machine::OutOfOrderSim sim(machine);
    result.run = run_program(compiled.rtl, entry, &sim);
    result.cycles = sim.cycles();
  } else {
    machine::InOrderSim sim(machine);
    result.run = run_program(compiled.rtl, entry, &sim);
    result.cycles = sim.cycles();
  }
  return result;
}

}  // namespace hli::driver
