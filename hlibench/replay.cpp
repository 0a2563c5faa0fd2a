#include "replay.hpp"

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/irdep/refmod.hpp"
#include "backend/parexec/parallelize.hpp"
#include "hli/maintain.hpp"
#include "hli/query.hpp"
#include "hli/store.hpp"

namespace hlibench {

namespace {

using namespace hli;
using namespace hli::backend;
using driver::PipelineOptions;
using driver::VerifyMode;

void require_replayable(const PipelineOptions& options) {
  if (options.verify_hli != VerifyMode::Off ||
      options.audit_deps != VerifyMode::Off || options.irdep_fallback ||
      options.analyze_loops || options.hli_store != nullptr ||
      options.unit_cache != nullptr || options.telemetry.enabled()) {
    throw std::invalid_argument(
        "replay_compile: options outside the replayed configurations");
  }
  if (!options.validate().empty()) {
    throw std::invalid_argument("replay_compile: invalid PipelineOptions");
  }
}

query::HliUnitView build_view(SpanLog* spans, const format::HliEntry& entry) {
  const ScopedSpan span(spans, layer::kView);
  return query::HliUnitView(entry);
}

SchedOptions sched_options(const PipelineOptions& options,
                           const query::HliUnitView& view,
                           query::ConflictCache& cache) {
  SchedOptions sched;
  sched.use_hli = options.use_hli;
  sched.view = &view;
  sched.cache = &cache;
  sched.batch_queries = options.batch_queries;
  const machine::MachineDesc& mach = options.sched_machine;
  sched.latency = [&mach](const Insn& insn) { return mach.latency(insn); };
  return sched;
}

}  // namespace

driver::CompiledProgram replay_compile(std::string_view source,
                                       const PipelineOptions& options,
                                       SpanLog* spans) {
  require_replayable(options);
  const ScopedSpan op_span(spans, layer::kCompile);

  driver::CompiledProgram out;
  {
    const ScopedSpan span(spans, layer::kFrontend);
    out.unit = frontend::analyze_unit(source, options.frontend_options,
                                      options.hli_encoding, true);
  }
  out.stats.source_lines = out.unit.source_lines;
  out.rtl = std::move(out.unit.rtl);
  out.unit.rtl = RtlProgram{};
  out.hli_text = std::move(out.unit.hli_bytes);
  out.unit.hli_bytes.clear();
  out.stats.hli_bytes = out.hli_text.size();

  std::optional<HliStore> store;
  {
    const ScopedSpan span(spans, layer::kImport);
    store.emplace(std::string(out.hli_text));
  }

  const bool plan = options.exec_threads > 1;
  std::optional<irdep::ProgramDepInfo> irdep_program;
  if (plan) {
    const ScopedSpan span(spans, layer::kIrdep);
    irdep_program.emplace(out.rtl);
  }

  out.hli.entries.reserve(out.rtl.functions.size());
  for (RtlFunction& func : out.rtl.functions) {
    format::HliEntry* entry = nullptr;
    {
      const ScopedSpan span(spans, layer::kImport);
      if (const format::HliEntry* imported = store->get(func.name)) {
        entry = &out.hli.entries.emplace_back(*imported);
      }
    }
    if (entry == nullptr) {
      if (plan) {
        const ScopedSpan span(spans, layer::kPlan);
        parexec::parallelize_function(*irdep_program, func, {});
      }
      continue;
    }
    {
      const ScopedSpan span(spans, layer::kMap);
      map_items(func, *entry).record_telemetry();
    }

    if (options.enable_cse) {
      const ScopedSpan span(spans, layer::kCse);
      const query::HliUnitView view = build_view(spans, *entry);
      std::vector<format::ItemId> deleted;
      CseOptions cse;
      cse.use_hli = options.use_hli;
      cse.view = &view;
      cse.batch_queries = options.batch_queries;
      cse.on_load_deleted = [&deleted](format::ItemId item) {
        deleted.push_back(item);
      };
      cse_function(func, cse).record_telemetry();
      const ScopedSpan maintain(spans, layer::kMaintain);
      for (const format::ItemId item : deleted) {
        maintain::delete_item(*entry, item);
      }
    }

    if (options.enable_constfold) {
      const ScopedSpan span(spans, layer::kConstfold);
      constfold_function(func).record_telemetry();
    }

    if (options.enable_dce) {
      const ScopedSpan span(spans, layer::kDce);
      DceOptions dce;
      dce.on_load_deleted = [entry, spans](format::ItemId item) {
        const ScopedSpan maintain(spans, layer::kMaintain);
        maintain::delete_item(*entry, item);
      };
      dce_function(func, dce).record_telemetry();
    }

    if (options.enable_licm) {
      const ScopedSpan span(spans, layer::kLicm);
      const query::HliUnitView view = build_view(spans, *entry);
      std::vector<std::pair<format::ItemId, format::RegionId>> hoisted;
      LicmOptions licm;
      licm.use_hli = options.use_hli;
      licm.view = &view;
      licm.batch_queries = options.batch_queries;
      licm.on_load_hoisted = [&hoisted, &view](format::ItemId item,
                                               format::RegionId loop) {
        hoisted.emplace_back(item, view.parent_region(loop));
      };
      licm_function(func, licm).record_telemetry();
      const ScopedSpan maintain(spans, layer::kMaintain);
      for (const auto& [item, target] : hoisted) {
        maintain::move_item_to_region(*entry, item, target);
      }
    }

    if (options.enable_unroll) {
      const ScopedSpan span(spans, layer::kUnroll);
      UnrollOptions unroll;
      unroll.factor = options.unroll_factor;
      unroll.entry = entry;
      unroll_function(func, unroll).record_telemetry();
    }

    // Shared by both scheduling passes: the HLI is not mutated between.
    query::ConflictCache conflict_cache;
    if (options.enable_sched) {
      const ScopedSpan span(spans, layer::kSched);
      const query::HliUnitView view = build_view(spans, *entry);
      schedule_function(func, sched_options(options, view, conflict_cache))
          .record_telemetry(options.use_hli);
    }

    if (options.enable_regalloc) {
      {
        const ScopedSpan span(spans, layer::kRegalloc);
        allocate_registers(func, options.regalloc).record_telemetry();
      }
      if (options.enable_sched) {
        const ScopedSpan span(spans, layer::kSched2);
        const query::HliUnitView view = build_view(spans, *entry);
        schedule_function(func, sched_options(options, view, conflict_cache))
            .record_telemetry(options.use_hli);
      }
    }

    if (plan) {
      const ScopedSpan span(spans, layer::kPlan);
      const query::HliUnitView view = build_view(spans, *entry);
      parexec::PlanOptions popts;
      if (options.use_hli) popts.view = &view;
      parexec::parallelize_function(*irdep_program, func, popts);
    }
  }
  out.exec_threads = options.exec_threads;
  return out;
}

}  // namespace hlibench
