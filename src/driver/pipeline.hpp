// End-to-end compilation pipeline, mirroring Figure 3:
//
//   source --front-end--> AST --[HLI gen]--> HLI text file
//     |                                         |
//     +--lowering--> RTL  <--import/mapping-----+
//                     |
//          CSE -> LICM -> unroll -> scheduling    (each natively or
//                     |                            HLI-assisted)
//          interpreter (correctness) + machine models (cycles)
//
// The back-end always works from the RE-READ HLI file, never from
// front-end memory: the serialized format is the only channel, as in the
// paper.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/irdep/classify.hpp"
#include "backend/constfold.hpp"
#include "backend/cse.hpp"
#include "backend/dce.hpp"
#include "backend/interp.hpp"
#include "backend/licm.hpp"
#include "backend/mapping.hpp"
#include "backend/regalloc.hpp"
#include "backend/sched.hpp"
#include "backend/unroll.hpp"
#include "frontend/contract.hpp"
#include "hli/store.hpp"
#include "machine/timing.hpp"
#include "support/telemetry.hpp"

namespace hli::driver {

/// When (and how hard) the HLI invariant verifier runs during compilation.
/// Warn/Fatal run `verify::verify_entry` at EVERY pass boundary — after
/// import/mapping and after each CSE/DCE/LICM/unroll maintenance batch —
/// with the differential conservativeness audit enabled, so a corrupted
/// table is caught at the boundary that corrupted it, not at the
/// scheduler that consumed it.
enum class VerifyMode : std::uint8_t {
  Off,   ///< No verification (production default).
  Warn,  ///< Findings accumulate in CompiledProgram::verify_log.
  Fatal, ///< First dirty boundary throws support::CompileError.
};

/// Encoding of the serialized front-end -> back-end HLI channel.  Defined
/// at the contract (the front-end owns the channel's serialization);
/// aliased here for the driver's option vocabulary.
using HliEncoding = frontend::HliEncoding;

/// Telemetry collection for one compilation (see docs/observability.md).
/// Both members default off: with neither set, compile_source installs no
/// recorder and the telemetry layer costs one dead TLS check per
/// instrumented event.
struct TelemetryOptions {
  /// Collect the typed counter registry into
  /// CompiledProgram::counters (per-function sets plus the program
  /// total).  Counter values are deterministic: byte-identical between a
  /// serial loop and compile_many --jobs N.
  bool counters = false;
  /// Emit per-pass/per-function Chrome trace_event spans into this
  /// tracer (not owned; may be shared across threads and compilations).
  telemetry::Tracer* tracer = nullptr;

  [[nodiscard]] bool enabled() const {
    return counters || tracer != nullptr;
  }
};

struct CachedUnit;
struct UnitCacheKey;

/// Content-addressed cache of fully-optimized units, consulted by
/// `compile_source` per function (the compile service's hot path —
/// src/service/cache.hpp is the production implementation).  A hit
/// splices the cached RTL/HLI/stats in and SKIPS mapping, every backend
/// pass, verification and planning for that unit; the contract is that a
/// hit is byte-identical to recompiling.  Implementations must be
/// thread-safe: compile_many workers share one cache.
class UnitCache {
 public:
  virtual ~UnitCache() = default;

  /// The cached unit for `key`, or nullptr on miss.  The returned value
  /// is immutable and must stay valid until the caller drops the
  /// shared_ptr (an LRU implementation may evict concurrently).
  [[nodiscard]] virtual std::shared_ptr<const CachedUnit> lookup(
      const UnitCacheKey& key) = 0;

  /// Publishes a freshly compiled unit.  Racing inserts for one key are
  /// benign: compilation is deterministic, so every candidate value is
  /// identical.
  virtual void insert(const UnitCacheKey& key, CachedUnit value) = 0;
};

/// Upper bound on every thread count a tool or request can ask for:
/// execution lanes (exec_threads, --exec-threads), compile jobs (--jobs,
/// hlid --compile-jobs) and hlid request workers (--workers).
inline constexpr unsigned kMaxThreads = 256;

/// Pipeline configuration: start from a named preset and assign fields.
///
///   auto options = driver::PipelineOptions::paper_table2();
///   options.verify_hli = driver::VerifyMode::Fatal;
///   options.enable_unroll = true;
///   options.unroll_factor = 4;
///
/// `compile_source` calls `validate()` and rejects incoherent
/// combinations with diagnostics that name the fields (and the CLI flags
/// that set them).
struct PipelineOptions {
  bool use_hli = true;       ///< Figure 5's flag_use_hli, across all passes.
  VerifyMode verify_hli = VerifyMode::Off;
  /// How the generated HLI is exported before the back-end re-imports it.
  /// Compilation output is byte-identical either way; Text stays the
  /// default so Table 1's HLI-size numbers keep their paper shape.
  HliEncoding hli_encoding = HliEncoding::Text;
  /// Pre-built external HLI store (e.g. an mmap'd .hlib written by an
  /// earlier front-end run).  When set, HLI generation/export is skipped
  /// and each function's entry is imported from the store on demand — a
  /// unit the compilation never touches is never decoded.  The store may
  /// be shared across concurrent compile_many workers (HliStore::get is
  /// thread-safe and decodes each unit exactly once); it must outlive the
  /// compilation.  hli_text/hli_bytes stay empty in this mode.
  const hli::HliStore* hli_store = nullptr;
  bool enable_cse = true;
  /// Passed to CSE, LICM and both scheduling passes, which ask every HLI
  /// pair question through one backend::HliPairs: on, each block or loop
  /// body gets one conflict matrix whose bit tests answer its pairs
  /// (counted in query.batch_pairs / query.batch_fallbacks); off, the
  /// scalar view answers every pair and the scheduler's ConflictCache
  /// memoizes it.  The answers are identical, so optimized RTL and every
  /// pass statistic are byte-identical either way; only query cost and
  /// the query.batch_* / sched.cache_* counters change.  Always on for
  /// the tools and the wire; `false` keeps the scalar path as the test
  /// reference (BatchQueryTest, the hli-scalar-queries fuzz leg).
  bool batch_queries = true;
  bool enable_constfold = true;  ///< Combine-style constant folding.
  bool enable_dce = true;  ///< Flow-style cleanup after CSE/LICM.
  bool enable_licm = true;
  bool enable_unroll = false;
  unsigned unroll_factor = 4;
  bool enable_sched = true;
  /// Independent-analyzer soundness audit (--audit-deps): at every pass
  /// boundary the independent RTL-level analyzer (src/analysis/irdep)
  /// re-derives dependences from the instruction stream alone and flags
  /// HLI claims of total independence it refutes with a proof.  Requires
  /// use_hli (there is nothing to audit otherwise).
  VerifyMode audit_deps = VerifyMode::Off;
  /// Hand CSE, LICM and both scheduling passes the independent analyzer
  /// as a dependence oracle: its answer is ANDed into every invalidation
  /// and DDG-edge test, sharpening configurations that lack HLI (the
  /// third column of the Table 2 experiment).
  bool irdep_fallback = false;
  /// Classify every loop as DOALL / DOACROSS(d) / Serial right after
  /// import/mapping — under irdep facts alone and under irdep united
  /// with the HLI tables; reports land in CompiledProgram::loop_reports.
  bool analyze_loops = false;
  /// Post-first-pass stages of the -O2 pipeline: hard-register allocation
  /// (linear scan with spill code) followed by a second scheduling pass.
  /// Off by default so Table 2 measures exactly the paper's first pass.
  bool enable_regalloc = false;
  backend::RegAllocOptions regalloc;
  /// Execution lanes for execute(): with a value > 1 the planner
  /// (backend/parexec) runs after the last transforming pass and
  /// annotates provably-parallel loops, which the interpreter then
  /// dispatches on a worker pool.  Purely an execution-time setting —
  /// the instruction stream and all compile statistics are unchanged —
  /// and the run's observable results (output hash, return value,
  /// dynamic instruction count) are byte-identical to serial.
  unsigned exec_threads = 1;
  /// Latencies used by the scheduler's priority function.
  machine::MachineDesc sched_machine = machine::r10000();
  /// Front-end selection + configuration (frontend/contract.hpp): the
  /// source language and the knobs that shape the generated HLI.
  frontend::FrontendOptions frontend_options;
  TelemetryOptions telemetry;
  /// Content-addressed compiled-unit cache (not owned; may be shared
  /// across compilations and compile_many workers).  Keys are
  /// (lowered-RTL fingerprint, HLI per-unit checksum, options
  /// fingerprint) — see UnitCacheKey — so an unchanged unit is never
  /// recompiled, and a changed unit or option set can never alias a
  /// stale result.  nullptr (the default) disables caching.
  UnitCache* unit_cache = nullptr;

  // -- Named presets ------------------------------------------------------

  /// The paper's instrumented experiment (§4, Table 2): HLI-assisted
  /// CSE/constfold/DCE/LICM and the FIRST scheduling pass, no unrolling,
  /// no register allocation, R10000 latencies.  Identical to a
  /// default-constructed PipelineOptions.
  [[nodiscard]] static PipelineOptions paper_table2();
  /// Everything on: all passes including unrolling (factor 4), hard
  /// registers + post-RA scheduling, and the HLIB binary interchange
  /// container for the front-end -> back-end channel.
  [[nodiscard]] static PipelineOptions production();
  /// Front-end only: generate + export HLI, lower and map, but run no
  /// back-end optimization or scheduling pass.  The result's hli_text is
  /// the interchange file a later back-end run would import.
  [[nodiscard]] static PipelineOptions frontend_only();

  // Only hlibench calls these, and its sources change only with a declared
  // benchmark change; they go with ROADMAP item 2's.
  [[nodiscard]] PipelineOptions with_language(frontend::Language language) const;
  [[nodiscard]] PipelineOptions with_exec_threads(unsigned n) const;
  [[nodiscard]] PipelineOptions with_counters(bool on = true) const;
  [[nodiscard]] PipelineOptions with_tracer(telemetry::Tracer* tracer) const;

  /// Coherence check: every returned string is one actionable diagnostic
  /// (empty vector = valid).  compile_source/compile_many run this and
  /// throw support::CompileError listing every finding.
  [[nodiscard]] std::vector<std::string> validate() const;
};

struct ProgramStats {
  backend::DepStats sched;        ///< FIRST scheduling pass (Table 2).
  backend::DepStats sched2;       ///< Post-RA pass (when enabled).
  backend::RegAllocStats regalloc;
  backend::CseStats cse;
  backend::DceStats dce;
  backend::ConstFoldStats constfold;
  backend::LicmStats licm;
  backend::UnrollStats unroll;
  std::size_t hli_bytes = 0;
  std::size_t source_lines = 0;
  std::size_t mapped_items = 0;
  bool map_perfect = true;
  std::size_t verify_checks = 0;    ///< Invariant evaluations (VerifyMode on).
  std::size_t verify_findings = 0;  ///< Violations found across boundaries.
  std::size_t audit_checks = 0;     ///< irdep pair comparisons (--audit-deps).
  std::size_t audit_findings = 0;   ///< HLI independence claims refuted.

  /// Merges another stats record in (used per-unit: compile_source
  /// accumulates each function's deltas separately so a unit-cache hit
  /// can replay them exactly).
  ProgramStats& operator+=(const ProgramStats& other);
};

/// Identity of one compiled unit in the content-addressed cache.  All
/// three parts are load-bearing:
///   * `rtl_fp` — the unit's LOWERED (pre-optimization) instruction
///     stream, every field of every insn, plus the program's global
///     layout; when irdep is consulted (audit/fallback/analyze/parexec)
///     the whole lowered program is folded in, because interprocedural
///     summaries make the result depend on callee bodies.
///   * `hli_fp` — the HLIB per-unit checksum (or the text entry's
///     fingerprint): the serialized HLI channel's identity, which also
///     covers call-effect facts the builder derived from callees.
///   * `options_fp` — every compilation option that can change the
///     emitted RTL, statistics or telemetry (options_fingerprint).
struct UnitCacheKey {
  std::uint64_t rtl_fp = 0;
  std::uint64_t hli_fp = 0;
  std::uint64_t options_fp = 0;

  [[nodiscard]] bool operator==(const UnitCacheKey&) const = default;
  /// Stable mixdown for bucketing/sharding.
  [[nodiscard]] std::uint64_t hash() const;
};

/// One compiled unit's whole contribution to the program: the optimized
/// instruction stream (parexec plans included), the maintained HLI entry,
/// the per-unit statistics/counters/loop reports, and any warn-mode logs.
/// compile_source splices a cold unit's record and a unit-cache hit the
/// same way, which is what makes the warm compile byte-identical to a
/// cold one.  `counters` is filled only for records published to a cache
/// (a cold unit's increments land live).
struct CachedUnit {
  backend::RtlFunction rtl;
  format::HliEntry hli;
  ProgramStats stats;
  telemetry::CounterSet counters;  ///< Empty unless counters were on.
  std::vector<irdep::LoopReport> loop_reports;
  std::string verify_log;
  std::string audit_log;
};

/// Fingerprint of every PipelineOptions field that can alter a unit's
/// compiled RTL, stats, counters or reports.  Deliberately EXCLUDES the
/// tracer (timing only), the store pointer (content enters via
/// UnitCacheKey::hli_fp), exec_threads beyond plans-on/off, and the
/// cache pointer itself.
[[nodiscard]] std::uint64_t options_fingerprint(const PipelineOptions& options);

/// Typed telemetry counters for one compilation, collected when
/// TelemetryOptions::counters is set.  `total` holds every counter the
/// compilation incremented; `per_function` the same counters attributed
/// to each compiled function (in lowering order).  Values are
/// deterministic — merging per-program stats in input order reproduces a
/// serial run byte for byte, whatever --jobs was.
struct CompilationStats {
  telemetry::CounterSet total;
  std::vector<std::pair<std::string, telemetry::CounterSet>> per_function;

  /// Aggregation across programs: totals add, per-function lists
  /// concatenate (program order).
  CompilationStats& operator+=(const CompilationStats& other) {
    total += other.total;
    per_function.insert(per_function.end(), other.per_function.begin(),
                        other.per_function.end());
    return *this;
  }
};

struct CompiledProgram {
  /// The front-end's half of the compilation, as handed across the thin
  /// waist (docs/thin-waist.md): language, the source-position map, and
  /// the pure query hooks.  No AST survives compilation — the contract is
  /// the only channel.  The unit's rtl/hli_bytes payloads are moved into
  /// `rtl` / `hli_text` below rather than held twice.
  frontend::AnalyzedUnit unit;
  /// The re-read tables the back-end imported (one entry per compiled
  /// function that had HLI; demand-driven, so an external-store unit the
  /// compilation never touched is absent).
  format::HliFile hli;
  /// Serialized HLI in the chosen encoding (size feeds Table 1); empty
  /// when an external hli_store supplied the tables.
  std::string hli_text;
  backend::RtlProgram rtl;  ///< Fully optimized program.
  ProgramStats stats;
  /// Telemetry counters (empty unless options.telemetry.counters).
  CompilationStats counters;
  /// Per-boundary verifier reports under VerifyMode::Warn (empty if clean).
  std::string verify_log;
  /// Per-boundary irdep audit reports under audit_deps == Warn.
  std::string audit_log;
  /// DOALL/DOACROSS/Serial classification of every loop (analyze_loops),
  /// in lowering order; render with irdep::render_loop_table/_json.
  std::vector<irdep::LoopReport> loop_reports;
  /// Carried over from PipelineOptions so execute() runs the program the
  /// way it was planned (simulate() always runs serial: the timing
  /// models consume the one canonical instruction stream).
  unsigned exec_threads = 1;
};

/// Compiles mini-C source through the full pipeline.  Throws
/// support::CompileError on front-end errors.
[[nodiscard]] CompiledProgram compile_source(std::string_view source,
                                             const PipelineOptions& options = {});

/// Runs the compiled program on the functional interpreter.
[[nodiscard]] backend::RunResult execute(const CompiledProgram& compiled,
                                         const std::string& entry = "main");

/// Runs the compiled program through a timing model; returns cycles.
struct SimResult {
  backend::RunResult run;
  std::uint64_t cycles = 0;
};
[[nodiscard]] SimResult simulate(const CompiledProgram& compiled,
                                 const machine::MachineDesc& machine,
                                 const std::string& entry = "main");

/// Counts non-empty source lines (the "code size" of Table 1).
[[nodiscard]] std::size_t count_source_lines(std::string_view source);

}  // namespace hli::driver
