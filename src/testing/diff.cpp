#include "testing/diff.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "backend/interp.hpp"
#include "driver/parallel.hpp"
#include "hli/serialize.hpp"
#include "hli/store.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "support/diagnostics.hpp"

namespace hli::testing {

namespace {

/// One hlid server shared by every service-leg check in the process:
/// ephemeral loopback port, real sockets, caches warm across fuzz
/// iterations (which is the point — repeated compiles of reduced
/// variants keep exercising hit paths).  Leaked deliberately: its
/// worker threads must outlive every static destructor.
service::Server& shared_service_server() {
  static service::Server* server = [] {
    service::ServerOptions options;
    options.port = 0;  // Ephemeral.
    options.workers = 2;
    options.compile_jobs = 1;
    auto* s = new service::Server(options);
    s->start();
    return s;
  }();
  return *server;
}

/// Serialized HLI for `source` in the requested encoding, built through
/// the same front-end + builder the pipeline uses.  This is the
/// "front-end ran yesterday, back-end imports the file today" channel.
std::string build_hli_bytes(const std::string& source,
                            const driver::PipelineOptions& options,
                            bool binary) {
  frontend::AnalyzedUnit unit = frontend::analyze_unit(
      source, options.frontend_options,
      binary ? frontend::HliEncoding::Binary : frontend::HliEncoding::Text);
  return std::move(unit.hli_bytes);
}

void apply_defect(backend::RtlProgram& rtl, PlantedDefect defect) {
  backend::RtlFunction* main_fn = rtl.find_function("main");
  if (main_fn == nullptr) return;
  auto& insns = main_fn->insns;
  switch (defect) {
    case PlantedDefect::None:
      return;
    case PlantedDefect::DropStore:
      for (std::size_t i = insns.size(); i-- > 0;) {
        if (insns[i].op == backend::Opcode::Store) {
          insns.erase(insns.begin() + static_cast<std::ptrdiff_t>(i));
          return;
        }
      }
      return;
    case PlantedDefect::NegateBranch:
      for (auto& insn : insns) {
        if (insn.op == backend::Opcode::BranchZ) {
          insn.op = backend::Opcode::BranchNZ;
          return;
        }
        if (insn.op == backend::Opcode::BranchNZ) {
          insn.op = backend::Opcode::BranchZ;
          return;
        }
      }
      return;
  }
}

RunObservation observe(const driver::CompiledProgram& compiled,
                       std::uint64_t max_insns) {
  RunObservation obs;
  obs.compile_ok = true;
  // Generated programs are tiny (a few KB of globals, <=16K-trip nests):
  // a small arena and insn budget keep a 13-config differential run
  // cheap, and a budget trip still flags the config as divergent.
  backend::InterpOptions interp;
  interp.memory_bytes = 4u << 20;
  interp.max_insns = max_insns;
  const backend::RunResult run =
      backend::run_program(compiled.rtl, "main", nullptr, interp);
  obs.run_ok = run.ok;
  obs.error = run.error;
  obs.return_value = run.return_value;
  obs.output_hash = run.output_hash;
  obs.emit_count = run.emit_count;
  obs.dynamic_insns = run.dynamic_insns;
  return obs;
}

/// Dynamic loop-dependence oracle: replays the compiled program and, for
/// every loop the classifier reported, records which bytes each
/// iteration touches.  An observed carried dependence (same byte, two
/// iterations, at least one write) must be consistent with the static
/// claim — a DOALL loop may show none, a DOACROSS(d) loop none shorter
/// than d.  The check is one-sided: the oracle can miss dependences
/// (e.g. it ignores callee-depth work), but anything it DOES observe is
/// real, so a contradiction is a genuine classifier unsoundness.
///
/// Loops are keyed on instruction pointers: the analyze leg runs with
/// every transform off, so LoopReport::loop_beg still indexes the
/// executed stream.  Iterations advance on the loop's backedge Jump
/// (labels and Loop notes are not executed, hence not traced); call
/// depth is tracked so a callee re-entering the same code — or a second
/// activation of the loop — never mixes iteration spaces.
class LoopDepOracle final : public backend::TraceSink {
 public:
  LoopDepOracle(const backend::RtlProgram& rtl,
                const std::vector<irdep::LoopReport>& reports) {
    for (const irdep::LoopReport& report : reports) {
      const bool check_doall =
          report.irdep_class == irdep::LoopClass::Doall ||
          report.combined_class == irdep::LoopClass::Doall;
      std::int64_t claimed = 0;  // Strongest claimed min distance.
      if (report.irdep_class == irdep::LoopClass::Doacross) {
        claimed = report.irdep_distance;
      }
      if (report.combined_class == irdep::LoopClass::Doacross) {
        claimed = std::max(claimed, report.combined_distance);
      }
      if (!check_doall && claimed <= 1) continue;  // Nothing falsifiable.
      const backend::RtlFunction* func = nullptr;
      for (const backend::RtlFunction& fn : rtl.functions) {
        if (fn.name == report.function) func = &fn;
      }
      if (func == nullptr) continue;
      // The report's loop note pair; top label + unique backedge jump.
      const std::size_t beg = report.loop_beg;
      std::size_t end = beg;
      for (const backend::LoopSpan& span : backend::loop_spans(*func)) {
        if (span.beg == beg) end = span.end;
      }
      if (end == beg) continue;
      if (func->insns[beg + 1].op != backend::Opcode::Label) continue;
      const std::int64_t top = func->insns[beg + 1].label;
      const backend::Insn* backedge = nullptr;
      for (std::size_t i = beg + 2; i < end; ++i) {
        if (func->insns[i].op == backend::Opcode::Jump &&
            func->insns[i].label == top) {
          backedge = &func->insns[i];
        }
      }
      if (backedge == nullptr) continue;
      Tracked tracked;
      tracked.lo = reinterpret_cast<std::uintptr_t>(&func->insns[beg]);
      tracked.hi = reinterpret_cast<std::uintptr_t>(&func->insns[end]);
      tracked.backedge = backedge;
      tracked.doall = check_doall;
      tracked.claimed_distance = claimed;
      tracked.name = report.function + ":line" + std::to_string(report.line);
      loops_.push_back(std::move(tracked));
    }
    for (const backend::RtlFunction& fn : rtl.functions) {
      defined_.insert(fn.name);
    }
  }

  void on_insn(const backend::TraceEvent& event) override {
    const auto at = reinterpret_cast<std::uintptr_t>(event.insn);
    for (Tracked& loop : loops_) {
      const bool in_range = at > loop.lo && at < loop.hi;
      if (!loop.active) {
        if (in_range) {
          loop.active = true;
          loop.entry_depth = depth_;
          loop.iter = 0;
          loop.bytes.clear();
        } else {
          continue;
        }
      } else if (!in_range && depth_ <= loop.entry_depth) {
        loop.active = false;  // Fell out of the loop: new space next time.
        continue;
      }
      if (!in_range || depth_ != loop.entry_depth) continue;
      if (event.insn == loop.backedge) {
        ++loop.iter;
        continue;
      }
      if (!backend::is_memory_op(event.insn->op)) continue;
      const bool is_store = event.insn->op == backend::Opcode::Store;
      const std::uint8_t size = event.insn->mem.size != 0
                                    ? event.insn->mem.size
                                    : std::uint8_t{1};
      for (std::uint64_t b = 0; b < size; ++b) {
        ByteState& state = loop.bytes[event.address + b];
        if (is_store) {
          if (state.last_read >= 0) check(loop, loop.iter - state.last_read);
          if (state.last_write >= 0) check(loop, loop.iter - state.last_write);
          state.last_write = loop.iter;
        } else {
          if (state.last_write >= 0) check(loop, loop.iter - state.last_write);
          state.last_read = loop.iter;
        }
      }
    }
    if (event.insn->op == backend::Opcode::Call &&
        defined_.count(event.insn->callee) != 0) {
      ++depth_;  // Builtins run inline: no frame, no Return event.
    } else if (event.insn->op == backend::Opcode::Return && depth_ > 0) {
      --depth_;
    }
  }

  [[nodiscard]] const std::vector<std::string>& contradictions() const {
    return contradictions_;
  }

 private:
  struct ByteState {
    std::int64_t last_read = -1;
    std::int64_t last_write = -1;
  };
  struct Tracked {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    const backend::Insn* backedge = nullptr;
    bool doall = false;
    std::int64_t claimed_distance = 0;
    std::string name;
    bool active = false;
    bool reported = false;
    std::size_t entry_depth = 0;
    std::int64_t iter = 0;
    std::unordered_map<std::uint64_t, ByteState> bytes;
  };

  void check(Tracked& loop, std::int64_t distance) {
    if (distance <= 0 || loop.reported) return;
    if (loop.doall) {
      loop.reported = true;
      contradictions_.push_back(
          "loop " + loop.name + " classified DOALL but a carried dependence "
          "of distance " + std::to_string(distance) + " was observed");
    } else if (distance < loop.claimed_distance) {
      loop.reported = true;
      contradictions_.push_back(
          "loop " + loop.name + " classified DOACROSS(" +
          std::to_string(loop.claimed_distance) +
          ") but a carried dependence of distance " +
          std::to_string(distance) + " was observed");
    }
  }

  std::vector<Tracked> loops_;
  std::unordered_set<std::string> defined_;
  std::vector<std::string> contradictions_;
  std::size_t depth_ = 0;
};

std::string rtl_dump(const backend::RtlProgram& rtl) {
  std::string out;
  for (const backend::RtlFunction& fn : rtl.functions) {
    backend::append_rtl(out, fn);
    out += '\n';
  }
  return out;
}

/// Fields that must agree between baseline and a config.  dynamic_insns
/// deliberately excluded: optimizations exist to change it.
void compare(const RunObservation& base, const RunObservation& got,
             const std::string& config, std::vector<Divergence>& out) {
  std::ostringstream detail;
  if (base.run_ok != got.run_ok || base.error != got.error) {
    detail << "trap: baseline={ok=" << base.run_ok << " err='" << base.error
           << "'} got={ok=" << got.run_ok << " err='" << got.error << "'}; ";
  }
  if (base.run_ok && got.run_ok) {
    if (base.return_value != got.return_value) {
      detail << "return_value: baseline=" << base.return_value
             << " got=" << got.return_value << "; ";
    }
    if (base.output_hash != got.output_hash) {
      detail << "output_hash: baseline=" << base.output_hash
             << " got=" << got.output_hash << "; ";
    }
    if (base.emit_count != got.emit_count) {
      detail << "emit_count: baseline=" << base.emit_count
             << " got=" << got.emit_count << "; ";
    }
  }
  std::string text = detail.str();
  if (!text.empty()) out.push_back({config, std::move(text)});
}

DiffConfig make_config(std::string name, bool use_hli) {
  DiffConfig cfg;
  cfg.name = std::move(name);
  cfg.options.use_hli = use_hli;
  cfg.options.verify_hli =
      use_hli ? driver::VerifyMode::Fatal : driver::VerifyMode::Off;
  cfg.options.enable_cse = false;
  cfg.options.enable_constfold = false;
  cfg.options.enable_dce = false;
  cfg.options.enable_licm = false;
  cfg.options.enable_unroll = false;
  cfg.options.enable_sched = false;
  return cfg;
}

void enable_all(driver::PipelineOptions& options) {
  options.enable_cse = true;
  options.enable_constfold = true;
  options.enable_dce = true;
  options.enable_licm = true;
  options.enable_unroll = true;
  options.enable_sched = true;
}

}  // namespace

const char* planted_defect_name(PlantedDefect defect) {
  switch (defect) {
    case PlantedDefect::None: return "none";
    case PlantedDefect::DropStore: return "drop-store";
    case PlantedDefect::NegateBranch: return "negate-branch";
  }
  return "none";
}

bool parse_planted_defect(const std::string& text, PlantedDefect& out) {
  if (text == "none") {
    out = PlantedDefect::None;
  } else if (text == "drop-store") {
    out = PlantedDefect::DropStore;
  } else if (text == "negate-branch") {
    out = PlantedDefect::NegateBranch;
  } else {
    return false;
  }
  return true;
}

DiffConfig baseline_config() { return make_config("baseline", false); }

std::vector<DiffConfig> default_matrix() {
  std::vector<DiffConfig> matrix;

  {  // All native optimizations, no HLI: GCC-local disambiguation only.
    DiffConfig cfg = make_config("nohli-all", false);
    enable_all(cfg.options);
    matrix.push_back(std::move(cfg));
  }
  // Each pass alone under HLI: a miscompile lands on the guilty pass's
  // config name instead of hiding inside the all-on pipeline.
  const struct {
    const char* name;
    bool driver::PipelineOptions::* flag;
  } singles[] = {
      {"hli-cse", &driver::PipelineOptions::enable_cse},
      {"hli-constfold", &driver::PipelineOptions::enable_constfold},
      {"hli-dce", &driver::PipelineOptions::enable_dce},
      {"hli-licm", &driver::PipelineOptions::enable_licm},
      {"hli-unroll", &driver::PipelineOptions::enable_unroll},
      {"hli-sched", &driver::PipelineOptions::enable_sched},
  };
  for (const auto& single : singles) {
    DiffConfig cfg = make_config(single.name, true);
    cfg.options.*single.flag = true;
    matrix.push_back(std::move(cfg));
  }
  {
    DiffConfig cfg = make_config("hli-all", true);
    enable_all(cfg.options);
    matrix.push_back(std::move(cfg));
  }
  {  // Full -O2 shape: hard registers + second scheduling pass.
    DiffConfig cfg = make_config("hli-all-regalloc", true);
    enable_all(cfg.options);
    cfg.options.enable_regalloc = true;
    matrix.push_back(std::move(cfg));
  }
  {  // In-order machine model: different scheduling priorities, same answer.
    DiffConfig cfg = make_config("hli-sched-r4600", true);
    enable_all(cfg.options);
    cfg.options.sched_machine = machine::r4600();
    matrix.push_back(std::move(cfg));
  }
  {  // HLIB binary encoding of the interchange file.
    DiffConfig cfg = make_config("hli-binary", true);
    enable_all(cfg.options);
    cfg.options.hli_encoding = driver::HliEncoding::Binary;
    matrix.push_back(std::move(cfg));
  }
  {  // Round-trip through an external text-format HliStore.
    DiffConfig cfg = make_config("hli-store-text", true);
    enable_all(cfg.options);
    cfg.channel = Channel::StoreText;
    matrix.push_back(std::move(cfg));
  }
  {  // Round-trip through an external mmap-style HLIB HliStore.
    DiffConfig cfg = make_config("hli-store-binary", true);
    enable_all(cfg.options);
    cfg.channel = Channel::StoreBinary;
    matrix.push_back(std::move(cfg));
  }
  {  // Scalar per-pair HLI queries; the flip leg recompiles with batched
     // BlockConflictMatrix planes and requires byte-identical RTL.
    DiffConfig cfg = make_config("hli-scalar-queries", true);
    enable_all(cfg.options);
    cfg.options.enable_regalloc = true;  // Covers sched2's matrix too.
    cfg.options.batch_queries = false;
    cfg.batch_flip_leg = true;
    matrix.push_back(std::move(cfg));
  }
  {  // Thread-pool compile: results must be byte-identical to serial.
    DiffConfig cfg = make_config("hli-parallel", true);
    enable_all(cfg.options);
    cfg.parallel_leg = true;
    matrix.push_back(std::move(cfg));
  }
  {  // Independent-analyzer soundness audit at every pass boundary: a
     // finding aborts the compile (Fatal) and lands as a divergence.
    DiffConfig cfg = make_config("hli-audit-deps", true);
    enable_all(cfg.options);
    cfg.options.audit_deps = driver::VerifyMode::Fatal;
    matrix.push_back(std::move(cfg));
  }
  {  // irdep as a fallback oracle with no HLI: its pruning decisions are
     // load-bearing here, so any unsoundness becomes a semantic diff.
    DiffConfig cfg = make_config("nohli-irdep-fallback", false);
    enable_all(cfg.options);
    cfg.options.irdep_fallback = true;
    matrix.push_back(std::move(cfg));
  }
  {  // Both oracles ANDed: HLI and irdep must agree with the baseline.
    DiffConfig cfg = make_config("hli-irdep-fallback", true);
    enable_all(cfg.options);
    cfg.options.irdep_fallback = true;
    matrix.push_back(std::move(cfg));
  }
  {  // Loop classification + dynamic-oracle consistency: transforms stay
     // off so LoopReport::loop_beg indexes the executed stream.
    DiffConfig cfg = make_config("hli-analyze", true);
    cfg.options.analyze_loops = true;
    cfg.analyze_leg = true;
    matrix.push_back(std::move(cfg));
  }
  {  // Compile service: cold and warm compiles through a real hlid
     // socket must render byte-identical RTL and stats to in-process
     // compile_source — the wire codec and both cache tiers under fuzz.
    DiffConfig cfg = make_config("hli-service", true);
    enable_all(cfg.options);
    cfg.service_leg = true;
    matrix.push_back(std::move(cfg));
  }
  {  // Parallel execution from HLI-unioned plans: the threaded replay
     // must be byte-identical to serial, dynamic_insns included.
    DiffConfig cfg = make_config("hli-exec-threads", true);
    enable_all(cfg.options);
    cfg.options.exec_threads = 4;
    cfg.exec_threads_leg = true;
    matrix.push_back(std::move(cfg));
  }
  {  // Same contract with plans proven by the independent analyzer alone
     // (no HLI): exercises the no-HLI planning path end to end.
    DiffConfig cfg = make_config("nohli-exec-threads", false);
    enable_all(cfg.options);
    cfg.options.exec_threads = 4;
    cfg.exec_threads_leg = true;
    matrix.push_back(std::move(cfg));
  }
  return matrix;
}

DiffResult run_differential(const std::string& source,
                            const std::vector<DiffConfig>& matrix,
                            PlantedDefect defect, std::uint64_t max_insns,
                            frontend::Language language) {
  DiffResult result;

  {
    DiffConfig base = baseline_config();
    base.options.frontend_options.language = language;
    try {
      driver::CompiledProgram compiled =
          driver::compile_source(source, base.options);
      result.baseline = observe(compiled, max_insns);
    } catch (const support::CompileError& e) {
      result.invalid_input = true;
      result.invalid_reason = e.what();
      return result;
    }
    if (!result.baseline.run_ok &&
        result.baseline.error.find("instruction budget") != std::string::npos) {
      // A runaway baseline means the generator's termination discipline
      // broke; treat as invalid input rather than comparing timeouts.
      result.invalid_input = true;
      result.invalid_reason = "baseline exceeded interpreter budget";
      return result;
    }
  }

  for (const DiffConfig& cfg : matrix) {
    driver::PipelineOptions options = cfg.options;
    options.frontend_options.language = language;
    std::unique_ptr<HliStore> store;
    RunObservation obs;
    try {
      if (cfg.channel != Channel::Direct) {
        store = std::make_unique<HliStore>(build_hli_bytes(
            source, options, cfg.channel == Channel::StoreBinary));
        options.hli_store = store.get();
      }
      driver::CompiledProgram compiled = driver::compile_source(source, options);
      if (cfg.parallel_leg) {
        const std::vector<std::string> sources{source, source};
        std::vector<driver::CompiledProgram> many =
            driver::compile_many(sources, options, 2);
        const std::string serial = rtl_dump(compiled.rtl);
        for (std::size_t i = 0; i < many.size(); ++i) {
          if (rtl_dump(many[i].rtl) != serial) {
            result.divergences.push_back(
                {cfg.name, "compile_many copy " + std::to_string(i) +
                               " RTL differs from serial compile; "});
          }
        }
      }
      if (cfg.batch_flip_leg) {
        driver::PipelineOptions flipped = options;
        flipped.batch_queries = !flipped.batch_queries;
        driver::CompiledProgram other =
            driver::compile_source(source, flipped);
        if (rtl_dump(other.rtl) != rtl_dump(compiled.rtl)) {
          result.divergences.push_back(
              {cfg.name,
               "RTL differs between batched and scalar HLI queries; "});
        }
      }
      if (cfg.service_leg) {
        service::Client client = service::Client::connect_tcp(
            "127.0.0.1", shared_service_server().tcp_port());
        const std::string direct_rtl = service::render_rtl(compiled);
        const std::string direct_stats =
            service::render_program_stats(compiled);
        for (const char* phase : {"cold", "warm"}) {
          try {
            const service::CompileReply reply =
                client.compile({source}, options);
            if (reply.programs.size() != 1) {
              result.divergences.push_back(
                  {cfg.name, std::string("service ") + phase +
                                 " reply program count != 1; "});
              continue;
            }
            if (reply.programs[0].rtl != direct_rtl) {
              result.divergences.push_back(
                  {cfg.name, std::string("service ") + phase +
                                 " RTL differs from direct compile; "});
            }
            if (reply.programs[0].stats != direct_stats) {
              result.divergences.push_back(
                  {cfg.name, std::string("service ") + phase +
                                 " stats differ from direct compile; "});
            }
          } catch (const service::ServiceError& e) {
            result.divergences.push_back(
                {cfg.name, std::string("service ") + phase +
                               " error: " + e.what() + "; "});
          }
        }
        client.close();
      }
      if (cfg.analyze_leg && defect == PlantedDefect::None) {
        // Replay under the dynamic loop-dependence oracle; every carried
        // dependence it observes must fit the classifier's claims.
        LoopDepOracle oracle(compiled.rtl, compiled.loop_reports);
        backend::InterpOptions interp;
        interp.memory_bytes = 4u << 20;
        interp.max_insns = max_insns;
        (void)backend::run_program(compiled.rtl, "main", &oracle, interp);
        for (const std::string& message : oracle.contradictions()) {
          result.divergences.push_back({cfg.name, message + "; "});
        }
      }
      if (cfg.exec_threads_leg && defect == PlantedDefect::None) {
        backend::InterpOptions serial;
        serial.memory_bytes = 4u << 20;
        serial.max_insns = max_insns;
        backend::InterpOptions threaded = serial;
        threaded.exec_threads = 4;
        threaded.force_dispatch = true;  // Dispatch even tiny generated loops.
        const backend::RunResult s =
            backend::run_program(compiled.rtl, "main", nullptr, serial);
        const backend::RunResult t =
            backend::run_program(compiled.rtl, "main", nullptr, threaded);
        // Stricter than compare(): the parallel runtime replays the SAME
        // RTL, so even dynamic_insns must match exactly.
        std::ostringstream detail;
        if (s.ok != t.ok || s.error != t.error) {
          detail << "threaded trap: serial={ok=" << s.ok << " err='"
                 << s.error << "'} threaded={ok=" << t.ok << " err='"
                 << t.error << "'}; ";
        }
        if (s.return_value != t.return_value) {
          detail << "threaded return_value: serial=" << s.return_value
                 << " threaded=" << t.return_value << "; ";
        }
        if (s.output_hash != t.output_hash) {
          detail << "threaded output_hash: serial=" << s.output_hash
                 << " threaded=" << t.output_hash << "; ";
        }
        if (s.emit_count != t.emit_count) {
          detail << "threaded emit_count: serial=" << s.emit_count
                 << " threaded=" << t.emit_count << "; ";
        }
        if (s.dynamic_insns != t.dynamic_insns) {
          detail << "threaded dynamic_insns: serial=" << s.dynamic_insns
                 << " threaded=" << t.dynamic_insns << "; ";
        }
        std::string text = detail.str();
        if (!text.empty()) {
          result.divergences.push_back({cfg.name, std::move(text)});
        }
      }
      apply_defect(compiled.rtl, defect);
      obs = observe(compiled, max_insns);
    } catch (const support::CompileError& e) {
      // Baseline compiled, this config didn't: verifier finding or a
      // config-dependent front/back-end fault — a divergence either way.
      result.divergences.push_back(
          {cfg.name, std::string("compile failed: ") + e.what() + "; "});
      continue;
    }
    compare(result.baseline, obs, cfg.name, result.divergences);
  }
  return result;
}

std::string describe(const DiffResult& result) {
  std::ostringstream out;
  if (result.invalid_input) {
    out << "invalid input: " << result.invalid_reason << "\n";
    return out.str();
  }
  out << "baseline: ok=" << result.baseline.run_ok
      << " return=" << result.baseline.return_value
      << " output_hash=" << result.baseline.output_hash
      << " emits=" << result.baseline.emit_count
      << " insns=" << result.baseline.dynamic_insns << "\n";
  for (const Divergence& d : result.divergences) {
    out << "DIVERGENCE [" << d.config << "]: " << d.detail << "\n";
  }
  if (result.divergences.empty()) out << "all configurations agree\n";
  return out.str();
}

}  // namespace hli::testing
