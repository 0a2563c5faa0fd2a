#include "backend/interp.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "backend/parexec/pool.hpp"
#include "backend/parexec/runtime.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {

const telemetry::Counter c_par_loops =
    telemetry::counter("parexec.loops_parallelized");
const telemetry::Counter c_par_invocations =
    telemetry::counter("parexec.invocations");
const telemetry::Counter c_par_chunks = telemetry::counter("parexec.chunks");
const telemetry::Counter c_par_iterations =
    telemetry::counter("parexec.par_iterations");
const telemetry::Counter c_par_insns =
    telemetry::counter("parexec.par_insns");
const telemetry::Counter c_par_ordered =
    telemetry::counter("parexec.ordered_insns");
const telemetry::Counter c_par_waits = telemetry::counter("parexec.sync_waits");
const telemetry::Counter c_par_elided =
    telemetry::counter("parexec.sync_elided");
const telemetry::Counter c_par_fallbacks =
    telemetry::counter("parexec.serial_fallbacks");

struct Value {
  std::int64_t i = 0;
  double f = 0.0;
};

/// Per-execution-lane state.  The master run and every worker chunk get
/// their own context: a private stack region for nested (pure) calls, a
/// private instruction counter, and a flag that disables nested parallel
/// dispatch inside workers.  The shared program memory stays one arena.
struct ExecCtx {
  std::uint64_t stack_top = 0;
  std::uint64_t stack_limit = 0;
  std::size_t depth = 0;
  std::uint64_t executed = 0;
  std::uint64_t hard_cap = 0;  ///< fail() when executed exceeds this.
  bool is_worker = false;
};

/// The program's address space: one private anonymous mapping.  The
/// kernel supplies zero pages on first touch, so a run pays for the pages
/// it uses rather than for zero-filling the whole arena up front.
class Arena {
 public:
  explicit Arena(std::size_t bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p != MAP_FAILED) {
      data_ = static_cast<std::uint8_t*>(p);
      size_ = bytes;
    }
  }
  ~Arena() {
    if (data_ != nullptr) ::munmap(data_, size_);
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] bool mapped() const { return data_ != nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  std::uint8_t& operator[](std::uint64_t addr) { return data_[addr]; }
  const std::uint8_t& operator[](std::uint64_t addr) const {
    return data_[addr];
  }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Resolved-target sentinels: a call to a built-in extern, and a branch
/// whose label the function does not define.
constexpr std::size_t kExtern = SIZE_MAX;
constexpr std::size_t kNoLabel = SIZE_MAX;

class Interp {
 public:
  Interp(const RtlProgram& prog, TraceSink* sink, const InterpOptions& options)
      : prog_(prog), sink_(sink), options_(options),
        memory_(options.memory_bytes) {
    if (!memory_.mapped()) return;  // run() reports it.
    // Globals at the bottom (address 8 upward; 0 stays "null").
    std::uint64_t at = 8;
    for (const GlobalVar& g : prog.globals) {
      global_base_.push_back(at);
      if (!g.init_int.empty()) {
        write_int(at, g.init_int[0], 4);
      } else if (!g.init_fp.empty()) {
        write_fp(at, g.init_fp[0], 8);
      }
      at += (g.size + 7) / 8 * 8;
    }
    stack_base_ = (at + 63) / 64 * 64;
    master_limit_ = memory_.size();
    resolve_targets();
    // Parallel dispatch needs per-lane stacks for the pure calls a loop
    // body may make: lanes 1..W-1 get fixed regions carved off the TOP
    // of the arena (lane 0 — the calling thread — keeps using the master
    // stack, which nobody else touches during a dispatch).  Too little
    // headroom disables dispatch rather than risking collisions.
    par_enabled_ = options.exec_threads > 1 && sink == nullptr;
    if (par_enabled_) {
      bool any_plan = false;
      for (const RtlFunction& f : prog.functions) {
        if (!f.parexec.empty()) any_plan = true;
      }
      const std::uint64_t extra = options.exec_threads - 1;
      std::uint64_t ws = 0;
      if (any_plan && memory_.size() > stack_base_) {
        ws = (memory_.size() - stack_base_) / (2 * options.exec_threads);
        ws = ws / 64 * 64;
        ws = std::min<std::uint64_t>(ws, 1u << 20);
      }
      if (ws >= (64u << 10)) {
        worker_stack_size_ = ws;
        master_limit_ = memory_.size() - extra * ws;
      } else {
        par_enabled_ = false;
      }
    }
  }

  RunResult run(const std::string& entry) {
    RunResult result;
    if (!memory_.mapped()) {
      result.error = "interp: cannot map a " +
                     std::to_string(options_.memory_bytes) + "-byte arena";
      return result;
    }
    const RtlFunction* func = prog_.find_function(entry);
    if (func == nullptr) {
      result.error = "no entry function '" + entry + "'";
      return result;
    }
    ExecCtx ctx;
    ctx.stack_top = stack_base_;
    ctx.stack_limit = master_limit_;
    ctx.hard_cap = options_.max_insns;
    try {
      const Value ret =
          call(static_cast<std::size_t>(func - prog_.functions.data()), {},
               ctx);
      result.return_value = ret.i;
      result.ok = true;
    } catch (const std::runtime_error& e) {
      result.error = e.what();
    }
    result.dynamic_insns = ctx.executed;
    result.output_hash = output_hash_;
    result.emit_count = emit_count_;
    result.parexec = stats_;
    c_par_loops.add(stats_.loops_parallelized);
    c_par_invocations.add(stats_.invocations);
    c_par_chunks.add(stats_.chunks);
    c_par_iterations.add(stats_.par_iterations);
    c_par_insns.add(stats_.par_insns);
    c_par_ordered.add(stats_.ordered_insns);
    c_par_waits.add(stats_.sync_waits);
    c_par_elided.add(stats_.sync_elided);
    c_par_fallbacks.add(stats_.serial_fallbacks);
    return result;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("interp: " + message);
  }

  /// Resolves every branch to its label's pc and every call to its
  /// callee's index (kExtern for built-ins) once, so the dispatch loop
  /// follows control flow by indexing instead of by lookup.
  void resolve_targets() {
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t f = 0; f < prog_.functions.size(); ++f) {
      index.emplace(prog_.functions[f].name, f);  // First wins, as lookup.
    }
    targets_.resize(prog_.functions.size());
    for (std::size_t f = 0; f < prog_.functions.size(); ++f) {
      const std::vector<Insn>& insns = prog_.functions[f].insns;
      std::unordered_map<std::int32_t, std::size_t> labels;
      for (std::size_t i = 0; i < insns.size(); ++i) {
        if (insns[i].op == Opcode::Label) labels.emplace(insns[i].label, i);
      }
      std::vector<std::size_t>& target = targets_[f];
      target.assign(insns.size(), kNoLabel);
      for (std::size_t i = 0; i < insns.size(); ++i) {
        const Insn& insn = insns[i];
        if (insn.op == Opcode::Jump || insn.op == Opcode::BranchZ ||
            insn.op == Opcode::BranchNZ) {
          const auto it = labels.find(insn.label);
          if (it != labels.end()) target[i] = it->second;
        } else if (insn.op == Opcode::Call) {
          const auto it = index.find(insn.callee);
          target[i] = it != index.end() ? it->second : kExtern;
        }
      }
    }
  }

  void check_mem(std::uint64_t addr, std::uint64_t size) const {
    // Written so that no sum can wrap: addr + size overflows for an
    // address just below 2^64.
    if (addr == 0 || size > memory_.size() || addr > memory_.size() - size) {
      fail("memory access out of range at " + std::to_string(addr));
    }
  }

  void write_int(std::uint64_t addr, std::int64_t value, std::uint8_t size) {
    check_mem(addr, size);
    if (size == 4) {
      const std::int32_t v = static_cast<std::int32_t>(value);
      std::memcpy(&memory_[addr], &v, 4);
    } else {
      std::memcpy(&memory_[addr], &value, 8);
    }
  }

  std::int64_t read_int(std::uint64_t addr, std::uint8_t size) const {
    check_mem(addr, size);
    if (size == 4) {
      std::int32_t v = 0;
      std::memcpy(&v, &memory_[addr], 4);
      return v;
    }
    std::int64_t v = 0;
    std::memcpy(&v, &memory_[addr], 8);
    return v;
  }

  void write_fp(std::uint64_t addr, double value, std::uint8_t size) {
    check_mem(addr, size);
    if (size == 4) {
      const float v = static_cast<float>(value);
      std::memcpy(&memory_[addr], &v, 4);
    } else {
      std::memcpy(&memory_[addr], &value, 8);
    }
  }

  double read_fp(std::uint64_t addr, std::uint8_t size) const {
    check_mem(addr, size);
    if (size == 4) {
      float v = 0;
      std::memcpy(&v, &memory_[addr], 4);
      return v;
    }
    double v = 0;
    std::memcpy(&v, &memory_[addr], 8);
    return v;
  }

  void mix_output(std::uint64_t bits) {
    output_hash_ = output_hash_ * 1099511628211ull ^ bits;
    ++emit_count_;
  }

  /// Built-in externs: math plus the emit() observation sinks.
  bool call_extern(const std::string& name, const std::vector<Value>& args,
                   Value& out, const ExecCtx& ctx) {
    auto arg_f = [&](std::size_t i) { return i < args.size() ? args[i].f : 0.0; };
    if (name == "sqrt") { out.f = std::sqrt(arg_f(0)); return true; }
    if (name == "fabs") { out.f = std::fabs(arg_f(0)); return true; }
    if (name == "sin") { out.f = std::sin(arg_f(0)); return true; }
    if (name == "cos") { out.f = std::cos(arg_f(0)); return true; }
    if (name == "exp") { out.f = std::exp(arg_f(0)); return true; }
    if (name == "log") { out.f = std::log(arg_f(0)); return true; }
    if (name == "pow") { out.f = std::pow(arg_f(0), arg_f(1)); return true; }
    if (name == "floor") { out.f = std::floor(arg_f(0)); return true; }
    if (name == "ceil") { out.f = std::ceil(arg_f(0)); return true; }
    if (name == "atan") { out.f = std::atan(arg_f(0)); return true; }
    if (name == "emit" || name == "emitd") {
      // The planner proves loop bodies IO-free before parallelizing, so a
      // worker can never reach the output sinks; the guard keeps a planner
      // bug from silently racing on the output hash.
      if (ctx.is_worker) fail("emit from a parallel worker");
      if (name == "emit") {
        mix_output(static_cast<std::uint64_t>(args.empty() ? 0 : args[0].i));
      } else {
        std::uint64_t bits = 0;
        const double v = arg_f(0);
        std::memcpy(&bits, &v, 8);
        mix_output(bits);
      }
      return true;
    }
    return false;
  }

  /// Runs a Call whose resolved target is `callee`: a function index, or
  /// kExtern for a built-in.
  void do_call(const Insn& insn, std::size_t callee, std::vector<Value>& regs,
               ExecCtx& ctx) {
    std::vector<Value> call_args;
    call_args.reserve(insn.args.size());
    for (const Reg r : insn.args) call_args.push_back(regs[r]);
    Value out;
    if (callee != kExtern) {
      out = call(callee, call_args, ctx);
    } else if (!call_extern(insn.callee, call_args, out, ctx)) {
      fail("call to unknown extern '" + insn.callee + "'");
    }
    if (insn.rd != kNoReg) regs[insn.rd] = out;
  }

  /// Executes one non-control instruction (values, memory, calls, notes);
  /// `target` is its resolved target.  `event` (nullable) receives the
  /// resolved address for Load/Store.
  void step_insn(const Insn& insn, std::size_t target,
                 std::vector<Value>& regs, std::uint64_t frame_base,
                 ExecCtx& ctx, TraceEvent* event) {
    switch (insn.op) {
      case Opcode::LoadImm:
        if (insn.is_float) {
          regs[insn.rd].f = insn.fimm;
        } else {
          regs[insn.rd].i = insn.imm;
        }
        break;
      case Opcode::Move:
        regs[insn.rd] = regs[insn.rs1];
        break;
      case Opcode::Add:
        if (insn.is_float) {
          regs[insn.rd].f = regs[insn.rs1].f + regs[insn.rs2].f;
        } else {
          regs[insn.rd].i = regs[insn.rs1].i + regs[insn.rs2].i;
        }
        break;
      case Opcode::Sub:
        if (insn.is_float) {
          regs[insn.rd].f = regs[insn.rs1].f - regs[insn.rs2].f;
        } else {
          regs[insn.rd].i = regs[insn.rs1].i - regs[insn.rs2].i;
        }
        break;
      case Opcode::Mul:
        if (insn.is_float) {
          regs[insn.rd].f = regs[insn.rs1].f * regs[insn.rs2].f;
        } else {
          regs[insn.rd].i = regs[insn.rs1].i * regs[insn.rs2].i;
        }
        break;
      case Opcode::Div:
        if (insn.is_float) {
          regs[insn.rd].f = regs[insn.rs1].f / regs[insn.rs2].f;
        } else {
          if (regs[insn.rs2].i == 0) fail("integer division by zero");
          regs[insn.rd].i = regs[insn.rs1].i / regs[insn.rs2].i;
        }
        break;
      case Opcode::Rem:
        if (regs[insn.rs2].i == 0) fail("integer remainder by zero");
        regs[insn.rd].i = regs[insn.rs1].i % regs[insn.rs2].i;
        break;
      case Opcode::Neg:
        if (insn.is_float) {
          regs[insn.rd].f = -regs[insn.rs1].f;
        } else {
          regs[insn.rd].i = -regs[insn.rs1].i;
        }
        break;
      case Opcode::And: regs[insn.rd].i = regs[insn.rs1].i & regs[insn.rs2].i; break;
      case Opcode::Or: regs[insn.rd].i = regs[insn.rs1].i | regs[insn.rs2].i; break;
      case Opcode::Xor: regs[insn.rd].i = regs[insn.rs1].i ^ regs[insn.rs2].i; break;
      case Opcode::Not: regs[insn.rd].i = regs[insn.rs1].i == 0 ? 1 : 0; break;
      case Opcode::Shl: regs[insn.rd].i = regs[insn.rs1].i << (regs[insn.rs2].i & 63); break;
      case Opcode::Shr: regs[insn.rd].i = regs[insn.rs1].i >> (regs[insn.rs2].i & 63); break;
      case Opcode::CmpLt:
        regs[insn.rd].i = insn.is_float ? regs[insn.rs1].f < regs[insn.rs2].f
                                        : regs[insn.rs1].i < regs[insn.rs2].i;
        break;
      case Opcode::CmpLe:
        regs[insn.rd].i = insn.is_float ? regs[insn.rs1].f <= regs[insn.rs2].f
                                        : regs[insn.rs1].i <= regs[insn.rs2].i;
        break;
      case Opcode::CmpGt:
        regs[insn.rd].i = insn.is_float ? regs[insn.rs1].f > regs[insn.rs2].f
                                        : regs[insn.rs1].i > regs[insn.rs2].i;
        break;
      case Opcode::CmpGe:
        regs[insn.rd].i = insn.is_float ? regs[insn.rs1].f >= regs[insn.rs2].f
                                        : regs[insn.rs1].i >= regs[insn.rs2].i;
        break;
      case Opcode::CmpEq:
        regs[insn.rd].i = insn.is_float ? regs[insn.rs1].f == regs[insn.rs2].f
                                        : regs[insn.rs1].i == regs[insn.rs2].i;
        break;
      case Opcode::CmpNe:
        regs[insn.rd].i = insn.is_float ? regs[insn.rs1].f != regs[insn.rs2].f
                                        : regs[insn.rs1].i != regs[insn.rs2].i;
        break;
      case Opcode::IntToFp:
        regs[insn.rd].f = static_cast<double>(regs[insn.rs1].i);
        break;
      case Opcode::FpToInt:
        regs[insn.rd].i = static_cast<std::int64_t>(regs[insn.rs1].f);
        break;
      case Opcode::LoadAddr:
        if (insn.label >= 0) {
          regs[insn.rd].i = static_cast<std::int64_t>(
              global_base_[static_cast<std::size_t>(insn.label)] +
              static_cast<std::uint64_t>(insn.imm));
        } else {
          regs[insn.rd].i = static_cast<std::int64_t>(
              frame_base + static_cast<std::uint64_t>(insn.imm));
        }
        break;
      case Opcode::Load: {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(regs[insn.rs1].i + insn.mem.const_offset);
        if (event != nullptr) event->address = addr;
        if (insn.is_float) {
          regs[insn.rd].f = read_fp(addr, insn.mem.size);
        } else {
          regs[insn.rd].i = read_int(addr, insn.mem.size);
        }
        break;
      }
      case Opcode::Store: {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(regs[insn.rs1].i + insn.mem.const_offset);
        if (event != nullptr) event->address = addr;
        if (insn.is_float) {
          write_fp(addr, regs[insn.rs2].f, insn.mem.size);
        } else {
          write_int(addr, regs[insn.rs2].i, insn.mem.size);
        }
        break;
      }
      case Opcode::Call:
        do_call(insn, target, regs, ctx);
        break;
      case Opcode::Label:
      case Opcode::LoopBeg:
      case Opcode::LoopEnd:
        break;
      case Opcode::Jump:
      case Opcode::BranchZ:
      case Opcode::BranchNZ:
      case Opcode::Return:
        // Only reachable from a parallel slice, whose plan proved the
        // range straight-line; getting here means the plan is stale.
        fail("control instruction in a parallel slice");
    }
  }

  /// Straight-line executor for parallel chunks, trip counting and the
  /// post-join replays: runs [lo, hi) with no control flow except calls.
  void exec_slice(std::size_t fn, std::vector<Value>& regs, std::size_t lo,
                  std::size_t hi, std::uint64_t frame_base, ExecCtx& ctx) {
    const std::vector<Insn>& insns = prog_.functions[fn].insns;
    const std::vector<std::size_t>& target = targets_[fn];
    for (std::size_t pc = lo; pc < hi; ++pc) {
      if (++ctx.executed > ctx.hard_cap) fail("instruction budget exceeded");
      step_insn(insns[pc], target[pc], regs, frame_base, ctx, nullptr);
    }
  }

  [[nodiscard]] static const LoopPlan* find_plan(const RtlFunction& func,
                                                 std::size_t pc) {
    for (const LoopPlan& plan : func.parexec) {
      if (plan.loop_beg == pc) return &plan;
    }
    return nullptr;
  }

  /// Runs prog_.functions[fn]: the dispatch loop.
  Value call(std::size_t fn, const std::vector<Value>& args, ExecCtx& ctx) {
    const RtlFunction& func = prog_.functions[fn];
    const std::vector<std::size_t>& target = targets_[fn];
    if (++ctx.depth > options_.max_call_depth) fail("call depth exceeded");
    const std::uint64_t frame_base = ctx.stack_top;
    ctx.stack_top += (func.frame_size + 63) / 64 * 64;
    if (ctx.stack_top > ctx.stack_limit) fail("stack overflow");

    std::vector<Value> regs(static_cast<std::size_t>(func.num_regs) + 1);
    // Incoming register arguments land in the params' staging registers.
    for (std::size_t i = 0;
         i < func.param_regs.size() && i < analysis_max_reg_args(); ++i) {
      if (i < args.size()) regs[static_cast<std::size_t>(func.param_regs[i])] = args[i];
    }

    std::size_t pc = 0;
    Value ret;
    while (pc < func.insns.size()) {
      const Insn& insn = func.insns[pc];
      if (++ctx.executed > ctx.hard_cap) fail("instruction budget exceeded");

      TraceEvent event;
      event.insn = &insn;

      switch (insn.op) {
        case Opcode::Jump:
          if (sink_ != nullptr) sink_->on_insn(event);
          pc = branch_target(target[pc]);
          continue;
        case Opcode::BranchZ:
        case Opcode::BranchNZ: {
          if (sink_ != nullptr) sink_->on_insn(event);
          const bool zero = regs[insn.rs1].i == 0;
          const bool taken = insn.op == Opcode::BranchZ ? zero : !zero;
          if (taken) {
            pc = branch_target(target[pc]);
            continue;
          }
          break;
        }
        case Opcode::Call: {
          // Sink order matters: the timing models see the Call event
          // BEFORE the callee's instructions, so the case stays here
          // rather than in step_insn.
          if (sink_ != nullptr) sink_->on_insn(event);
          do_call(insn, target[pc], regs, ctx);
          ++pc;
          continue;
        }
        case Opcode::Return:
          if (sink_ != nullptr) sink_->on_insn(event);
          if (insn.rs1 != kNoReg) ret = regs[insn.rs1];
          ctx.stack_top = frame_base;
          --ctx.depth;
          return ret;
        case Opcode::LoopBeg:
          if (par_enabled_ && !ctx.is_worker && !func.parexec.empty()) {
            if (const LoopPlan* plan = find_plan(func, pc)) {
              if (run_parallel_loop(fn, *plan, regs, frame_base, ctx)) {
                pc = plan->loop_end + 1;
                continue;
              }
            }
          }
          break;
        default:
          step_insn(insn, target[pc], regs, frame_base, ctx, &event);
          break;
      }
      if (sink_ != nullptr && insn.op != Opcode::Label &&
          insn.op != Opcode::LoopBeg && insn.op != Opcode::LoopEnd) {
        sink_->on_insn(event);
      }
      ++pc;
    }
    ctx.stack_top = frame_base;
    --ctx.depth;
    return ret;
  }

  [[nodiscard]] std::size_t branch_target(std::size_t resolved) const {
    if (resolved == kNoLabel) fail("branch to an undefined label");
    return resolved;
  }

  [[nodiscard]] static Value reduction_identity(ReductionKind kind) {
    Value v;
    switch (kind) {
      case ReductionKind::Add:
      case ReductionKind::Or:
      case ReductionKind::Xor:
        v.i = 0;
        break;
      case ReductionKind::Mul:
        v.i = 1;
        break;
      case ReductionKind::And:
        v.i = -1;
        break;
    }
    return v;
  }

  static void combine_reduction(ReductionKind kind, Value& acc,
                                const Value& partial) {
    switch (kind) {
      case ReductionKind::Add: acc.i += partial.i; break;
      case ReductionKind::Mul: acc.i *= partial.i; break;
      case ReductionKind::And: acc.i &= partial.i; break;
      case ReductionKind::Or: acc.i |= partial.i; break;
      case ReductionKind::Xor: acc.i ^= partial.i; break;
    }
  }

  /// Attempts to execute the planned loop on the worker pool.  Returns
  /// false (with registers restored) when the runtime declines — short
  /// trip, tiny volume, or the projected serial cost does not fit the
  /// instruction budget (the serial path must then trap exactly where a
  /// serial run would).  On success the master's registers and counters
  /// are byte-identical to what serial execution would have produced.
  bool run_parallel_loop(std::size_t fn, const LoopPlan& plan,
                         std::vector<Value>& regs, std::uint64_t frame_base,
                         ExecCtx& ctx) {
    const RtlFunction& func = prog_.functions[fn];
    const Insn& exit_br = func.insns[plan.exit_branch];
    const Reg iv = plan.induction;
    const std::uint64_t cond_insns = plan.exit_branch - plan.cond_begin;
    const std::uint64_t body_insns = plan.body_end - plan.body_begin;
    const std::uint64_t step_insns = plan.backedge - plan.step_begin;
    const std::uint64_t per_iter = cond_insns + body_insns + step_insns + 4;
    const std::uint64_t exit_cost = cond_insns + 4;

    // Snapshot what trip counting clobbers (IV + predicate registers) so
    // a serial fallback resumes from an untouched state.
    std::vector<std::pair<Reg, Value>> snapshot;
    snapshot.emplace_back(iv, regs[iv]);
    for (std::size_t p = plan.cond_begin; p < plan.exit_branch; ++p) {
      const Reg rd = func.insns[p].rd;
      if (rd != kNoReg) snapshot.emplace_back(rd, regs[rd]);
    }
    const auto restore = [&] {
      for (auto it = snapshot.rbegin(); it != snapshot.rend(); ++it) {
        regs[it->first] = it->second;
      }
    };
    const auto decline = [&] {
      restore();
      ++stats_.serial_fallbacks;
      return false;
    };

    // Trip counting: the predicate slice reads only the IV, registers the
    // slice itself defines, and loop invariants (the planner rejected
    // everything else), so evaluating it for iv0, iv0+step, ... BEFORE
    // any body runs reproduces the serial predicate sequence exactly.
    const std::int64_t iv0 = regs[iv].i;
    ExecCtx scratch;
    scratch.hard_cap = UINT64_MAX;
    const std::uint64_t remaining =
        options_.max_insns > ctx.executed ? options_.max_insns - ctx.executed
                                          : 0;
    const std::uint64_t max_rounds = remaining / per_iter + 2;
    std::uint64_t trips = 0;
    for (;;) {
      regs[iv].i = iv0 + static_cast<std::int64_t>(trips) * plan.step;
      exec_slice(fn, regs, plan.cond_begin, plan.exit_branch, frame_base,
                 scratch);
      const bool zero = regs[exit_br.rs1].i == 0;
      const bool taken = exit_br.op == Opcode::BranchZ ? zero : !zero;
      if (taken) break;
      if (++trips > max_rounds) return decline();  // Serial would trap.
    }

    if (trips < 2) return decline();
    if (trips * (cond_insns + body_insns) < options_.min_par_insns) {
      return decline();
    }
    if (ctx.executed + trips * per_iter + exit_cost > options_.max_insns) {
      return decline();  // Serial trips the budget mid-loop; reproduce it.
    }
    const std::vector<parexec::Chunk> chunks = parexec::plan_chunks(
        trips, options_.exec_threads, plan.doall ? 0 : plan.distance);
    if (chunks.size() < 2) return decline();

    // -- Committed to parallel execution. -------------------------------
    if (pool_ == nullptr) {
      pool_ = std::make_unique<parexec::WorkerPool>(options_.exec_threads);
    }
    parexec::ProgressBoard board(chunks);
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::uint64_t> par_total{0};
    const std::uint64_t base_executed = ctx.executed;
    std::vector<std::uint64_t> chunk_insns(chunks.size(), 0);
    std::vector<std::vector<Value>> chunk_partials(
        chunks.size(), std::vector<Value>(plan.reductions.size()));
    std::vector<Value> last_regs;

    const auto work = [&](unsigned lane) {
      ExecCtx wctx;
      wctx.is_worker = true;
      wctx.depth = ctx.depth;
      wctx.hard_cap = options_.max_insns;
      if (lane == 0) {
        wctx.stack_top = ctx.stack_top;
        wctx.stack_limit = master_limit_;
      } else {
        wctx.stack_top = memory_.size() -
                         (options_.exec_threads - lane) * worker_stack_size_;
        wctx.stack_limit = wctx.stack_top + worker_stack_size_;
      }
      std::uint64_t flushed = 0;
      const auto flush_budget = [&] {
        const std::uint64_t delta = wctx.executed - flushed;
        flushed = wctx.executed;
        if (base_executed + par_total.fetch_add(delta) + delta >
            options_.max_insns) {
          board.abort();
          fail("instruction budget exceeded");
        }
      };
      std::vector<Value> wregs;
      for (;;) {
        const std::size_t c = next_chunk.fetch_add(1);
        if (c >= chunks.size() || board.aborted()) break;
        const parexec::Chunk chunk = chunks[c];
        const std::uint64_t before = wctx.executed;
        // Fresh private registers per chunk.  Every loop-defined register
        // is re-defined before its first read inside an iteration (the
        // planner rejected cross-iteration register flow), so the master
        // snapshot is a valid starting state for ANY iteration.
        wregs = regs;
        for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
          wregs[plan.reductions[k].reg] =
              reduction_identity(plan.reductions[k].kind);
        }
        for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
          if (!plan.doall) {
            // Post-wait on the proven distance: everything at or before
            // i - d must be complete.  A source inside this chunk is
            // already ordered by sequential execution — sync elided.
            const std::int64_t j =
                static_cast<std::int64_t>(i) - plan.distance;
            if (j >= 0 && static_cast<std::uint64_t>(j) < chunk.begin) {
              if (!board.wait_for_prefix(static_cast<std::uint64_t>(j))) {
                return;  // Aborted elsewhere; that lane carries the error.
              }
            }
          }
          wregs[iv].i = iv0 + static_cast<std::int64_t>(i) * plan.step;
          exec_slice(fn, wregs, plan.cond_begin, plan.exit_branch,
                     frame_base, wctx);
          exec_slice(fn, wregs, plan.body_begin, plan.body_end, frame_base,
                     wctx);
          if (!plan.doall) board.publish(c, i - chunk.begin + 1);
          if (wctx.executed - flushed >= 65536) flush_budget();
        }
        flush_budget();
        chunk_insns[c] = wctx.executed - before;
        for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
          chunk_partials[c][k] = wregs[plan.reductions[k].reg];
        }
        if (c + 1 == chunks.size()) last_regs = std::move(wregs);
      }
    };
    const std::function<void(unsigned)> job = [&](unsigned lane) {
      try {
        work(lane);
      } catch (...) {
        board.abort();  // Wake post-waiters so the pool can join.
        throw;
      }
    };
    // Reduction initial values (untouched by trip counting: they live in
    // the body) are folded below, in chunk order — integer ops only, so
    // the result equals the serial left fold exactly.
    std::vector<Value> red_init(plan.reductions.size());
    for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
      red_init[k] = regs[plan.reductions[k].reg];
    }
    try {
      pool_->run(job);
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()).find("instruction budget exceeded") !=
          std::string::npos) {
        ctx.executed = options_.max_insns + 1;  // Serial's trap count.
      }
      throw;
    }

    // -- Join: reconstruct the exact serial end-of-loop state. ----------
    std::uint64_t workers_total = 0;
    for (const std::uint64_t n : chunk_insns) workers_total += n;
    ctx.executed += workers_total +
                    trips * (step_insns + 4) +  // Skipped notes/step/jump.
                    exit_cost;                  // Final predicate round.
    if (ctx.executed > options_.max_insns) {
      // Callee work pushed the real total past the budget after all; a
      // serial run would have trapped mid-loop.
      ctx.executed = options_.max_insns + 1;
      fail("instruction budget exceeded");
    }
    // Last iteration's values for every register the loop defines...
    for (const std::int32_t r : plan.iter_defs) regs[r] = last_regs[r];
    // ...reductions folded over the chunk partials in chunk order...
    for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
      Value acc = red_init[k];
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        combine_reduction(plan.reductions[k].kind, acc, chunk_partials[c][k]);
      }
      regs[plan.reductions[k].reg] = acc;
    }
    // ...then the last step round (scratch + IV) and the exit predicate
    // round, replayed in place.  Both slices are already accounted for in
    // the structural counts above, so the replays run uncounted.
    ExecCtx replay;
    replay.hard_cap = UINT64_MAX;
    regs[iv].i = iv0 + static_cast<std::int64_t>(trips - 1) * plan.step;
    exec_slice(fn, regs, plan.step_begin, plan.backedge, frame_base, replay);
    exec_slice(fn, regs, plan.cond_begin, plan.exit_branch, frame_base,
               replay);

    if (dispatched_.insert(&plan).second) ++stats_.loops_parallelized;
    ++stats_.invocations;
    stats_.chunks += chunks.size();
    stats_.par_iterations += trips;
    stats_.par_insns += workers_total;
    if (!plan.doall) stats_.ordered_insns += workers_total;
    if (!plan.doall) {
      const parexec::SyncCounts sync =
          parexec::structural_sync_counts(chunks, plan.distance);
      stats_.sync_waits += sync.waits;
      stats_.sync_elided += sync.elided;
    }
    return true;
  }

  static constexpr std::size_t analysis_max_reg_args() { return 4; }

  const RtlProgram& prog_;
  TraceSink* sink_;
  InterpOptions options_;
  Arena memory_;
  std::vector<std::uint64_t> global_base_;
  std::uint64_t stack_base_ = 0;
  std::uint64_t master_limit_ = 0;
  std::uint64_t worker_stack_size_ = 0;
  bool par_enabled_ = false;
  /// Per function, per instruction: the resolved target (resolve_targets).
  std::vector<std::vector<std::size_t>> targets_;
  std::uint64_t output_hash_ = 1469598103934665603ull;
  std::uint64_t emit_count_ = 0;
  ParexecStats stats_;
  std::unordered_set<const LoopPlan*> dispatched_;
  std::unique_ptr<parexec::WorkerPool> pool_;
};

}  // namespace

RunResult run_program(const RtlProgram& prog, const std::string& entry,
                      TraceSink* sink, const InterpOptions& options) {
  Interp interp(prog, sink, options);
  return interp.run(entry);
}

}  // namespace hli::backend
