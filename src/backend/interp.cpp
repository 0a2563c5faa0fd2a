#include "backend/interp.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "backend/parexec/pool.hpp"
#include "backend/parexec/runtime.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {

/// Every ParexecStats field, added to the telemetry counter of the same
/// name at the end of each run.
const std::pair<telemetry::Counter, std::uint64_t ParexecStats::*>
    kParCounters[] = {
        {telemetry::counter("parexec.loops_parallelized"),
         &ParexecStats::loops_parallelized},
        {telemetry::counter("parexec.invocations"), &ParexecStats::invocations},
        {telemetry::counter("parexec.chunks"), &ParexecStats::chunks},
        {telemetry::counter("parexec.par_iterations"),
         &ParexecStats::par_iterations},
        {telemetry::counter("parexec.par_insns"), &ParexecStats::par_insns},
        {telemetry::counter("parexec.ordered_insns"),
         &ParexecStats::ordered_insns},
        {telemetry::counter("parexec.sync_waits"), &ParexecStats::sync_waits},
        {telemetry::counter("parexec.sync_elided"), &ParexecStats::sync_elided},
        {telemetry::counter("parexec.serial_fallbacks"),
         &ParexecStats::serial_fallbacks},
        {telemetry::counter("parexec.cost_declines"),
         &ParexecStats::cost_declines},
};

/// A register.  Not a union: a register written as one type and read as
/// the other keeps the other's last value, and programs rely on it.
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
  [[nodiscard]] std::uint8_t* data() const { return data_; }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Whether [addr, addr + width) is a valid access.  Written so that no
/// sum can wrap: addr + width overflows for an address just below 2^64.
[[nodiscard]] bool in_arena(std::uint64_t addr, std::uint64_t width,
                            std::uint64_t size) {
  return addr != 0 && width <= size && addr <= size - width;
}

/// The decoded instruction set.  Each RTL opcode whose behaviour depends
/// on `is_float` or on the access width becomes one kind per variant, so
/// the dispatch loop tests neither.  Typed pairs are laid out I, F (all
/// of them up to NeF), and memory kinds I4, F4, I, F ("I"/"F" access 8
/// bytes), so decode picks a variant by offset.
enum class Kind : std::uint8_t {
  ImmI, ImmF, AddI, AddF, SubI, SubF, MulI, MulF, DivI, DivF, NegI, NegF,
  LtI, LtF, LeI, LeF, GtI, GtF, GeI, GeF, EqI, EqF, NeI, NeF,
  Nop,      ///< Label, LoopEnd, and a LoopBeg without a dispatchable plan.
  ParLoop,  ///< LoopBeg of a planned loop; target is the plan's index.
  Move, Rem, And, Or, Xor, Not, Shl, Shr, IntToFp, FpToInt,
  FrameAddr,  ///< rd = frame base + imm.  A global's address is an ImmI.
  BadGlobal,  ///< Address of a global the program does not define.
  LoadI4, LoadF4, LoadI, LoadF,
  StoreI4, StoreF4, StoreI, StoreF,
  Jump, BranchZ, BranchNZ,
  Call,    ///< target is the callee's function index.
  Extern,  ///< target is a Builtin.
  Return,
};

/// The kind each Opcode decodes to, in Opcode order, before decode adds
/// the is_float and width offsets.
constexpr Kind kKindOf[] = {
    Kind::ImmI, Kind::Move, Kind::AddI, Kind::SubI, Kind::MulI, Kind::DivI,
    Kind::Rem, Kind::NegI, Kind::And, Kind::Or, Kind::Xor, Kind::Not,
    Kind::Shl, Kind::Shr, Kind::LtI, Kind::LeI, Kind::GtI, Kind::GeI,
    Kind::EqI, Kind::NeI, Kind::IntToFp, Kind::FpToInt, Kind::FrameAddr,
    Kind::LoadI4, Kind::StoreI4, Kind::Nop, Kind::Jump, Kind::BranchZ,
    Kind::BranchNZ, Kind::Call, Kind::Return, Kind::Nop, Kind::Nop,
};
static_assert(std::size(kKindOf) == static_cast<std::size_t>(Opcode::LoopEnd) + 1);

/// Built-in externs: math plus the emit() observation sinks, named by
/// kBuiltinNames.  A call to any other undefined function decodes to
/// Unknown and traps only when executed.
enum class Builtin : std::uint32_t {
  Sqrt, Fabs, Sin, Cos, Exp, Log, Pow, Floor, Ceil, Atan, Emit, Emitd, Unknown,
};
constexpr std::string_view kBuiltinNames[] = {
    "sqrt", "fabs", "sin", "cos", "exp", "log",
    "pow", "floor", "ceil", "atan", "emit", "emitd",
};

/// A branch whose label the function does not define.
constexpr std::uint32_t kNoTarget = UINT32_MAX;

/// One decoded instruction.  The op stream of a function is indexed 1:1
/// with its insns, so plan positions and branch targets index both.
struct Op {
  Kind kind = Kind::Nop;
  Reg rd = kNoReg;
  Reg rs1 = kNoReg;
  Reg rs2 = kNoReg;
  /// Branch pc, callee index, Builtin or plan index, by kind.
  std::uint32_t target = kNoTarget;
  /// The immediate, a memory reference's const_offset, a frame offset,
  /// or a global's address, by kind.
  union {
    std::int64_t i;
    double f;
  } imm{0};
};
static_assert(sizeof(Op) <= 32);

/// RTL integers wrap, as the machine's do: + - * run on uint64_t, where
/// C++ signed overflow would be undefined.
[[nodiscard]] std::uint64_t u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }
[[nodiscard]] std::int64_t s64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

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
        const auto v = static_cast<std::int32_t>(g.init_int[0]);
        init_global(at, &v, 4);
      } else if (!g.init_fp.empty()) {
        init_global(at, &g.init_fp[0], 8);
      }
      at += (g.size + 7) / 8 * 8;
    }
    stack_base_ = (at + 63) / 64 * 64;
    master_limit_ = memory_.size();
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
    decode();
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
    const auto fn = static_cast<std::size_t>(func - prog_.functions.data());
    ExecCtx ctx;
    ctx.stack_top = stack_base_;
    ctx.stack_limit = master_limit_;
    ctx.hard_cap = options_.max_insns;
    try {
      const Value ret = sink_ != nullptr ? call<true>(fn, nullptr, {}, ctx)
                                         : call<false>(fn, nullptr, {}, ctx);
      result.return_value = ret.i;
      result.ok = true;
    } catch (const std::runtime_error& e) {
      result.error = e.what();
    }
    result.dynamic_insns = ctx.executed;
    result.output_hash = output_hash_;
    result.emit_count = emit_count_;
    result.parexec = stats_;
    for (const auto& [counter, field] : kParCounters) counter.add(stats_.*field);
    return result;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("interp: " + message);
  }

  /// fail() from the dispatch loop, which keeps its count in a local.
  [[noreturn]] void trap(ExecCtx& ctx, std::uint64_t executed,
                         const std::string& message) const {
    ctx.executed = executed;
    fail(message);
  }

  void init_global(std::uint64_t addr, const void* bytes, std::size_t n) {
    if (!in_arena(addr, n, memory_.size())) {
      fail("memory access out of range at " + std::to_string(addr));
    }
    std::memcpy(memory_.data() + addr, bytes, n);
  }

  /// Decodes every function into its op stream, once per run: branch
  /// targets become pcs, callees function indices or Builtins, global
  /// addresses constants, and the LoopBeg of each planned loop a ParLoop
  /// when this run may dispatch.
  void decode() {
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t f = 0; f < prog_.functions.size(); ++f) {
      index.emplace(prog_.functions[f].name, f);  // First wins, as lookup.
    }
    code_.resize(prog_.functions.size());
    for (std::size_t f = 0; f < prog_.functions.size(); ++f) {
      const RtlFunction& func = prog_.functions[f];
      std::unordered_map<std::int32_t, std::uint32_t> labels;
      for (std::size_t pc = 0; pc < func.insns.size(); ++pc) {
        if (func.insns[pc].op == Opcode::Label) {
          labels.emplace(func.insns[pc].label, static_cast<std::uint32_t>(pc));
        }
      }
      std::vector<Op>& ops = code_[f];
      ops.reserve(func.insns.size());
      for (const Insn& insn : func.insns) {
        ops.push_back(decode_insn(insn, labels, index));
      }
      for (std::size_t p = 0; par_enabled_ && p < func.parexec.size(); ++p) {
        const std::uint32_t pc = func.parexec[p].loop_beg;
        if (pc < ops.size() && func.insns[pc].op == Opcode::LoopBeg &&
            ops[pc].kind == Kind::Nop) {  // First plan wins, as lookup.
          ops[pc].kind = Kind::ParLoop;
          ops[pc].target = static_cast<std::uint32_t>(p);
        }
      }
    }
  }

  [[nodiscard]] Op decode_insn(
      const Insn& insn,
      const std::unordered_map<std::int32_t, std::uint32_t>& labels,
      const std::unordered_map<std::string, std::size_t>& index) const {
    Op op;
    op.rd = insn.rd;
    op.rs1 = insn.rs1;
    op.rs2 = insn.rs2;
    const Kind kind = kKindOf[static_cast<std::size_t>(insn.op)];
    int variant = kind <= Kind::NeF ? insn.is_float : 0;
    op.imm.i = insn.imm;
    if (insn.op == Opcode::LoadImm && insn.is_float) op.imm.f = insn.fimm;
    if (is_memory_op(insn.op)) {
      variant = insn.is_float + (insn.mem.size == 4 ? 0 : 2);
      op.imm.i = insn.mem.const_offset;
    }
    op.kind = static_cast<Kind>(static_cast<int>(kind) + variant);
    switch (kind) {
      case Kind::FrameAddr: {  // LoadAddr: a frame slot, or a global.
        const auto global = static_cast<std::size_t>(insn.label);
        if (insn.label < 0) break;
        op.kind = global < global_base_.size() ? Kind::ImmI : Kind::BadGlobal;
        if (op.kind == Kind::ImmI) op.imm.i = s64(global_base_[global] + u64(insn.imm));
        break;
      }
      case Kind::Jump:
      case Kind::BranchZ:
      case Kind::BranchNZ:
        if (const auto it = labels.find(insn.label); it != labels.end()) {
          op.target = it->second;
        }
        break;
      case Kind::Call:
        if (const auto it = index.find(insn.callee); it != index.end()) {
          op.target = static_cast<std::uint32_t>(it->second);
        } else {
          op.kind = Kind::Extern;
          op.target = static_cast<std::uint32_t>(
              std::find(std::begin(kBuiltinNames), std::end(kBuiltinNames),
                        insn.callee) -
              std::begin(kBuiltinNames));
        }
        break;
      default:
        break;
    }
    return op;
  }

  /// Runs prog_.functions[fn] on a fresh register file and frame.
  /// `args` name registers of the caller's file `caller`.
  template <bool kTraced>
  Value call(std::size_t fn, const Value* caller, const std::vector<Reg>& args,
             ExecCtx& ctx) {
    const RtlFunction& func = prog_.functions[fn];
    if (++ctx.depth > options_.max_call_depth) fail("call depth exceeded");
    const std::uint64_t frame_base = ctx.stack_top;
    ctx.stack_top += (func.frame_size + 63) / 64 * 64;
    if (ctx.stack_top > ctx.stack_limit) fail("stack overflow");

    std::vector<Value> regs(static_cast<std::size_t>(func.num_regs) + 1);
    // Incoming register arguments land in the params' staging registers.
    const std::size_t n =
        std::min({func.param_regs.size(), args.size(), kMaxRegArgs});
    for (std::size_t i = 0; i < n; ++i) {
      regs[static_cast<std::size_t>(func.param_regs[i])] = caller[args[i]];
    }
    const Value ret = exec<kTraced, false>(fn, regs.data(), 0,
                                           func.insns.size(), frame_base, ctx);
    ctx.stack_top = frame_base;
    --ctx.depth;
    return ret;
  }

  /// Runs the built-in `builtin` for the Call `insn` over registers `r`.
  Value call_builtin(Builtin builtin, const Insn& insn, const Value* r,
                     const ExecCtx& ctx) {
    const auto arg = [&](std::size_t k) {
      return k < insn.args.size() ? r[insn.args[k]] : Value{};
    };
    Value out;
    switch (builtin) {
      case Builtin::Sqrt: out.f = std::sqrt(arg(0).f); break;
      case Builtin::Fabs: out.f = std::fabs(arg(0).f); break;
      case Builtin::Sin: out.f = std::sin(arg(0).f); break;
      case Builtin::Cos: out.f = std::cos(arg(0).f); break;
      case Builtin::Exp: out.f = std::exp(arg(0).f); break;
      case Builtin::Log: out.f = std::log(arg(0).f); break;
      case Builtin::Pow: out.f = std::pow(arg(0).f, arg(1).f); break;
      case Builtin::Floor: out.f = std::floor(arg(0).f); break;
      case Builtin::Ceil: out.f = std::ceil(arg(0).f); break;
      case Builtin::Atan: out.f = std::atan(arg(0).f); break;
      case Builtin::Emit:
      case Builtin::Emitd: {
        // The planner proves loop bodies IO-free before parallelizing, so
        // a worker can never reach the output sinks; the guard keeps a
        // planner bug from silently racing on the output hash.
        if (ctx.is_worker) fail("emit from a parallel worker");
        const std::uint64_t bits = builtin == Builtin::Emit
                                       ? static_cast<std::uint64_t>(arg(0).i)
                                       : std::bit_cast<std::uint64_t>(arg(0).f);
        output_hash_ = output_hash_ * 1099511628211ull ^ bits;
        ++emit_count_;
        break;
      }
      case Builtin::Unknown:
        fail("call to unknown extern '" + insn.callee + "'");
    }
    return out;
  }

  /// The dispatch loop: runs ops [pc, end) of function fn over registers
  /// `r` and returns the function's return value (zero when control
  /// falls off the end).  kSlice runs a planned loop's straight-line
  /// range (trip counting, chunks, join replays): there a control
  /// instruction traps and a LoopBeg is inert.  kTraced reports each
  /// executed instruction to sink_ (labels and loop notes excepted).
  template <bool kTraced, bool kSlice>
  Value exec(std::size_t fn, Value* r, std::size_t pc, std::size_t end,
             std::uint64_t frame_base, ExecCtx& ctx) {
    const Op* const ops = code_[fn].data();
    const Insn* const insns = prog_.functions[fn].insns.data();
    // Locals, not members: an arena store is a char store, which may
    // alias any member, so each member would be reloaded after it.
    std::uint8_t* const mem = memory_.data();
    const std::uint64_t mem_size = memory_.size();
    std::uint64_t executed = ctx.executed;
    const std::uint64_t cap = ctx.hard_cap;
    TraceEvent event;
    // Bounds-checks a `width`-byte access at op's address and returns its
    // byte in the arena; the trace event records the address.
    const auto address = [&](const Op& op, std::uint64_t width) {
      const std::uint64_t addr = u64(r[op.rs1].i) + u64(op.imm.i);
      if (!in_arena(addr, width, mem_size)) {
        trap(ctx, executed,
             "memory access out of range at " + std::to_string(addr));
      }
      event.address = addr;
      return mem + addr;
    };
    const auto load = [&](const Op& op, auto value) {
      std::memcpy(&value, address(op, sizeof value), sizeof value);
      return value;
    };
    const auto store = [&](const Op& op, auto value) {
      std::memcpy(address(op, sizeof value), &value, sizeof value);
    };
    const auto jump = [&](const Op& op) -> std::size_t {
      if (op.target == kNoTarget) trap(ctx, executed, "branch to an undefined label");
      return op.target;
    };
    const auto control = [&] {
      // Only reachable from a parallel slice, whose plan proved the
      // range straight-line; getting here means the plan is stale.
      trap(ctx, executed, "control instruction in a parallel slice");
    };

    while (pc < end) {
      const Op& op = ops[pc];
      if (++executed > cap) trap(ctx, executed, "instruction budget exceeded");
      if constexpr (kTraced) event = TraceEvent{&insns[pc], 0};
      switch (op.kind) {
        case Kind::Nop: ++pc; continue;
        case Kind::ParLoop:
          if (!kSlice && !ctx.is_worker) {
            const LoopPlan& plan = prog_.functions[fn].parexec[op.target];
            ctx.executed = executed;
            const bool ran = run_parallel_loop(fn, plan, r, frame_base, ctx);
            executed = ctx.executed;
            pc = ran ? plan.loop_end + 1 : pc + 1;
            continue;
          }
          ++pc;
          continue;
        case Kind::ImmI: r[op.rd].i = op.imm.i; break;
        case Kind::ImmF: r[op.rd].f = op.imm.f; break;
        case Kind::Move: r[op.rd] = r[op.rs1]; break;
        case Kind::AddI: r[op.rd].i = s64(u64(r[op.rs1].i) + u64(r[op.rs2].i)); break;
        case Kind::AddF: r[op.rd].f = r[op.rs1].f + r[op.rs2].f; break;
        case Kind::SubI: r[op.rd].i = s64(u64(r[op.rs1].i) - u64(r[op.rs2].i)); break;
        case Kind::SubF: r[op.rd].f = r[op.rs1].f - r[op.rs2].f; break;
        case Kind::MulI: r[op.rd].i = s64(u64(r[op.rs1].i) * u64(r[op.rs2].i)); break;
        case Kind::MulF: r[op.rd].f = r[op.rs1].f * r[op.rs2].f; break;
        case Kind::DivI:
          if (r[op.rs2].i == 0) trap(ctx, executed, "integer division by zero");
          r[op.rd].i = r[op.rs1].i / r[op.rs2].i;
          break;
        case Kind::DivF: r[op.rd].f = r[op.rs1].f / r[op.rs2].f; break;
        case Kind::NegI: r[op.rd].i = s64(0 - u64(r[op.rs1].i)); break;
        case Kind::NegF: r[op.rd].f = -r[op.rs1].f; break;
        case Kind::LtI: r[op.rd].i = r[op.rs1].i < r[op.rs2].i; break;
        case Kind::LtF: r[op.rd].i = r[op.rs1].f < r[op.rs2].f; break;
        case Kind::LeI: r[op.rd].i = r[op.rs1].i <= r[op.rs2].i; break;
        case Kind::LeF: r[op.rd].i = r[op.rs1].f <= r[op.rs2].f; break;
        case Kind::GtI: r[op.rd].i = r[op.rs1].i > r[op.rs2].i; break;
        case Kind::GtF: r[op.rd].i = r[op.rs1].f > r[op.rs2].f; break;
        case Kind::GeI: r[op.rd].i = r[op.rs1].i >= r[op.rs2].i; break;
        case Kind::GeF: r[op.rd].i = r[op.rs1].f >= r[op.rs2].f; break;
        case Kind::EqI: r[op.rd].i = r[op.rs1].i == r[op.rs2].i; break;
        case Kind::EqF: r[op.rd].i = r[op.rs1].f == r[op.rs2].f; break;
        case Kind::NeI: r[op.rd].i = r[op.rs1].i != r[op.rs2].i; break;
        case Kind::NeF: r[op.rd].i = r[op.rs1].f != r[op.rs2].f; break;
        case Kind::Rem:
          if (r[op.rs2].i == 0) trap(ctx, executed, "integer remainder by zero");
          r[op.rd].i = r[op.rs1].i % r[op.rs2].i;
          break;
        case Kind::And: r[op.rd].i = r[op.rs1].i & r[op.rs2].i; break;
        case Kind::Or: r[op.rd].i = r[op.rs1].i | r[op.rs2].i; break;
        case Kind::Xor: r[op.rd].i = r[op.rs1].i ^ r[op.rs2].i; break;
        case Kind::Not: r[op.rd].i = r[op.rs1].i == 0 ? 1 : 0; break;
        case Kind::Shl: r[op.rd].i = r[op.rs1].i << (r[op.rs2].i & 63); break;
        case Kind::Shr: r[op.rd].i = r[op.rs1].i >> (r[op.rs2].i & 63); break;
        case Kind::IntToFp: r[op.rd].f = static_cast<double>(r[op.rs1].i); break;
        case Kind::FpToInt: r[op.rd].i = static_cast<std::int64_t>(r[op.rs1].f); break;
        case Kind::FrameAddr: r[op.rd].i = s64(frame_base + u64(op.imm.i)); break;
        case Kind::BadGlobal:
          trap(ctx, executed, "address of an undefined global");
        case Kind::LoadI4: r[op.rd].i = load(op, std::int32_t{}); break;
        case Kind::LoadF4: r[op.rd].f = load(op, float{}); break;
        case Kind::LoadI: r[op.rd].i = load(op, std::int64_t{}); break;
        case Kind::LoadF: r[op.rd].f = load(op, double{}); break;
        case Kind::StoreI4:
          store(op, static_cast<std::int32_t>(r[op.rs2].i));
          break;
        case Kind::StoreF4: store(op, static_cast<float>(r[op.rs2].f)); break;
        case Kind::StoreI: store(op, r[op.rs2].i); break;
        case Kind::StoreF: store(op, r[op.rs2].f); break;
        case Kind::Jump:
          if constexpr (kSlice) control();
          if constexpr (kTraced) sink_->on_insn(event);
          pc = jump(op);
          continue;
        case Kind::BranchZ:
        case Kind::BranchNZ:
          if constexpr (kSlice) control();
          if constexpr (kTraced) sink_->on_insn(event);
          if ((r[op.rs1].i == 0) == (op.kind == Kind::BranchZ)) {
            pc = jump(op);
            continue;
          }
          // KNOWN DEFECT, kept so the Table 2 cycle rows stay put: an
          // untaken branch falls through to the event below and so
          // reaches the sink twice (ROADMAP; DESIGN.md timing models).
          break;
        case Kind::Call:
        case Kind::Extern: {
          // The sink sees the Call before the callee's instructions.
          if constexpr (kTraced) sink_->on_insn(event);
          ctx.executed = executed;
          const Value out =
              op.kind == Kind::Call
                  ? call<kTraced>(op.target, r, insns[pc].args, ctx)
                  : call_builtin(static_cast<Builtin>(op.target), insns[pc],
                                 r, ctx);
          executed = ctx.executed;
          if (op.rd != kNoReg) r[op.rd] = out;
          ++pc;
          continue;
        }
        case Kind::Return:
          if constexpr (kSlice) control();
          if constexpr (kTraced) sink_->on_insn(event);
          ctx.executed = executed;
          return op.rs1 != kNoReg ? r[op.rs1] : Value{};
      }
      if constexpr (kTraced) sink_->on_insn(event);
      ++pc;
    }
    ctx.executed = executed;
    return Value{};
  }

  [[nodiscard]] static Value reduction_identity(ReductionKind kind) {
    return {kind == ReductionKind::Mul ? 1 : kind == ReductionKind::And ? -1 : 0};
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
  /// trip, a projected serial cost that does not fit the instruction
  /// budget (the serial path must then trap exactly where a serial run
  /// would), or a cost model that predicts no win.  On success the
  /// master's registers and counters are byte-identical to what serial
  /// execution would have produced; on a trap inside a chunk, the error
  /// and the instruction count are serial's too.
  bool run_parallel_loop(std::size_t fn, const LoopPlan& plan,
                         Value* regs, std::uint64_t frame_base,
                         ExecCtx& ctx) {
    const RtlFunction& func = prog_.functions[fn];
    const auto num_regs = static_cast<std::size_t>(func.num_regs) + 1;
    const Insn& exit_br = func.insns[plan.exit_branch];
    const Reg iv = plan.induction;
    const std::uint64_t cond_insns = plan.exit_branch - plan.cond_begin;
    const std::uint64_t body_insns = plan.body_end - plan.body_begin;
    const std::uint64_t step_insns = plan.backedge - plan.step_begin;
    // Per iteration, serial also runs Label top, the exit branch, Label
    // cont and the backedge Jump; a pure call's callee is not counted.
    const std::uint64_t per_iter = cond_insns + body_insns + step_insns + 4;
    const std::uint64_t exit_cost = cond_insns + 4;

    // Snapshot what trip counting clobbers (IV + predicate registers) so
    // a serial fallback resumes from an untouched state.
    std::vector<std::pair<Reg, Value>> snapshot;
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

    // Trip counting.  A counted loop's predicate (`iv < n` and its kin)
    // has a closed form.  Any other predicate slice reads only the IV,
    // registers the slice itself defines, and loop invariants (the
    // planner rejected everything else), so evaluating it for iv0,
    // iv0+step, ... BEFORE any body runs reproduces the serial predicate
    // sequence exactly.  A predicate that traps declines: serial then
    // traps in the same round.
    const std::int64_t iv0 = regs[iv].i;
    const std::uint64_t remaining =
        options_.max_insns > ctx.executed ? options_.max_insns - ctx.executed
                                          : 0;
    const std::uint64_t max_rounds = remaining / per_iter + 2;
    const Insn* cmp = parexec::closed_form_compare(func, plan);
    const std::optional<std::uint64_t> closed =
        cmp == nullptr ? std::nullopt
                       : parexec::closed_form_trips(cmp->op, iv0,
                                                    regs[cmp->rs2].i,
                                                    plan.step);
    std::uint64_t trips = closed.value_or(0);
    if (!closed) {
      snapshot.emplace_back(iv, regs[iv]);
      for (std::size_t p = plan.cond_begin; p < plan.exit_branch; ++p) {
        const Reg rd = func.insns[p].rd;
        if (rd != kNoReg) snapshot.emplace_back(rd, regs[rd]);
      }
      ExecCtx scratch;
      scratch.hard_cap = UINT64_MAX;
      try {
        for (;;) {
          regs[iv].i = iv0 + static_cast<std::int64_t>(trips) * plan.step;
          exec<false, true>(fn, regs, plan.cond_begin, plan.exit_branch,
                            frame_base, scratch);
          const bool zero = regs[exit_br.rs1].i == 0;
          const bool taken = exit_br.op == Opcode::BranchZ ? zero : !zero;
          if (taken) break;
          if (++trips > max_rounds) return decline();  // Serial would trap.
        }
      } catch (const std::runtime_error&) {
        return decline();
      }
    }
    if (trips > max_rounds) return decline();  // Serial would trap.

    if (trips < 2) return decline();
    if (ctx.executed + trips * per_iter + exit_cost > options_.max_insns) {
      return decline();  // Serial trips the budget mid-loop; reproduce it.
    }
    const std::int64_t distance = plan.doall ? 0 : plan.distance;
    const std::vector<parexec::Chunk> chunks =
        parexec::plan_chunks(trips, options_.exec_threads, distance);
    if (chunks.size() < 2) return decline();
    const parexec::SyncCounts sync =
        parexec::structural_sync_counts(chunks, distance);
    if (!options_.force_dispatch) {
      // last_win_ lies ahead only inside the serial run of a loop the
      // model declined, reached through a pure call; count that as parked.
      const std::uint64_t win_idle =
          ctx.executed >= last_win_ ? ctx.executed - last_win_ : UINT64_MAX;
      const parexec::CostEstimate cost = parexec::predict_dispatch(
          trips, per_iter, options_.exec_threads, chunks, distance, sync,
          {pool_ != nullptr, ctx.executed - last_join_, win_idle,
           credit_ps_});
      if (!cost.dispatch) {
        if (cost.spinning_win) {
          // A ready pool would have run this loop: bank what it would
          // have gained, and count its idle time from the loop's end.
          credit_ps_ += std::min(cost.forgone_ps, UINT64_MAX - credit_ps_);
          last_win_ = ctx.executed + trips * per_iter + exit_cost;
        }
        restore();
        ++stats_.cost_declines;
        return false;
      }
    }

    // -- Committed to parallel execution. -------------------------------
    if (pool_ == nullptr) {
      pool_ = std::make_unique<parexec::WorkerPool>(options_.exec_threads);
    }
    parexec::ProgressBoard board(chunks);
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::uint64_t> par_total{0};
    std::atomic<bool> over_budget{false};
    const std::uint64_t base_executed = ctx.executed;
    std::vector<std::uint64_t> chunk_insns(chunks.size(), 0);
    std::vector<std::vector<Value>> chunk_partials(
        chunks.size(), std::vector<Value>(plan.reductions.size()));
    std::vector<Value> last_regs;
    // A trap inside a chunk: the iteration, the chunk's instructions
    // before it and within it, and the message.  Written by the chunk's
    // lane, read after the join.
    struct Fault {
      std::uint64_t iteration = 0;
      std::uint64_t before = 0;
      std::uint64_t partial = 0;
      std::string message;
    };
    std::vector<Fault> faults(chunks.size());

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
          over_budget.store(true);
          board.abort();
        }
      };
      std::vector<Value> wregs;
      for (;;) {
        const std::size_t c = next_chunk.fetch_add(1);
        // Chunks are taken in order, so every chunk before a fault is
        // already running somewhere and runs to its end.
        if (c >= chunks.size() || !board.live(c)) break;
        const parexec::Chunk chunk = chunks[c];
        const std::uint64_t before = wctx.executed;
        // Fresh private registers per chunk.  Every loop-defined register
        // is re-defined before its first read inside an iteration (the
        // planner rejected cross-iteration register flow), so the master
        // snapshot is a valid starting state for ANY iteration.
        wregs.assign(regs, regs + num_regs);
        for (std::size_t k = 0; k < plan.reductions.size(); ++k) {
          wregs[plan.reductions[k].reg] =
              reduction_identity(plan.reductions[k].kind);
        }
        std::uint64_t i = chunk.begin;
        std::uint64_t iter_start = before;
        try {
          for (; i < chunk.end; ++i) {
            if (!plan.doall) {
              // Post-wait on the proven distance: everything at or before
              // i - d must be complete.  A source inside this chunk is
              // already ordered by sequential execution — sync elided.
              const std::int64_t j =
                  static_cast<std::int64_t>(i) - plan.distance;
              if (j >= 0 && static_cast<std::uint64_t>(j) < chunk.begin) {
                if (!board.wait_for_prefix(static_cast<std::uint64_t>(j))) {
                  return;  // An earlier chunk faulted, or the budget tripped.
                }
              }
            }
            iter_start = wctx.executed;
            wregs[iv].i = iv0 + static_cast<std::int64_t>(i) * plan.step;
            exec<false, true>(fn, wregs.data(), plan.cond_begin,
                              plan.exit_branch, frame_base, wctx);
            exec<false, true>(fn, wregs.data(), plan.body_begin,
                              plan.body_end, frame_base, wctx);
            if (!plan.doall) board.publish(c, i - chunk.begin + 1);
            if (wctx.executed - flushed >= 65536) {
              flush_budget();
              if (board.aborted()) return;
            }
          }
        } catch (const std::runtime_error& e) {
          faults[c] = {i, iter_start - before, wctx.executed - iter_start,
                       e.what()};
          board.fault(c);
          return;
        }
        flush_budget();
        if (board.aborted()) return;
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
    pool_->run(job);
    const auto budget_trap = [&] {
      ctx.executed = options_.max_insns + 1;  // Serial's trap count.
      fail("instruction budget exceeded");
    };
    if (over_budget.load()) budget_trap();
    // The earliest trap is the one a serial run reaches.  Every chunk
    // before it finished, so serial's count there is the entry count,
    // those chunks' instructions, the faulting chunk's up to the trap,
    // and the bookkeeping chunks skip: step + 4 per earlier iteration,
    // and Label top + the exit branch ahead of the faulting body.
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const Fault& f = faults[c];
      if (f.message.empty()) continue;
      std::uint64_t at = base_executed + f.before + f.partial +
                         f.iteration * (step_insns + 4) + 2;
      for (std::size_t k = 0; k < c; ++k) at += chunk_insns[k];
      if (at > options_.max_insns) budget_trap();
      ctx.executed = at;
      throw std::runtime_error(f.message);
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
    exec<false, true>(fn, regs, plan.step_begin, plan.backedge, frame_base,
                      replay);
    exec<false, true>(fn, regs, plan.cond_begin, plan.exit_branch, frame_base,
                      replay);

    last_join_ = last_win_ = ctx.executed;
    credit_ps_ = 0;
    if (dispatched_.insert(&plan).second) ++stats_.loops_parallelized;
    ++stats_.invocations;
    stats_.chunks += chunks.size();
    stats_.par_iterations += trips;
    stats_.par_insns += workers_total;
    if (!plan.doall) stats_.ordered_insns += workers_total;
    stats_.sync_waits += sync.waits;
    stats_.sync_elided += sync.elided;
    return true;
  }

  static constexpr std::size_t kMaxRegArgs = 4;

  const RtlProgram& prog_;
  TraceSink* sink_;
  InterpOptions options_;
  Arena memory_;
  std::vector<std::uint64_t> global_base_;
  std::uint64_t stack_base_ = 0;
  std::uint64_t master_limit_ = 0;
  std::uint64_t worker_stack_size_ = 0;
  bool par_enabled_ = false;
  /// Per function, the decoded op stream (decode).
  std::vector<std::vector<Op>> code_;
  std::uint64_t output_hash_ = 1469598103934665603ull;
  std::uint64_t emit_count_ = 0;
  ParexecStats stats_;
  std::unordered_set<const LoopPlan*> dispatched_;
  std::unique_ptr<parexec::WorkerPool> pool_;
  /// The cost model's view of the pool (parexec::PoolState): the
  /// instruction count at which the pool last finished a loop, the same
  /// counting loops it would have won on, and the gains passed up since.
  std::uint64_t last_join_ = 0;
  std::uint64_t last_win_ = 0;
  std::uint64_t credit_ps_ = 0;
};

}  // namespace

RunResult run_program(const RtlProgram& prog, const std::string& entry,
                      TraceSink* sink, const InterpOptions& options) {
  Interp interp(prog, sink, options);
  return interp.run(entry);
}

}  // namespace hli::backend
