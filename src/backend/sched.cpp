#include "backend/sched.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "backend/gcc_alias.hpp"
#include "backend/hli_pairs.hpp"
#include "support/telemetry.hpp"

namespace hli::backend {

namespace {

const telemetry::Counter c_mem_queries = telemetry::counter("sched.mem_queries");
const telemetry::Counter c_gcc_yes = telemetry::counter("sched.gcc_yes");
const telemetry::Counter c_hli_yes = telemetry::counter("sched.hli_yes");
const telemetry::Counter c_combined_yes =
    telemetry::counter("sched.combined_yes");
const telemetry::Counter c_ddg_edges_pruned =
    telemetry::counter("sched.ddg_edges_pruned");
const telemetry::Counter c_call_queries =
    telemetry::counter("sched.call_queries");
const telemetry::Counter c_call_edges_pruned =
    telemetry::counter("sched.call_edges_pruned");
const telemetry::Counter c_blocks = telemetry::counter("sched.blocks");
const telemetry::Counter c_insns_scheduled =
    telemetry::counter("sched.insns_scheduled");
const telemetry::Counter c_hli_answers =
    telemetry::counter("query.hli_answers");
const telemetry::Counter c_native_fallbacks =
    telemetry::counter("query.native_fallbacks");

/// One scheduling region: a maximal run of schedulable instructions.
struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< Exclusive.
};

/// Calls `fn(i)` for every bit i set in words [0, n) of `row`, ascending.
template <typename Fn>
void for_each_bit(const std::uint64_t* row, std::size_t n, Fn&& fn) {
  for (std::size_t w = 0; w < n; ++w) {
    for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// Set bits of `x`, short-cut when it equals `of`, whose count is known
/// (the rows are mostly all-or-nothing against the eligible row).  The
/// count is the SWAR form, which compiles to plain ALU operations where
/// std::popcount would call a library routine on a baseline x86-64
/// target.
std::uint64_t ones(std::uint64_t x, std::uint64_t of, std::uint64_t of_ones) {
  if (x == of) return of_ones;
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
}

[[nodiscard]] bool test(const std::vector<std::uint64_t>& row, std::size_t i) {
  return ((row[i >> 6] >> (i & 63)) & 1u) != 0;
}

/// Grows `v` to at least `n` elements; a vector never shrinks, so a block
/// after a larger one does not value-initialize storage again.
template <typename T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Per-thread storage for block DDG construction and list scheduling,
/// kept across blocks, functions and passes: a block allocates only when
/// it outgrows every block the thread scheduled before.
struct SchedArena {
  static constexpr std::uint32_t kNone = UINT32_MAX;

  // The block's memory ops and calls, its "accesses", are numbered in
  // order.  Every bit row is indexed by access number, so a row is as
  // wide as the block has accesses, not instructions.
  std::vector<std::uint32_t> before;    ///< Per position: accesses before it.
  std::vector<std::uint32_t> position;  ///< Per access.
  std::vector<std::uint64_t> mems;      ///< Memory ops.
  std::vector<std::uint64_t> stores;
  std::vector<std::uint64_t> loads;
  std::vector<std::uint64_t> calls;
  std::vector<std::uint64_t> itemized;  ///< Accesses with an HLI item.
  std::vector<format::ItemId> item;     ///< Per access.
  std::vector<std::uint32_t> slot;      ///< Per access: the item's slot.
  std::vector<format::ItemId> mem_items;   ///< Of the memory ops, in order.
  std::vector<format::ItemId> call_items;  ///< Of the calls, in order.
  GccConflictRows gcc;
  HliPairs pairs{nullptr, false};

  // Rows of the current j.
  std::vector<std::uint64_t> skip;      ///< Register-dependent to j.
  std::vector<std::uint64_t> eligible;  ///< Candidates the phase asks.
  std::vector<std::uint64_t> asked;     ///< Those the HLI answers.
  std::vector<std::uint64_t> gcc_row;
  std::vector<std::uint64_t> hli_row;
  std::vector<std::uint64_t> mod;
  std::vector<std::uint64_t> touch;
  std::vector<std::uint64_t> dep;       ///< Memory and call edges into j.

  // Per-register tables under block-local dense ids: `reg_id` maps a Reg
  // to its id (kNone when the block has not named it), `regs` lists the
  // Regs in id order so the ids can be reset at block end.  A register's
  // rows are allocated when an access first names it (`rows` is kNone
  // until then).
  std::vector<std::uint32_t> reg_id;
  std::vector<Reg> regs;
  std::vector<std::uint32_t> read_ids;  ///< Of the registers j reads.
  std::vector<std::uint32_t> rows;                      ///< Per id.
  std::vector<std::uint32_t> last_writer;               ///< Per id.
  std::vector<std::vector<std::uint32_t>> reads_since;  ///< Per id.
  std::vector<std::uint64_t> writers;  ///< Row: every earlier defining access.
  std::vector<std::uint64_t> readers;  ///< Row: every earlier reading access.

  // The graph.  Every edge into j is linked while j is visited, so the
  // predecessor lists are contiguous: j's are pred[pred_begin[j] ..
  // pred_begin[j + 1]).  `reach` holds one row per position: the accesses
  // among its ancestors through the kept edges.
  std::vector<std::uint32_t> pred_begin;
  std::vector<std::uint32_t> pred;
  std::vector<std::uint64_t> reach;

  // List scheduling.
  std::vector<std::uint32_t> succ_begin;
  std::vector<std::uint32_t> succ;
  std::vector<std::uint32_t> cursor;
  std::vector<unsigned> priority;
  std::vector<std::uint32_t> remaining;
  std::vector<std::uint64_t> ready;  ///< Heap of priority/position keys.
  std::vector<std::uint32_t> order;
};

class BlockScheduler {
 public:
  BlockScheduler(RtlFunction& func, const Block& block, const SchedOptions& options,
                 DepStats& stats, SchedArena& arena, HliPairs& pairs)
      : func_(func), block_(block), options_(options), stats_(stats),
        a_(arena), pairs_(pairs), size_(block.end - block.begin) {}

  void run() {
    if (size_ < 2) return;
    build_edges();
    list_schedule();
  }

 private:
  static constexpr std::uint32_t kNone = SchedArena::kNone;

  [[nodiscard]] Insn& insn_at(std::size_t local) const {
    return func_.insns[block_.begin + local];
  }

  [[nodiscard]] std::uint64_t* reach_row(std::size_t k) const {
    return a_.reach.data() + k * words_;
  }

  [[nodiscard]] bool is_access(std::size_t k) const {
    return a_.before[k + 1] != a_.before[k];
  }

  /// Adds the edge i -> j, and i's ancestors to j's.  A register pair may
  /// be linked twice (say, `rs1 == rs2`); the copy changes neither a
  /// priority nor when j gets ready, since each copy is counted in and
  /// counted out.
  void link(std::size_t i, std::size_t j) {
    a_.pred.push_back(static_cast<std::uint32_t>(i));
    if (!track_reach_) return;
    std::uint64_t* to = reach_row(j);
    const std::uint64_t* from = reach_row(i);
    const std::uint32_t below = a_.before[i];
    for (std::size_t w = 0; w <= (below >> 6); ++w) to[w] |= from[w];
    if (is_access(i)) to[below >> 6] |= std::uint64_t{1} << (below & 63);
  }

  /// Writes words [0, n) of `out` as the accesses of `cand` below access
  /// `r` that are not in the skip mask; true when any is set.
  bool eligible(const std::vector<std::uint64_t>& cand, std::size_t r,
                std::size_t n, std::uint64_t* out) const {
    const unsigned rem = static_cast<unsigned>(r & 63);
    const std::uint64_t below = rem != 0 ? (std::uint64_t{1} << rem) - 1 : 0;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < n; ++w) {
      out[w] = cand[w] & ~a_.skip[w] & (w + 1 < n ? ~std::uint64_t{0} : below);
      any |= out[w];
    }
    return any != 0;
  }

  [[nodiscard]] bool has_hli(std::size_t r) const {
    return options_.view != nullptr && a_.item[r] != format::kNoItem;
  }

  [[nodiscard]] HliPairs::Positions accesses() const {
    return {a_.item.data(), a_.slot.data()};
  }

  /// The combined memory disambiguation of Figure 5 for memory op j
  /// (access r) against every eligible earlier candidate at once, with
  /// stats: adds the dependences to `dep`.
  void memory_phase(std::size_t j, std::size_t r, std::size_t n) {
    // A store tests every earlier memory op, a load only earlier stores.
    std::uint64_t* e = a_.eligible.data();
    if (!eligible(test(a_.stores, r) ? a_.mems : a_.stores, r, n, e)) return;
    std::uint64_t* g = a_.gcc_row.data();
    std::uint64_t* h = a_.hli_row.data();
    std::uint64_t* asked = a_.asked.data();
    a_.gcc.row(r, r, g);
    const bool hli = has_hli(r);
    if (hli) {
      for (std::size_t w = 0; w < n; ++w) asked[w] = e[w] & a_.itemized[w];
      pairs_.conflict_row(accesses(), a_.item[r], a_.slot[r], asked, n, h);
    }
    std::uint64_t queries = 0;
    std::uint64_t answered = 0;
    std::uint64_t gcc_yes = 0;
    std::uint64_t hli_yes = 0;
    std::uint64_t combined_yes = 0;
    std::uint64_t* dep = a_.dep.data();
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t ew = e[w];
      if (ew == 0) continue;
      const std::uint64_t gw = g[w] & ew;
      const std::uint64_t aw = hli ? asked[w] : 0;
      // Without items, the HLI answer falls back to the native one.
      const std::uint64_t hw = hli ? h[w] | (gw & ~aw) : gw;
      const std::uint64_t cw = gw & hw;
      const std::uint64_t e_ones = ones(ew, 0, 0);
      const std::uint64_t g_ones = ones(gw, ew, e_ones);
      queries += e_ones;
      answered += ones(aw, ew, e_ones);
      gcc_yes += g_ones;
      hli_yes += ones(hw, gw, g_ones);
      combined_yes += ones(cw, gw, g_ones);
      dep[w] |= options_.use_hli ? cw : gw;
    }
    c_hli_answers.add(answered);
    c_native_fallbacks.add(queries - answered);
    stats_.mem_queries += queries;
    stats_.gcc_yes += gcc_yes;
    stats_.hli_yes += hli_yes;
    stats_.combined_yes += combined_yes;
    if (options_.fallback == nullptr) return;
    for_each_bit(e, n, [&](std::size_t i) {
      ++stats_.fallback_queries;
      if (options_.fallback->may_conflict(block_.begin + a_.position[i],
                                          block_.begin + j)) {
        return;
      }
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      if ((dep[i >> 6] & bit) != 0) ++stats_.fallback_pruned;
      dep[i >> 6] &= ~bit;
    });
  }

  /// Memory-against-call dependences (REF/MOD, Figure 4 logic) between j
  /// (access r) and its eligible earlier candidates: calls when j is a
  /// memory op, memory ops when j is a call.  Adds them to `dep`, with
  /// stats.
  void call_phase(std::size_t j, std::size_t r, std::size_t n,
                  bool j_is_call) {
    std::uint64_t* e = a_.eligible.data();
    if (!eligible(j_is_call ? a_.mems : a_.calls, r, n, e)) return;
    const bool j_load = test(a_.loads, r);
    std::uint64_t* asked = a_.asked.data();
    std::uint64_t* mod = a_.mod.data();
    std::uint64_t* touch = a_.touch.data();
    const bool hli = has_hli(r);
    if (hli) {
      for (std::size_t w = 0; w < n; ++w) asked[w] = e[w] & a_.itemized[w];
      pairs_.call_acc_row(accesses(), a_.item[r], a_.slot[r], j_is_call,
                          asked, n, mod, touch);
    }
    std::uint64_t queries = 0;
    std::uint64_t hli_edges = 0;
    std::uint64_t* dep = a_.dep.data();
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t ew = e[w];
      if (ew == 0) continue;
      // The HLI's answer, true without items: a load depends on a call
      // that may write it, a store on one that may touch it.
      std::uint64_t hw = ew;
      if (hli) {
        const std::uint64_t loads = j_is_call ? a_.loads[w]
                                    : j_load  ? ~std::uint64_t{0}
                                              : 0;
        hw = (ew & ~asked[w]) | (mod[w] & loads) | (touch[w] & ~loads);
      }
      const std::uint64_t e_ones = ones(ew, 0, 0);
      queries += e_ones;
      hli_edges += ones(hw, ew, e_ones);
      dep[w] |= options_.use_hli ? hw : ew;
    }
    stats_.call_queries += queries;
    stats_.call_edges_native += queries;  // Native GCC assumes a clobber.
    stats_.call_edges_hli += hli_edges;
    if (options_.fallback == nullptr) return;
    for_each_bit(e, n, [&](std::size_t i) {
      ++stats_.fallback_queries;
      const std::size_t call = j_is_call ? j : a_.position[i];
      const std::size_t mem = j_is_call ? a_.position[i] : j;
      const bool load = test(a_.loads, j_is_call ? i : r);
      const unsigned effect = options_.fallback->call_effect(
          block_.begin + call, block_.begin + mem);
      if (load ? (effect & kCallWritesLoc) != 0 : effect != 0) return;
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      if ((dep[i >> 6] & bit) != 0) ++stats_.fallback_pruned_calls;
      dep[i >> 6] &= ~bit;
    });
  }

  /// Links the memory and call dependences of j that no kept edge into j
  /// already implies.  Visiting them from the last access down, each link
  /// adds the access's ancestors to j's, and an access among them is
  /// skipped: a path of edges, each of latency >= 1, already runs from it
  /// to j, so j's readiness and every longest-path priority are those of
  /// the graph that links it directly.
  void link_dependences(std::size_t j, std::size_t n) {
    const std::uint64_t* reach = reach_row(j);
    for (std::size_t w = n; w-- > 0;) {
      std::uint64_t bits = a_.dep[w] & ~reach[w];
      while (bits != 0) {
        const int top = 63 - std::countl_zero(bits);
        link(a_.position[w * 64 + static_cast<std::size_t>(top)], j);
        bits &= ~(std::uint64_t{1} << top) & ~reach[w];
      }
    }
  }

  /// Numbers the block's accesses, sizes the arena for them, fills the
  /// per-access rows and arrays, and starts the block's HLI pair queries.
  void prepare_block() {
    grow(a_.before, size_ + 1);
    grow(a_.position, size_);
    std::uint32_t count = 0;
    for (std::size_t k = 0; k < size_; ++k) {
      a_.before[k] = count;
      const Opcode op = insn_at(k).op;
      if (is_memory_op(op) || op == Opcode::Call) {
        a_.position[count++] = static_cast<std::uint32_t>(k);
      }
    }
    a_.before[size_] = count;
    // Rows hold accesses [0, count], so one bit past the last.
    words_ = count / 64 + 1;
    for (auto* row : {&a_.mems, &a_.stores, &a_.loads, &a_.calls,
                      &a_.itemized}) {
      row->assign(words_, 0);
    }
    for (auto* row : {&a_.skip, &a_.eligible, &a_.asked, &a_.gcc_row,
                      &a_.hli_row, &a_.mod, &a_.touch, &a_.dep}) {
      grow(*row, words_);
    }
    grow(a_.item, count);
    grow(a_.slot, count);
    a_.gcc.reset(count);
    a_.mem_items.clear();
    a_.call_items.clear();
    std::size_t mem_ops = 0;
    std::size_t stores = 0;
    for (std::uint32_t r = 0; r < count; ++r) {
      const Insn& insn = insn_at(a_.position[r]);
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      format::ItemId item = format::kNoItem;
      if (insn.op == Opcode::Call) {
        a_.calls[r >> 6] |= bit;
        item = insn.hli_item;
        if (item != format::kNoItem) a_.call_items.push_back(item);
      } else {
        ++mem_ops;
        a_.mems[r >> 6] |= bit;
        if (insn.op == Opcode::Store) {
          ++stores;
          a_.stores[r >> 6] |= bit;
        } else {
          a_.loads[r >> 6] |= bit;
        }
        a_.gcc.add(r, insn.mem);
        item = insn.mem.hli_item;
        if (item != format::kNoItem) a_.mem_items.push_back(item);
      }
      if (item != format::kNoItem) a_.itemized[r >> 6] |= bit;
      a_.item[r] = item;
    }
    pairs_.prepare(a_.mem_items, a_.call_items);
    for (std::uint32_t r = 0; r < count; ++r) {
      const format::ItemId item = a_.item[r];
      a_.slot[r] = item == format::kNoItem ? HliPairs::kNoSlot
                   : test(a_.calls, r)     ? pairs_.call_slot(item)
                                           : pairs_.mem_slot(item);
    }
    // Memory and call edges need the reach rows; a block without a pair
    // to test (no store beside another memory op, no call beside another
    // access) has none.
    const std::size_t calls = count - mem_ops;
    track_reach_ = (stores > 0 && mem_ops > 1) || (calls > 0 && count > 1);
    if (track_reach_) grow(a_.reach, size_ * words_);

    grow(a_.pred_begin, size_ + 1);
    a_.pred.clear();
    a_.writers.clear();
    a_.readers.clear();
    a_.rows.clear();
    a_.last_writer.clear();
  }

  /// Releases the block's register ids for the next block.
  void finish_block() {
    for (const Reg r : a_.regs) {
      a_.reg_id[static_cast<std::size_t>(r)] = kNone;
    }
    a_.regs.clear();
  }

  /// Block-local dense id of `r`, allocated on first sight.
  std::uint32_t id_of(Reg r) {
    const auto at = static_cast<std::size_t>(r);
    if (at >= a_.reg_id.size()) a_.reg_id.resize(at + 1, kNone);
    std::uint32_t& id = a_.reg_id[at];
    if (id == kNone) {
      id = static_cast<std::uint32_t>(a_.regs.size());
      a_.regs.push_back(r);
      a_.rows.push_back(kNone);
      a_.last_writer.push_back(kNone);
      if (a_.reads_since.size() <= id) a_.reads_since.emplace_back();
      a_.reads_since[id].clear();
    }
    return id;
  }

  /// Offset of register `id`'s writer and reader rows, allocating them.
  std::size_t rows_of(std::uint32_t id) {
    if (a_.rows[id] == kNone) {
      a_.rows[id] = static_cast<std::uint32_t>(a_.writers.size());
      a_.writers.resize(a_.writers.size() + words_, 0);
      a_.readers.resize(a_.readers.size() + words_, 0);
    }
    return a_.rows[id];
  }

  /// ORs words [0, n) of register `id`'s row in `rows` into the skip mask.
  void or_row(const std::vector<std::uint64_t>& rows, std::uint32_t id,
              std::size_t n) {
    if (a_.rows[id] == kNone) return;  // No access has named it.
    const std::uint64_t* row = rows.data() + a_.rows[id];
    for (std::size_t w = 0; w < n; ++w) a_.skip[w] |= row[w];
  }

  // Edges are built per j in three phases: registers, then memory pairs,
  // then calls.
  //
  // Register edges come from def/use chains: a true edge from each read
  // register's last writer, an output edge from the defined register's
  // last writer, and an anti edge from each read of it since that write.
  // Every other register-dependent pair (i, j) is reached through a path
  // of these, and every edge has latency >= 1, so readiness, the
  // longest-path priority and hence the schedule are those of the graph
  // that links every register-dependent pair directly.
  //
  // The memory and call phases still skip exactly the pairs that have a
  // direct register dependence — which pairs are queried is what the
  // Table 2 counters count.  That skip mask is j's row of the all-pairs
  // graph: the earlier writers of each register j reads, plus the earlier
  // writers and readers of the register j defines.  Only accesses are
  // candidates, so the rows record accesses only.  The memory and call
  // candidates of one j are disjoint, so neither phase needs the other's
  // edges in the mask.  Each phase answers all of j's candidates as bit
  // rows, and only the dependences no kept edge implies are linked.
  void build_edges() {
    prepare_block();
    for (std::size_t j = 0; j < size_; ++j) {
      const Insn& bj = insn_at(j);
      const auto jj = static_cast<std::uint32_t>(j);
      const Reg d = def_of(bj);
      const std::uint32_t r = a_.before[j];  // j's access number, if any.
      const std::size_t n = (r >> 6) + 1;    // Words holding accesses <= r.
      const bool access = is_access(j);
      const bool asks = track_reach_ && access;
      a_.pred_begin[j] = static_cast<std::uint32_t>(a_.pred.size());
      if (asks) std::fill_n(a_.skip.begin(), n, 0);
      if (track_reach_) std::fill_n(reach_row(j), n, 0);

      a_.read_ids.clear();
      for_each_read(bj, [&](Reg reg) { a_.read_ids.push_back(id_of(reg)); });
      for (const std::uint32_t id : a_.read_ids) {
        if (asks) or_row(a_.writers, id, n);
        if (a_.last_writer[id] != kNone) {
          link(a_.last_writer[id], j);  // True dependence.
        }
      }
      const std::uint32_t did = d != kNoReg ? id_of(d) : kNone;
      if (did != kNone) {
        if (asks) {
          or_row(a_.writers, did, n);
          or_row(a_.readers, did, n);
        }
        if (a_.last_writer[did] != kNone) {
          link(a_.last_writer[did], j);  // Output dependence.
        }
        for (const std::uint32_t i : a_.reads_since[did]) {
          link(i, j);  // Anti dependence.
        }
      }

      if (asks) {
        std::fill_n(a_.dep.begin(), n, 0);
        if (bj.op == Opcode::Call) {
          // Calls never reorder; earlier memory ops by REF/MOD.
          std::uint64_t* e = a_.eligible.data();
          if (eligible(a_.calls, r, n, e)) {
            for (std::size_t w = 0; w < n; ++w) a_.dep[w] |= e[w];
          }
          call_phase(j, r, n, true);
        } else {
          memory_phase(j, r, n);
          call_phase(j, r, n, false);  // Earlier calls clobbering it.
        }
        link_dependences(j, n);
      }

      // Enter j into the chains and, as an access, into the rows.
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      for (const std::uint32_t id : a_.read_ids) {
        if (access) a_.readers[rows_of(id) + (r >> 6)] |= bit;
        a_.reads_since[id].push_back(jj);
      }
      if (did != kNone) {
        if (access) a_.writers[rows_of(did) + (r >> 6)] |= bit;
        a_.reads_since[did].clear();
        a_.last_writer[did] = jj;
      }
    }
    a_.pred_begin[size_] = static_cast<std::uint32_t>(a_.pred.size());
    finish_block();
  }

  [[nodiscard]] unsigned latency_of(const Insn& insn) const {
    if (options_.latency) return std::max(1u, options_.latency(insn));
    return 1;
  }

  void list_schedule() {
    // Successor lists from the predecessor lists, by counting sort.
    a_.succ_begin.assign(size_ + 1, 0);
    for (const std::uint32_t i : a_.pred) ++a_.succ_begin[i + 1];
    for (std::size_t k = 0; k < size_; ++k) {
      a_.succ_begin[k + 1] += a_.succ_begin[k];
    }
    grow(a_.succ, a_.pred.size());
    a_.cursor.assign(a_.succ_begin.begin(), a_.succ_begin.end() - 1);
    grow(a_.remaining, size_);
    for (std::uint32_t j = 0; j < size_; ++j) {
      const std::uint32_t first = a_.pred_begin[j];
      const std::uint32_t last = a_.pred_begin[j + 1];
      a_.remaining[j] = last - first;
      for (std::uint32_t e = first; e < last; ++e) {
        a_.succ[a_.cursor[a_.pred[e]]++] = j;
      }
    }

    // Priority: longest latency-weighted path to the block exit.
    std::vector<unsigned>& priority = a_.priority;
    grow(priority, size_);
    for (std::size_t idx = size_; idx-- > 0;) {
      unsigned best = 0;
      for (std::uint32_t e = a_.succ_begin[idx]; e < a_.succ_begin[idx + 1];
           ++e) {
        best = std::max(best, priority[a_.succ[e]]);
      }
      priority[idx] = best + latency_of(insn_at(idx));
    }

    // Ready heap: the highest priority first, ties to the earliest
    // original position (stable, deterministic).  A key packs both, so
    // the heap compares plain integers.
    const auto key = [&priority](std::uint32_t idx) {
      return (std::uint64_t{priority[idx]} << 32) | (UINT32_MAX - idx);
    };
    std::vector<std::uint64_t>& ready = a_.ready;
    ready.clear();
    for (std::uint32_t idx = 0; idx < size_; ++idx) {
      if (a_.remaining[idx] == 0) ready.push_back(key(idx));
    }
    std::make_heap(ready.begin(), ready.end());

    // order[k]: the original position of the k-th scheduled instruction.
    std::vector<std::uint32_t>& order = a_.order;
    order.clear();
    while (!ready.empty()) {
      std::pop_heap(ready.begin(), ready.end());
      const auto best = static_cast<std::uint32_t>(UINT32_MAX - ready.back());
      ready.pop_back();
      order.push_back(best);
      for (std::uint32_t e = a_.succ_begin[best]; e < a_.succ_begin[best + 1];
           ++e) {
        const std::uint32_t succ = a_.succ[e];
        if (--a_.remaining[succ] == 0) {
          ready.push_back(key(succ));
          std::push_heap(ready.begin(), ready.end());
        }
      }
    }

    // Rewrite the block in place, one cycle of the permutation at a time;
    // an instruction that keeps its position is not moved.
    for (std::size_t k = 0; k < size_; ++k) {
      if (order[k] == k) continue;
      Insn first = std::move(insn_at(k));
      std::size_t at = k;
      while (order[at] != k) {
        const std::size_t from = order[at];
        insn_at(at) = std::move(insn_at(from));
        order[at] = static_cast<std::uint32_t>(at);
        at = from;
      }
      insn_at(at) = std::move(first);
      order[at] = static_cast<std::uint32_t>(at);
    }
    stats_.scheduled_insns += size_;
  }

  RtlFunction& func_;
  const Block& block_;
  const SchedOptions& options_;
  DepStats& stats_;
  SchedArena& a_;
  HliPairs& pairs_;
  std::size_t size_;
  std::size_t words_ = 0;
  bool track_reach_ = false;
};

}  // namespace

void DepStats::record_telemetry(bool hli_applied) const {
  c_mem_queries.add(mem_queries);
  c_gcc_yes.add(gcc_yes);
  c_hli_yes.add(hli_yes);
  c_combined_yes.add(combined_yes);
  c_call_queries.add(call_queries);
  c_blocks.add(blocks);
  c_insns_scheduled.add(scheduled_insns);
  // Edges that exist under the native oracle but not under the combined
  // answer — pruned only when the schedule actually applied the HLI.
  if (hli_applied) {
    c_ddg_edges_pruned.add(gcc_yes - combined_yes);
    c_call_edges_pruned.add(call_edges_native - call_edges_hli);
  }
}

DepStats schedule_function(RtlFunction& func, const SchedOptions& options) {
  thread_local SchedArena arena;
  HliPairs& pairs = arena.pairs;
  pairs.bind(options.view, options.batch_queries, options.cache);
  DepStats stats;
  std::size_t at = 0;
  while (at < func.insns.size()) {
    if (is_control(func.insns[at].op)) {
      ++at;
      continue;
    }
    Block block;
    block.begin = at;
    while (at < func.insns.size() && !is_control(func.insns[at].op)) ++at;
    block.end = at;
    ++stats.blocks;
    BlockScheduler scheduler(func, block, options, stats, arena, pairs);
    scheduler.run();
  }
  return stats;
}

}  // namespace hli::backend
