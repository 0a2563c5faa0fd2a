// The back-end's NATIVE memory disambiguation — a faithful stand-in for
// GCC 2.7's true_dependence/memrefs_conflict_p reasoning, which is what
// the paper's "GCC result" column measures.  It knows only what is
// syntactically evident in the RTL:
//   * references to different named objects (symbols, distinct frame
//     slots with constant offsets) do not conflict;
//   * same object with constant, non-overlapping offsets do not conflict;
//   * anything involving a computed address (variable subscript, pointer)
//     conservatively conflicts.
//
// The rule has two forms: gcc_may_conflict answers one pair, and
// GccConflictRows answers one reference against every earlier reference
// of a block at once (the scheduler's memory phase).  Both decide through
// the same address comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/rtl.hpp"

namespace hli::backend {

/// May the two memory references touch the same bytes?  (The "GCC query
/// function" of Figure 5.)
[[nodiscard]] bool gcc_may_conflict(const MemRef& a, const MemRef& b);

/// gcc_may_conflict in row form over the memory references of one block.
/// `add` the references in ascending position, then `row` sets the bit of
/// every added position whose reference may conflict.  A pointer base or
/// an unknown offset conflicts with everything (the wildcard mask); any
/// other reference only with the same symbol, or frame against frame,
/// over overlapping bytes.  References of one base are grouped by address,
/// each group keeping a bit row of its positions, and the groups are kept
/// sorted by offset: a row costs the wildcard mask and its own group's
/// row, plus, where another group's bytes overlap its own, a binary search
/// and one row per overlapping group.  The object keeps its storage across
/// reset() calls.
class GccConflictRows {
 public:
  /// Starts a block of `positions` positions with no references.
  void reset(std::size_t positions);

  /// Enters the reference at `pos`, which is above every earlier `pos`.
  void add(std::size_t pos, const MemRef& ref);

  /// Writes words [0, limit / 64] of `out`: bit i is set for each added
  /// position i < limit whose reference may conflict with the one added at
  /// `pos`.  Bits at or past `limit` are unspecified.  `limit` is at most
  /// the reset() size.
  void row(std::size_t pos, std::size_t limit, std::uint64_t* out) const;

 private:
  struct Address {
    enum Kind : std::uint8_t { kAny, kSymbol, kFrame };
    Kind kind = kAny;
    std::uint8_t size = 0;
    std::int32_t symbol = -1;
    std::int64_t lo = 0;  ///< First byte, from the base.
  };
  friend bool gcc_may_conflict(const MemRef& a, const MemRef& b);
  [[nodiscard]] static Address address_of(const MemRef& ref);
  [[nodiscard]] static bool conflict(const Address& a, const Address& b);

  /// The references of one distinct address; `id` names its bit row and
  /// its entry in `overlapped_`.
  struct Group {
    std::int64_t lo = 0;
    std::uint8_t size = 0;
    std::uint32_t id = 0;
  };
  /// One base (kind and symbol): its groups in ascending (lo, size) and
  /// the widest access among them.
  struct Bucket {
    Address key;
    std::uint8_t width = 0;
    std::vector<Group> groups;
  };

  std::size_t words_ = 0;                 ///< Row width.
  std::vector<Address> address_;          ///< Per position.
  std::vector<std::uint32_t> bucket_of_;  ///< Per position not of kind kAny.
  std::vector<std::uint64_t> wild_;       ///< Positions of kind kAny.
  std::vector<std::uint32_t> group_of_;   ///< Per position not of kind kAny.
  std::vector<std::uint64_t> group_rows_;  ///< Per group, words_ wide.
  /// Per group: whether another group's bytes overlap its own.
  std::vector<bool> overlapped_;
  std::size_t groups_ = 0;                 ///< Groups in use.
  std::vector<Bucket> buckets_;
  std::size_t bucket_count_ = 0;  ///< Buckets in use.

  /// Calls `fn(group)` for each group of `bucket` whose bytes overlap
  /// `self`'s, `self`'s own group included.
  template <typename Fn>
  static void for_each_overlap(const Bucket& bucket, const Address& self,
                               Fn&& fn);
};

}  // namespace hli::backend
