#include "backend/gcc_alias.hpp"

#include <algorithm>

namespace hli::backend {

// GCC 2.7's memrefs_conflict_p reasons over ADDRESS EXPRESSIONS, not
// objects: `symbol + const` vs `symbol + const` is decidable, but the
// moment a subscript lands in a register the base symbol is no longer
// recoverable from the RTL (no MEM_EXPR in that era) and the answer is a
// conservative "yes" — even against a different named array.  That
// blindness is precisely what the paper's HLI repairs.
GccConflictRows::Address GccConflictRows::address_of(const MemRef& ref) {
  Address address;
  address.size = ref.size;
  if (ref.base == MemBase::Pointer || !ref.offset_known) return address;
  if (ref.base == MemBase::Symbol) {
    address.kind = Address::kSymbol;
    address.symbol = ref.symbol;
    address.lo = ref.const_offset;
  } else {
    address.kind = Address::kFrame;
    address.lo = ref.frame_offset + ref.const_offset;
  }
  return address;
}

bool GccConflictRows::conflict(const Address& a, const Address& b) {
  if (a.kind == Address::kAny || b.kind == Address::kAny) return true;
  // Frame (fp + const) vs. global (symbol + const), or two symbols:
  // distinct fixed bases.
  if (a.kind != b.kind || a.symbol != b.symbol) return false;
  return a.lo < b.lo + b.size && b.lo < a.lo + a.size;
}

bool gcc_may_conflict(const MemRef& a, const MemRef& b) {
  return GccConflictRows::conflict(GccConflictRows::address_of(a),
                                   GccConflictRows::address_of(b));
}

void GccConflictRows::reset(std::size_t positions) {
  words_ = positions / 64 + 1;
  if (address_.size() < positions) {
    address_.resize(positions);
    bucket_of_.resize(positions);
    group_of_.resize(positions);
  }
  wild_.assign(words_, 0);
  group_rows_.clear();
  overlapped_.clear();
  groups_ = 0;
  for (std::size_t b = 0; b < bucket_count_; ++b) buckets_[b].groups.clear();
  bucket_count_ = 0;
}

void GccConflictRows::add(std::size_t pos, const MemRef& ref) {
  const Address address = address_of(ref);
  address_[pos] = address;
  const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
  if (address.kind == Address::kAny) {
    wild_[pos >> 6] |= bit;
    return;
  }
  // A block names few distinct bases; find this one's bucket linearly.
  std::size_t b = 0;
  while (b < bucket_count_ && (buckets_[b].key.kind != address.kind ||
                               buckets_[b].key.symbol != address.symbol)) {
    ++b;
  }
  if (b == bucket_count_) {
    if (b == buckets_.size()) buckets_.emplace_back();
    buckets_[b].key = address;
    buckets_[b].width = 0;
    ++bucket_count_;
  }
  Bucket& bucket = buckets_[b];
  bucket.width = std::max(bucket.width, address.size);
  const auto it = std::lower_bound(
      bucket.groups.begin(), bucket.groups.end(), address,
      [](const Group& g, const Address& a) {
        return g.lo != a.lo ? g.lo < a.lo : g.size < a.size;
      });
  std::uint32_t id = 0;
  if (it != bucket.groups.end() && it->lo == address.lo &&
      it->size == address.size) {
    id = it->id;
  } else {
    id = static_cast<std::uint32_t>(groups_++);
    group_rows_.resize(groups_ * words_, 0);
    overlapped_.push_back(false);
    bucket.groups.insert(it, Group{address.lo, address.size, id});
    for_each_overlap(bucket, address, [&](const Group& other) {
      if (other.id == id) return;
      overlapped_[id] = true;
      overlapped_[other.id] = true;
    });
  }
  bucket_of_[pos] = static_cast<std::uint32_t>(b);
  group_of_[pos] = id;
  group_rows_[std::size_t{id} * words_ + (pos >> 6)] |= bit;
}

template <typename Fn>
void GccConflictRows::for_each_overlap(const Bucket& bucket,
                                       const Address& self, Fn&& fn) {
  // Only a group starting less than the bucket's widest access below
  // `self` can reach it.
  const std::int64_t from =
      self.lo > INT64_MIN + bucket.width ? self.lo - bucket.width : INT64_MIN;
  auto it = std::lower_bound(
      bucket.groups.begin(), bucket.groups.end(), from,
      [](const Group& g, std::int64_t lo) { return g.lo < lo; });
  for (; it != bucket.groups.end(); ++it) {
    Address other = bucket.key;
    other.lo = it->lo;
    other.size = it->size;
    if (other.lo > self.lo && static_cast<std::uint64_t>(other.lo) -
                                      static_cast<std::uint64_t>(self.lo) >=
                                  self.size) {
      break;  // This group and every later one start past `self`.
    }
    if (conflict(other, self)) fn(*it);
  }
}

void GccConflictRows::row(std::size_t pos, std::size_t limit,
                          std::uint64_t* out) const {
  const std::size_t words = limit / 64 + 1;
  const Address& self = address_[pos];
  if (self.kind == Address::kAny) {
    std::fill(out, out + words, ~std::uint64_t{0});
    return;
  }
  const auto or_group = [&](std::uint32_t id) {
    const std::uint64_t* rows = group_rows_.data() + std::size_t{id} * words_;
    for (std::size_t w = 0; w < words; ++w) out[w] |= rows[w];
  };
  std::copy(wild_.begin(), wild_.begin() + static_cast<std::ptrdiff_t>(words),
            out);
  const std::uint32_t id = group_of_[pos];
  if (!overlapped_[id]) {
    if (self.size != 0) or_group(id);  // Zero bytes overlap nothing.
    return;
  }
  for_each_overlap(buckets_[bucket_of_[pos]], self,
                   [&](const Group& other) { or_group(other.id); });
}

}  // namespace hli::backend
