// Rewrites one field of an HLIB container and re-seals it: unit payloads,
// index, meta block and footer are re-laid out and every checksum is
// recomputed per docs/hli-binary-format.md.  The result passes every
// container-level check, so a reader test reaches the field decoder with
// the patched value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hli/serialize.hpp"

namespace hli::testutil {

/// checksum32 of the format document: four interleaved FNV-1a/32 lanes
/// folded 16 bits at a time.
inline std::uint32_t hlib_checksum(std::string_view bytes) {
  constexpr std::uint32_t kBasis = 2166136261u;
  constexpr std::uint32_t kPrime = 16777619u;
  std::uint32_t lane[4] = {kBasis, kBasis ^ 1u, kBasis ^ 2u, kBasis ^ 3u};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    lane[i & 3] = (lane[i & 3] ^ static_cast<unsigned char>(bytes[i])) * kPrime;
  }
  std::uint32_t hash = kBasis;
  for (const std::uint32_t l : lane) {
    hash = (hash ^ (l & 0xffffu)) * kPrime;
    hash = (hash ^ (l >> 16)) * kPrime;
  }
  return hash;
}

inline void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

inline void put_le(std::string& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

/// Length of the varint starting at `at`.
inline std::size_t varint_length(std::string_view bytes, std::size_t at) {
  std::size_t n = 1;
  while ((static_cast<unsigned char>(bytes[at + n - 1]) & 0x80) != 0) ++n;
  return n;
}

/// `hlib` with the first unit's `next_id` (the payload's second varint,
/// after the unit-name string id) replaced by `value`, re-sealed.
/// Returns the patched container; `*field_offset` receives the patched
/// varint's absolute byte offset.
inline std::string hlib_with_next_id(const std::string& hlib,
                                     std::uint64_t value,
                                     std::size_t* field_offset = nullptr) {
  const serialize::HlibContainer container = serialize::open_hlib(hlib);
  constexpr std::size_t kHeaderSize = 8;
  std::string out = hlib.substr(0, kHeaderSize);
  std::string index;
  for (std::size_t u = 0; u < container.units.size(); ++u) {
    const auto& unit = container.units[u];
    std::string payload(hlib.substr(static_cast<std::size_t>(unit.offset),
                                    static_cast<std::size_t>(unit.length)));
    if (u == 0) {
      const std::size_t at = varint_length(payload, 0);
      std::string field;
      put_varint(field, value);
      payload.replace(at, varint_length(payload, at), field);
      if (field_offset != nullptr) *field_offset = out.size() + at;
    }
    put_varint(index, unit.name_id);
    put_varint(index, out.size());
    put_varint(index, payload.size());
    put_le(index, hlib_checksum(payload), 4);
    out += payload;
  }
  std::string meta;
  put_varint(meta, container.pool.size());
  for (const std::string_view text : container.pool) {
    put_varint(meta, text.size());
    meta += text;
  }
  put_varint(meta, container.units.size());
  meta += index;
  const std::size_t meta_offset = out.size();
  out += meta;
  put_le(out, meta_offset, 8);
  put_le(out, meta.size(), 8);
  put_le(out, hlib_checksum(meta), 4);
  put_le(out, 0, 4);
  out += hlib.substr(hlib.size() - 8);  // End magic.
  return out;
}

}  // namespace hli::testutil
