#include "hli/serialize.hpp"

#include <charconv>
#include <cstring>
#include <limits>

#include "support/string_utils.hpp"
#include "support/telemetry.hpp"

namespace hli::serialize {

using namespace format;

namespace {
const telemetry::Counter c_checksum_verifies =
    telemetry::counter("store.checksum_verifies");
}  // namespace
using support::CompileError;

namespace {

const char* item_code(ItemType type) {
  switch (type) {
    case ItemType::Load: return "L";
    case ItemType::Store: return "S";
    case ItemType::Call: return "C";
    case ItemType::ArgStore: return "AS";
    case ItemType::ArgLoad: return "AL";
  }
  return "?";
}

ItemType item_type_from(std::string_view code, std::size_t line_no) {
  if (code == "L") return ItemType::Load;
  if (code == "S") return ItemType::Store;
  if (code == "C") return ItemType::Call;
  if (code == "AS") return ItemType::ArgStore;
  if (code == "AL") return ItemType::ArgLoad;
  throw CompileError("HLI parse error at line " + std::to_string(line_no) +
                     ": bad item type '" + std::string(code) + "'");
}

// The text writer appends straight into one caller-reserved std::string —
// no per-entry std::ostringstream, no intermediate copies.

template <typename Int>
void append_num(std::string& out, Int value) {
  char buf[21];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, end);
}

void write_id_list(std::string& out, const char* tag,
                   const std::vector<ItemId>& ids) {
  out += ' ';
  out += tag;
  out += " :";
  for (const ItemId id : ids) {
    out += ' ';
    append_num(out, id);
  }
}

void write_region(std::string& out, const RegionEntry& region) {
  out += "region ";
  append_num(out, region.id);
  out += region.type == RegionType::Loop ? " loop parent " : " unit parent ";
  append_num(out, region.parent);
  out += " scope ";
  append_num(out, region.first_line);
  out += ' ';
  append_num(out, region.last_line);
  out += " children :";
  for (const RegionId c : region.children) {
    out += ' ';
    append_num(out, c);
  }
  out += '\n';
  for (const EquivClass& cls : region.classes) {
    out += "class ";
    append_num(out, cls.id);
    out += ' ';
    out += to_string(cls.type);
    out += " base ";
    out += cls.base.empty() ? "-" : cls.base;
    out += " unk ";
    out += cls.unknown_target ? '1' : '0';
    out += " wr ";
    out += cls.has_write ? '1' : '0';
    out += " inv ";
    out += cls.loop_invariant ? '1' : '0';
    write_id_list(out, "items", cls.member_items);
    write_id_list(out, "subs", cls.member_subclasses);
    out += " disp ";
    out += cls.display;
    out += '\n';
  }
  for (const AliasEntry& alias : region.aliases) {
    out += "alias :";
    for (const ItemId id : alias.classes) {
      out += ' ';
      append_num(out, id);
    }
    out += '\n';
  }
  for (const LcddEntry& dep : region.lcdds) {
    out += "lcdd ";
    append_num(out, dep.src);
    out += ' ';
    append_num(out, dep.dst);
    out += ' ';
    out += to_string(dep.type);
    out += " dist ";
    if (dep.distance) {
      append_num(out, *dep.distance);
    } else {
      out += '?';
    }
    out += '\n';
  }
  for (const CallEffectEntry& eff : region.call_effects) {
    if (eff.is_subregion) {
      out += "calleff region ";
      append_num(out, eff.subregion);
    } else {
      out += "calleff item ";
      append_num(out, eff.call_item);
    }
    out += " unk ";
    out += eff.unknown ? '1' : '0';
    write_id_list(out, "ref", eff.ref_classes);
    write_id_list(out, "mod", eff.mod_classes);
    out += '\n';
  }
  out += "endregion\n";
}

/// Generous upper-ish bound on the serialized size of one entry, so the
/// single output buffer is reserved once instead of growing through the
/// append stream.
std::size_t estimate_entry_size(const HliEntry& entry) {
  std::size_t size = 64 + entry.unit_name.size();
  for (const LineEntry& line : entry.line_table.lines()) {
    size += 16 + line.items.size() * 12;
  }
  for (const RegionEntry& region : entry.regions) {
    size += 80 + region.children.size() * 8;
    for (const EquivClass& cls : region.classes) {
      size += 64 + cls.base.size() + cls.display.size() +
              (cls.member_items.size() + cls.member_subclasses.size()) * 8;
    }
    for (const AliasEntry& alias : region.aliases) {
      size += 16 + alias.classes.size() * 8;
    }
    size += region.lcdds.size() * 40;
    for (const CallEffectEntry& eff : region.call_effects) {
      size += 40 + (eff.ref_classes.size() + eff.mod_classes.size()) * 8;
    }
  }
  return size;
}

void append_entry(std::string& out, const HliEntry& entry) {
  out += "unit ";
  out += entry.unit_name;
  out += " nextid ";
  append_num(out, entry.next_id);
  out += '\n';
  for (const LineEntry& line : entry.line_table.lines()) {
    out += "line ";
    append_num(out, line.line);
    out += " :";
    for (const ItemEntry& item : line.items) {
      out += ' ';
      append_num(out, item.id);
      out += ':';
      out += item_code(item.type);
    }
    out += '\n';
  }
  out += "regions ";
  append_num(out, entry.regions.size());
  out += " root ";
  append_num(out, entry.root_region);
  out += '\n';
  for (const RegionEntry& region : entry.regions) {
    write_region(out, region);
  }
  out += "endunit\n";
}

}  // namespace

std::string write_entry(const HliEntry& entry) {
  std::string out;
  out.reserve(estimate_entry_size(entry));
  append_entry(out, entry);
  return out;
}

std::string write_hli(const HliFile& file) {
  std::size_t estimate = 8;
  for (const HliEntry& entry : file.entries) {
    estimate += estimate_entry_size(entry);
  }
  std::string out;
  out.reserve(estimate);
  out += "HLI v1\n";
  for (const HliEntry& entry : file.entries) {
    append_entry(out, entry);
  }
  return out;
}

namespace {

/// Line-based cursor with diagnostics for the reader.
class Reader {
 public:
  explicit Reader(std::string_view text) : lines_(support::split(text, '\n')) {}

  [[nodiscard]] bool done() const { return pos_ >= lines_.size(); }

  [[nodiscard]] std::string_view peek() {
    while (pos_ < lines_.size() && support::trim(lines_[pos_]).empty()) ++pos_;
    return pos_ < lines_.size() ? support::trim(lines_[pos_]) : std::string_view{};
  }

  std::string_view next() {
    const std::string_view line = peek();
    ++pos_;
    return line;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw CompileError("HLI parse error at line " + std::to_string(pos_) + ": " +
                       message);
  }

  [[nodiscard]] std::size_t line_no() const { return pos_; }

 private:
  std::vector<std::string_view> lines_;
  std::size_t pos_ = 0;
};

std::uint64_t parse_num(Reader& r, std::string_view token) {
  std::uint64_t value = 0;
  if (!support::parse_u64(token, value)) {
    r.fail("expected number, got '" + std::string(token) + "'");
  }
  return value;
}

/// A number that must fit the 32-bit ID and line-number fields.
std::uint32_t parse_u32(Reader& r, std::string_view token) {
  const std::uint64_t value = parse_num(r, token);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    r.fail("'" + std::string(token) + "' does not fit in 32 bits");
  }
  return static_cast<std::uint32_t>(value);
}

/// Parses `<tag> : id id ...` starting at tokens[at]; returns index after.
std::size_t parse_id_list(Reader& r, const std::vector<std::string_view>& tokens,
                          std::size_t at, std::string_view tag,
                          std::vector<ItemId>& out) {
  if (at >= tokens.size() || tokens[at] != tag) {
    r.fail("expected '" + std::string(tag) + "' list");
  }
  ++at;
  if (at >= tokens.size() || tokens[at] != ":") r.fail("expected ':'");
  ++at;
  while (at < tokens.size()) {
    std::uint64_t value = 0;
    if (!support::parse_u64(tokens[at], value)) break;
    out.push_back(parse_u32(r, tokens[at]));
    ++at;
  }
  return at;
}

EquivClass parse_class(Reader& r, std::string_view line) {
  // class <id> <def|maybe> base <name> unk <b> wr <b> items : ... subs : ... disp <rest>
  const std::size_t disp_pos = line.find(" disp ");
  std::string display;
  std::string_view head = line;
  if (disp_pos != std::string_view::npos) {
    display = std::string(line.substr(disp_pos + 6));
    head = line.substr(0, disp_pos);
  }
  const auto tokens = support::split_ws(head);
  if (tokens.size() < 12) r.fail("malformed class line");
  EquivClass cls;
  cls.id = parse_u32(r, tokens[1]);
  cls.type = tokens[2] == "def" ? EquivAccType::Definite : EquivAccType::Maybe;
  if (tokens[3] != "base") r.fail("expected 'base'");
  cls.base = tokens[4] == "-" ? "" : std::string(tokens[4]);
  if (tokens[5] != "unk") r.fail("expected 'unk'");
  cls.unknown_target = parse_num(r, tokens[6]) != 0;
  if (tokens[7] != "wr") r.fail("expected 'wr'");
  cls.has_write = parse_num(r, tokens[8]) != 0;
  if (tokens[9] != "inv") r.fail("expected 'inv'");
  cls.loop_invariant = parse_num(r, tokens[10]) != 0;
  std::size_t at = 11;
  at = parse_id_list(r, tokens, at, "items", cls.member_items);
  at = parse_id_list(r, tokens, at, "subs", cls.member_subclasses);
  cls.display = std::move(display);
  return cls;
}

RegionEntry parse_region_header(Reader& r, std::string_view line) {
  const auto tokens = support::split_ws(line);
  if (tokens.size() < 10) r.fail("malformed region header");
  RegionEntry region;
  region.id = parse_u32(r, tokens[1]);
  region.type = tokens[2] == "loop" ? RegionType::Loop : RegionType::Unit;
  if (tokens[3] != "parent") r.fail("expected 'parent'");
  region.parent = parse_u32(r, tokens[4]);
  if (tokens[5] != "scope") r.fail("expected 'scope'");
  region.first_line = parse_u32(r, tokens[6]);
  region.last_line = parse_u32(r, tokens[7]);
  if (tokens[8] != "children" || tokens[9] != ":") r.fail("expected children list");
  for (std::size_t i = 10; i < tokens.size(); ++i) {
    region.children.push_back(parse_u32(r, tokens[i]));
  }
  return region;
}

void parse_region_body(Reader& r, RegionEntry& region) {
  while (!r.done()) {
    const std::string_view line = r.peek();
    if (line == "endregion") {
      (void)r.next();
      return;
    }
    if (support::starts_with(line, "class ")) {
      region.classes.push_back(parse_class(r, r.next()));
    } else if (support::starts_with(line, "alias ")) {
      const auto tokens = support::split_ws(r.next());
      AliasEntry alias;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        alias.classes.push_back(parse_u32(r, tokens[i]));
      }
      region.aliases.push_back(std::move(alias));
    } else if (support::starts_with(line, "lcdd ")) {
      const auto tokens = support::split_ws(r.next());
      if (tokens.size() < 6) r.fail("malformed lcdd line");
      LcddEntry dep;
      dep.src = parse_u32(r, tokens[1]);
      dep.dst = parse_u32(r, tokens[2]);
      dep.type = tokens[3] == "def" ? DepType::Definite : DepType::Maybe;
      if (tokens[4] != "dist") r.fail("expected 'dist'");
      if (tokens[5] != "?") {
        std::int64_t value = 0;
        if (!support::parse_i64(tokens[5], value)) r.fail("bad distance");
        dep.distance = value;
      }
      region.lcdds.push_back(dep);
    } else if (support::starts_with(line, "calleff ")) {
      const auto tokens = support::split_ws(r.next());
      if (tokens.size() < 5) r.fail("malformed calleff line");
      CallEffectEntry eff;
      if (tokens[1] == "region") {
        eff.is_subregion = true;
        eff.subregion = parse_u32(r, tokens[2]);
      } else if (tokens[1] == "item") {
        eff.call_item = parse_u32(r, tokens[2]);
      } else {
        r.fail("expected 'item' or 'region'");
      }
      if (tokens[3] != "unk") r.fail("expected 'unk'");
      eff.unknown = parse_num(r, tokens[4]) != 0;
      std::size_t at = 5;
      at = parse_id_list(r, tokens, at, "ref", eff.ref_classes);
      at = parse_id_list(r, tokens, at, "mod", eff.mod_classes);
      region.call_effects.push_back(std::move(eff));
    } else {
      r.fail("unexpected line in region: '" + std::string(line) + "'");
    }
  }
  r.fail("missing endregion");
}

HliEntry parse_unit(Reader& r, std::string_view header) {
  const auto tokens = support::split_ws(header);
  if (tokens.size() < 4 || tokens[2] != "nextid") r.fail("malformed unit header");
  HliEntry entry;
  entry.unit_name = std::string(tokens[1]);
  entry.next_id = parse_u32(r, tokens[3]);

  // Line table.
  while (!r.done() && support::starts_with(r.peek(), "line ")) {
    const auto line_tokens = support::split_ws(r.next());
    if (line_tokens.size() < 3 || line_tokens[2] != ":") r.fail("malformed line entry");
    const auto source_line = parse_u32(r, line_tokens[1]);
    for (std::size_t i = 3; i < line_tokens.size(); ++i) {
      const auto parts = support::split(line_tokens[i], ':');
      if (parts.size() != 2) r.fail("malformed item token");
      ItemEntry item;
      item.id = parse_u32(r, parts[0]);
      item.type = item_type_from(parts[1], r.line_no());
      entry.line_table.add_item(source_line, item);
    }
  }

  // Region table.
  const auto regions_tokens = support::split_ws(r.next());
  if (regions_tokens.size() < 4 || regions_tokens[0] != "regions" ||
      regions_tokens[2] != "root") {
    r.fail("expected regions header");
  }
  const std::uint64_t region_count = parse_num(r, regions_tokens[1]);
  entry.root_region = parse_u32(r, regions_tokens[3]);
  for (std::uint64_t i = 0; i < region_count; ++i) {
    const std::string_view header_line = r.next();
    if (!support::starts_with(header_line, "region ")) r.fail("expected region");
    RegionEntry region = parse_region_header(r, header_line);
    parse_region_body(r, region);
    entry.regions.push_back(std::move(region));
  }
  if (r.done() || r.next() != "endunit") r.fail("missing endunit");
  return entry;
}

}  // namespace

HliFile read_hli(std::string_view text) {
  Reader r(text);
  if (r.done() || r.next() != "HLI v1") {
    throw CompileError("HLI parse error: missing 'HLI v1' header");
  }
  HliFile file;
  while (!r.done()) {
    const std::string_view line = r.peek();
    if (line.empty()) break;
    if (!support::starts_with(line, "unit ")) r.fail("expected unit header");
    file.entries.push_back(parse_unit(r, r.next()));
  }
  return file;
}

// ---------------------------------------------------------------------------
// HLIB binary container.
// ---------------------------------------------------------------------------

namespace {

constexpr char kHlibMagic[4] = {'H', 'L', 'I', 'B'};
constexpr std::uint8_t kHlibVersion = 1;
constexpr std::size_t kHeaderSize = 8;   ///< Magic + version + 3 reserved.
constexpr std::size_t kFooterSize = 32;  ///< Meta location + end magic.
constexpr char kFooterMagic[8] = {'H', 'L', 'I', 'B', 'E', 'N', 'D', '1'};

/// The container's corruption check: the meta block is checksummed in the
/// footer, each unit payload in its index record — so a bit flip anywhere
/// in the file is caught by whichever reader first touches those bytes.
/// Four interleaved FNV-1a lanes (byte i feeds lane i mod 4), folded
/// together at the end: plain FNV-1a is one serial multiply per byte,
/// while independent lanes let the CPU overlap them, ~4x faster on import.
/// The lane split is part of the v1 format.
std::uint32_t fnv1a(std::string_view bytes) {
  constexpr std::uint32_t kBasis = 2166136261u;
  constexpr std::uint32_t kPrime = 16777619u;
  std::uint32_t lane[4] = {kBasis, kBasis ^ 1u, kBasis ^ 2u, kBasis ^ 3u};
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t size = bytes.size();
  std::size_t i = 0;
  for (const std::size_t whole = size & ~std::size_t{3}; i < whole; i += 4) {
    lane[0] = (lane[0] ^ p[i]) * kPrime;
    lane[1] = (lane[1] ^ p[i + 1]) * kPrime;
    lane[2] = (lane[2] ^ p[i + 2]) * kPrime;
    lane[3] = (lane[3] ^ p[i + 3]) * kPrime;
  }
  for (; i < size; ++i) {
    lane[i & 3] = (lane[i & 3] ^ p[i]) * kPrime;
  }
  std::uint32_t hash = kBasis;
  for (const std::uint32_t l : lane) {
    hash = (hash ^ (l & 0xffffu)) * kPrime;
    hash = (hash ^ (l >> 16)) * kPrime;
  }
  return hash;
}

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

std::uint64_t zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

void put_u32le(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void put_u64le(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32le(std::string_view bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

std::uint64_t get_u64le(std::string_view bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

[[noreturn]] void fail_at(std::size_t offset, const std::string& message) {
  throw CompileError("HLIB error at offset " + std::to_string(offset) + ": " +
                     message);
}

/// Bounds-checked byte cursor over one span of the container.  Every
/// failure reports the absolute file offset it happened at.
class ByteCursor {
 public:
  ByteCursor(std::string_view bytes, std::size_t begin, std::size_t end)
      : bytes_(bytes), pos_(begin), end_(end) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ >= end_; }
  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }

  [[noreturn]] void fail(const std::string& message) const {
    fail_at(pos_, message);
  }

  std::uint8_t byte(const char* what) {
    if (pos_ >= end_) fail(std::string("truncated ") + what);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint64_t varint(const char* what) {
    if (pos_ < end_) {  // Fast path: almost every encoded value fits a byte.
      const auto b = static_cast<std::uint8_t>(bytes_[pos_]);
      if ((b & 0x80) == 0) {
        ++pos_;
        return b;
      }
    }
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = byte(what);
      value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return value;
    }
    fail(std::string("varint too long in ") + what);
  }

  /// A varint stored in a 32-bit field (IDs, line numbers): a larger
  /// value is corruption, reported at the varint's first byte.
  std::uint32_t u32(const char* what) {
    const std::size_t at = pos_;
    const std::uint64_t value = varint(what);
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      fail_at(at, std::string(what) + " " + std::to_string(value) +
                      " does not fit in 32 bits");
    }
    return static_cast<std::uint32_t>(value);
  }

  /// A varint that counts elements each at least one byte wide, so any
  /// value beyond the remaining span is structurally impossible.
  std::uint64_t count(const char* what) {
    const std::uint64_t value = varint(what);
    if (value > remaining()) {
      fail("implausible " + std::string(what) + " (" + std::to_string(value) +
           " with " + std::to_string(remaining()) + " bytes left)");
    }
    return value;
  }

  std::uint32_t fixed32(const char* what) {
    if (remaining() < 4) fail(std::string("truncated ") + what);
    const std::uint32_t value = get_u32le(bytes_, pos_);
    pos_ += 4;
    return value;
  }

  std::string_view take(std::size_t length, const char* what) {
    if (length > remaining()) fail(std::string("truncated ") + what);
    const std::string_view span = bytes_.substr(pos_, length);
    pos_ += length;
    return span;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_;
  std::size_t end_;
};

void put_id_list(std::string& out, const std::vector<ItemId>& ids) {
  put_varint(out, ids.size());
  for (const ItemId id : ids) put_varint(out, id);
}

void encode_entry(std::string& out, const HliEntry& entry, StringPool& pool) {
  put_varint(out, pool.intern(entry.unit_name));
  put_varint(out, entry.next_id);
  put_varint(out, entry.line_table.lines().size());
  for (const LineEntry& line : entry.line_table.lines()) {
    put_varint(out, line.line);
    put_varint(out, line.items.size());
    for (const ItemEntry& item : line.items) {
      put_varint(out, item.id);
      out.push_back(static_cast<char>(item.type));
    }
  }
  put_varint(out, entry.regions.size());
  put_varint(out, entry.root_region);
  for (const RegionEntry& region : entry.regions) {
    put_varint(out, region.id);
    out.push_back(region.type == RegionType::Loop ? 1 : 0);
    put_varint(out, region.parent);
    put_varint(out, region.first_line);
    put_varint(out, region.last_line);
    put_varint(out, region.children.size());
    for (const RegionId c : region.children) put_varint(out, c);

    put_varint(out, region.classes.size());
    for (const EquivClass& cls : region.classes) {
      put_varint(out, cls.id);
      const std::uint8_t flags =
          (cls.type == EquivAccType::Maybe ? 1u : 0u) |
          (cls.unknown_target ? 2u : 0u) | (cls.has_write ? 4u : 0u) |
          (cls.loop_invariant ? 8u : 0u);
      out.push_back(static_cast<char>(flags));
      put_varint(out, pool.intern(cls.base));
      put_varint(out, pool.intern(cls.display));
      put_id_list(out, cls.member_items);
      put_id_list(out, cls.member_subclasses);
    }

    put_varint(out, region.aliases.size());
    for (const AliasEntry& alias : region.aliases) {
      put_id_list(out, alias.classes);
    }

    put_varint(out, region.lcdds.size());
    for (const LcddEntry& dep : region.lcdds) {
      put_varint(out, dep.src);
      put_varint(out, dep.dst);
      const std::uint8_t flags = (dep.type == DepType::Maybe ? 1u : 0u) |
                                 (dep.distance ? 2u : 0u);
      out.push_back(static_cast<char>(flags));
      if (dep.distance) put_varint(out, zigzag(*dep.distance));
    }

    put_varint(out, region.call_effects.size());
    for (const CallEffectEntry& eff : region.call_effects) {
      const std::uint8_t flags =
          (eff.is_subregion ? 1u : 0u) | (eff.unknown ? 2u : 0u);
      out.push_back(static_cast<char>(flags));
      put_varint(out, eff.is_subregion ? eff.subregion : eff.call_item);
      put_id_list(out, eff.ref_classes);
      put_id_list(out, eff.mod_classes);
    }
  }
}

std::vector<ItemId> decode_id_list(ByteCursor& cur, const char* what) {
  const std::uint64_t count = cur.count(what);
  std::vector<ItemId> ids;
  ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.push_back(cur.u32(what));
  }
  return ids;
}

std::string_view pool_string(const HlibContainer& container,
                             std::uint64_t id, const ByteCursor& cur,
                             const char* what) {
  if (id >= container.pool.size()) {
    cur.fail("string id " + std::to_string(id) + " out of range for " + what +
             " (pool size " + std::to_string(container.pool.size()) + ")");
  }
  return container.pool[static_cast<std::size_t>(id)];
}

}  // namespace

bool is_hlib(std::string_view bytes) {
  return bytes.size() >= sizeof(kHlibMagic) &&
         std::memcmp(bytes.data(), kHlibMagic, sizeof(kHlibMagic)) == 0;
}

std::string write_hlib(const HliFile& file) {
  std::string out;
  {
    std::size_t estimate = kHeaderSize + kFooterSize + 64;
    for (const HliEntry& entry : file.entries) {
      estimate += estimate_entry_size(entry);  // Text bound >= binary size.
    }
    out.reserve(estimate);
  }
  out.append(kHlibMagic, sizeof(kHlibMagic));
  out.push_back(static_cast<char>(kHlibVersion));
  out.append(3, '\0');

  StringPool pool;
  std::vector<HlibContainer::Unit> units;
  units.reserve(file.entries.size());
  for (const HliEntry& entry : file.entries) {
    HlibContainer::Unit unit;
    unit.offset = out.size();
    encode_entry(out, entry, pool);
    unit.name_id = pool.intern(entry.unit_name);
    unit.length = out.size() - unit.offset;
    unit.checksum = fnv1a(std::string_view(out).substr(
        static_cast<std::size_t>(unit.offset),
        static_cast<std::size_t>(unit.length)));
    units.push_back(unit);
  }

  const std::size_t meta_offset = out.size();
  put_varint(out, pool.size());
  for (const std::string* text : pool.strings()) {
    put_varint(out, text->size());
    out += *text;
  }
  put_varint(out, units.size());
  for (const HlibContainer::Unit& unit : units) {
    put_varint(out, unit.name_id);
    put_varint(out, unit.offset);
    put_varint(out, unit.length);
    put_u32le(out, unit.checksum);
  }
  const std::size_t meta_length = out.size() - meta_offset;
  const std::uint32_t meta_checksum =
      fnv1a(std::string_view(out).substr(meta_offset, meta_length));

  put_u64le(out, meta_offset);
  put_u64le(out, meta_length);
  put_u32le(out, meta_checksum);
  put_u32le(out, 0);  // Reserved.
  out.append(kFooterMagic, sizeof(kFooterMagic));
  return out;
}

HlibContainer open_hlib(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kFooterSize) {
    fail_at(bytes.size(), "file too small to be an HLIB container "
                          "(truncated?)");
  }
  if (!is_hlib(bytes)) fail_at(0, "bad magic (not an HLIB file)");
  const auto version = static_cast<std::uint8_t>(bytes[4]);
  if (version != kHlibVersion) {
    fail_at(4, "unsupported HLIB version " + std::to_string(version) +
               " (reader supports " + std::to_string(kHlibVersion) + ")");
  }
  // v1 writes the reserved header bytes as zero; anything else is
  // corruption (no checksum covers the header itself).
  for (std::size_t i = 5; i < kHeaderSize; ++i) {
    if (bytes[i] != 0) {
      fail_at(i, "nonzero reserved header byte (corrupted file?)");
    }
  }

  const std::size_t footer = bytes.size() - kFooterSize;
  if (std::memcmp(bytes.data() + footer + 24, kFooterMagic,
                  sizeof(kFooterMagic)) != 0) {
    fail_at(footer + 24, "missing footer magic (truncated or corrupted "
                         "file?)");
  }
  const std::uint64_t meta_offset = get_u64le(bytes, footer);
  const std::uint64_t meta_length = get_u64le(bytes, footer + 8);
  const std::uint32_t meta_checksum = get_u32le(bytes, footer + 16);
  if (meta_offset < kHeaderSize || meta_length > footer ||
      meta_offset > footer - meta_length) {
    fail_at(footer, "meta block out of bounds");
  }
  const std::string_view meta =
      bytes.substr(static_cast<std::size_t>(meta_offset),
                   static_cast<std::size_t>(meta_length));
  if (fnv1a(meta) != meta_checksum) {
    fail_at(static_cast<std::size_t>(meta_offset),
            "meta block checksum mismatch (corrupted file?)");
  }
  c_checksum_verifies.add();

  HlibContainer container;
  container.bytes = bytes;
  ByteCursor cur(bytes, static_cast<std::size_t>(meta_offset),
                 static_cast<std::size_t>(meta_offset + meta_length));
  const std::uint64_t pool_count = cur.count("string pool count");
  container.pool.reserve(pool_count);
  for (std::uint64_t i = 0; i < pool_count; ++i) {
    const std::uint64_t length = cur.varint("string length");
    container.pool.emplace_back(
        cur.take(static_cast<std::size_t>(length), "pool string"));
  }
  const std::uint64_t unit_count = cur.count("unit index count");
  container.units.reserve(unit_count);
  for (std::uint64_t i = 0; i < unit_count; ++i) {
    HlibContainer::Unit unit;
    unit.name_id = cur.u32("unit name id");
    unit.offset = cur.varint("unit offset");
    unit.length = cur.varint("unit length");
    unit.checksum = cur.fixed32("unit checksum");
    if (unit.name_id >= container.pool.size()) {
      cur.fail("unit name id " + std::to_string(unit.name_id) +
               " out of range (pool size " +
               std::to_string(container.pool.size()) + ")");
    }
    if (unit.offset < kHeaderSize || unit.length > meta_offset ||
        unit.offset > meta_offset - unit.length) {
      cur.fail("unit '" + std::string(container.pool[unit.name_id]) +
               "' payload out of bounds");
    }
    container.units.push_back(unit);
  }
  if (!cur.done()) cur.fail("trailing bytes in meta block");
  return container;
}

HliEntry decode_hlib_unit(const HlibContainer& container, std::size_t index) {
  const HlibContainer::Unit& unit = container.units.at(index);
  const auto begin = static_cast<std::size_t>(unit.offset);
  const auto length = static_cast<std::size_t>(unit.length);
  if (fnv1a(container.bytes.substr(begin, length)) != unit.checksum) {
    fail_at(begin, "unit '" + std::string(container.unit_name(index)) +
                   "' payload checksum mismatch (corrupted file?)");
  }
  c_checksum_verifies.add();
  ByteCursor cur(container.bytes, begin, begin + length);

  HliEntry entry;
  entry.unit_name = pool_string(container, cur.varint("unit name"), cur,
                                "unit name");
  entry.next_id = cur.u32("next_id");

  const std::uint64_t line_count = cur.count("line count");
  auto& lines = entry.line_table.mutable_lines();
  lines.reserve(line_count);
  for (std::uint64_t l = 0; l < line_count; ++l) {
    LineEntry line;
    line.line = cur.u32("line number");
    const std::uint64_t item_count = cur.count("line item count");
    line.items.reserve(item_count);
    for (std::uint64_t i = 0; i < item_count; ++i) {
      ItemEntry item;
      item.id = cur.u32("item id");
      const std::uint8_t type = cur.byte("item type");
      if (type > static_cast<std::uint8_t>(ItemType::ArgLoad)) {
        cur.fail("bad item type " + std::to_string(type));
      }
      item.type = static_cast<ItemType>(type);
      line.items.push_back(item);
    }
    lines.push_back(std::move(line));
  }

  const std::uint64_t region_count = cur.count("region count");
  entry.root_region = cur.u32("root region");
  entry.regions.reserve(region_count);
  for (std::uint64_t ri = 0; ri < region_count; ++ri) {
    RegionEntry region;
    region.id = cur.u32("region id");
    const std::uint8_t rtype = cur.byte("region type");
    if (rtype > 1) cur.fail("bad region type " + std::to_string(rtype));
    region.type = rtype == 1 ? RegionType::Loop : RegionType::Unit;
    region.parent = cur.u32("region parent");
    region.first_line = cur.u32("first line");
    region.last_line = cur.u32("last line");
    const std::uint64_t child_count = cur.count("child count");
    region.children.reserve(child_count);
    for (std::uint64_t i = 0; i < child_count; ++i) {
      region.children.push_back(cur.u32("child id"));
    }

    const std::uint64_t class_count = cur.count("class count");
    region.classes.reserve(class_count);
    for (std::uint64_t i = 0; i < class_count; ++i) {
      EquivClass cls;
      cls.id = cur.u32("class id");
      const std::uint8_t flags = cur.byte("class flags");
      if (flags > 0x0f) cur.fail("bad class flags " + std::to_string(flags));
      cls.type = (flags & 1) != 0 ? EquivAccType::Maybe : EquivAccType::Definite;
      cls.unknown_target = (flags & 2) != 0;
      cls.has_write = (flags & 4) != 0;
      cls.loop_invariant = (flags & 8) != 0;
      cls.base = pool_string(container, cur.varint("class base"), cur,
                             "class base");
      cls.display = pool_string(container, cur.varint("class display"), cur,
                                "class display");
      cls.member_items = decode_id_list(cur, "class items");
      cls.member_subclasses = decode_id_list(cur, "class subclasses");
      region.classes.push_back(std::move(cls));
    }

    const std::uint64_t alias_count = cur.count("alias count");
    region.aliases.reserve(alias_count);
    for (std::uint64_t i = 0; i < alias_count; ++i) {
      AliasEntry alias;
      alias.classes = decode_id_list(cur, "alias classes");
      region.aliases.push_back(std::move(alias));
    }

    const std::uint64_t lcdd_count = cur.count("lcdd count");
    region.lcdds.reserve(lcdd_count);
    for (std::uint64_t i = 0; i < lcdd_count; ++i) {
      LcddEntry dep;
      dep.src = cur.u32("lcdd src");
      dep.dst = cur.u32("lcdd dst");
      const std::uint8_t flags = cur.byte("lcdd flags");
      if (flags > 3) cur.fail("bad lcdd flags " + std::to_string(flags));
      dep.type = (flags & 1) != 0 ? DepType::Maybe : DepType::Definite;
      if ((flags & 2) != 0) {
        dep.distance = unzigzag(cur.varint("lcdd distance"));
      }
      region.lcdds.push_back(dep);
    }

    const std::uint64_t eff_count = cur.count("call effect count");
    region.call_effects.reserve(eff_count);
    for (std::uint64_t i = 0; i < eff_count; ++i) {
      CallEffectEntry eff;
      const std::uint8_t flags = cur.byte("call effect flags");
      if (flags > 3) cur.fail("bad call effect flags " + std::to_string(flags));
      eff.is_subregion = (flags & 1) != 0;
      eff.unknown = (flags & 2) != 0;
      const std::uint32_t key = cur.u32("call effect key");
      if (eff.is_subregion) {
        eff.subregion = key;
      } else {
        eff.call_item = key;
      }
      eff.ref_classes = decode_id_list(cur, "call effect ref");
      eff.mod_classes = decode_id_list(cur, "call effect mod");
      region.call_effects.push_back(std::move(eff));
    }

    entry.regions.push_back(std::move(region));
  }
  if (!cur.done()) {
    cur.fail("trailing bytes in unit '" +
             std::string(container.unit_name(index)) + "'");
  }
  return entry;
}

HliFile read_hlib(std::string_view bytes) {
  const HlibContainer container = open_hlib(bytes);
  HliFile file;
  file.entries.reserve(container.units.size());
  for (std::size_t i = 0; i < container.units.size(); ++i) {
    file.entries.push_back(decode_hlib_unit(container, i));
  }
  return file;
}

HliFile read_any(std::string_view bytes) {
  return is_hlib(bytes) ? read_hlib(bytes) : read_hli(bytes);
}

}  // namespace hli::serialize
