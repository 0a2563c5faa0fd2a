#include "service/wire.hpp"

#include <cstring>
#include <optional>

#include "backend/rtl.hpp"
#include "frontend/contract.hpp"
#include "support/string_utils.hpp"

namespace hli::service {

namespace {

void append_u32_le(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xffU));
  }
}

std::uint32_t read_u32_le(const char* bytes) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload,
                         std::uint8_t version) {
  if (payload.size() > kMaxPayloadBytes) {
    throw ServiceError(ErrorCode::BadFrame, "payload exceeds frame limit");
  }
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic, sizeof(kMagic));
  frame.push_back(static_cast<char>(version));
  frame.push_back(static_cast<char>(type));
  frame.push_back(0);  // flags lo
  frame.push_back(0);  // flags hi
  append_u32_le(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

void append_field(std::string& payload, Field id, std::string_view value) {
  payload.push_back(static_cast<char>(id));
  append_u32_le(payload, static_cast<std::uint32_t>(value.size()));
  payload.append(value);
}

void append_u64_field(std::string& payload, Field id, std::uint64_t value) {
  std::string bytes;
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((value >> (8 * i)) & 0xffU));
  }
  append_field(payload, id, bytes);
}

void append_u16_field(std::string& payload, Field id, std::uint16_t value) {
  std::string bytes;
  bytes.push_back(static_cast<char>(value & 0xffU));
  bytes.push_back(static_cast<char>((value >> 8) & 0xffU));
  append_field(payload, id, bytes);
}

std::vector<Tlv> parse_fields(std::string_view payload) {
  std::vector<Tlv> fields;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 5) {
      throw ServiceError(ErrorCode::BadFrame, "truncated TLV header");
    }
    Tlv field;
    field.id = static_cast<Field>(static_cast<unsigned char>(payload[pos]));
    const std::uint32_t len = read_u32_le(payload.data() + pos + 1);
    pos += 5;
    if (payload.size() - pos < len) {
      throw ServiceError(ErrorCode::BadFrame, "truncated TLV value");
    }
    field.value.assign(payload.data() + pos, len);
    pos += len;
    fields.push_back(std::move(field));
  }
  return fields;
}

const Tlv* find_field(const std::vector<Tlv>& fields, Field id) {
  for (const Tlv& field : fields) {
    if (field.id == id) return &field;
  }
  return nullptr;
}

std::uint64_t decode_u64(const Tlv& field) {
  if (field.value.size() != 8) {
    throw ServiceError(ErrorCode::BadFrame, "u64 field with wrong width");
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(field.value[i]))
             << (8 * i);
  }
  return value;
}

std::uint16_t decode_u16(const Tlv& field) {
  if (field.value.size() != 2) {
    throw ServiceError(ErrorCode::BadFrame, "u16 field with wrong width");
  }
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(field.value[0]) |
      (static_cast<unsigned char>(field.value[1]) << 8));
}

bool FrameDecoder::next(Frame& out) {
  if (buffer_.size() < kHeaderBytes) return false;
  if (std::memcmp(buffer_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ServiceError(ErrorCode::BadMagic, "bad frame magic");
  }
  const auto version = static_cast<std::uint8_t>(buffer_[4]);
  if (version != kProtocolVersion) {
    throw ServiceError(ErrorCode::VersionMismatch,
                       "protocol version " + std::to_string(version) +
                           " != " + std::to_string(kProtocolVersion));
  }
  const std::uint32_t payload_len = read_u32_le(buffer_.data() + 8);
  if (payload_len > kMaxPayloadBytes) {
    throw ServiceError(ErrorCode::BadFrame, "announced payload too large");
  }
  if (buffer_.size() < kHeaderBytes + payload_len) return false;
  out.type = static_cast<FrameType>(static_cast<unsigned char>(buffer_[5]));
  out.payload.assign(buffer_.data() + kHeaderBytes, payload_len);
  buffer_.erase(0, kHeaderBytes + payload_len);
  return true;
}

// -- Options codec ----------------------------------------------------------

namespace {

const char* verify_mode_name(driver::VerifyMode mode) {
  switch (mode) {
    case driver::VerifyMode::Off: return "off";
    case driver::VerifyMode::Warn: return "warn";
    case driver::VerifyMode::Fatal: return "fatal";
  }
  return "off";
}

driver::VerifyMode parse_verify_mode(std::string_view value,
                                     std::string_view key) {
  if (value == "off") return driver::VerifyMode::Off;
  if (value == "warn") return driver::VerifyMode::Warn;
  if (value == "fatal") return driver::VerifyMode::Fatal;
  throw ServiceError(ErrorCode::BadRequest,
                     "bad value '" + std::string(value) + "' for option '" +
                         std::string(key) + "'");
}

bool parse_bool(std::string_view value, std::string_view key) {
  if (value == "1") return true;
  if (value == "0") return false;
  throw ServiceError(ErrorCode::BadRequest,
                     "bad value '" + std::string(value) + "' for option '" +
                         std::string(key) + "'");
}

unsigned parse_unsigned(std::string_view value, std::string_view key) {
  std::uint64_t parsed = 0;
  if (!support::parse_u64(value, parsed) || parsed > 0xffffffffULL) {
    throw ServiceError(ErrorCode::BadRequest,
                       "bad value '" + std::string(value) + "' for option '" +
                           std::string(key) + "'");
  }
  return static_cast<unsigned>(parsed);
}

void append_option(std::string& out, std::string_view key,
                   std::string_view value) {
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back('\n');
}

// Exact match for string literals / verify_mode_name(): without it a
// `const char*` argument standard-converts to BOOL (pointer decay beats
// the user-defined string_view conversion) and encodes as "1".
void append_option(std::string& out, std::string_view key,
                   const char* value) {
  append_option(out, key, std::string_view(value));
}

void append_option(std::string& out, std::string_view key, bool value) {
  append_option(out, key, value ? std::string_view("1") : std::string_view("0"));
}

void append_option(std::string& out, std::string_view key, unsigned value) {
  append_option(out, key, std::string_view(std::to_string(value)));
}

}  // namespace

std::string encode_options(const driver::PipelineOptions& options) {
  std::string out;
  append_option(out, "use_hli", options.use_hli);
  append_option(out, "verify_hli", verify_mode_name(options.verify_hli));
  append_option(out, "encoding",
                options.hli_encoding == driver::HliEncoding::Binary
                    ? std::string_view("binary")
                    : std::string_view("text"));
  append_option(out, "cse", options.enable_cse);
  append_option(out, "constfold", options.enable_constfold);
  append_option(out, "dce", options.enable_dce);
  append_option(out, "licm", options.enable_licm);
  append_option(out, "unroll", options.enable_unroll);
  append_option(out, "unroll_factor", options.unroll_factor);
  append_option(out, "sched", options.enable_sched);
  append_option(out, "audit_deps", verify_mode_name(options.audit_deps));
  append_option(out, "irdep_fallback", options.irdep_fallback);
  append_option(out, "analyze_loops", options.analyze_loops);
  append_option(out, "regalloc", options.enable_regalloc);
  append_option(out, "int_regs", options.regalloc.int_regs);
  append_option(out, "fp_regs", options.regalloc.fp_regs);
  append_option(out, "exec_threads", options.exec_threads);
  append_option(out, "machine", options.sched_machine.name);
  append_option(out, "frontend",
                frontend::language_name(options.frontend_options.language));
  append_option(out, "merge_classes",
                options.frontend_options.merge_equal_range_classes);
  append_option(out, "open_world", options.frontend_options.open_world_params);
  append_option(out, "counters", options.telemetry.counters);
  return out;
}

driver::PipelineOptions decode_options(std::string_view text) {
  driver::PipelineOptions options;
  for (const std::string_view line : support::split(text, '\n')) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ServiceError(ErrorCode::BadRequest,
                         "malformed option line '" + std::string(line) + "'");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "use_hli") {
      options.use_hli = parse_bool(value, key);
    } else if (key == "verify_hli") {
      options.verify_hli = parse_verify_mode(value, key);
    } else if (key == "encoding") {
      if (value == "binary") {
        options.hli_encoding = driver::HliEncoding::Binary;
      } else if (value == "text") {
        options.hli_encoding = driver::HliEncoding::Text;
      } else {
        throw ServiceError(ErrorCode::BadRequest,
                           "bad value '" + std::string(value) +
                               "' for option 'encoding'");
      }
    } else if (key == "cse") {
      options.enable_cse = parse_bool(value, key);
    } else if (key == "constfold") {
      options.enable_constfold = parse_bool(value, key);
    } else if (key == "dce") {
      options.enable_dce = parse_bool(value, key);
    } else if (key == "licm") {
      options.enable_licm = parse_bool(value, key);
    } else if (key == "unroll") {
      options.enable_unroll = parse_bool(value, key);
    } else if (key == "unroll_factor") {
      options.unroll_factor = parse_unsigned(value, key);
    } else if (key == "sched") {
      options.enable_sched = parse_bool(value, key);
    } else if (key == "audit_deps") {
      options.audit_deps = parse_verify_mode(value, key);
    } else if (key == "irdep_fallback") {
      options.irdep_fallback = parse_bool(value, key);
    } else if (key == "analyze_loops") {
      options.analyze_loops = parse_bool(value, key);
    } else if (key == "regalloc") {
      options.enable_regalloc = parse_bool(value, key);
    } else if (key == "int_regs") {
      options.regalloc.int_regs = parse_unsigned(value, key);
    } else if (key == "fp_regs") {
      options.regalloc.fp_regs = parse_unsigned(value, key);
    } else if (key == "exec_threads") {
      options.exec_threads = parse_unsigned(value, key);
    } else if (key == "machine") {
      if (value == "r4600" || value == "R4600") {
        options.sched_machine = machine::r4600();
      } else if (value == "r10000" || value == "R10000") {
        options.sched_machine = machine::r10000();
      } else {
        throw ServiceError(ErrorCode::BadRequest,
                           "unknown machine '" + std::string(value) +
                               "' (wire options name machines: r4600, "
                               "r10000)");
      }
    } else if (key == "frontend") {
      const std::optional<frontend::Language> language =
          frontend::language_from_name(value);
      if (!language.has_value()) {
        throw ServiceError(ErrorCode::BadRequest,
                           "unknown front-end '" + std::string(value) +
                               "' (wire options name front-ends: c, basic)");
      }
      options.frontend_options.language = *language;
    } else if (key == "merge_classes") {
      options.frontend_options.merge_equal_range_classes = parse_bool(value, key);
    } else if (key == "open_world") {
      options.frontend_options.open_world_params = parse_bool(value, key);
    } else if (key == "counters") {
      options.telemetry.counters = parse_bool(value, key);
    } else {
      throw ServiceError(ErrorCode::BadRequest,
                         "unknown option key '" + std::string(key) + "'");
    }
  }
  return options;
}

// -- Deterministic result rendering -----------------------------------------

namespace {

void append_stat(std::string& out, std::string_view key, std::uint64_t value) {
  out.append(key);
  out.push_back('=');
  out.append(std::to_string(value));
  out.push_back('\n');
}

}  // namespace

std::string render_program_stats(const driver::CompiledProgram& compiled) {
  const driver::ProgramStats& s = compiled.stats;
  std::string out;
  append_stat(out, "source_lines", s.source_lines);
  append_stat(out, "hli_bytes", s.hli_bytes);
  append_stat(out, "mapped_items", s.mapped_items);
  append_stat(out, "map_perfect", s.map_perfect ? 1 : 0);
  append_stat(out, "verify_checks", s.verify_checks);
  append_stat(out, "verify_findings", s.verify_findings);
  append_stat(out, "audit_checks", s.audit_checks);
  append_stat(out, "audit_findings", s.audit_findings);
  append_stat(out, "cse.exprs_reused", s.cse.exprs_reused);
  append_stat(out, "cse.loads_reused", s.cse.loads_reused);
  append_stat(out, "cse.entries_purged_at_calls", s.cse.entries_purged_at_calls);
  append_stat(out, "cse.entries_kept_at_calls", s.cse.entries_kept_at_calls);
  append_stat(out, "cse.loads_deleted", s.cse.loads_deleted);
  append_stat(out, "constfold.folded", s.constfold.folded);
  append_stat(out, "constfold.branches_resolved", s.constfold.branches_resolved);
  append_stat(out, "dce.deleted", s.dce.deleted);
  append_stat(out, "dce.deleted_loads", s.dce.deleted_loads);
  append_stat(out, "licm.pure_hoisted", s.licm.pure_hoisted);
  append_stat(out, "licm.loads_hoisted", s.licm.loads_hoisted);
  append_stat(out, "licm.loads_blocked_native", s.licm.loads_blocked_native);
  append_stat(out, "licm.loads_blocked_hli", s.licm.loads_blocked_hli);
  append_stat(out, "unroll.loops_unrolled", s.unroll.loops_unrolled);
  append_stat(out, "unroll.loops_rejected", s.unroll.loops_rejected);
  append_stat(out, "unroll.copies_made", s.unroll.copies_made);
  const auto append_dep = [&out](std::string_view prefix,
                                 const backend::DepStats& d) {
    const std::string p(prefix);
    append_stat(out, p + ".mem_queries", d.mem_queries);
    append_stat(out, p + ".gcc_yes", d.gcc_yes);
    append_stat(out, p + ".hli_yes", d.hli_yes);
    append_stat(out, p + ".combined_yes", d.combined_yes);
    append_stat(out, p + ".call_queries", d.call_queries);
    append_stat(out, p + ".call_edges_native", d.call_edges_native);
    append_stat(out, p + ".call_edges_hli", d.call_edges_hli);
    append_stat(out, p + ".blocks", d.blocks);
    append_stat(out, p + ".scheduled_insns", d.scheduled_insns);
    append_stat(out, p + ".fallback_queries", d.fallback_queries);
    append_stat(out, p + ".fallback_pruned", d.fallback_pruned);
    append_stat(out, p + ".fallback_pruned_calls", d.fallback_pruned_calls);
  };
  append_dep("sched", s.sched);
  append_dep("sched2", s.sched2);
  append_stat(out, "regalloc.intervals", s.regalloc.intervals);
  append_stat(out, "regalloc.spilled", s.regalloc.spilled);
  append_stat(out, "regalloc.spill_loads", s.regalloc.spill_loads);
  append_stat(out, "regalloc.spill_stores", s.regalloc.spill_stores);
  for (const auto& [name, value] : compiled.counters.total.nonzero()) {
    out.append("counter.");
    out.append(name);
    out.push_back('=');
    out.append(std::to_string(value));
    out.push_back('\n');
  }
  return out;
}

std::string render_rtl(const driver::CompiledProgram& compiled) {
  std::size_t bytes = 0;
  for (const backend::RtlFunction& func : compiled.rtl.functions) {
    bytes += backend::rtl_size_hint(func);
  }
  std::string out;
  out.reserve(bytes);
  for (const backend::RtlFunction& func : compiled.rtl.functions) {
    backend::append_rtl(out, func);
  }
  return out;
}

}  // namespace hli::service
