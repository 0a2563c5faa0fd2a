// Wire protocol for the hlid compile service (docs/compile-service.md).
//
// Every message is one FRAME: a fixed 12-byte header followed by a
// payload of TLV fields.
//
//   header:  magic "HLSV" (4) | version u8 | type u8 | flags u16 LE (0)
//            | payload_len u32 LE
//   field:   id u8 | len u32 LE | len bytes
//
// The format is pinned by tests/service/protocol_golden_test.cpp: any
// byte-level change here must bump kProtocolVersion and update the
// golden frames deliberately.  A server receiving a frame whose version
// differs from its own rejects it with ErrorCode::VersionMismatch
// before looking at the payload.
//
// Pipeline options travel as a canonical `key=value` text document
// (encode_options/decode_options) rather than a struct dump, so the
// wire stays stable across PipelineOptions layout changes and a decoded
// request can be validated field by field.  Machines are named (r4600 /
// r10000): custom latency tables do not cross the wire.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "driver/pipeline.hpp"

namespace hli::service {

inline constexpr char kMagic[4] = {'H', 'L', 'S', 'V'};
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderBytes = 12;
/// Upper bound a reader accepts for one payload; a header announcing
/// more is a protocol error (malformed or hostile frame), not an
/// allocation request.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  Request = 1,     ///< Compile a batch of sources.
  Response = 2,    ///< Per-source results, same order as the request.
  Error = 3,       ///< ErrorCode + message (+ RequestId when known).
  Ping = 4,        ///< Liveness probe; empty payload.
  Pong = 5,        ///< Reply to Ping; empty payload.
  Stats = 6,       ///< Ask for the server's service.* counter snapshot.
  StatsReply = 7,  ///< CountersText field with `name=value` lines.
  Shutdown = 8,    ///< Ask the server to stop accepting and exit.
};

enum class Field : std::uint8_t {
  RequestId = 1,     ///< u64 LE; echoed verbatim in the reply.
  Options = 2,       ///< Canonical options text (encode_options).
  Source = 3,        ///< One mini-C source; repeated, order significant.
  StorePath = 4,     ///< Server-side path of a shared .hli/.hlib store.
  RtlDump = 5,       ///< Response: one per source, backend::to_string concat.
  StatsText = 6,     ///< Response: one per source, render_program_stats.
  VerifyLog = 7,     ///< Response: one per source (may be empty).
  AuditLog = 8,      ///< Response: one per source (may be empty).
  ErrorCode = 9,     ///< u16 LE (Error frames).
  Message = 10,      ///< Human-readable error text (Error frames).
  CountersText = 11, ///< StatsReply: `name=value` lines, name-sorted.
};

enum class ErrorCode : std::uint16_t {
  BadMagic = 1,         ///< First four bytes are not "HLSV".
  VersionMismatch = 2,  ///< Frame version != server version.
  BadFrame = 3,         ///< Header/TLV structure malformed or truncated.
  BadRequest = 4,       ///< Well-formed frame, invalid content (options…).
  CompileFailed = 5,    ///< Front-end/pipeline CompileError; message has it.
  ShuttingDown = 6,     ///< Server is stopping; retry elsewhere.
  Internal = 7,         ///< Unexpected server-side failure.
};

/// Protocol-level failure (malformed frame, unexpected type, server
/// Error frame).  `code` is ErrorCode::Internal when the failure was
/// local (socket EOF mid-frame) rather than a server-reported error.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

struct Frame {
  FrameType type = FrameType::Ping;
  std::string payload;
};

struct Tlv {
  Field id;
  std::string value;
};

// -- Encoding ---------------------------------------------------------------

/// Header + payload as one contiguous byte string, version
/// kProtocolVersion.  `version` is overridable for the mismatch tests.
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload,
                                       std::uint8_t version = kProtocolVersion);

void append_field(std::string& payload, Field id, std::string_view value);
void append_u64_field(std::string& payload, Field id, std::uint64_t value);
void append_u16_field(std::string& payload, Field id, std::uint16_t value);

/// Splits a payload into fields; throws ServiceError(BadFrame) on a
/// truncated TLV.  Unknown field ids are preserved (forward compat:
/// readers skip what they do not understand).
[[nodiscard]] std::vector<Tlv> parse_fields(std::string_view payload);

/// First field with `id`, or nullptr.
[[nodiscard]] const Tlv* find_field(const std::vector<Tlv>& fields, Field id);

[[nodiscard]] std::uint64_t decode_u64(const Tlv& field);
[[nodiscard]] std::uint16_t decode_u16(const Tlv& field);

// -- Incremental frame reading ----------------------------------------------

/// Byte-stream decoder: feed() arbitrary chunks, poll next().  Tolerates
/// any fragmentation; throws ServiceError on bad magic, version
/// mismatch, or an over-limit payload length, leaving the reader
/// unusable (the connection should be dropped).
class FrameDecoder {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }
  /// Extracts the next complete frame into `out`; false when more bytes
  /// are needed.
  [[nodiscard]] bool next(Frame& out);

 private:
  std::string buffer_;
};

// -- Options codec ----------------------------------------------------------

/// Canonical `key=value\n` text for every wire-transportable pipeline
/// option, keys in fixed order — two equal option sets always encode to
/// identical bytes (the response cache keys off this text).
[[nodiscard]] std::string encode_options(const driver::PipelineOptions& options);

/// Parses encode_options output.  Throws ServiceError(BadRequest) on an
/// unknown key, malformed value, or unknown machine name; fields absent
/// from the text keep their PipelineOptions defaults.
[[nodiscard]] driver::PipelineOptions decode_options(std::string_view text);

// -- Deterministic result rendering -----------------------------------------

/// Canonical text for one compiled program's statistics + telemetry
/// counters: every ProgramStats field as `key=value`, then the nonzero
/// counters as `counter.<name>=value`.  This is the byte-identity
/// surface the service tests and the hlifuzz service leg compare —
/// warm-vs-cold and service-vs-direct must match on exactly these
/// bytes.
[[nodiscard]] std::string render_program_stats(
    const driver::CompiledProgram& compiled);

/// The RTL dump surface: backend::to_string of every function,
/// concatenated with no separator — byte-identical to `hlic --dump-rtl`.
[[nodiscard]] std::string render_rtl(const driver::CompiledProgram& compiled);

}  // namespace hli::service
