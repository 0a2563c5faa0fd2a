// Golden-byte tests pinning the hlid wire format (service/wire.hpp).
//
// These frames are the protocol's compatibility contract: any byte
// that moves here is a wire break and must come with a deliberate
// kProtocolVersion bump, not an accidental refactor.  The tests build
// frames through the public encoder and compare against hand-assembled
// byte strings, then check the decoder's rejection paths (bad magic,
// version mismatch, truncated TLVs, oversized payloads) — the same
// paths a server relies on to drop hostile or stale clients.
#include <gtest/gtest.h>

#include <string>

#include "service/wire.hpp"

namespace {

using namespace hli::service;

std::string bytes(std::initializer_list<unsigned char> list) {
  std::string out;
  for (const unsigned char b : list) out.push_back(static_cast<char>(b));
  return out;
}

TEST(ProtocolGoldenTest, HeaderLayoutIsPinned) {
  // magic "HLSV" | version 2 | type Ping=4 | flags 0 | payload_len 0.
  const std::string frame = encode_frame(FrameType::Ping, "");
  EXPECT_EQ(frame, bytes({'H', 'L', 'S', 'V', 2, 4, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(frame.size(), kHeaderBytes);
}

TEST(ProtocolGoldenTest, PayloadLengthIsLittleEndian) {
  const std::string frame = encode_frame(FrameType::Request, "abc");
  EXPECT_EQ(frame.substr(0, kHeaderBytes),
            bytes({'H', 'L', 'S', 'V', 2, 1, 0, 0, 3, 0, 0, 0}));
  EXPECT_EQ(frame.substr(kHeaderBytes), "abc");
}

TEST(ProtocolGoldenTest, TlvFieldLayoutIsPinned) {
  std::string payload;
  append_field(payload, Field::Source, "int main");
  // id 3 | len 8 LE | bytes.
  EXPECT_EQ(payload.substr(0, 5), bytes({3, 8, 0, 0, 0}));
  EXPECT_EQ(payload.substr(5), "int main");
}

TEST(ProtocolGoldenTest, U64FieldIsLittleEndian) {
  std::string payload;
  append_u64_field(payload, Field::RequestId, 0x0102030405060708ULL);
  EXPECT_EQ(payload,
            bytes({1, 8, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1}));
  const std::vector<Tlv> fields = parse_fields(payload);
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(decode_u64(fields[0]), 0x0102030405060708ULL);
}

TEST(ProtocolGoldenTest, U16FieldIsLittleEndian) {
  std::string payload;
  append_u16_field(payload, Field::ErrorCode,
                   static_cast<std::uint16_t>(ErrorCode::VersionMismatch));
  EXPECT_EQ(payload, bytes({9, 2, 0, 0, 0, 2, 0}));
}

TEST(ProtocolGoldenTest, FrameTypeValuesArePinned) {
  EXPECT_EQ(static_cast<int>(FrameType::Request), 1);
  EXPECT_EQ(static_cast<int>(FrameType::Response), 2);
  EXPECT_EQ(static_cast<int>(FrameType::Error), 3);
  EXPECT_EQ(static_cast<int>(FrameType::Ping), 4);
  EXPECT_EQ(static_cast<int>(FrameType::Pong), 5);
  EXPECT_EQ(static_cast<int>(FrameType::Stats), 6);
  EXPECT_EQ(static_cast<int>(FrameType::StatsReply), 7);
  EXPECT_EQ(static_cast<int>(FrameType::Shutdown), 8);
}

TEST(ProtocolGoldenTest, FieldIdsArePinned) {
  EXPECT_EQ(static_cast<int>(Field::RequestId), 1);
  EXPECT_EQ(static_cast<int>(Field::Options), 2);
  EXPECT_EQ(static_cast<int>(Field::Source), 3);
  EXPECT_EQ(static_cast<int>(Field::StorePath), 4);
  EXPECT_EQ(static_cast<int>(Field::RtlDump), 5);
  EXPECT_EQ(static_cast<int>(Field::StatsText), 6);
  EXPECT_EQ(static_cast<int>(Field::VerifyLog), 7);
  EXPECT_EQ(static_cast<int>(Field::AuditLog), 8);
  EXPECT_EQ(static_cast<int>(Field::ErrorCode), 9);
  EXPECT_EQ(static_cast<int>(Field::Message), 10);
  EXPECT_EQ(static_cast<int>(Field::CountersText), 11);
}

TEST(ProtocolGoldenTest, DecoderRoundTripsAnyFragmentation) {
  std::string payload;
  append_u64_field(payload, Field::RequestId, 42);
  append_field(payload, Field::Source, "int main() { return 0; }");
  const std::string frame = encode_frame(FrameType::Request, payload);

  // Feed one byte at a time: the reassembled frame must be identical.
  FrameDecoder decoder;
  Frame out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.feed(std::string_view(frame).substr(i, 1));
    EXPECT_FALSE(decoder.next(out)) << "frame complete after " << i;
  }
  decoder.feed(std::string_view(frame).substr(frame.size() - 1));
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.type, FrameType::Request);
  EXPECT_EQ(out.payload, payload);
}

TEST(ProtocolGoldenTest, DecoderRejectsBadMagic) {
  FrameDecoder decoder;
  decoder.feed(bytes({'N', 'O', 'P', 'E', 2, 4, 0, 0, 0, 0, 0, 0}));
  Frame out;
  try {
    (void)decoder.next(out);
    FAIL() << "bad magic accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadMagic);
  }
}

TEST(ProtocolGoldenTest, DecoderRejectsVersionMismatch) {
  // Frames from the retired protocol v1 and a hypothetical v3 must both
  // be rejected BEFORE the payload is interpreted.
  for (const std::uint8_t version : {1, 3}) {
    const std::string frame = encode_frame(FrameType::Ping, "", version);
    FrameDecoder decoder;
    decoder.feed(frame);
    Frame out;
    try {
      (void)decoder.next(out);
      FAIL() << "protocol version " << int{version} << " accepted";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ErrorCode::VersionMismatch);
    }
  }
}

TEST(ProtocolGoldenTest, DecoderRejectsOversizedPayloadAnnouncement) {
  std::string header = bytes({'H', 'L', 'S', 'V', 2, 1, 0, 0});
  // payload_len = kMaxPayloadBytes + 1, little-endian.
  const std::uint32_t len = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((len >> (8 * i)) & 0xffU));
  }
  FrameDecoder decoder;
  decoder.feed(header);
  Frame out;
  try {
    (void)decoder.next(out);
    FAIL() << "oversized payload announcement accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadFrame);
  }
}

TEST(ProtocolGoldenTest, ParseFieldsRejectsTruncatedTlv) {
  std::string payload;
  append_field(payload, Field::Source, "hello");
  payload.pop_back();  // Value shorter than its announced length.
  try {
    (void)parse_fields(payload);
    FAIL() << "truncated TLV accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadFrame);
  }
}

TEST(ProtocolGoldenTest, ParseFieldsPreservesUnknownIds) {
  // Forward compatibility: a payload carrying an id this build does not
  // know must still parse, with the unknown field preserved.
  std::string payload;
  append_field(payload, static_cast<Field>(200), "future");
  append_field(payload, Field::Source, "int main");
  const std::vector<Tlv> fields = parse_fields(payload);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(static_cast<int>(fields[0].id), 200);
  EXPECT_EQ(fields[0].value, "future");
  EXPECT_EQ(find_field(fields, Field::Source)->value, "int main");
}

TEST(ProtocolGoldenTest, OptionsCodecRoundTripsDefaults) {
  const hli::driver::PipelineOptions defaults;
  const std::string text = encode_options(defaults);
  // The codec is the response cache's key surface: equal options must
  // encode to identical bytes, and the text must round-trip.
  EXPECT_EQ(text, encode_options(decode_options(text)));
  EXPECT_NE(text.find("use_hli=1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("verify_hli=off\n"), std::string::npos) << text;
  EXPECT_NE(text.find("encoding=text\n"), std::string::npos) << text;
  EXPECT_NE(text.find("frontend=c\n"), std::string::npos) << text;
  EXPECT_NE(text.find("open_world=0\n"), std::string::npos) << text;
}

TEST(ProtocolGoldenTest, OptionsCodecCarriesTheFrontend) {
  // The front-end selection must survive the wire: a BASIC compile
  // request served from a cache keyed without it would hand back C
  // results (and vice versa).
  hli::driver::PipelineOptions basic;
  basic.frontend_options.language = hli::frontend::Language::Basic;
  const std::string text = encode_options(basic);
  EXPECT_NE(text.find("frontend=basic\n"), std::string::npos) << text;
  EXPECT_EQ(decode_options(text).frontend_options.language,
            hli::frontend::Language::Basic);
  EXPECT_EQ(text, encode_options(decode_options(text)));
  try {
    (void)decode_options("frontend=cobol\n");
    FAIL() << "unknown front-end accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
}

TEST(ProtocolGoldenTest, OptionsCodecRejectsUnknownKeyAndBadValue) {
  try {
    (void)decode_options("warp_drive=1\n");
    FAIL() << "unknown option key accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
  try {
    (void)decode_options("use_hli=maybe\n");
    FAIL() << "bad bool accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
  try {
    (void)decode_options("machine=vax\n");
    FAIL() << "unknown machine accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
}

TEST(ProtocolGoldenTest, OptionsCodecHasNoScalarQueryKey) {
  // Scalar-vs-batched HLI queries is an in-process test reference only:
  // the key is not encoded, and a request still carrying it is refused.
  EXPECT_EQ(encode_options(hli::driver::PipelineOptions{}).find("batch_queries"),
            std::string::npos);
  try {
    (void)decode_options("batch_queries=0\n");
    FAIL() << "retired batch_queries key accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
}

}  // namespace
