// HLIB binary container tests: differential round-trips against the text
// format over all 14 workloads (decoded tables equal, verifier clean on
// both), container-level rejection of truncated/bit-flipped/garbage
// inputs with byte-offset diagnostics, and the string-pool dedup the
// packed encoding exists for.
#include "hli/serialize.hpp"

#include <gtest/gtest.h>

#include "hli/verify.hpp"
#include "hli_test_util.hpp"
#include "tests/testutil/hlib_patch.hpp"
#include "workloads/workloads.hpp"

namespace hli {
namespace {

using serialize::is_hlib;
using serialize::open_hlib;
using serialize::read_any;
using serialize::read_hli;
using serialize::read_hlib;
using serialize::write_hli;
using serialize::write_hlib;
using testing::expect_hli_equal;

constexpr const char* kProgram = R"(int a[10];
int b[10];
int sum;
double sqrt(double x);
void helper(double* p) { p[0] = 1.0; }
void foo(double* q, int n)
{
  double local[16];
  helper(local);
  for (int i = 0; i < 10; i++) {
    sum = sum + a[i];
    for (int j = 1; j < 10; j++) {
      b[j] = b[j] + b[j-1];
    }
  }
  q[n] = sum;
}
)";

TEST(BinarySerializeTest, RoundTripPreservesEverything) {
  testing::BuiltUnit built(kProgram);
  const std::string bytes = write_hlib(built.file);
  ASSERT_TRUE(is_hlib(bytes));
  expect_hli_equal(built.file, read_hlib(bytes));
}

TEST(BinarySerializeTest, RoundTripIsIdempotent) {
  testing::BuiltUnit built(kProgram);
  const std::string once = write_hlib(built.file);
  const std::string twice = write_hlib(read_hlib(once));
  EXPECT_EQ(once, twice);
}

TEST(BinarySerializeTest, EmptyFileRoundTrips) {
  const format::HliFile empty;
  const std::string bytes = write_hlib(empty);
  EXPECT_TRUE(is_hlib(bytes));
  EXPECT_TRUE(read_hlib(bytes).entries.empty());
}

TEST(BinarySerializeTest, ReadAnyDispatchesOnMagic) {
  testing::BuiltUnit built(kProgram);
  expect_hli_equal(built.file, read_any(write_hlib(built.file)));
  expect_hli_equal(built.file, read_any(write_hli(built.file)));
  EXPECT_FALSE(is_hlib(write_hli(built.file)));
}

TEST(BinarySerializeTest, BinaryIsSmallerThanText) {
  testing::BuiltUnit built(kProgram);
  EXPECT_LT(write_hlib(built.file).size(), write_hli(built.file).size());
}

TEST(BinarySerializeTest, StringPoolDedupesRepeatedNames) {
  testing::BuiltUnit built(kProgram);
  const std::string bytes = write_hlib(built.file);
  const serialize::HlibContainer container = open_hlib(bytes);
  // Base/display strings recur across classes and regions; the pool must
  // hold each distinct string once.
  std::size_t string_refs = 0;
  for (const auto& entry : built.file.entries) {
    ++string_refs;  // unit name
    for (const auto& region : entry.regions) {
      string_refs += 2 * region.classes.size();  // base + display
    }
  }
  EXPECT_GT(string_refs, container.pool.size());
  for (std::size_t i = 0; i < container.pool.size(); ++i) {
    for (std::size_t j = i + 1; j < container.pool.size(); ++j) {
      EXPECT_NE(container.pool[i], container.pool[j])
          << "duplicate pool string at ids " << i << " and " << j;
    }
  }
}

// --- Differential round-trip over all 14 workloads ---

class WorkloadRoundTripTest
    : public ::testing::TestWithParam<workloads::Workload> {};

TEST_P(WorkloadRoundTripTest, TextAndBinaryDecodeEqualAndVerifyClean) {
  testing::BuiltUnit built(GetParam().source);
  const std::string text = write_hli(built.file);
  const std::string binary = write_hlib(built.file);

  const format::HliFile from_text = read_hli(text);
  const format::HliFile from_binary = read_hlib(binary);
  expect_hli_equal(built.file, from_text);
  expect_hli_equal(built.file, from_binary);
  expect_hli_equal(from_text, from_binary);

  verify::VerifyOptions vopts;
  vopts.audit_on_findings = true;
  std::string report;
  const verify::VerifyResult text_result =
      verify::verify_file(from_text, vopts, &report);
  EXPECT_TRUE(text_result.ok()) << report;
  report.clear();
  const verify::VerifyResult binary_result =
      verify::verify_file(from_binary, vopts, &report);
  EXPECT_TRUE(binary_result.ok()) << report;
  EXPECT_EQ(text_result.checks_run, binary_result.checks_run);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadRoundTripTest,
    ::testing::ValuesIn(workloads::all_workloads()),
    [](const ::testing::TestParamInfo<workloads::Workload>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '.' || c == '-') c = '_';
      }
      return name;
    });

// --- Corruption rejection ---

/// Any rejection must be a CompileError whose message names a byte
/// offset, so a red --verify run points at the poisoned bytes.
void expect_rejected_with_offset(const std::string& bytes) {
  try {
    (void)read_hlib(bytes);
    FAIL() << "corrupted container was accepted";
  } catch (const support::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("HLIB error at offset"),
              std::string::npos)
        << e.what();
  }
}

TEST(BinarySerializeTest, RejectsTruncationAtEveryGranularity) {
  testing::BuiltUnit built(kProgram);
  const std::string bytes = write_hlib(built.file);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{10}, bytes.size() / 2,
        bytes.size() - 40, bytes.size() - 8, bytes.size() - 1}) {
    expect_rejected_with_offset(bytes.substr(0, keep));
  }
}

TEST(BinarySerializeTest, RejectsBitFlipAnywhere) {
  testing::BuiltUnit built(kProgram);
  const std::string bytes = write_hlib(built.file);
  // Sample positions across the payloads, meta block, and footer.  A
  // flipped header magic byte is "not an HLIB file" — also an error.
  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 64) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    try {
      (void)read_hlib(corrupt);
      FAIL() << "bit flip at offset " << pos << " was accepted";
    } catch (const support::CompileError& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << e.what();
    }
  }
}

TEST(BinarySerializeTest, RejectsUnitPayloadChecksumMismatch) {
  testing::BuiltUnit built(kProgram);
  const std::string bytes = write_hlib(built.file);
  const serialize::HlibContainer container = open_hlib(bytes);
  ASSERT_FALSE(container.units.empty());
  std::string corrupt = bytes;
  const auto at = static_cast<std::size_t>(container.units[0].offset) + 1;
  corrupt[at] = static_cast<char>(corrupt[at] ^ 0x01);
  // The meta block is untouched, so lazy open still succeeds...
  const serialize::HlibContainer reopened = open_hlib(corrupt);
  EXPECT_EQ(reopened.units.size(), container.units.size());
  // ...but decoding the poisoned unit reports its offset and checksum.
  try {
    (void)serialize::decode_hlib_unit(reopened, 0);
    FAIL() << "checksum mismatch not detected";
  } catch (const support::CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("offset " +
                        std::to_string(container.units[0].offset)),
              std::string::npos)
        << what;
  }
}

TEST(BinarySerializeTest, ResealedPatchWithinRangeRoundTrips) {
  testing::BuiltUnit built(kProgram);
  const std::string bytes = write_hlib(built.file);
  const format::ItemId next_id = built.file.entries.at(0).next_id;
  // Re-sealing with the value the unit already has reproduces the file.
  EXPECT_EQ(testutil::hlib_with_next_id(bytes, next_id), bytes);
  const format::HliFile read =
      read_hlib(testutil::hlib_with_next_id(bytes, UINT32_MAX));
  EXPECT_EQ(read.entries.at(0).next_id, UINT32_MAX);
}

TEST(BinarySerializeTest, RejectsIdBeyond32BitsAtItsOffset) {
  testing::BuiltUnit built(kProgram);
  std::size_t field = 0;
  const std::string corrupt = testutil::hlib_with_next_id(
      write_hlib(built.file), (std::uint64_t{1} << 32) + 5, &field);
  // Every checksum matches: only the field decoder can catch the value.
  const serialize::HlibContainer container = open_hlib(corrupt);
  try {
    (void)serialize::decode_hlib_unit(container, 0);
    FAIL() << "a 33-bit next_id was truncated into the 32-bit field";
  } catch (const support::CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HLIB error at offset " + std::to_string(field) +
                        ": next_id 4294967301 does not fit in 32 bits"),
              std::string::npos)
        << what;
  }
}

TEST(BinarySerializeTest, RejectsWrongVersion) {
  testing::BuiltUnit built(kProgram);
  std::string bytes = write_hlib(built.file);
  bytes[4] = 9;  // Future version.
  try {
    (void)read_hlib(bytes);
    FAIL() << "wrong version accepted";
  } catch (const support::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported HLIB version"),
              std::string::npos)
        << e.what();
  }
}

TEST(BinarySerializeTest, RejectsGarbage) {
  expect_rejected_with_offset("HLIB");  // Magic alone, no container.
  try {
    (void)read_hlib("this is not a binary HLI container, not even close");
    FAIL() << "garbage accepted";
  } catch (const support::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hli
