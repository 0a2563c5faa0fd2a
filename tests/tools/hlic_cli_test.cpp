// End-to-end CLI tests for hlic's lint mode (`--verify`) and the
// pipeline verifier flag (`--verify-hli`), driving the real binary:
// well-formed files pass, truncated/garbage files get a proper
// "malformed HLI" diagnostic and a nonzero exit, and a structurally
// corrupt (but parseable) file is rejected by the invariant verifier.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/serialize.hpp"
#include "tests/testutil/hlib_patch.hpp"
#include "tests/testutil/temp_path.hpp"

namespace {

#ifndef HLIC_PATH
#error "HLIC_PATH must point at the hlic binary"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved.
};

using hli::testutil::unique_temp_path;

RunResult run_hlic(const std::string& args) {
  const std::string out_path = unique_temp_path("out.txt");
  const std::string command =
      std::string(HLIC_PATH) + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(command.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result.output = std::move(buffer).str();
  return result;
}

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = unique_temp_path(name);
  std::ofstream out(path);
  out << content;
  return path;
}

std::string write_temp_binary(const std::string& name,
                              const std::string& bytes) {
  const std::string path = unique_temp_path(name);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// Like run_hlic but captures stdout alone — for --dump-hli output whose
/// bytes must not be interleaved with diagnostics.
RunResult run_hlic_stdout(const std::string& args) {
  const std::string out_path = unique_temp_path("stdout.bin");
  const std::string command = std::string(HLIC_PATH) + " " + args + " > " +
                              out_path + " 2>/dev/null";
  const int status = std::system(command.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result.output = std::move(buffer).str();
  return result;
}

// A unit with loops and a call, so the serialized file has every table.
constexpr const char* kProgram = R"(int a[16];
int sum;
void tick()
{
  sum = sum + 1;
}
void work()
{
  for (int i = 1; i < 16; i++) {
    a[i] = a[i-1] + sum;
    tick();
  }
}
)";

hli::format::HliFile build_hli_file() {
  hli::support::DiagnosticEngine diags;
  hli::frontend::Program prog = hli::frontend::compile_to_ast(kProgram, diags);
  return hli::builder::build_hli(prog);
}

std::string build_hli_text() {
  return hli::serialize::write_hli(build_hli_file());
}

TEST(HlicCliTest, VerifyAcceptsWellFormedFile) {
  const std::string path = write_temp("valid.hli", build_hli_text());
  const RunResult result = run_hlic("--verify " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("ok ("), std::string::npos) << result.output;
}

TEST(HlicCliTest, VerifyRejectsTruncatedFile) {
  const std::string text = build_hli_text();
  const std::string path =
      write_temp("truncated.hli", text.substr(0, text.size() / 2));
  const RunResult result = run_hlic("--verify " + path);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("hlic:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("malformed HLI"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, VerifyRejectsGarbageFile) {
  const std::string path =
      write_temp("garbage.hli", "this is not an HLI interchange file\n");
  const RunResult result = run_hlic("--verify " + path);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("malformed HLI"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, VerifyRejectsMissingFile) {
  const RunResult result = run_hlic("--verify /no/such/file.hli");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("cannot open"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, VerifyRejectsInvariantViolation) {
  // Parseable but structurally corrupt: drop the per-item REF/MOD entry
  // of the call (HV604).
  hli::format::HliFile file = build_hli_file();
  bool erased = false;
  for (auto& entry : file.entries) {
    for (auto& region : entry.regions) {
      const std::size_t before = region.call_effects.size();
      std::erase_if(region.call_effects,
                    [](const hli::format::CallEffectEntry& eff) {
                      return !eff.is_subregion;
                    });
      erased = erased || region.call_effects.size() != before;
    }
  }
  ASSERT_TRUE(erased);
  const std::string path =
      write_temp("corrupt.hli", hli::serialize::write_hli(file));
  const RunResult result = run_hlic("--verify " + path);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("invariant violation"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("call-item-uncovered"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, VerifyRejectsHugeIdsWithoutAborting) {
  // Two one-number edits of apsi's text HLI that used to end in an
  // uncaught std::bad_alloc (exit 134): an ID past 32 bits, and a 32-bit
  // call item far past next_id.
  const RunResult dump = run_hlic_stdout("--dump-hli 141.apsi");
  ASSERT_EQ(dump.exit_code, 0);
  struct Edit {
    std::string from, to, diagnostic;
  };
  const Edit edits[] = {
      {"\nclass 25 def", "\nclass 9223372036854775807 def",
       "does not fit in 32 bits"},
      {"calleff item 18 unk", "calleff item 2147483648 unk",
       "calleff-item-not-call"}};
  for (const auto& [from, to, diagnostic] : edits) {
    std::string text = dump.output;
    const std::size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    const RunResult result =
        run_hlic("--verify " + write_temp("huge_id.hli", text));
    EXPECT_EQ(result.exit_code, 1) << to << "\n" << result.output;
    EXPECT_NE(result.output.find(diagnostic), std::string::npos)
        << result.output;
  }
}

// --- HLIB binary containers through the same lint mode ---

std::string build_hlib_bytes() {
  return hli::serialize::write_hlib(build_hli_file());
}

TEST(HlicCliTest, VerifyAcceptsWellFormedBinaryFile) {
  const std::string path = write_temp_binary("valid.hlib", build_hlib_bytes());
  const RunResult result = run_hlic("--verify " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("ok ("), std::string::npos) << result.output;
}

TEST(HlicCliTest, VerifyRejectsTruncatedBinaryNamingOffset) {
  const std::string bytes = build_hlib_bytes();
  const std::string path =
      write_temp_binary("truncated.hlib", bytes.substr(0, bytes.size() / 2));
  const RunResult result = run_hlic("--verify " + path);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("malformed HLI"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("HLIB error at offset"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, VerifyRejectsBitFlippedBinaryNamingOffset) {
  std::string bytes = build_hlib_bytes();
  const std::size_t mid = bytes.size() / 3;  // Inside a unit payload.
  bytes[mid] = static_cast<char>(bytes[mid] ^ 0x40);
  const std::string path = write_temp_binary("bitflip.hlib", bytes);
  const RunResult result = run_hlic("--verify " + path);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("malformed HLI"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("offset"), std::string::npos) << result.output;
}

TEST(HlicCliTest, VerifyRejectsBinaryIdBeyond32Bits) {
  // Checksums re-sealed, so only the field decoder sees the bad value.
  const std::string bytes = hli::testutil::hlib_with_next_id(
      build_hlib_bytes(), (std::uint64_t{1} << 32) + 5);
  const RunResult result =
      run_hlic("--verify " + write_temp_binary("huge_id.hlib", bytes));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("HLIB error at offset"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("next_id 4294967301 does not fit in 32 bits"),
            std::string::npos)
      << result.output;
}

TEST(HlicCliTest, EmitBinaryDumpRoundTripsThroughVerify) {
  const RunResult dump = run_hlic_stdout("--emit=binary --dump-hli wc");
  ASSERT_EQ(dump.exit_code, 0);
  ASSERT_TRUE(hli::serialize::is_hlib(dump.output));
  const std::string path = write_temp_binary("dumped.hlib", dump.output);
  const RunResult verify = run_hlic("--verify " + path);
  EXPECT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("ok ("), std::string::npos) << verify.output;
}

TEST(HlicCliTest, PipelineVerifyFlagCompilesWorkloadClean) {
  const RunResult result = run_hlic("--verify-hli=fatal --stats wc");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(HlicCliTest, PipelineVerifyFlagRejectsBadValue) {
  const RunResult result = run_hlic("--verify-hli=sometimes wc");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("expects 'fatal' or 'warn'"),
            std::string::npos)
      << result.output;
}

TEST(HlicCliTest, AuditDepsFlagCompilesWorkloadClean) {
  const RunResult result = run_hlic("--audit-deps=fatal wc");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(HlicCliTest, AuditDepsFlagRejectsBadValue) {
  const RunResult result = run_hlic("--audit-deps=loudly wc");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("--audit-deps expects 'fatal' or 'warn'"),
            std::string::npos)
      << result.output;
}

TEST(HlicCliTest, AuditDepsRequiresHli) {
  // Nothing to audit without the HLI channel: validate() must reject the
  // combination with an actionable diagnostic, not silently no-op.
  const RunResult result = run_hlic("--no-hli --audit-deps=fatal wc");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("audit"), std::string::npos) << result.output;
}

TEST(HlicCliTest, AnalyzeLoopsPrintsBothColumns) {
  const RunResult result = run_hlic("--analyze=loops 102.swim");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("irdep"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("combined"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("DOALL"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("DOACROSS"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, AnalyzeFlagRejectsBadValue) {
  const RunResult result = run_hlic("--analyze=everything wc");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("--analyze expects 'loops'"),
            std::string::npos)
      << result.output;
}

TEST(HlicCliTest, IrdepFallbackCompilesWithoutHli) {
  const RunResult result = run_hlic("--no-hli --irdep-fallback wc");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(HlicCliTest, ExecThreadsRejectsZero) {
  const RunResult result = run_hlic("wc --run --exec-threads=0");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--exec-threads expects an integer from 1"),
            std::string::npos)
      << result.output;
}

TEST(HlicCliTest, ExecThreadsRejectsNegative) {
  const RunResult result = run_hlic("wc --run --exec-threads=-1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("expects an integer from 1"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, ExecThreadsRejectsNonNumeric) {
  const RunResult result = run_hlic("wc --run --exec-threads=abc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("expects an integer from 1"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, ExecThreadsRunsAndReportsParexecSummary) {
  const RunResult result = run_hlic("102.swim --run --exec-threads=4");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("parexec:"), std::string::npos)
      << result.output;
}

TEST(HlicCliTest, StatsJsonCarriesLoopChannelUnderAnalyzeLoops) {
  const RunResult result = run_hlic("--analyze=loops --stats=json wc");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"loops\":"), std::string::npos)
      << result.output;
}

struct BadFlag {
  const char* args;
  const char* message;  ///< Must appear in the diagnostic.
};

// ctest names each case by its printed value; print the strings, not the
// struct's bytes (pointers that move with every link).
void PrintTo(const BadFlag& flag, std::ostream* os) {
  *os << flag.args << " -> " << flag.message;
}

class HlicBadNumberTest : public ::testing::TestWithParam<BadFlag> {};

TEST_P(HlicBadNumberTest, ExitsTwoNamingTheFlag) {
  const RunResult result = run_hlic(std::string(GetParam().args) + " wc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find(GetParam().message), std::string::npos)
      << result.output;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, HlicBadNumberTest,
    ::testing::Values(
        BadFlag{"--unroll=abc",
                "hlic: --unroll expects an integer from 2 to 4294967295, "
                "got 'abc'"},
        BadFlag{"--unroll=99999999999999999999", "--unroll expects an integer"},
        BadFlag{"--unroll=4294967297", "--unroll expects an integer"},
        BadFlag{"--unroll=0", "--unroll expects an integer from 2"},
        BadFlag{"--jobs=abc", "--jobs expects an integer from 0"},
        BadFlag{"--jobs=-1", "--jobs expects an integer from 0"},
        BadFlag{"--jobs=257", "--jobs expects an integer from 0 to 256"},
        BadFlag{"--exec-threads=257",
                "--exec-threads expects an integer from 1 to 256"},
        BadFlag{"--remote=unix:/nonexistent", "unknown option '--remote="}));

TEST(HlicCliTest, UnrollFactorReachesThePipeline) {
  const RunResult four = run_hlic("--unroll=4 --stats 101.tomcatv");
  const RunResult bare = run_hlic("--unroll --stats 101.tomcatv");
  EXPECT_EQ(four.exit_code, 0) << four.output;
  EXPECT_EQ(four.output, bare.output);
  EXPECT_NE(four.output.find("loops unrolled:"), std::string::npos);
  EXPECT_EQ(four.output.find("loops unrolled:     0\n"), std::string::npos)
      << four.output;
}

}  // namespace
