// Robustness properties of the HLI reader, the verifier and the dump
// renderer: arbitrary truncations and single-line corruptions of a valid
// file must raise a clean CompileError (never crash, never silently
// succeed with partial region tables), a huge ID must be reported rather
// than allocated for, and the renderer must cover every table kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string_view>

#include "driver/pipeline.hpp"
#include "hli/dump.hpp"
#include "support/string_utils.hpp"
#include "hli/serialize.hpp"
#include "hli/verify.hpp"
#include "hli_test_util.hpp"
#include "workloads/workloads.hpp"

namespace hli {
namespace {

constexpr const char* kProgram = R"(int a[16];
int sum;
void helper() { sum = sum + 1; }
void f(int* p)
{
  for (int i = 1; i < 16; i++) {
    a[i] = a[i-1] + p[i];
    helper();
  }
}
)";

std::string valid_text() {
  static const std::string text = [] {
    testing::BuiltUnit built(kProgram);
    return serialize::write_hli(built.file);
  }();
  return text;
}

TEST(ReaderRobustnessTest, EveryLineTruncationFailsCleanly) {
  const std::string text = valid_text();
  const auto lines = support::split(text, '\n');
  // Drop the trailing empty segment from the final newline.
  std::size_t usable = lines.size();
  while (usable > 0 && lines[usable - 1].empty()) --usable;

  for (std::size_t keep = 2; keep + 1 < usable; ++keep) {
    // Cutting exactly after an "endunit" is a smaller but VALID file; the
    // property only concerns truncation in the middle of a unit.
    if (lines[keep - 1] == "endunit") continue;
    std::string truncated;
    for (std::size_t i = 0; i < keep; ++i) {
      truncated += std::string(lines[i]) + "\n";
    }
    EXPECT_THROW((void)serialize::read_hli(truncated), support::CompileError)
        << "truncation after " << keep << " lines parsed silently";
  }
}

TEST(ReaderRobustnessTest, ByteTruncationNeverCrashes) {
  const std::string text = valid_text();
  for (std::size_t len = 0; len < text.size(); len += 13) {
    try {
      const format::HliFile file = serialize::read_hli(text.substr(0, len));
      // Parsing a prefix may legitimately succeed only if it ends exactly
      // at a unit boundary; accept either outcome, crash is the failure.
      (void)file;
    } catch (const support::CompileError&) {
      // Expected for most prefixes.
    }
  }
  SUCCEED();
}

TEST(ReaderRobustnessTest, GarbledTokensFail) {
  const std::string text = valid_text();
  const char* corruptions[] = {"class", "lcdd", "alias", "calleff", "region"};
  for (const char* token : corruptions) {
    const std::size_t pos = text.find(token);
    if (pos == std::string::npos) continue;
    std::string bad = text;
    bad.replace(pos, std::strlen(token), "zzzzz");
    EXPECT_THROW((void)serialize::read_hli(bad), support::CompileError)
        << "corrupting '" << token << "' parsed silently";
  }
}

TEST(ReaderRobustnessTest, NumbersReplacedByJunkFail) {
  std::string bad = valid_text();
  const std::size_t pos = bad.find("nextid ");
  ASSERT_NE(pos, std::string::npos);
  bad[pos + 7] = 'x';
  EXPECT_THROW((void)serialize::read_hli(bad), support::CompileError);
}

/// apsi's text HLI with the first `from` replaced by `to`.
std::string apsi_with(std::string_view from, std::string_view to) {
  const workloads::Workload* apsi = workloads::find_workload("141.apsi");
  EXPECT_NE(apsi, nullptr);
  std::string text =
      driver::compile_source(apsi->source, driver::PipelineOptions{}).hli_text;
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

TEST(ReaderRobustnessTest, IdPastThirtyTwoBitsFailsWithLineNumber) {
  // A syntactically valid class line whose ID does not fit format::ItemId
  // used to be truncated silently and then size the views' arrays.
  const std::string bad =
      apsi_with("\nclass 25 def", "\nclass 9223372036854775807 def");
  const std::size_t at = bad.find("class 9223372036854775807");
  const auto line = 1 + std::count(bad.begin(), bad.begin() + at, '\n');
  try {
    (void)serialize::read_hli(bad);
    FAIL() << "64-bit class ID accepted";
  } catch (const support::CompileError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("at line " + std::to_string(line) + ":"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("does not fit in 32 bits"), std::string::npos)
        << message;
  }
}

TEST(VerifierRobustnessTest, HugeCallItemIsReportedNotAudited) {
  // The ID fits 32 bits, so the file parses; the verifier reports it, and
  // its differential audit must not then size a view by it (that used to
  // end in std::bad_alloc).
  const format::HliFile file = serialize::read_hli(
      apsi_with("calleff item 18 unk", "calleff item 2147483648 unk"));
  verify::VerifyOptions options;
  options.audit_on_findings = true;
  std::string report;
  const verify::VerifyResult result =
      verify::verify_file(file, options, &report);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has(verify::Code::CallEffectItemNotCall)) << report;
  EXPECT_NE(report.find("item=2147483648"), std::string::npos) << report;
}

TEST(DumpTest, RendersEveryTableKind) {
  testing::BuiltUnit built(kProgram);
  const std::string out = dump::render_file(built.file);
  EXPECT_NE(out.find("unit f"), std::string::npos);
  EXPECT_NE(out.find("line "), std::string::npos);
  EXPECT_NE(out.find("Region"), std::string::npos);
  EXPECT_NE(out.find("class"), std::string::npos);
  EXPECT_NE(out.find("lcdd"), std::string::npos);     // a[i] vs a[i-1].
  EXPECT_NE(out.find("call item"), std::string::npos);
  EXPECT_NE(out.find("calls-in-region"), std::string::npos);
}

TEST(DumpTest, RendersUnknownTargetMarker) {
  testing::BuiltUnit built(R"(
double* mystery();
void f() { double* p = mystery(); *p = 1.0; }
)");
  const std::string out = dump::render_entry(built.unit("f"));
  EXPECT_NE(out.find("UNKNOWN-TARGET"), std::string::npos);
}

TEST(DumpTest, RendersClobberAllForUnknownCalls) {
  testing::BuiltUnit built(R"(
void mystery();
int g;
void f() { g = 1; mystery(); }
)");
  const std::string out = dump::render_entry(built.unit("f"));
  EXPECT_NE(out.find("CLOBBERS-ALL"), std::string::npos);
}

}  // namespace
}  // namespace hli
