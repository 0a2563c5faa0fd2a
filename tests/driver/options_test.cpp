// PipelineOptions API: named presets, validate()'s rejection of
// incoherent combinations with actionable messages, and the options
// fingerprint that keys the compile service's unit cache.
#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <string_view>
#include <vector>

#include "driver/pipeline.hpp"
#include "service/wire.hpp"
#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"

namespace hli::driver {
namespace {

/// A real (tiny) external store: validate() only cares that the pointer
/// is set, but HliStore insists on well-formed interchange bytes.
const hli::HliStore& tiny_store() {
  static const hli::HliStore store(
      compile_source("int main() { return 0; }",
                     PipelineOptions::frontend_only())
          .hli_text);
  return store;
}

TEST(PipelinePresetsTest, PaperTable2MatchesDefaultConstruction) {
  const PipelineOptions preset = PipelineOptions::paper_table2();
  EXPECT_TRUE(preset.use_hli);
  EXPECT_EQ(preset.verify_hli, VerifyMode::Off);
  EXPECT_EQ(preset.hli_encoding, HliEncoding::Text);
  EXPECT_TRUE(preset.enable_cse);
  EXPECT_TRUE(preset.enable_constfold);
  EXPECT_TRUE(preset.enable_dce);
  EXPECT_TRUE(preset.enable_licm);
  EXPECT_FALSE(preset.enable_unroll);
  EXPECT_TRUE(preset.enable_sched);
  EXPECT_FALSE(preset.enable_regalloc);
  EXPECT_FALSE(preset.telemetry.enabled());
  EXPECT_TRUE(preset.validate().empty());
}

TEST(PipelinePresetsTest, ProductionEnablesFullO2Shape) {
  const PipelineOptions preset = PipelineOptions::production();
  EXPECT_TRUE(preset.use_hli);
  EXPECT_TRUE(preset.enable_unroll);
  EXPECT_GE(preset.unroll_factor, 2u);
  EXPECT_TRUE(preset.enable_regalloc);
  EXPECT_EQ(preset.hli_encoding, HliEncoding::Binary);
  EXPECT_TRUE(preset.validate().empty());
}

TEST(PipelinePresetsTest, FrontendOnlyRunsNoBackendPasses) {
  const PipelineOptions preset = PipelineOptions::frontend_only();
  EXPECT_FALSE(preset.enable_cse);
  EXPECT_FALSE(preset.enable_constfold);
  EXPECT_FALSE(preset.enable_dce);
  EXPECT_FALSE(preset.enable_licm);
  EXPECT_FALSE(preset.enable_unroll);
  EXPECT_FALSE(preset.enable_sched);
  EXPECT_FALSE(preset.enable_regalloc);
  EXPECT_TRUE(preset.validate().empty());

  const CompiledProgram compiled =
      compile_source("int main() { return 7; }", preset);
  EXPECT_FALSE(compiled.hli_text.empty());
  EXPECT_EQ(execute(compiled).return_value, 7);
}

TEST(PipelineValidateTest, RejectsStoreWithoutHli) {
  PipelineOptions opts = PipelineOptions::paper_table2();
  opts.hli_store = &tiny_store();
  opts.use_hli = false;
  const std::vector<std::string> problems = opts.validate();
  ASSERT_EQ(problems.size(), 1u);
  // The diagnostic names both the incoherent fields and the fix.
  EXPECT_NE(problems[0].find("hli_store"), std::string::npos);
  EXPECT_NE(problems[0].find("use_hli"), std::string::npos);
  EXPECT_NE(problems[0].find("use_hli = true"), std::string::npos);
  EXPECT_NE(problems[0].find("--no-hli"), std::string::npos);
}

TEST(PipelineValidateTest, RejectsDegenerateUnrollFactors) {
  PipelineOptions opts = PipelineOptions::paper_table2();
  opts.enable_unroll = true;
  opts.unroll_factor = 0;
  std::vector<std::string> problems = opts.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unroll_factor"), std::string::npos);
  EXPECT_NE(problems[0].find("--unroll=N"), std::string::npos);

  opts.unroll_factor = 1;
  problems = opts.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unroll_factor 1"), std::string::npos);

  opts.unroll_factor = 2;
  EXPECT_TRUE(opts.validate().empty());
}

TEST(PipelineValidateTest, BoundsExecThreads) {
  // Checked without compiling or running anything: no lane starts.
  PipelineOptions opts = PipelineOptions::paper_table2();
  opts.exec_threads = kMaxThreads;
  EXPECT_TRUE(opts.validate().empty());

  opts.exec_threads = kMaxThreads + 1;
  std::vector<std::string> problems = opts.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("exec_threads is 257"), std::string::npos)
      << problems[0];
  EXPECT_NE(problems[0].find("--exec-threads=N"), std::string::npos);

  // A request's exec_threads key decodes into the same field, so the
  // service rejects it with the same finding.
  const PipelineOptions wired =
      service::decode_options(service::encode_options(opts));
  EXPECT_EQ(wired.validate(), problems);

  opts.exec_threads = UINT_MAX;
  EXPECT_EQ(opts.validate().size(), 1u);
}

TEST(PipelineValidateTest, CompileSourceThrowsWithAllFindings) {
  PipelineOptions opts = PipelineOptions::paper_table2();
  opts.hli_store = &tiny_store();
  opts.use_hli = false;
  opts.enable_unroll = true;
  opts.unroll_factor = 0;
  try {
    (void)compile_source("int main() { return 0; }", opts);
    FAIL() << "expected CompileError for invalid options";
  } catch (const support::CompileError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("invalid PipelineOptions"), std::string::npos);
    // Both findings aggregated into the one diagnostic.
    EXPECT_NE(message.find("hli_store"), std::string::npos);
    EXPECT_NE(message.find("unroll_factor"), std::string::npos);
  }
}

/// One change per key service::encode_options puts on the wire, in wire
/// order, each to a value paper_table2 does not hold.
struct WireChange {
  const char* key;
  void (*change)(PipelineOptions&);
};

const std::vector<WireChange>& wire_changes() {
  static const std::vector<WireChange> changes = {
      {"use_hli", [](PipelineOptions& o) { o.use_hli = false; }},
      {"verify_hli", [](PipelineOptions& o) { o.verify_hli = VerifyMode::Warn; }},
      {"encoding",
       [](PipelineOptions& o) { o.hli_encoding = HliEncoding::Binary; }},
      {"cse", [](PipelineOptions& o) { o.enable_cse = false; }},
      {"constfold", [](PipelineOptions& o) { o.enable_constfold = false; }},
      {"dce", [](PipelineOptions& o) { o.enable_dce = false; }},
      {"licm", [](PipelineOptions& o) { o.enable_licm = false; }},
      {"unroll", [](PipelineOptions& o) { o.enable_unroll = true; }},
      {"unroll_factor", [](PipelineOptions& o) { o.unroll_factor = 8; }},
      {"sched", [](PipelineOptions& o) { o.enable_sched = false; }},
      {"audit_deps", [](PipelineOptions& o) { o.audit_deps = VerifyMode::Warn; }},
      {"irdep_fallback", [](PipelineOptions& o) { o.irdep_fallback = true; }},
      {"analyze_loops", [](PipelineOptions& o) { o.analyze_loops = true; }},
      {"regalloc", [](PipelineOptions& o) { o.enable_regalloc = true; }},
      {"int_regs", [](PipelineOptions& o) { o.regalloc.int_regs = 12; }},
      {"fp_regs", [](PipelineOptions& o) { o.regalloc.fp_regs = 12; }},
      {"exec_threads", [](PipelineOptions& o) { o.exec_threads = 4; }},
      {"machine",
       [](PipelineOptions& o) { o.sched_machine = machine::r4600(); }},
      {"frontend",
       [](PipelineOptions& o) {
         o.frontend_options.language = frontend::Language::Basic;
       }},
      {"merge_classes",
       [](PipelineOptions& o) {
         o.frontend_options.merge_equal_range_classes = false;
       }},
      {"open_world",
       [](PipelineOptions& o) {
         o.frontend_options.open_world_params = true;
       }},
      {"counters", [](PipelineOptions& o) { o.telemetry.counters = true; }},
  };
  return changes;
}

/// The `key=value` line of an encode_options text, or "" when absent.
std::string wire_line(const std::string& text, std::string_view key) {
  for (const std::string_view line : support::split(text, '\n')) {
    if (line.substr(0, line.find('=')) == key) return std::string(line);
  }
  return {};
}

TEST(OptionsFingerprintTest, EveryWireOptionChangesTheUnitCacheKey) {
  const PipelineOptions base = PipelineOptions::paper_table2();
  const std::string base_wire = service::encode_options(base);

  // The table covers exactly the wire's keys: an option that reaches the
  // wire without a row here fails first.
  std::vector<std::string> wire_keys;
  for (const std::string_view line : support::split(base_wire, '\n')) {
    if (!line.empty()) wire_keys.emplace_back(line.substr(0, line.find('=')));
  }
  std::vector<std::string> table_keys;
  for (const WireChange& row : wire_changes()) table_keys.emplace_back(row.key);
  ASSERT_EQ(table_keys, wire_keys);

  const std::uint64_t base_fp = options_fingerprint(base);
  for (const WireChange& row : wire_changes()) {
    PipelineOptions changed = base;
    row.change(changed);
    // The change reaches the wire under its own key...
    EXPECT_NE(wire_line(service::encode_options(changed), row.key),
              wire_line(base_wire, row.key))
        << row.key;
    // ...so it must reach the unit-cache key too.
    EXPECT_NE(options_fingerprint(changed), base_fp) << row.key;
  }
}

TEST(OptionsFingerprintTest, ExecThreadsCountsOnlyAsPlansOnOrOff) {
  // Plans are proven from the instruction stream, not the lane count, so
  // any count above 1 shares one key.
  PipelineOptions two = PipelineOptions::paper_table2();
  two.exec_threads = 2;
  PipelineOptions eight = two;
  eight.exec_threads = 8;
  EXPECT_NE(options_fingerprint(two),
            options_fingerprint(PipelineOptions::paper_table2()));
  EXPECT_EQ(options_fingerprint(two), options_fingerprint(eight));
}

}  // namespace
}  // namespace hli::driver
