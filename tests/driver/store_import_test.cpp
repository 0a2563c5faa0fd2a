// Demand-driven HLI import through the pipeline: an external HliStore
// (the paper's §3.2.1 per-function import) must make compilation decode
// only the units it compiles, stay decode-once under concurrent
// compile_many, and produce output byte-identical to the built-in
// text channel — and to the HLIB binary channel — for every workload.
// A unit past the import bound fails the compile that imports it.
#include <gtest/gtest.h>

#include <cstdint>

#include "backend/rtl.hpp"
#include "driver/parallel.hpp"
#include "driver/pipeline.hpp"
#include "frontend/sema.hpp"
#include "frontend/hligen.hpp"
#include "hli/serialize.hpp"
#include "hli/store.hpp"
#include "support/diagnostics.hpp"
#include "tests/testutil/hlib_patch.hpp"
#include "workloads/workloads.hpp"

namespace hli::driver {
namespace {

/// Single-function sources; each is one unit in the shared container.
const std::vector<std::string>& unit_sources() {
  static const std::vector<std::string> sources = {
      R"(int a[32];
int alpha(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return s;
}
)",
      R"(int b[32];
int beta(int n) {
  for (int i = 1; i < n; i++) { b[i] = b[i-1] + i; }
  return b[8];
}
)",
      R"(int c[32];
int gamma(int n) {
  int p = 1;
  for (int i = 0; i < n; i++) { p = p * 2; c[i] = p; }
  return c[n-1];
}
)"};
  return sources;
}

/// Builds each source's HLI independently and merges the entries into one
/// multi-unit container, as a front-end batch-exporting a program would.
std::string build_combined_hlib() {
  format::HliFile combined;
  for (const std::string& src : unit_sources()) {
    support::DiagnosticEngine diags;
    frontend::Program prog = frontend::compile_to_ast(src, diags);
    format::HliFile file = builder::build_hli(prog, {});
    for (auto& entry : file.entries) {
      combined.entries.push_back(std::move(entry));
    }
  }
  return serialize::write_hlib(combined);
}

/// Full textual RTL of a compiled program — the byte-identity oracle.
std::string rtl_text(const CompiledProgram& compiled) {
  std::string out;
  for (const auto& func : compiled.rtl.functions) {
    out += backend::to_string(func);
    out += '\n';
  }
  return out;
}

TEST(StoreImportTest, CompilingOneUnitDecodesExactlyOneUnit) {
  const std::string container = build_combined_hlib();
  const HliStore store{std::string(container)};
  ASSERT_EQ(store.unit_count(), 3u);
  ASSERT_EQ(store.units_decoded(), 0u);

  PipelineOptions options;
  options.hli_store = &store;
  const CompiledProgram compiled =
      compile_source(unit_sources()[1], options);

  EXPECT_EQ(store.units_decoded(), 1u);
  EXPECT_EQ(store.decode_count("beta"), 1u);
  EXPECT_EQ(store.decode_count("alpha"), 0u);
  EXPECT_EQ(store.decode_count("gamma"), 0u);
  // The imported entry flowed into the compilation normally.
  ASSERT_EQ(compiled.hli.entries.size(), 1u);
  EXPECT_EQ(compiled.hli.entries[0].unit_name, "beta");
  // External store: nothing was re-serialized.
  EXPECT_TRUE(compiled.hli_text.empty());
  EXPECT_EQ(compiled.stats.hli_bytes, 0u);
}

TEST(StoreImportTest, StoreImportMatchesBuiltinChannel) {
  const std::string container = build_combined_hlib();
  const HliStore store{std::string(container)};
  PipelineOptions with_store;
  with_store.hli_store = &store;
  for (const std::string& src : unit_sources()) {
    const CompiledProgram via_store = compile_source(src, with_store);
    const CompiledProgram builtin = compile_source(src);
    EXPECT_EQ(rtl_text(via_store), rtl_text(builtin));
  }
}

TEST(ParallelStoreImportTest, SharedStoreDecodesEachUnitOnce) {
  const std::string container = build_combined_hlib();
  const HliStore store{std::string(container)};
  PipelineOptions options;
  options.hli_store = &store;

  // Several compilations per unit, racing through one shared store.
  std::vector<std::string> sources;
  for (int round = 0; round < 4; ++round) {
    for (const std::string& src : unit_sources()) sources.push_back(src);
  }
  const std::vector<CompiledProgram> results =
      compile_many(sources, options, /*jobs=*/4);

  EXPECT_EQ(store.units_decoded(), 3u);
  for (const char* unit : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(store.decode_count(unit), 1u) << unit;
  }
  // Results are input-ordered and identical to a serial loop.
  ASSERT_EQ(results.size(), sources.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(rtl_text(results[i]),
              rtl_text(compile_source(sources[i], options)));
  }
}

TEST(StoreImportTest, TextAndBinaryChannelsCompileByteIdentical) {
  PipelineOptions text_opts;
  text_opts.hli_encoding = HliEncoding::Text;
  PipelineOptions binary_opts;
  binary_opts.hli_encoding = HliEncoding::Binary;
  for (const auto& workload : workloads::all_workloads()) {
    const CompiledProgram via_text =
        compile_source(workload.source, text_opts);
    const CompiledProgram via_binary =
        compile_source(workload.source, binary_opts);
    EXPECT_EQ(rtl_text(via_text), rtl_text(via_binary)) << workload.name;
    // The binary channel really was binary, and smaller.
    EXPECT_TRUE(serialize::is_hlib(via_binary.hli_text)) << workload.name;
    EXPECT_FALSE(serialize::is_hlib(via_text.hli_text)) << workload.name;
    EXPECT_LT(via_binary.stats.hli_bytes, via_text.stats.hli_bytes)
        << workload.name;
    // Same program semantics through either channel.
    const backend::RunResult run_text = execute(via_text);
    const backend::RunResult run_binary = execute(via_binary);
    EXPECT_EQ(run_text.return_value, run_binary.return_value)
        << workload.name;
    EXPECT_EQ(run_text.output_hash, run_binary.output_hash)
        << workload.name;
  }
}

TEST(StoreImportTest, UnitPastTheImportBoundFailsItsCompile) {
  const HliStore store{
      testutil::hlib_with_next_id(build_combined_hlib(), UINT32_MAX)};
  PipelineOptions options;
  options.hli_store = &store;
  try {
    (void)compile_source(unit_sources()[0], options);
    FAIL() << "a next_id of 4294967295 reached the query view";
  } catch (const support::CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HLI unit 'alpha'"), std::string::npos) << what;
    EXPECT_NE(what.find("next_id 4294967295"), std::string::npos) << what;
  }
  // Only the patched unit is refused.
  EXPECT_NO_THROW((void)compile_source(unit_sources()[1], options));
}

TEST(StoreImportTest, SuiteUnitsMeetTheImportBound) {
  // Every unit the two front-ends emit for the 17 programs declares
  // exactly the IDs it names, with and without class merging.
  std::vector<workloads::Workload> programs = workloads::all_workloads();
  for (const auto& w : workloads::basic_workloads()) programs.push_back(w);
  for (const bool merge : {true, false}) {
    for (const workloads::Workload& w : programs) {
      frontend::FrontendOptions fe;
      fe.language = w.language;
      fe.merge_equal_range_classes = merge;
      const HliStore store{
          frontend::analyze_unit(w.source, fe, HliEncoding::Binary).hli_bytes};
      for (const std::string& unit : store.unit_names()) {
        EXPECT_NO_THROW((void)store.get(unit)) << w.name << " " << unit;
      }
    }
  }
}

}  // namespace
}  // namespace hli::driver
