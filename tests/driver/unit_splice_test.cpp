// compile_source appends every unit through one splice: a cold unit's
// record and a unit-cache hit take the same path into CompiledProgram.
// These tests pin that contract on all 17 programs — a warm compile,
// served entirely from the cache, must reproduce the cold compile on
// every output surface — and pin how many HLI query views each program
// builds (one per function per maintenance generation).
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/irdep/classify.hpp"
#include "driver/pipeline.hpp"
#include "hli/serialize.hpp"
#include "service/wire.hpp"
#include "workloads/workloads.hpp"

namespace hli::driver {
namespace {

/// In-memory UnitCache keyed on the full key, counting hits.  compile_source
/// consults it from the calling thread only, so it needs no locking here.
class MapUnitCache final : public UnitCache {
 public:
  std::shared_ptr<const CachedUnit> lookup(const UnitCacheKey& key) override {
    const auto it = units_.find(tuple_of(key));
    if (it == units_.end()) return nullptr;
    ++hits_;
    return it->second;
  }
  void insert(const UnitCacheKey& key, CachedUnit value) override {
    units_[tuple_of(key)] = std::make_shared<const CachedUnit>(std::move(value));
  }

  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t size() const { return units_.size(); }

 private:
  using Tuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  static Tuple tuple_of(const UnitCacheKey& key) {
    return {key.rtl_fp, key.hli_fp, key.options_fp};
  }
  std::map<Tuple, std::shared_ptr<const CachedUnit>> units_;
  std::size_t hits_ = 0;
};

std::vector<workloads::Workload> suite() {
  std::vector<workloads::Workload> programs = workloads::all_workloads();
  for (const workloads::Workload& w : workloads::basic_workloads()) {
    programs.push_back(w);
  }
  return programs;
}

std::vector<std::string> maintained_entries(const CompiledProgram& compiled) {
  std::vector<std::string> out;
  for (const format::HliEntry& entry : compiled.hli.entries) {
    out.push_back(serialize::write_entry(entry));
  }
  return out;
}

TEST(UnitSpliceTest, WarmCompileReproducesColdOnEverySurface) {
  PipelineOptions options = PipelineOptions::production();
  options.exec_threads = 4;
  options.analyze_loops = true;
  options.verify_hli = VerifyMode::Warn;
  options.audit_deps = VerifyMode::Warn;
  options.telemetry.counters = true;
  const std::vector<workloads::Workload> programs = suite();
  ASSERT_EQ(programs.size(), 17u);
  for (const workloads::Workload& w : programs) {
    SCOPED_TRACE(w.name);
    MapUnitCache cache;
    options.frontend_options.language = w.language;
    options.unit_cache = &cache;
    const CompiledProgram cold = compile_source(w.source, options);
    ASSERT_EQ(cache.hits(), 0u);
    ASSERT_FALSE(cold.hli.entries.empty());
    EXPECT_EQ(cache.size(), cold.hli.entries.size());

    const CompiledProgram warm = compile_source(w.source, options);
    // Every HLI-carrying unit is served from the cache, once.
    EXPECT_EQ(cache.hits(), cold.hli.entries.size());

    EXPECT_EQ(service::render_rtl(warm), service::render_rtl(cold));
    EXPECT_EQ(service::render_program_stats(warm),
              service::render_program_stats(cold));
    EXPECT_EQ(maintained_entries(warm), maintained_entries(cold));
    EXPECT_EQ(irdep::render_loop_table(warm.loop_reports),
              irdep::render_loop_table(cold.loop_reports));
    EXPECT_EQ(warm.verify_log, cold.verify_log);
    EXPECT_EQ(warm.audit_log, cold.audit_log);
    ASSERT_EQ(warm.counters.per_function.size(),
              cold.counters.per_function.size());
    for (std::size_t i = 0; i < cold.counters.per_function.size(); ++i) {
      EXPECT_EQ(warm.counters.per_function[i].first,
                cold.counters.per_function[i].first);
      EXPECT_TRUE(warm.counters.per_function[i].second ==
                  cold.counters.per_function[i].second)
          << cold.counters.per_function[i].first;
    }
  }
}

TEST(UnitSpliceTest, OneQueryViewPerFunctionPerMaintenanceGeneration) {
  // query.views_built under paper_table2: a function rebuilds its view
  // only after CSE, DCE or LICM maintenance actually changed its entry.
  const std::map<std::string, std::uint64_t> expected = {
      {"wc", 4},           {"008.espresso", 9}, {"023.eqntott", 7},
      {"129.compress", 6}, {"015.doduc", 12},   {"034.mdljdp2", 6},
      {"048.ora", 3},      {"052.alvinn", 8},   {"077.mdljsp2", 6},
      {"101.tomcatv", 7},  {"102.swim", 9},     {"103.su2cor", 6},
      {"107.mgrid", 7},    {"141.apsi", 18},    {"basic.relax", 5},
      {"basic.stencil", 5}, {"basic.matmul", 5}};
  std::uint64_t total = 0;
  PipelineOptions options = PipelineOptions::paper_table2();
  options.telemetry.counters = true;
  for (const workloads::Workload& w : suite()) {
    options.frontend_options.language = w.language;
    const CompiledProgram compiled = compile_source(w.source, options);
    const std::uint64_t views =
        compiled.counters.total.value("query.views_built");
    ASSERT_EQ(expected.count(w.name), 1u) << w.name;
    EXPECT_EQ(views, expected.at(w.name)) << w.name;
    total += views;
  }
  EXPECT_EQ(total, 123u);
}

TEST(UnitSpliceTest, WcBuildsExactlyOneViewPerFunction) {
  // No pass maintains wc's tables, so every function keeps its first view.
  const workloads::Workload* wc = workloads::find_workload("wc");
  ASSERT_NE(wc, nullptr);
  PipelineOptions options = PipelineOptions::paper_table2();
  options.telemetry.counters = true;
  const CompiledProgram compiled = compile_source(wc->source, options);
  ASSERT_FALSE(compiled.counters.per_function.empty());
  for (const auto& [name, counters] : compiled.counters.per_function) {
    EXPECT_EQ(counters.value("query.views_built"), 1u) << name;
  }
  EXPECT_EQ(compiled.counters.total.value("query.views_built"),
            compiled.counters.per_function.size());
}

}  // namespace
}  // namespace hli::driver
