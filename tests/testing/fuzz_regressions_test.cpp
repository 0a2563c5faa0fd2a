// Seed-pinned golden differential cases plus regressions for bugs the
// fuzzer found.  Each golden case pins (seed, features) to the oracle's
// observable behavior AND requires the whole matrix to agree: a failure
// here means either a semantic change to the generator (update the table
// deliberately) or a real miscompile (fix the pipeline).
#include <gtest/gtest.h>

#include <string>

#include "frontend/sema.hpp"
#include "support/diagnostics.hpp"
#include "testing/diff.hpp"
#include "frontend/testgen.hpp"
#include "testing/reduce.hpp"

namespace {

namespace ht = hli::testing;

struct GoldenCase {
  std::uint64_t seed;
  std::uint32_t features;
  std::int64_t return_value;
  std::uint64_t output_hash;
  std::uint64_t emit_count;
};

// Every 4th seed runs with the full feature set (float math included);
// the rest use the default mask.  Values were recorded from the oracle
// (no HLI, all passes off) and are platform-independent: the generator's
// splitmix64 stream and the interpreter's arithmetic are both exact.
constexpr GoldenCase kGolden[] = {
    {1, ht::kDefaultFeatures, 211, 14216953217544819089ull, 40},
    {2, ht::kDefaultFeatures, 110, 12115168622508594188ull, 215},
    {3, ht::kDefaultFeatures, 191, 13243056022869106187ull, 75},
    {4, ht::kAllFeatures, 115, 15673580800926762938ull, 7},
    {5, ht::kDefaultFeatures, 232, 15554396743055987558ull, 4},
    {6, ht::kDefaultFeatures, 154, 13718578053032560966ull, 12},
    {7, ht::kDefaultFeatures, 210, 10617545363472241947ull, 5},
    {8, ht::kAllFeatures, 44, 11245154194898718917ull, 15},
    {9, ht::kDefaultFeatures, 244, 5282335043561694631ull, 18},
    {10, ht::kDefaultFeatures, 72, 2572672119430022131ull, 217},
    {11, ht::kDefaultFeatures, 195, 6826387915568021430ull, 36},
    {12, ht::kAllFeatures, 235, 17388778216237324054ull, 5},
    {13, ht::kDefaultFeatures, 126, 11505157879206298250ull, 222},
    {14, ht::kDefaultFeatures, 165, 17865456716425729717ull, 3},
    {15, ht::kDefaultFeatures, 146, 7196386884846771533ull, 5},
    {16, ht::kAllFeatures, 219, 9093149197312685826ull, 6},
    {17, ht::kDefaultFeatures, 178, 2870235401749992235ull, 9},
    {18, ht::kDefaultFeatures, 151, 14626949596497485530ull, 19},
    {19, ht::kDefaultFeatures, 208, 15720188749102482690ull, 9},
    {20, ht::kAllFeatures, 242, 17222349248150949225ull, 104},
};

class GoldenDifferentialTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDifferentialTest, MatrixAgreesAndOracleMatchesPinnedValues) {
  const GoldenCase& c = GetParam();
  ht::GenOptions gen;
  gen.seed = c.seed;
  gen.features = c.features;
  const std::string source = ht::generate_source(gen);

  const ht::DiffResult r =
      ht::run_differential(source, ht::default_matrix());
  ASSERT_FALSE(r.invalid_input) << r.invalid_reason << "\n" << source;
  EXPECT_FALSE(r.diverged()) << ht::describe(r) << "\n" << source;

  ASSERT_TRUE(r.baseline.run_ok) << r.baseline.error;
  EXPECT_EQ(r.baseline.return_value, c.return_value);
  EXPECT_EQ(r.baseline.output_hash, c.output_hash);
  EXPECT_EQ(r.baseline.emit_count, c.emit_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenDifferentialTest,
                         ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// --- Regressions for bugs found by fuzzing ---

// Unroll miscompile (seeds 3334, 3489, 4006, 5223): a register written in
// the loop body but only read AFTER the loop is not upward-exposed, so
// the per-copy renamer gave the last copy a fresh destination and the
// post-loop read saw the first copy's stale value.  The reducer shrank
// seed 3334's 87-line program to this 10-line reproducer.
TEST(FuzzRegressionTest, UnrollPreservesLoopOverwrittenLiveOutValue) {
  const char* repro =
      "int g3;\n"
      "void emit(int v);\n"
      "int main() {\n"
      "  int t17 = (!46);\n"
      "  int t18 = (-37);\n"
      "  for (int i19 = 0; (i19 < 16); i19 = (i19 + 1)) {\n"
      "    t17 = (((~(t18 * (-11))) << 1) | ((i19 << 0) & ((i19 * (-9)) + "
      "(t18 ^ (-3)))));\n"
      "  }\n"
      "  emit((((5 >= g3) + (t17 | t18)) & 1048575));\n"
      "}\n";
  const ht::DiffResult r =
      ht::run_differential(repro, ht::default_matrix());
  ASSERT_FALSE(r.invalid_input) << r.invalid_reason;
  EXPECT_FALSE(r.diverged()) << ht::describe(r);
}

// The other three seeds that tripped over the same unroll bug, pinned as
// whole-program differential cases.
TEST(FuzzRegressionTest, UnrollLiveOutSeedsStayClean) {
  for (std::uint64_t seed : {3334ull, 3489ull, 4006ull, 5223ull}) {
    ht::GenOptions gen;
    gen.seed = seed;
    const ht::DiffResult r = ht::run_differential(
        ht::generate_source(gen), ht::default_matrix());
    ASSERT_FALSE(r.invalid_input) << "seed " << seed;
    EXPECT_FALSE(r.diverged()) << "seed " << seed << "\n" << ht::describe(r);
  }
}

// Crossing-subscript misclassification (seed 203): the irdep carried
// test related subscripts with different induction coefficients through
// iteration numbers but dropped the (iv_a - iv_b)*init term, so the
// store A3[i] / load A3[30-i] pair — which conflicts whenever the two
// IV values sum to 30 — was "proven" independent and the loop claimed
// DOALL.  The hli-analyze leg's dynamic oracle observed a distance-2
// carried dependence.  Reduced from seed 203's 70-line program.
TEST(FuzzRegressionTest, CrossingSubscriptsKeepCarriedDependence) {
  const char* repro =
      "int A3[64];\n"
      "int main() {\n"
      "  for (int i17 = 0; (i17 < 13); i17 = (i17 + 2)) {\n"
      "    for (int i18 = 30; (i18 >= 0); (i18--)) {\n"
      "      A3[i18] = (i18 ^ (i18 * (((i17 < i18) & (28 + A3[(30 - i18)]))"
      " & 1048575)));\n"
      "    }\n"
      "  }\n"
      "}\n";
  const ht::DiffResult r =
      ht::run_differential(repro, ht::default_matrix());
  ASSERT_FALSE(r.invalid_input) << r.invalid_reason;
  EXPECT_FALSE(r.diverged()) << ht::describe(r);
}

// Unsound unroll maintenance on recurring subscripts (seeds 707, 803,
// 877, 1066, 1152, 1234, 1632, 1763): unroll_loop split every
// non-loop_invariant class into per-copy classes with no alias entries,
// assuming variant classes stride with the IV.  A class variant only
// because its subscript is unanalyzable — A5[(29 & 7) & 31] stores to
// the same element every iteration — got copies that answered
// HLI_MayConflict == None against each other.  The builder now records
// each variant class's carried dependence on itself (a self LCDD
// entry), and the unroll expansion aliases the copies.  Caught by the
// --audit-deps recompile leg.
TEST(FuzzRegressionTest, UnrollKeepsRecurringSubscriptCopiesAliased) {
  const char* repro =
      "int A5[32];\n"
      "int main() {\n"
      "  for (int i28 = 0; (i28 < 32); (i28++)) {\n"
      "    A5[((29 & 7) & 31)] = (i28 * i28);\n"
      "  }\n"
      "}\n";
  const ht::DiffResult r =
      ht::run_differential(repro, ht::default_matrix());
  ASSERT_FALSE(r.invalid_input) << r.invalid_reason;
  EXPECT_FALSE(r.diverged()) << ht::describe(r);
}

TEST(FuzzRegressionTest, AuditSeedsStayClean) {
  for (std::uint64_t seed :
       {203ull, 707ull, 803ull, 877ull, 1066ull, 1152ull, 1234ull, 1632ull,
        1763ull}) {
    ht::GenOptions gen;
    gen.seed = seed;
    const ht::DiffResult r = ht::run_differential(
        ht::generate_source(gen), ht::default_matrix());
    ASSERT_FALSE(r.invalid_input) << "seed " << seed;
    EXPECT_FALSE(r.diverged()) << "seed " << seed << "\n" << ht::describe(r);
  }
}

// Threaded-execution legs (hli-exec-threads / nohli-exec-threads): a
// 400-iteration sweep at their introduction found no divergent seeds.
// These loop-feature seeds are pinned because their planned loops
// actually DISPATCH under the legs' force_dispatch (each shows multiple
// planned-loop invocations), so a determinism regression in the parallel
// runtime — reduction reassociation, post-wait ordering, budget drift —
// cannot vacuously pass by falling back to serial.
TEST(FuzzRegressionTest, ThreadedExecutionSeedsStayClean) {
  for (std::uint64_t seed :
       {21ull, 31ull, 96ull, 142ull, 203ull, 300ull}) {
    ht::GenOptions gen;
    gen.seed = seed;
    gen.features = ht::kLoops | ht::kArrays;
    const ht::DiffResult r = ht::run_differential(
        ht::generate_source(gen), ht::default_matrix());
    ASSERT_FALSE(r.invalid_input) << "seed " << seed;
    EXPECT_FALSE(r.diverged()) << "seed " << seed << "\n" << ht::describe(r);
  }
}

// The reducer's chunk deletions routinely produce sources with statements
// (or a stray `}`) at file scope.  parse_top_level's error recovery used
// synchronize(), which stops at statement-boundary tokens WITHOUT
// consuming them — at file scope the same token re-triggered the same
// error forever, accumulating diagnostics until OOM.  Recovery now skips
// to the next plausible declaration start.
TEST(FuzzRegressionTest, StatementsAtFileScopeTerminateWithErrors) {
  const char* bad =
      "int g0;\n"
      "g0 = 4;\n"           // Expression statement at file scope.
      "for (;;) { }\n"      // Statement keyword synchronize() stops at.
      "}\n"                 // Stray close brace.
      "return 0;\n"
      "int tail;\n";
  hli::support::DiagnosticEngine diags;
  EXPECT_THROW(hli::frontend::compile_to_ast(bad, diags),
               hli::support::CompileError);
  EXPECT_TRUE(diags.has_errors());
  // Bounded diagnostics, not one per infinite recovery iteration.
  EXPECT_LE(diags.error_count(), 16u);
}

TEST(FuzzRegressionTest, LoneCloseBraceTerminates) {
  hli::support::DiagnosticEngine diags;
  EXPECT_THROW(hli::frontend::compile_to_ast("}\n", diags),
               hli::support::CompileError);
  EXPECT_EQ(diags.error_count(), 1u);
}

// Acceptance self-test: a planted miscompile must be detected by the
// matrix and reduced to a tiny reproducer (<= 15 source lines).
TEST(FuzzRegressionTest, PlantedDefectReducesToTinyReproducer) {
  ht::GenOptions gen;
  gen.seed = 1;
  gen.features = ht::kLoops | ht::kArrays;
  const std::string source = ht::generate_source(gen);

  const std::vector<ht::DiffConfig> matrix = ht::default_matrix();
  const ht::DiffResult initial = ht::run_differential(
      source, matrix, ht::PlantedDefect::DropStore);
  ASSERT_FALSE(initial.invalid_input);
  ASSERT_TRUE(initial.diverged()) << "planted store drop went undetected";

  // Reduce against the first guilty config only, the way hlifuzz does.
  std::vector<ht::DiffConfig> target;
  for (const ht::DiffConfig& cfg : matrix) {
    if (cfg.name == initial.divergences.front().config) target.push_back(cfg);
  }
  ASSERT_EQ(target.size(), 1u);
  const ht::ReduceResult reduced = ht::reduce_source(
      source, [&](const std::string& candidate) {
        const ht::DiffResult r = ht::run_differential(
            candidate, target, ht::PlantedDefect::DropStore, 200'000);
        return !r.invalid_input && r.diverged();
      });
  EXPECT_LE(reduced.final_lines, 15u) << reduced.source;
  EXPECT_TRUE(reduced.minimal);
  // The reproducer itself must still diverge under the full matrix.
  const ht::DiffResult check = ht::run_differential(
      reduced.source, matrix, ht::PlantedDefect::DropStore);
  EXPECT_TRUE(check.diverged());
}

}  // namespace
