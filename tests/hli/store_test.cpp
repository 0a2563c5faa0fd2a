// HliStore tests: demand-driven per-unit decode from a binary container
// (the §3.2.1 "import HLI per function on demand" observable), the eager
// text path, and the mmap-backed open() entry point.
#include "hli/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>

#include "hli/serialize.hpp"
#include "hli_test_util.hpp"
#include "tests/testutil/hlib_patch.hpp"

namespace hli {
namespace {

/// Three units with distinct table shapes, so cross-unit mixups fail.
constexpr const char* kProgram = R"(int a[64];
int total;
void alpha(int n) {
  for (int i = 0; i < n; i++) { a[i] = a[i] + 1; }
}
void beta(int* p) { p[0] = total; }
void gamma(int n) {
  for (int i = 1; i < n; i++) { a[i] = a[i-1] + total; }
}
)";

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : built_(kProgram), binary_(serialize::write_hlib(built_.file)) {}

  testing::BuiltUnit built_;
  std::string binary_;
};

TEST_F(StoreTest, BinaryOpenDecodesNothing) {
  const HliStore store{std::string(binary_)};
  EXPECT_TRUE(store.is_binary());
  EXPECT_EQ(store.unit_count(), 3u);
  EXPECT_EQ(store.units_decoded(), 0u);
  EXPECT_TRUE(store.has_unit("beta"));
  EXPECT_FALSE(store.has_unit("delta"));
}

TEST_F(StoreTest, GetDecodesExactlyTheRequestedUnit) {
  const HliStore store{std::string(binary_)};
  const format::HliEntry* beta = store.get("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->unit_name, "beta");
  EXPECT_EQ(store.units_decoded(), 1u);
  EXPECT_EQ(store.decode_count("beta"), 1u);
  EXPECT_EQ(store.decode_count("alpha"), 0u);
  EXPECT_EQ(store.decode_count("gamma"), 0u);

  // Repeated gets return the same cached entry, no re-decode.
  EXPECT_EQ(store.get("beta"), beta);
  EXPECT_EQ(store.decode_count("beta"), 1u);
  EXPECT_EQ(store.units_decoded(), 1u);

  EXPECT_EQ(store.get("delta"), nullptr);
  EXPECT_EQ(store.units_decoded(), 1u);
}

TEST_F(StoreTest, DecodedEntriesMatchEagerRead) {
  const HliStore store{std::string(binary_)};
  format::HliFile via_store = store.import_all();
  EXPECT_EQ(store.units_decoded(), 3u);
  testing::expect_hli_equal(built_.file, via_store);
  EXPECT_EQ(store.unit_names(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST_F(StoreTest, TextStoreParsesEagerly) {
  const HliStore store{serialize::write_hli(built_.file)};
  EXPECT_FALSE(store.is_binary());
  EXPECT_EQ(store.unit_count(), 3u);
  EXPECT_EQ(store.units_decoded(), 3u);
  const format::HliEntry* alpha = store.get("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->unit_name, "alpha");
  EXPECT_EQ(store.decode_count("alpha"), 1u);
  testing::expect_hli_equal(built_.file, store.import_all());
}

TEST_F(StoreTest, OpenFromDiskMatchesInMemory) {
  const std::string path =
      ::testing::TempDir() + "store_test_container.hlib";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(binary_.data(),
              static_cast<std::streamsize>(binary_.size()));
    ASSERT_TRUE(out.good());
  }
  {
    const HliStore store = HliStore::open(path);
    EXPECT_TRUE(store.is_binary());
    EXPECT_EQ(store.units_decoded(), 0u);
    testing::expect_hli_equal(built_.file, store.import_all());
  }
  std::remove(path.c_str());
}

TEST_F(StoreTest, MalformedBytesRejectedAtConstruction) {
  EXPECT_THROW(HliStore{binary_.substr(0, binary_.size() / 2)},
               support::CompileError);
  EXPECT_THROW(HliStore{std::string("not an interchange file")},
               support::CompileError);
}

/// The message `get(unit)` throws, or "" when it returns.
std::string get_error(const HliStore& store, const std::string& unit) {
  try {
    (void)store.get(unit);
  } catch (const support::CompileError& e) {
    return e.what();
  }
  return {};
}

TEST_F(StoreTest, GetRejectsNextIdPastTheDeclaredIdsNamingUnitAndId) {
  // Every checksum of the re-sealed container matches, and the decoder
  // accepts any 32-bit next_id; only the import bound stops the view
  // from sizing its arrays by 4,294,967,295.
  const HliStore store{testutil::hlib_with_next_id(binary_, UINT32_MAX)};
  const std::string error = get_error(store, "alpha");
  EXPECT_NE(error.find("HLI unit 'alpha'"), std::string::npos) << error;
  EXPECT_NE(error.find("next_id 4294967295"), std::string::npos) << error;
  EXPECT_THROW((void)store.import_all(), support::CompileError);
  // The other units are untouched and import as before.
  EXPECT_EQ(get_error(store, "beta"), "");
  EXPECT_EQ(get_error(store, "gamma"), "");
}

TEST_F(StoreTest, GetRejectsIdsPastTheBoundInTextUnits) {
  const std::vector<std::pair<
      std::string, std::function<void(format::HliEntry&)>>> cases = {
      {"item or class ID", [](format::HliEntry& e) { e.next_id = 1; }},
      {"next_id 100000", [](format::HliEntry& e) { e.next_id = 100000; }},
      {"region ID 99", [](format::HliEntry& e) { e.regions[0].parent = 99; }},
  };
  for (const auto& [expected, corrupt] : cases) {
    format::HliFile file = built_.file;
    corrupt(file.entries.at(1));  // beta
    const HliStore store{serialize::write_hli(file)};
    const std::string error = get_error(store, "beta");
    EXPECT_NE(error.find("HLI unit 'beta'"), std::string::npos) << error;
    EXPECT_NE(error.find(expected), std::string::npos) << error;
    EXPECT_EQ(get_error(store, "alpha"), "");
  }
}

}  // namespace
}  // namespace hli
