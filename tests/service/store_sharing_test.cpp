// Cross-request HliStore sharing under concurrency.
//
// The server keeps ONE mmap'd HliStore per --store path, shared by
// every request and worker (server.hpp: "decode-once across requests,
// not just within one").  These tests stress that contract two ways:
//   1. directly — many threads hammer get() on one HliStore over
//      disjoint and overlapping unit sets, and every touched unit must
//      report decode_count() == 1 (std::call_once per slot); and
//   2. through the service — concurrent clients compile against the
//      same server-side store path with DIFFERENT option sets (so
//      neither cache tier can short-circuit the imports), and the
//      registry store's units_decoded must not grow past one decode
//      per touched unit.
// Both are TSan targets: the CI sanitizer stage runs this binary under
// ThreadSanitizer to catch races in the slot/registry paths.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/pipeline.hpp"
#include "hli/serialize.hpp"
#include "hli/store.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/diagnostics.hpp"
#include "tests/testutil/hlib_patch.hpp"
#include "tests/testutil/temp_path.hpp"

namespace {

using namespace hli;

/// Several independent units plus main, so threads can pick disjoint
/// and overlapping subsets by name.
constexpr const char* kSource = R"(int data[64];
int f0(int n) { int s; s = 0; for (int i = 0; i < n; i++) { s = s + data[i]; } return s; }
int f1(int n) { int s; s = 1; for (int i = 0; i < n; i++) { s = s + data[i] * 2; } return s; }
int f2(int n) { int s; s = 2; for (int i = 0; i < n; i++) { data[i] = s + i; } return s; }
int f3(int n) { int s; s = 3; for (int i = 0; i < n; i++) { s = s + data[n - 1 - i]; } return s; }
int main()
{
  int total;
  total = f0(8) + f1(8) + f2(8) + f3(8);
  return total;
}
)";

std::string store_bytes() {
  return frontend::analyze_unit(kSource, {}, frontend::HliEncoding::Binary)
      .hli_bytes;
}

std::string write_store_file(const std::string& tag,
                             const std::string& bytes = store_bytes()) {
  const std::string path = testutil::unique_temp_path(tag + ".hlib");
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

TEST(StoreSharingTest, ConcurrentGetDecodesEachUnitExactlyOnce) {
  const std::string path = write_store_file("direct");
  const HliStore store = HliStore::open(path);
  const std::vector<std::string> names = store.unit_names();
  ASSERT_GE(names.size(), 5u);

  // Thread t touches units [t % k, (t % k) + k/2): every pair of
  // adjacent threads overlaps on half its set, and all threads spin on
  // the same names many times.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, &names, t] {
      const std::size_t k = names.size();
      for (int round = 0; round < 200; ++round) {
        for (std::size_t j = 0; j < k / 2 + 1; ++j) {
          const std::string& name =
              names[(static_cast<std::size_t>(t) + j) % k];
          const format::HliEntry* entry = store.get(name);
          ASSERT_NE(entry, nullptr);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::size_t touched = 0;
  for (const std::string& name : names) {
    const std::size_t decodes = store.decode_count(name);
    EXPECT_LE(decodes, 1u) << name << " decoded " << decodes << " times";
    touched += decodes;
  }
  EXPECT_EQ(store.units_decoded(), touched);
  EXPECT_GT(touched, 0u);
}

TEST(StoreSharingTest, LazyUnitsStayUndecoded) {
  const std::string path = write_store_file("lazy");
  const HliStore store = HliStore::open(path);
  ASSERT_TRUE(store.is_binary());
  EXPECT_EQ(store.units_decoded(), 0u) << "HLIB decode must be demand-driven";
  ASSERT_NE(store.get("f0"), nullptr);
  EXPECT_EQ(store.units_decoded(), 1u);
  EXPECT_EQ(store.decode_count("f1"), 0u);
}

TEST(StoreSharingTest, ServiceSharesOneStoreAcrossRequests) {
  const std::string path = write_store_file("svc");
  service::ServerOptions options;
  options.port = 0;
  service::Server server(options);
  server.start();

  // Four clients, each with its own option set (different unroll
  // factors change the unit-cache options fingerprint), all importing
  // from the same server-side store path concurrently.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (unsigned t = 0; t < 4; ++t) {
    clients.emplace_back([&server, &path, &failures, t] {
      try {
        service::Client client =
            service::Client::connect_tcp("127.0.0.1", server.tcp_port());
        driver::PipelineOptions popts;
        if (t > 0) {
          popts.enable_unroll = true;
          popts.unroll_factor = 2 + t;
        }
        const service::CompileReply reply =
            client.compile({kSource}, popts, path);
        if (reply.programs.size() != 1 || reply.programs[0].rtl.empty()) {
          failures.fetch_add(1);
        }
      } catch (const service::ServiceError&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Decode-once across requests: four requests imported the same units
  // through one shared store, so the registry's decode total is bounded
  // by the store's unit count — NOT multiplied by the request count.
  const std::size_t decoded = server.store_units_decoded(path);
  EXPECT_GT(decoded, 0u) << "store path was never routed to the registry";
  const HliStore probe = HliStore::open(path);
  EXPECT_LE(decoded, probe.unit_count());

  // And a fifth request with yet another option set must not decode
  // anything new.
  service::Client client =
      service::Client::connect_tcp("127.0.0.1", server.tcp_port());
  driver::PipelineOptions unrolled;
  unrolled.enable_unroll = true;
  unrolled.unroll_factor = 8;
  const service::CompileReply reply =
      client.compile({kSource}, unrolled, path);
  ASSERT_EQ(reply.programs.size(), 1u);
  EXPECT_EQ(server.store_units_decoded(path), decoded);
  server.stop();
}

TEST(StoreSharingTest, ServiceStoreCompileMatchesDirectStoreCompile) {
  const std::string path = write_store_file("ident");
  service::ServerOptions soptions;
  soptions.port = 0;
  service::Server server(soptions);
  server.start();

  driver::PipelineOptions options;
  const HliStore local = HliStore::open(path);
  options.hli_store = &local;
  const driver::CompiledProgram direct =
      driver::compile_source(kSource, options);

  service::Client client =
      service::Client::connect_tcp("127.0.0.1", server.tcp_port());
  const service::CompileReply reply =
      client.compile({kSource}, driver::PipelineOptions{}, path);
  ASSERT_EQ(reply.programs.size(), 1u);
  EXPECT_EQ(reply.programs[0].rtl, service::render_rtl(direct));
  EXPECT_EQ(reply.programs[0].stats, service::render_program_stats(direct));
  server.stop();
}

TEST(StoreSharingTest, StorePastTheImportBoundIsCompileFailed) {
  // A re-sealed container passes every checksum and decoder check; its
  // first unit claims next_id 4,294,967,295.  The server must answer
  // CompileFailed instead of sizing a query view by it.
  const std::string bad = write_store_file(
      "bound", testutil::hlib_with_next_id(store_bytes(), UINT32_MAX));
  const std::string good = write_store_file("bound_ok");
  service::ServerOptions soptions;
  soptions.port = 0;
  service::Server server(soptions);
  server.start();
  {
    service::Client client =
        service::Client::connect_tcp("127.0.0.1", server.tcp_port());
    try {
      (void)client.compile({kSource}, {}, bad);
      ADD_FAILURE() << "an out-of-bound store compiled";
    } catch (const service::ServiceError& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.code(), service::ErrorCode::CompileFailed) << what;
      EXPECT_NE(what.find("HLI unit '"), std::string::npos) << what;
      EXPECT_NE(what.find("next_id 4294967295"), std::string::npos) << what;
    }
  }
  // The server keeps serving well-formed stores.
  service::Client client =
      service::Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_EQ(client.compile({kSource}, {}, good).programs.size(), 1u);
  server.stop();
}

}  // namespace
