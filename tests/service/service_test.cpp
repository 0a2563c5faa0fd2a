// Black-box tests for the hlid compile service: an in-process Server
// over real sockets (TCP loopback and AF_UNIX), driven through the
// production Client.  Covers byte-identity of service compiles against
// direct driver::compile_many, warm-path cache semantics (the
// acceptance observable: a warm compile does ZERO backend pass work),
// concurrent-client determinism over the whole workload suite, and the
// fault matrix: malformed frames, version mismatch, truncated
// requests, client disconnect mid-compile, and cache-size-1 thrash.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/parallel.hpp"
#include "driver/pipeline.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "tests/testutil/temp_path.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hli;
using namespace hli::service;

constexpr const char* kSource = R"(void emit(int v);
int acc;
void tick(int n)
{
  acc = acc + n;
}
int main()
{
  for (int i = 0; i < 10; i++) {
    tick(i);
  }
  emit(acc);
  return acc;
}
)";

/// Same globals and helper functions as kSource, different main: units
/// `acc`-compatible, so tick's unit-cache entry is shared between the
/// two programs (the cross-REQUEST unit-tier hit path).
constexpr const char* kSiblingSource = R"(void emit(int v);
int acc;
void tick(int n)
{
  acc = acc + n;
}
int main()
{
  for (int i = 0; i < 5; i++) {
    tick(i + i);
  }
  emit(acc);
  return acc;
}
)";

struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {}) {
    options.port = 0;  // Ephemeral loopback port.
    server = std::make_unique<Server>(std::move(options));
    server->start();
  }
  ~ServerFixture() { server->stop(); }

  [[nodiscard]] Client connect() const {
    return Client::connect_tcp("127.0.0.1", server->tcp_port());
  }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return server->counters().value(name);
  }

  std::unique_ptr<Server> server;
};

driver::CompiledProgram compile_direct(const std::string& source,
                                       const driver::PipelineOptions& options) {
  return driver::compile_source(source, options);
}

TEST(ServiceTest, CompileMatchesDirectCompileByteForByte) {
  ServerFixture fixture;
  Client client = fixture.connect();
  const driver::PipelineOptions options;
  const driver::CompiledProgram direct = compile_direct(kSource, options);

  const CompileReply reply = client.compile({kSource}, options);
  ASSERT_EQ(reply.programs.size(), 1u);
  EXPECT_EQ(reply.programs[0].rtl, render_rtl(direct));
  EXPECT_EQ(reply.programs[0].stats, render_program_stats(direct));
  EXPECT_TRUE(reply.programs[0].verify_log.empty());
  EXPECT_TRUE(reply.programs[0].audit_log.empty());
}

TEST(ServiceTest, WarmCompileIsByteIdenticalAndDoesZeroPassWork) {
  ServerFixture fixture;
  Client client = fixture.connect();
  const driver::PipelineOptions options;

  const CompileReply cold = client.compile({kSource}, options);
  const std::uint64_t units_after_cold =
      fixture.counter("service.units_compiled");
  EXPECT_GT(units_after_cold, 0u);

  const CompileReply warm = client.compile({kSource}, options);
  ASSERT_EQ(warm.programs.size(), cold.programs.size());
  EXPECT_EQ(warm.programs[0].rtl, cold.programs[0].rtl);
  EXPECT_EQ(warm.programs[0].stats, cold.programs[0].stats);

  // The acceptance observable: the warm request compiled NOTHING — no
  // unit entered the pipeline (units_compiled frozen) and the hit
  // counter advanced by the units the request covers.
  EXPECT_EQ(fixture.counter("service.units_compiled"), units_after_cold);
  EXPECT_GT(fixture.counter("service.cache_hits"), 0u);
}

TEST(ServiceTest, UnitTierHitsAcrossDifferentRequests) {
  // response_entries=1: compiling the sibling program evicts the first
  // response, so re-compiling the first program MUST go through the
  // pipeline again — where every unchanged unit hits the unit tier and
  // is spliced, not recompiled (units_compiled frozen).
  ServerOptions options;
  options.response_entries = 1;
  ServerFixture fixture(options);
  Client client = fixture.connect();
  const driver::PipelineOptions popts;

  const CompileReply first = client.compile({kSource}, popts);
  const std::uint64_t units_after_first =
      fixture.counter("service.units_compiled");
  const CompileReply sibling = client.compile({kSiblingSource}, popts);
  // tick/emit-compatible units from kSource hit the unit tier while
  // sibling's main missed: some units compiled, some shared.
  EXPECT_GT(fixture.counter("service.units_compiled"), units_after_first);

  const std::uint64_t units_before_rerun =
      fixture.counter("service.units_compiled");
  const CompileReply rerun = client.compile({kSource}, popts);
  EXPECT_EQ(fixture.counter("service.units_compiled"), units_before_rerun)
      << "re-run after response eviction recompiled units the unit tier held";
  ASSERT_EQ(rerun.programs.size(), 1u);
  EXPECT_EQ(rerun.programs[0].rtl, first.programs[0].rtl);
  EXPECT_EQ(rerun.programs[0].stats, first.programs[0].stats);
}

TEST(ServiceTest, UnixSocketCompileMatchesTcp) {
  ServerOptions options;
  options.unix_path = testutil::unique_socket_path("svc");
  ServerFixture fixture(options);
  Client tcp = fixture.connect();
  Client uds = Client::connect_unix(fixture.server->unix_path());
  const driver::PipelineOptions popts;
  const CompileReply via_tcp = tcp.compile({kSource}, popts);
  const CompileReply via_uds = uds.compile({kSource}, popts);
  ASSERT_EQ(via_uds.programs.size(), 1u);
  EXPECT_EQ(via_uds.programs[0].rtl, via_tcp.programs[0].rtl);
  EXPECT_EQ(via_uds.programs[0].stats, via_tcp.programs[0].stats);
}

TEST(ServiceTest, BatchReplyPreservesRequestOrder) {
  ServerFixture fixture;
  Client client = fixture.connect();
  const driver::PipelineOptions options;
  std::vector<std::string> sources;
  for (const auto& w : workloads::all_workloads()) {
    sources.push_back(w.source);
    if (sources.size() == 3) break;
  }
  const CompileReply reply = client.compile(sources, options);
  ASSERT_EQ(reply.programs.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const driver::CompiledProgram direct =
        compile_direct(sources[i], options);
    EXPECT_EQ(reply.programs[i].rtl, render_rtl(direct)) << "source " << i;
    EXPECT_EQ(reply.programs[i].stats, render_program_stats(direct))
        << "source " << i;
  }
}

TEST(ServiceTest, ConcurrentClientsAreDeterministicOverWorkloadSuite) {
  // The acceptance sweep: every built-in workload compiled by 4
  // concurrent clients (interleaved orders, shared caches, racing
  // cold/warm paths) must produce bytes identical to a direct compile.
  ServerFixture fixture;
  const driver::PipelineOptions options;

  const std::vector<workloads::Workload>& suite = workloads::all_workloads();
  std::vector<std::string> reference_rtl(suite.size());
  std::vector<std::string> reference_stats(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const driver::CompiledProgram direct =
        compile_direct(suite[i].source, options);
    reference_rtl[i] = render_rtl(direct);
    reference_stats[i] = render_program_stats(direct);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Client client = fixture.connect();
      for (std::size_t n = 0; n < suite.size(); ++n) {
        // Each client sweeps in a different rotation so cold and warm
        // paths interleave across clients.
        const std::size_t i = (n + static_cast<std::size_t>(t) * 3) %
                              suite.size();
        const CompileReply reply =
            client.compile({suite[i].source}, options);
        if (reply.programs.size() != 1 ||
            reply.programs[0].rtl != reference_rtl[i] ||
            reply.programs[0].stats != reference_stats[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(fixture.counter("service.cache_hits"), 0u);
}

TEST(ServiceTest, CacheSizeOneThrashStaysCorrect) {
  // Unit cache of capacity 1 and response cache of capacity 1: every
  // request evicts almost everything, and correctness must not depend
  // on residency.
  ServerOptions options;
  options.cache_entries = 1;  // Shards clamp to the capacity.
  options.response_entries = 1;
  ServerFixture fixture(options);
  Client client = fixture.connect();
  const driver::PipelineOptions popts;

  std::vector<std::string> sources;
  for (const auto& w : workloads::all_workloads()) {
    sources.push_back(w.source);
    if (sources.size() == 4) break;
  }
  for (int round = 0; round < 2; ++round) {
    for (const std::string& source : sources) {
      const driver::CompiledProgram direct = compile_direct(source, popts);
      const CompileReply reply = client.compile({source}, popts);
      ASSERT_EQ(reply.programs.size(), 1u);
      EXPECT_EQ(reply.programs[0].rtl, render_rtl(direct));
      EXPECT_EQ(reply.programs[0].stats, render_program_stats(direct));
    }
  }
  EXPECT_LE(fixture.server->unit_cache().size(), 1u);
}

TEST(ServiceTest, OptionsChangeCacheSeparately) {
  // Same source, different options: responses must differ (unroll
  // changes the RTL) — i.e. neither cache tier may alias across
  // option fingerprints.
  ServerFixture fixture;
  Client client = fixture.connect();
  driver::PipelineOptions plain;
  driver::PipelineOptions unrolled = plain;
  unrolled.enable_unroll = true;

  const std::string src = workloads::all_workloads().front().source;
  const CompileReply a = client.compile({src}, plain);
  const CompileReply b = client.compile({src}, unrolled);
  const CompileReply a2 = client.compile({src}, plain);

  EXPECT_EQ(a.programs[0].rtl, a2.programs[0].rtl);
  EXPECT_EQ(a.programs[0].rtl,
            render_rtl(compile_direct(src, plain)));
  EXPECT_EQ(b.programs[0].rtl,
            render_rtl(compile_direct(src, unrolled)));
}

TEST(ServiceTest, PingStatsAndShutdown) {
  ServerFixture fixture;
  Client client = fixture.connect();
  EXPECT_TRUE(client.ping());
  (void)client.compile({kSource}, driver::PipelineOptions{});
  const std::string counters = client.server_counters();
  EXPECT_GE(Client::counter_value(counters, "service.requests"), 1u);
  EXPECT_GT(Client::counter_value(counters, "service.units_compiled"), 0u);
  EXPECT_EQ(Client::counter_value(counters, "service.no_such_counter"), 0u);
  client.request_shutdown();
  fixture.server->wait_for_shutdown();  // Returns promptly, no hang.
}

// --- Fault matrix -----------------------------------------------------------

TEST(ServiceFaultTest, MalformedMagicGetsErrorFrame) {
  ServerFixture fixture;
  Client client = fixture.connect();
  client.send_raw("XXXXGARBAGEGARBAGE");
  const Frame frame = client.read_frame();
  ASSERT_EQ(frame.type, FrameType::Error);
  const std::vector<Tlv> fields = parse_fields(frame.payload);
  const Tlv* code = find_field(fields, Field::ErrorCode);
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(static_cast<ErrorCode>(decode_u16(*code)), ErrorCode::BadMagic);
  // The connection is dropped after a framing error, but the server
  // itself keeps serving new connections.
  Client fresh = fixture.connect();
  EXPECT_TRUE(fresh.ping());
}

TEST(ServiceFaultTest, VersionMismatchRejectedBeforePayload) {
  ServerFixture fixture;
  Client client = fixture.connect();
  // A well-formed frame from the retired protocol version 1 — the
  // payload would be a valid Ping, but the version gate must fire first.
  client.send_raw(encode_frame(FrameType::Ping, "", /*version=*/1));
  const Frame frame = client.read_frame();
  ASSERT_EQ(frame.type, FrameType::Error);
  const std::vector<Tlv> fields = parse_fields(frame.payload);
  const Tlv* code = find_field(fields, Field::ErrorCode);
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(static_cast<ErrorCode>(decode_u16(*code)),
            ErrorCode::VersionMismatch);
}

TEST(ServiceFaultTest, TruncatedRequestThenDisconnectIsSurvivable) {
  ServerFixture fixture;
  {
    Client client = fixture.connect();
    std::string payload;
    append_u64_field(payload, Field::RequestId, 9);
    append_field(payload, Field::Options, encode_options({}));
    append_field(payload, Field::Source, kSource);
    const std::string frame = encode_frame(FrameType::Request, payload);
    // Half a frame, then EOF: the server must treat it as a client
    // that went away mid-send, not as a protocol crime or a hang.
    client.send_raw(std::string_view(frame).substr(0, frame.size() / 2));
    client.close();
  }
  Client fresh = fixture.connect();
  EXPECT_TRUE(fresh.ping());
  const CompileReply reply =
      fresh.compile({kSource}, driver::PipelineOptions{});
  EXPECT_EQ(reply.programs.size(), 1u);
}

TEST(ServiceFaultTest, DisconnectMidCompileStillPopulatesCaches) {
  ServerFixture fixture;
  {
    Client client = fixture.connect();
    std::string payload;
    append_u64_field(payload, Field::RequestId, 1);
    append_field(payload, Field::Options,
                 encode_options(driver::PipelineOptions{}));
    append_field(payload, Field::Source, kSource);
    client.send_raw(encode_frame(FrameType::Request, payload));
    client.close();  // Gone before the reply can be written.
  }
  // The work still happens and lands in the caches; a later identical
  // request is served warm.  Poll (bounded) for the background compile.
  std::uint64_t units = 0;
  for (int i = 0; i < 200 && units == 0; ++i) {
    ::usleep(10 * 1000);
    units = fixture.counter("service.units_compiled");
  }
  EXPECT_GT(units, 0u) << "orphaned request was never compiled";

  Client fresh = fixture.connect();
  const CompileReply reply =
      fresh.compile({kSource}, driver::PipelineOptions{});
  ASSERT_EQ(reply.programs.size(), 1u);
  EXPECT_EQ(fixture.counter("service.units_compiled"), units)
      << "warm request recompiled despite populated caches";
  EXPECT_GT(fixture.counter("service.cache_hits"), 0u);
}

TEST(ServiceFaultTest, BadOptionsGetBadRequestWithEchoedId) {
  ServerFixture fixture;
  Client client = fixture.connect();
  try {
    (void)client.compile_raw({kSource}, "warp_drive=1\n");
    FAIL() << "bad options accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
  // The connection survives a BadRequest (it is the request's fault,
  // not the stream's).
  EXPECT_TRUE(client.ping());
}

TEST(ServiceFaultTest, FrontendErrorsReportCompileFailed) {
  ServerFixture fixture;
  Client client = fixture.connect();
  try {
    (void)client.compile({"int main() { syntax error here"},
                         driver::PipelineOptions{});
    FAIL() << "unparseable source accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::CompileFailed);
  }
  EXPECT_TRUE(client.ping());
  EXPECT_GT(fixture.counter("service.compile_errors"), 0u);
}

TEST(ServiceFaultTest, RequestWithoutSourcesIsBadRequest) {
  ServerFixture fixture;
  Client client = fixture.connect();
  try {
    (void)client.compile({}, driver::PipelineOptions{});
    FAIL() << "empty request accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadRequest);
  }
}

}  // namespace
