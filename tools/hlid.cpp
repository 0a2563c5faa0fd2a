// hlid — the compile service daemon and its thin client
// (docs/compile-service.md).
//
// Server mode (default):
//   hlid [--port=N] [--unix=PATH] [--workers=N] [--compile-jobs=N]
//        [--cache-size=N] [--response-cache-size=N] [--port-file=PATH]
//
//   Binds 127.0.0.1:<port> (0 = ephemeral; the bound port goes to stderr
//   and, with --port-file, to a file scripts can read) plus an optional
//   AF_UNIX socket, then serves until a client sends Shutdown.  Compiled
//   units land in a content-addressed cache shared across requests, and
//   every --store file is mmap'd once and decoded per unit at most once
//   for the server's whole lifetime.
//
// Client mode:
//   hlid --client (--connect=HOST:PORT | --unix=PATH)
//        [--dump-rtl] [--stats] [--store=PATH] [--no-hli] [--unroll[=N]]
//        [shared flags] <file.c | file.bas | workload-name>...
//   hlid --client --connect=... (--ping | --server-stats | --shutdown)
//
//   --dump-rtl output is byte-identical to `hlic --dump-rtl` for the
//   same inputs and options; --stats prints the server's canonical
//   stats text (service/wire.hpp render_program_stats).
//
// Bench mode:
//   hlid --bench [--bench-out=PATH]
//
//   Spins an in-process server, compiles every built-in workload cold
//   then warm through a real socket, and writes BENCH_service.json
//   (cold/warm latency per workload, aggregate warm speedup, p99).  It
//   runs kBenchRounds rounds, each against a fresh server, and keeps
//   each workload's fastest cold and fastest warm request, so one
//   stalled request on a loaded host does not set the ratio.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "support/diagnostics.hpp"
#include "tools/options.hpp"
#include "workloads/workloads.hpp"

using namespace hli;

namespace {

enum class Mode : std::uint8_t { Serve, Client, Bench };

struct CliOptions {
  Mode mode = Mode::Serve;
  // Server.
  service::ServerOptions server;
  std::string port_file;
  // Client.
  std::string connect_host;
  int connect_port = 0;
  std::string connect_unix;
  bool ping = false;
  bool server_stats = false;
  bool shutdown = false;
  bool dump_rtl = false;
  std::string store_path;
  // Bench.
  std::string bench_out = "BENCH_service.json";

  tools::CommonOptions common;
  driver::PipelineOptions pipeline;
  std::vector<std::string> inputs;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: hlid [--port=N] [--unix=PATH] [--workers=N] [--compile-jobs=N]\n"
      "            [--cache-size=N] [--response-cache-size=N]\n"
      "            [--port-file=PATH]\n"
      "       hlid --client (--connect=HOST:PORT | --unix=PATH)\n"
      "            [--dump-rtl] [--stats] [--store=PATH] [--no-hli]\n"
      "            [--unroll[=N]] [shared flags]\n"
      "            <file.c | file.bas | workload-name>...\n"
      "       hlid --client --connect=... (--ping|--server-stats|--shutdown)\n"
      "       hlid --bench [--bench-out=PATH]\n"
      "shared flags:\n%s",
      tools::common_usage());
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    tools::ParseStatus status =
        tools::parse_common_flag(argc, argv, i, "hlid", options.common);
    if (status == tools::ParseStatus::NotMine) {
      status = tools::parse_pipeline_flag(argv[i], "hlid", options.pipeline);
    }
    if (status == tools::ParseStatus::Error) return false;
    if (status == tools::ParseStatus::Handled) continue;
    const std::string arg = argv[i];
    const auto value_of = [&arg](std::size_t prefix) {
      return arg.substr(prefix);
    };
    // `--flag=N` through the checked parse; `prefix` spans "--flag=".
    const auto number = [&arg](std::size_t prefix, std::uint64_t max,
                               auto& out) {
      const std::string flag = arg.substr(0, prefix - 1);
      const std::optional<std::uint64_t> n = tools::parse_number(
          std::string_view(arg).substr(prefix), flag.c_str(), "hlid", 0, max);
      if (n) out = static_cast<std::remove_reference_t<decltype(out)>>(*n);
      return n.has_value();
    };
    bool ok = true;
    if (arg == "--client") {
      options.mode = Mode::Client;
    } else if (arg == "--bench") {
      options.mode = Mode::Bench;
    } else if (arg.rfind("--port=", 0) == 0) {
      ok = number(7, 65535, options.server.port);
    } else if (arg.rfind("--unix=", 0) == 0) {
      // Server listen path; in client mode, the socket to connect to.
      options.server.unix_path = value_of(7);
      options.connect_unix = options.server.unix_path;
    } else if (arg.rfind("--workers=", 0) == 0) {
      ok = number(10, driver::kMaxThreads, options.server.workers);
    } else if (arg.rfind("--compile-jobs=", 0) == 0) {
      ok = number(15, driver::kMaxThreads, options.server.compile_jobs);
    } else if (arg.rfind("--cache-size=", 0) == 0) {
      ok = number(13, SIZE_MAX, options.server.cache_entries);
    } else if (arg.rfind("--response-cache-size=", 0) == 0) {
      ok = number(22, SIZE_MAX, options.server.response_entries);
    } else if (arg.rfind("--port-file=", 0) == 0) {
      options.port_file = value_of(12);
    } else if (arg.rfind("--connect=", 0) == 0) {
      ok = tools::parse_host_port(value_of(10), "--connect", "hlid",
                                  options.connect_host, options.connect_port);
    } else if (arg == "--ping") {
      options.ping = true;
    } else if (arg == "--server-stats") {
      options.server_stats = true;
    } else if (arg == "--shutdown") {
      options.shutdown = true;
    } else if (arg == "--dump-rtl") {
      options.dump_rtl = true;
    } else if (arg.rfind("--store=", 0) == 0) {
      options.store_path = value_of(8);
    } else if (arg.rfind("--bench-out=", 0) == 0) {
      options.bench_out = value_of(12);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "hlid: unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      options.inputs.push_back(arg);
    }
    if (!ok) return false;
  }
  return true;
}

int run_server(const CliOptions& options) {
  service::Server server(options.server);
  server.start();
  std::fprintf(stderr, "hlid: listening on 127.0.0.1:%d%s%s\n",
               server.tcp_port(),
               options.server.unix_path.empty() ? "" : " and ",
               options.server.unix_path.c_str());
  if (!options.port_file.empty()) {
    std::ofstream out(options.port_file, std::ios::trunc);
    out << server.tcp_port() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "hlid: cannot write port file '%s'\n",
                   options.port_file.c_str());
      server.stop();
      return 1;
    }
  }
  server.wait_for_shutdown();
  server.stop();
  return 0;
}

service::Client connect(const CliOptions& options) {
  if (!options.connect_host.empty()) {
    return service::Client::connect_tcp(options.connect_host,
                                        options.connect_port);
  }
  if (!options.connect_unix.empty()) {
    return service::Client::connect_unix(options.connect_unix);
  }
  throw service::ServiceError(service::ErrorCode::BadRequest,
                              "client mode wants --connect=HOST:PORT or "
                              "--unix=PATH");
}

int run_client(CliOptions& options) {
  service::Client client = connect(options);
  if (options.ping) {
    if (!client.ping()) {
      std::fprintf(stderr, "hlid: no pong\n");
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (options.server_stats) {
    std::fputs(client.server_counters().c_str(), stdout);
    return 0;
  }
  if (options.shutdown) {
    client.request_shutdown();
    return 0;
  }
  if (options.inputs.empty()) {
    std::fprintf(stderr, "hlid: nothing to compile\n");
    return 2;
  }
  std::vector<std::string> sources(options.inputs.size());
  for (std::size_t i = 0; i < options.inputs.size(); ++i) {
    if (!tools::load_source(options.inputs[i], "hlid", sources[i])) return 1;
  }
  if (!tools::resolve_frontend(options.common, options.inputs, "hlid")) {
    return 2;
  }
  // --stats turns counters on through apply(), as in hlic, so the options
  // fingerprint (and therefore the server's unit cache key)
  // distinguishes counters-on from counters-off compiles.
  options.pipeline = tools::apply(options.common, options.pipeline, nullptr);
  const service::CompileReply reply =
      client.compile(sources, options.pipeline, options.store_path);
  int status = 0;
  for (std::size_t i = 0; i < reply.programs.size(); ++i) {
    const service::UnitResult& result = reply.programs[i];
    if (reply.programs.size() > 1) {
      std::printf("== %s ==\n", options.inputs[i].c_str());
    }
    if (!result.verify_log.empty()) {
      std::fprintf(stderr, "%s", result.verify_log.c_str());
      status = 1;
    }
    if (!result.audit_log.empty()) {
      std::fprintf(stderr, "%s", result.audit_log.c_str());
      status = 1;
    }
    if (options.dump_rtl) std::fputs(result.rtl.c_str(), stdout);
    if (options.common.stats != tools::StatsFormat::Off) {
      std::fputs(result.stats.c_str(), stdout);
    }
  }
  return status;
}

constexpr int kBenchRounds = 5;

int run_bench(const CliOptions& options) {
  service::ServerOptions server_options = options.server;
  server_options.port = 0;
  server_options.unix_path.clear();

  const driver::PipelineOptions pipeline = options.pipeline;
  struct Row {
    std::string name;
    double cold_us = 0;
    double warm_us = 0;
  };
  std::vector<Row> rows;
  for (const workloads::Workload& w : workloads::all_workloads()) {
    rows.push_back({w.name, std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()});
  }
  const auto request_us = [&pipeline](service::Client& client,
                                      const std::string& source) {
    const auto start = std::chrono::steady_clock::now();
    const service::CompileReply reply = client.compile({source}, pipeline);
    const auto stop = std::chrono::steady_clock::now();
    if (reply.programs.size() != 1) {
      throw service::ServiceError(service::ErrorCode::Internal,
                                  "bench reply shape");
    }
    return std::chrono::duration<double, std::micro>(stop - start).count();
  };

  std::uint64_t cache_hits = 0;
  const auto bench_start = std::chrono::steady_clock::now();
  for (int round = 0; round < kBenchRounds; ++round) {
    service::Server server(server_options);  // Empty caches every round.
    server.start();
    service::Client client =
        service::Client::connect_tcp("127.0.0.1", server.tcp_port());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string source = workloads::all_workloads()[i].source;
      // The cold request populates both cache tiers; the warm one is a
      // whole-response cache hit.
      rows[i].cold_us = std::min(rows[i].cold_us, request_us(client, source));
      rows[i].warm_us = std::min(rows[i].warm_us, request_us(client, source));
    }
    cache_hits += service::Client::counter_value(client.server_counters(),
                                                 "service.cache_hits");
    client.close();
    server.stop();
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - bench_start)
                             .count();

  double cold_total = 0;
  double warm_total = 0;
  std::vector<double> warm_sorted;
  for (const Row& row : rows) {
    cold_total += row.cold_us;
    warm_total += row.warm_us;
    warm_sorted.push_back(row.warm_us);
  }
  std::sort(warm_sorted.begin(), warm_sorted.end());
  const double p99 =
      warm_sorted.empty()
          ? 0
          : warm_sorted[std::min(warm_sorted.size() - 1,
                                 static_cast<std::size_t>(
                                     static_cast<double>(warm_sorted.size()) *
                                     0.99))];
  const double speedup = warm_total > 0 ? cold_total / warm_total : 0;

  std::ostringstream json;
  json << "{\n";
  json << "  \"bench\": \"service\",\n";
  json << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
  json << "  \"rounds\": " << kBenchRounds << ",\n";
  json << "  \"wall_ms\": " << wall_ms << ",\n";
  json << "  \"cold_us_total\": " << cold_total << ",\n";
  json << "  \"warm_us_total\": " << warm_total << ",\n";
  json << "  \"warm_speedup\": " << speedup << ",\n";
  json << "  \"warm_p99_us\": " << p99 << ",\n";
  json << "  \"service_cache_hits\": " << cache_hits << ",\n";
  json << "  \"per_workload\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"name\": \"" << row.name << "\", \"cold_us\": "
         << row.cold_us << ", \"warm_us\": " << row.warm_us
         << ", \"speedup\": "
         << (row.warm_us > 0 ? row.cold_us / row.warm_us : 0) << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(options.bench_out, std::ios::trunc);
  out << json.str();
  if (!out.good()) {
    std::fprintf(stderr, "hlid: cannot write '%s'\n",
                 options.bench_out.c_str());
    return 1;
  }
  std::printf("service bench: cold %.0fus warm %.0fus speedup %.1fx "
              "p99 %.0fus -> %s\n",
              cold_total, warm_total, speedup, p99,
              options.bench_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return usage();
  try {
    switch (options.mode) {
      case Mode::Serve: return run_server(options);
      case Mode::Client: return run_client(options);
      case Mode::Bench: return run_bench(options);
    }
  } catch (const service::ServiceError& e) {
    std::fprintf(stderr, "hlid: %s\n", e.what());
    return 1;
  } catch (const support::CompileError& e) {
    std::fprintf(stderr, "hlid: %s\n", e.what());
    return 1;
  }
  return 0;
}
