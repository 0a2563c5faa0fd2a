// `serve`: an in-process service::Server (AF_UNIX, 2 workers,
// compile_jobs=1) with one blocking service::Client in a closed loop;
// callers of `hlic --remote` wait for each reply, so a closed loop is how
// the service is used.  One client, not two: on a shared 4-CPU host a
// second client made p50 and p90 swing by 30-45% between runs, as the
// request threads waited for CPUs.  Requests carry production() options
// (HLIB, unroll x4, regalloc, sched2), in three kinds:
//
//   repeat  resends the previous request: the response tier.
//   edit    a unique trailing comment: the response tier misses, every
//           unit hits, so the server runs the front-end, fingerprinting,
//           splice and render.
//   cold    a leading comment and a run of blank lines no other request
//           used shift every line: every unit misses (unit keys cover the
//           lowered RTL, whose line numbers move, but not comment text),
//           so the server compiles and inserts all.
//
// One round is every program once cold and three times edited, plus 37
// repeats (105 requests: 35% repeat, 49% edit, 16% cold) in a fresh
// seeded order, so every round carries the same work.  The mix keeps p50
// inside the edit cluster and p90 inside the cold one.  The unit cache
// holds 8x the suite's base units and is driven into eviction during
// warm-up, so inserts evict at a steady rate in the window while the base
// units edits need stay resident.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "service/client.hpp"
#include "service/server.hpp"
#include "workload.hpp"

namespace hlibench {

namespace {

using hli::driver::CompiledProgram;
using hli::driver::PipelineOptions;
using hli::service::Client;
using hli::service::Server;

constexpr std::size_t kEditsPerProgram = 3;
constexpr std::size_t kRepeatsPerRound = 37;

enum class Kind : std::uint8_t { Repeat, Edit, Cold };

const char* span_name(Kind kind) {
  switch (kind) {
    case Kind::Repeat: return "service.repeat";
    case Kind::Edit: return "service.edit";
    case Kind::Cold: return "service.cold";
  }
  return "service.request";
}

std::string comment(const Program& program, const std::string& text) {
  return (program.language == hli::frontend::Language::Basic ? "' " : "// ") +
         text;
}

std::string edited_source(const Program& program, const std::string& tag) {
  return program.source + "\n" + comment(program, "edit " + tag) + "\n";
}

/// `shift` must differ between all cold requests of a run.
std::string cold_source(const Program& program, std::uint64_t shift) {
  return comment(program, "cold " + std::to_string(shift)) + "\n" +
         std::string(shift, '\n') + program.source;
}

struct Request {
  Kind kind = Kind::Edit;
  std::size_t program = 0;
  std::string source;
  std::uint64_t round = 0;
  bool traced = false;
  double rtt_ms = 0;
  std::uint64_t digest = 0;
  bool ok = false;
};

struct Counters {
  double requests = 0;
  double request_hits = 0;
  double units_compiled = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double queue_depth_peak = 0;

  static Counters of(const Server& server) {
    const hli::telemetry::CounterSet set = server.counters();
    const auto v = [&set](const char* name) {
      return static_cast<double>(set.value(name));
    };
    return {v("service.requests"),     v("service.request_hits"),
            v("service.units_compiled"), v("service.cache_hits"),
            v("service.cache_misses"), v("service.cache_evictions"),
            v("service.queue_depth_peak")};
  }
};

hli::service::CompileReply send(Client& client, const Program& program,
                                const std::string& source) {
  return client.compile({source},
                        options_for(program, PipelineOptions::production()));
}

}  // namespace

Report run_serve(const RunConfig& config) {
  Report report;
  const std::vector<Program>& programs = suite();
  const std::size_t n = programs.size();
  const PipelineOptions production = PipelineOptions::production();

  // References (not set-up): direct compiles of every base version.
  std::vector<CompiledProgram> reference(n);
  std::vector<std::uint64_t> base_digest(n);
  std::vector<double> units(n);
  double base_units = 0;
  for (std::size_t i = 0; i < n; ++i) {
    reference[i] = hli::driver::compile_source(programs[i].source,
                                               options_for(programs[i], production));
    base_digest[i] = direct_digest(reference[i]);
    units[i] = static_cast<double>(reference[i].hli.entries.size());
    base_units += units[i];
  }

  hli::service::ServerOptions server_options;
  server_options.unix_path =
      config.work_dir + "/hlid-" + std::to_string(::getpid()) + ".sock";
  server_options.workers = 2;
  server_options.compile_jobs = 1;
  server_options.cache_entries = static_cast<std::size_t>(8 * base_units);

  // Set-up: server start, connect, warm fill of every base version.
  std::unique_ptr<Server> server;
  std::optional<Client> client;
  const auto stop = [&] {
    if (client) client->close();
    client.reset();
    if (server) server->stop();
    server.reset();
  };
  const auto setup = [&] {
    server = std::make_unique<Server>(server_options);
    server->start();
    client.emplace(Client::connect_unix(server_options.unix_path));
    for (std::size_t i = 0; i < n; ++i) {
      const hli::service::CompileReply reply =
          send(*client, programs[i], programs[i].source);
      if (reply.programs.size() != 1 ||
          reply_digest(reply.programs[0].rtl, reply.programs[0].stats) !=
              base_digest[i]) {
        report.fail(programs[i].name + ": warm-fill reply differs from a direct compile");
      }
    }
  };
  // Each set-up starts from a stopped server; the last one stays up.
  const int setup_reps = config.short_mode ? 1 : 6;
  std::vector<double> setup_samples;
  const auto time_fresh_setups = [&] {
    for (int rep = 0; rep < setup_reps; ++rep) {
      stop();
      time_setups(1, setup, setup_samples);
    }
  };
  time_fresh_setups();

  // The closed loop.  A round's slots are 0..n-1 (cold, one per program),
  // then kEditsPerProgram * n edits, then the repeats, in seeded order.
  std::mt19937_64 rng(config.seed);
  const std::size_t slots = n + kEditsPerProgram * n + kRepeatsPerRound;
  const auto deal = [&rng, slots] { return shuffled_round(rng, slots); };
  std::uint64_t cold_shift = 0;
  std::uint64_t sent = 0;
  Request last;  // What a repeat resends: at first, the last warm fill.
  last.program = n - 1;
  last.source = programs[n - 1].source;
  // One request; with `traced`, every other one records a span.
  const auto issue = [&](std::size_t slot, std::uint64_t round, bool traced,
                         SpanLog* spans) {
    Request request;
    request.round = round;
    request.traced = traced && sent % 2 == 1;
    if (slot < n) {
      request.kind = Kind::Cold;
      request.program = slot;
      request.source = cold_source(programs[slot], ++cold_shift);
    } else if (slot < n + kEditsPerProgram * n) {
      request.kind = Kind::Edit;
      request.program = slot % n;
      request.source =
          edited_source(programs[request.program], std::to_string(sent));
    } else {
      request.kind = Kind::Repeat;
      request.program = last.program;
      request.source = last.source;
    }
    if (request.traced) spans->set_op((std::uint64_t{1} << 32) | sent);
    ++sent;
    const Clock::time_point start = Clock::now();
    std::optional<hli::service::CompileReply> reply;
    try {
      const ScopedSpan span(request.traced ? spans : nullptr,
                            span_name(request.kind));
      reply = send(*client, programs[request.program], request.source);
    } catch (const hli::service::ServiceError&) {
    }
    request.rtt_ms = ms_between(start, Clock::now());
    request.ok = reply && reply->programs.size() == 1;
    if (request.ok) {
      request.digest =
          reply_digest(reply->programs[0].rtl, reply->programs[0].stats);
    }
    last = request;
    return request;
  };

  // Warm-up: whole rounds until the unit cache has evicted as many
  // entries as the suite has base units.  Edits keep the base units
  // recently used, so what LRU evicts from then on is old cold inserts.
  {
    const Clock::time_point open = Clock::now();
    const Clock::time_point limit =
        open + std::chrono::seconds(config.short_mode ? 2 : 30);
    std::uint64_t requests = 0;
    while (Clock::now() < limit &&
           static_cast<double>(server->unit_cache().evictions()) < base_units) {
      for (const std::size_t slot : deal()) {
        (void)issue(slot, 0, false, nullptr);
        ++requests;
      }
    }
    report.note("warm-up: " + std::to_string(requests) + " requests in " +
                format_number(ms_between(open, Clock::now()) / 1e3) + " s");
  }

  // The timed window.
  SpanLog client_spans;
  std::vector<Request> log;
  const Counters before = Counters::of(*server);
  const std::size_t samples_before = server->latency_samples_us().size();
  Window window;
  run_rounds(config.seconds, 1, deal, [&](std::size_t slot, std::uint64_t round) {
    log.push_back(issue(slot, round, config.trace, &client_spans));
  }, &window);
  const Counters after = Counters::of(*server);
  const std::vector<std::uint64_t> server_us = server->latency_samples_us();

  // Tier assertions over the window: each repeat is one response-tier hit,
  // each cold request compiles all its program's units, and edits compile
  // none (any edit compile would break the second equality).
  double repeats = 0;
  double cold_units = 0;
  for (const Request& request : log) {
    if (!request.ok) continue;
    if (request.kind == Kind::Repeat) repeats += 1;
    if (request.kind == Kind::Cold) cold_units += units[request.program];
  }
  if (after.request_hits - before.request_hits != repeats) {
    report.fail("repeat requests missed the response tier: " +
                std::to_string(after.request_hits - before.request_hits) +
                " hits for " + std::to_string(repeats) + " repeats");
  }
  if (after.units_compiled - before.units_compiled != cold_units) {
    report.fail("units compiled in the window (" +
                std::to_string(after.units_compiled - before.units_compiled) +
                ") differ from the cold requests' units (" +
                std::to_string(cold_units) + ")");
  }
  // The same per request, on three programs.
  {
    std::mt19937_64 probe_rng(config.seed + 7);
    for (int probe = 0; probe < 3; ++probe) {
      const std::size_t i = probe_rng() % n;
      const std::string edit = edited_source(programs[i], "probe-" + std::to_string(probe));
      Counters c0 = Counters::of(*server);
      (void)send(*client, programs[i], edit);
      Counters c1 = Counters::of(*server);
      if (c1.units_compiled != c0.units_compiled) {
        report.fail(programs[i].name + ": an edit compiled units");
      }
      (void)send(*client, programs[i], edit);
      c0 = Counters::of(*server);
      if (c0.request_hits != c1.request_hits + 1) {
        report.fail(programs[i].name + ": a repeat missed the response tier");
      }
      (void)send(*client, programs[i], cold_source(programs[i], ++cold_shift));
      c1 = Counters::of(*server);
      if (c1.units_compiled - c0.units_compiled != units[i]) {
        report.fail(programs[i].name + ": a cold request did not compile every unit");
      }
    }
  }
  if (!config.trace) time_fresh_setups();
  stop();

  // Every distinct source, compiled directly, must match every reply.
  const Clock::time_point checks = Clock::now();
  std::unordered_map<std::string, std::size_t> distinct;
  std::vector<const Request*> firsts;
  for (const Request& request : log) {
    if (request.ok && distinct.emplace(request.source, firsts.size()).second) {
      firsts.push_back(&request);
    }
  }
  std::vector<std::uint64_t> direct(firsts.size(), 0);
  parallel_for(firsts.size(), [&](std::size_t j) {
    const Program& program = programs[firsts[j]->program];
    try {
      direct[j] = direct_digest(hli::driver::compile_source(
          firsts[j]->source, options_for(program, production)));
    } catch (const hli::support::CompileError&) {
      direct[j] = 0;  // Counted as a mismatch below.
    }
  });
  std::uint64_t wrong = 0;
  for (const Request& request : log) {
    const bool good =
        request.ok && request.digest == direct[distinct.at(request.source)];
    if (request.ok && !good) ++wrong;
    window.record(request.rtt_ms, good, request.round);
  }
  if (wrong > 0) {
    report.fail(std::to_string(wrong) + " replies differ from a direct compile");
  }
  if (window.failed() > wrong) {
    report.fail(std::to_string(window.failed() - wrong) + " requests failed");
  }
  report.note("re-rendered " + std::to_string(firsts.size()) +
              " distinct request sources directly in " +
              format_number(ms_between(checks, Clock::now()) / 1e3) + " s");

  if (!config.trace) {
    report_end_to_end(report, window, setup_samples,
                      generated_quality(reference, config.oracle, report));
    return report;
  }

  // Per-layer metrics.  Traced and untraced requests alternate; the
  // tracing cost compares them per request kind and program.
  LayerMetrics layers;
  std::vector<double> rtt_all;
  std::map<Kind, std::vector<double>> rtt_traced;
  std::map<std::uint64_t, OpTimes> times;
  for (const Request& request : log) {
    rtt_all.push_back(request.rtt_ms);
    OpTimes& t =
        times[(static_cast<std::uint64_t>(request.kind) << 32) | request.program];
    if (request.traced) {
      rtt_traced[request.kind].push_back(request.rtt_ms);
      t.traced_ms.push_back(request.rtt_ms);
    } else {
      t.untraced_ms.push_back(request.rtt_ms);
    }
  }
  layers.set("service.rtt_ms_repeat_p50", percentile(rtt_traced[Kind::Repeat], 50));
  layers.set("service.rtt_ms_edit_p50", percentile(rtt_traced[Kind::Edit], 50));
  layers.set("service.rtt_ms_cold_p50", percentile(rtt_traced[Kind::Cold], 50));
  std::vector<double> server_ms;
  for (std::size_t s = samples_before; s < server_us.size(); ++s) {
    server_ms.push_back(static_cast<double>(server_us[s]) / 1e3);
  }
  const double server_p50 = percentile(server_ms, 50);
  layers.set("service.server_ms_p50", server_p50);
  layers.set("service.wire_ms_p50", percentile(rtt_all, 50) - server_p50);
  const double served = std::max(1.0, after.requests - before.requests);
  const double unit_lookups = (after.cache_hits - before.cache_hits) +
                              (after.cache_misses - before.cache_misses);
  layers.set("service.response_hit_ratio",
             (after.request_hits - before.request_hits) / served);
  layers.set("service.unit_hit_ratio",
             unit_lookups > 0 ? (after.cache_hits - before.cache_hits) / unit_lookups
                              : 0.0);
  layers.set("service.evictions_per_req",
             (after.cache_evictions - before.cache_evictions) / served);
  layers.set("service.queue_depth_peak", after.queue_depth_peak);
  layers.set("trace.overhead_pct", overhead_pct(times));

  // The cold path's layers: paired triples on a cold version of every
  // program, several per program.
  CompileTrace compile_trace;
  for (std::size_t i = 0; i < n; ++i) {
    const Program cold{programs[i].name, cold_source(programs[i], ++cold_shift),
                       programs[i].language};
    const PipelineOptions options = options_for(cold, production);
    for (int rep = 0; rep < (config.short_mode ? 2 : 12); ++rep) {
      (void)traced_compile(compile_trace, i, cold, options, compile_trace.ops + 1);
    }
  }
  layers.add_compile(compile_trace, report);
  layers.add_counters(production);
  InterpTrace interp;
  for (std::size_t i = 0; i < n; ++i) {
    if (!matches(traced_run(interp, nullptr, reference[i].rtl, 1),
                 config.oracle.at(programs[i].name))) {
      report.fail(programs[i].name + ": output differs from the oracle");
    }
  }
  layers.add_interp(interp);
  check_replay_fidelity(report, compile_trace, production);
  layers.report(report);
  report.attempted += window.attempted();
  report.failed += window.failed();

  compile_trace.spans.merge(client_spans);
  if (!config.trace_out.empty() &&
      !compile_trace.spans.write_chrome_trace(config.trace_out)) {
    report.fail("cannot write " + config.trace_out);
  }
  return report;
}

}  // namespace hlibench
