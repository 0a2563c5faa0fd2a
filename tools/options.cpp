#include "tools/options.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "workloads/workloads.hpp"

namespace hli::tools {

namespace {

void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

/// A thread-count `--flag[=]N`, from `min` to driver::kMaxThreads,
/// parsed through parse_number into `out`.
ParseStatus thread_count_flag(int argc, char** argv, int& i, const char* flag,
                              const char* tool, std::uint64_t min,
                              unsigned& out) {
  std::string value;
  if (!flag_value(argc, argv, i, flag, value)) {
    std::fprintf(stderr, "%s: %s requires a value\n", tool, flag);
    return ParseStatus::Error;
  }
  const std::optional<std::uint64_t> n =
      parse_number(value, flag, tool, min, driver::kMaxThreads);
  if (!n) return ParseStatus::Error;
  out = static_cast<unsigned>(*n);
  return ParseStatus::Handled;
}

}  // namespace

bool flag_value(int argc, char** argv, int& i, const char* name,
                std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return false;
  if (argv[i][len] == '=') {
    out = argv[i] + len + 1;
    return true;
  }
  if (argv[i][len] == '\0' && i + 1 < argc) {
    out = argv[++i];
    return true;
  }
  return false;
}

std::optional<std::uint64_t> parse_number(std::string_view text,
                                          const char* flag, const char* tool,
                                          std::uint64_t min,
                                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc() && stop == end && value >= min && value <= max) {
    return value;
  }
  std::fprintf(stderr,
               "%s: %s expects an integer from %llu to %llu, got '%.*s'\n",
               tool, flag, static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max),
               static_cast<int>(text.size()), text.data());
  return std::nullopt;
}

bool parse_host_port(std::string_view value, const char* flag,
                     const char* tool, std::string& host, int& port) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    std::fprintf(stderr, "%s: %s wants HOST:PORT, got '%.*s'\n", tool, flag,
                 static_cast<int>(value.size()), value.data());
    return false;
  }
  const std::string port_flag = std::string(flag) + " port";
  const std::optional<std::uint64_t> n =
      parse_number(value.substr(colon + 1), port_flag.c_str(), tool, 1, 65535);
  if (!n) return false;
  host = value.substr(0, colon);
  port = static_cast<int>(*n);
  return true;
}

ParseStatus parse_common_flag(int argc, char** argv, int& i, const char* tool,
                              CommonOptions& out) {
  const std::string arg = argv[i];
  if (arg == "--verify-hli" || arg == "--verify-hli=fatal") {
    out.verify_hli = driver::VerifyMode::Fatal;
    return ParseStatus::Handled;
  }
  if (arg == "--verify-hli=warn") {
    out.verify_hli = driver::VerifyMode::Warn;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--verify-hli=", 0) == 0) {
    std::fprintf(stderr, "%s: --verify-hli expects 'fatal' or 'warn', got '%s'\n",
                 tool, arg.c_str() + 13);
    return ParseStatus::Error;
  }
  if (arg == "--emit=binary") {
    out.emit = driver::HliEncoding::Binary;
    return ParseStatus::Handled;
  }
  if (arg == "--emit=text") {
    out.emit = driver::HliEncoding::Text;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--emit=", 0) == 0 || arg == "--emit") {
    std::fprintf(stderr, "%s: --emit expects 'binary' or 'text', got '%s'\n",
                 tool, arg.rfind("--emit=", 0) == 0 ? arg.c_str() + 7 : "");
    return ParseStatus::Error;
  }
  if (arg == "--stats" || arg == "--stats=table") {
    out.stats = StatsFormat::Table;
    return ParseStatus::Handled;
  }
  if (arg == "--stats=json") {
    out.stats = StatsFormat::Json;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--stats=", 0) == 0) {
    std::fprintf(stderr, "%s: --stats expects 'table' or 'json', got '%s'\n",
                 tool, arg.c_str() + 8);
    return ParseStatus::Error;
  }
  if (arg == "--trace-out" || arg.rfind("--trace-out=", 0) == 0) {
    if (!flag_value(argc, argv, i, "--trace-out", out.trace_out) ||
        out.trace_out.empty()) {
      std::fprintf(stderr, "%s: --trace-out expects a path\n", tool);
      return ParseStatus::Error;
    }
    return ParseStatus::Handled;
  }
  if (arg == "--audit-deps" || arg == "--audit-deps=fatal") {
    out.audit_deps = driver::VerifyMode::Fatal;
    return ParseStatus::Handled;
  }
  if (arg == "--audit-deps=warn") {
    out.audit_deps = driver::VerifyMode::Warn;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--audit-deps=", 0) == 0) {
    std::fprintf(stderr, "%s: --audit-deps expects 'fatal' or 'warn', got '%s'\n",
                 tool, arg.c_str() + 13);
    return ParseStatus::Error;
  }
  if (arg == "--analyze=loops") {
    out.analyze_loops = true;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--analyze=", 0) == 0 || arg == "--analyze") {
    std::fprintf(stderr, "%s: --analyze expects 'loops', got '%s'\n", tool,
                 arg.rfind("--analyze=", 0) == 0 ? arg.c_str() + 10 : "");
    return ParseStatus::Error;
  }
  if (arg == "--irdep-fallback") {
    out.irdep_fallback = true;
    return ParseStatus::Handled;
  }
  if (arg == "--exec-threads" || arg.rfind("--exec-threads=", 0) == 0) {
    return thread_count_flag(argc, argv, i, "--exec-threads", tool, 1,
                             out.exec_threads.emplace());
  }
  if (arg == "--frontend" || arg.rfind("--frontend=", 0) == 0) {
    std::string value;
    if (!flag_value(argc, argv, i, "--frontend", value)) {
      std::fprintf(stderr, "%s: --frontend requires a value\n", tool);
      return ParseStatus::Error;
    }
    out.frontend = frontend::language_from_name(value);
    if (!out.frontend) {
      std::fprintf(stderr,
                   "%s: --frontend expects 'c' or 'basic', got '%s'\n", tool,
                   value.c_str());
      return ParseStatus::Error;
    }
    return ParseStatus::Handled;
  }
  if (arg == "--open-world-params") {
    out.open_world = true;
    return ParseStatus::Handled;
  }
  if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
    return thread_count_flag(argc, argv, i, "--jobs", tool, 0, out.jobs);
  }
  return ParseStatus::NotMine;
}

ParseStatus parse_pipeline_flag(std::string_view arg, const char* tool,
                                driver::PipelineOptions& pipeline) {
  if (arg == "--no-hli") {
    pipeline.use_hli = false;
    return ParseStatus::Handled;
  }
  if (arg == "--unroll") {
    pipeline.enable_unroll = true;
    pipeline.unroll_factor = 4;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--unroll=", 0) != 0) return ParseStatus::NotMine;
  const std::optional<std::uint64_t> factor =
      parse_number(arg.substr(9), "--unroll", tool, 2, UINT_MAX);
  if (!factor) return ParseStatus::Error;
  pipeline.enable_unroll = true;
  pipeline.unroll_factor = static_cast<unsigned>(*factor);
  return ParseStatus::Handled;
}

const char* common_usage() {
  return "  --verify-hli[=fatal|warn]  invariant verifier at pass boundaries\n"
         "  --emit=binary|text         HLI interchange encoding\n"
         "  --jobs[=]N                 worker threads (0 = all cores)\n"
         "  --trace-out=PATH           Chrome trace_event JSON timeline\n"
         "  --stats[=table|json]       telemetry counter report\n"
         "  --audit-deps[=fatal|warn]  independent-analyzer audit of HLI "
         "independence claims\n"
         "  --analyze=loops            DOALL/DOACROSS/Serial loop "
         "classification report\n"
         "  --irdep-fallback           independent analyzer as a fallback "
         "dependence oracle\n"
         "  --exec-threads[=]N         run planned parallel loops on N "
         "execution lanes (default 1 = serial)\n"
         "  --frontend=c|basic         front-end selection (default: "
         "inferred from .c/.bas extension or workload name)\n"
         "  --open-world-params        open-world linkage for C pointer "
         "parameters (C front-end only)\n";
}

bool load_source(const std::string& input, const char* tool,
                 std::string& source) {
  if (const workloads::Workload* w = workloads::find_workload(input)) {
    source = w->source;
    return true;
  }
  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr,
                 "%s: cannot open '%s' (and it is not a built-in workload; "
                 "hlic --list-workloads names them)\n",
                 tool, input.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  source = std::move(buffer).str();
  return true;
}

bool resolve_frontend(CommonOptions& common,
                      const std::vector<std::string>& inputs,
                      const char* tool) {
  // What an input *says* it is: the workload registry knows its own
  // language; otherwise the extension decides; otherwise nothing does.
  const auto detect =
      [](const std::string& input) -> std::optional<frontend::Language> {
    if (const workloads::Workload* w = workloads::find_workload(input)) {
      return w->language;
    }
    return frontend::language_for_path(input);
  };

  std::optional<frontend::Language> inferred;
  const std::string* first = nullptr;
  for (const std::string& input : inputs) {
    const std::optional<frontend::Language> detected = detect(input);
    if (!detected.has_value()) continue;
    if (common.frontend && *detected != *common.frontend) {
      std::fprintf(stderr,
                   "%s: --frontend=%.*s contradicts input '%s', which is a "
                   "%.*s source; drop the flag to auto-detect, or compile it "
                   "in a separate invocation\n",
                   tool,
                   static_cast<int>(frontend::language_name(*common.frontend)
                                        .size()),
                   frontend::language_name(*common.frontend).data(),
                   input.c_str(),
                   static_cast<int>(frontend::language_name(*detected).size()),
                   frontend::language_name(*detected).data());
      return false;
    }
    if (!inferred.has_value()) {
      inferred = detected;
      first = &input;
    } else if (*detected != *inferred) {
      std::fprintf(stderr,
                   "%s: mixed-language batch: '%s' is a %.*s source but '%s' "
                   "is a %.*s source; one invocation compiles with one "
                   "front-end — split the batch into per-language runs\n",
                   tool, first->c_str(),
                   static_cast<int>(frontend::language_name(*inferred).size()),
                   frontend::language_name(*inferred).data(), input.c_str(),
                   static_cast<int>(frontend::language_name(*detected).size()),
                   frontend::language_name(*detected).data());
      return false;
    }
  }
  if (!common.frontend) common.frontend = inferred;
  return true;
}

driver::PipelineOptions apply(const CommonOptions& common,
                              driver::PipelineOptions base,
                              telemetry::Tracer* tracer) {
  base.verify_hli = common.verify_hli.value_or(base.verify_hli);
  base.hli_encoding = common.emit.value_or(base.hli_encoding);
  base.audit_deps = common.audit_deps.value_or(base.audit_deps);
  base.analyze_loops = common.analyze_loops.value_or(base.analyze_loops);
  base.irdep_fallback = common.irdep_fallback.value_or(base.irdep_fallback);
  base.exec_threads = common.exec_threads.value_or(base.exec_threads);
  frontend::FrontendOptions& fe = base.frontend_options;
  fe.language = common.frontend.value_or(fe.language);
  fe.open_world_params = common.open_world.value_or(fe.open_world_params);
  if (common.stats != StatsFormat::Off) base.telemetry.counters = true;
  if (!common.trace_out.empty() && tracer != nullptr) {
    base.telemetry.tracer = tracer;
  }
  return base;
}

std::string render_counters_json(const telemetry::CounterSet& counters) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counters.nonzero()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name;  // Registry names are dotted identifiers; no escaping.
    out += "\":";
    append_uint(out, value);
  }
  out += "}";
  return out;
}

std::string render_counters_table(const telemetry::CounterSet& counters,
                                  int indent) {
  const auto entries = counters.nonzero();
  std::size_t width = 0;
  for (const auto& [name, value] : entries) {
    width = std::max(width, name.size());
  }
  std::string out;
  for (const auto& [name, value] : entries) {
    out.append(static_cast<std::size_t>(indent), ' ');
    out += name;
    out.append(width - name.size() + 2, ' ');
    append_uint(out, value);
    out += "\n";
  }
  return out;
}

std::string render_stats_json(
    const std::vector<std::string>& names,
    const std::vector<driver::CompiledProgram>& programs) {
  std::string out = "{\"inputs\":[";
  for (std::size_t i = 0; i < programs.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n{\"input\":\"";
    out += i < names.size() ? names[i] : std::string();
    out += "\",\"counters\":";
    out += render_counters_json(programs[i].counters.total);
    // --analyze=loops reports ride the same deterministic document so
    // machine consumers get one channel for counters AND classification.
    if (!programs[i].loop_reports.empty()) {
      std::string loops = irdep::render_loop_json(programs[i].loop_reports);
      while (!loops.empty() && loops.back() == '\n') loops.pop_back();
      out += ",\"loops\":";
      out += loops;
    }
    out += ",\"functions\":[";
    const auto& per_function = programs[i].counters.per_function;
    for (std::size_t j = 0; j < per_function.size(); ++j) {
      if (j != 0) out += ",";
      out += "\n{\"function\":\"";
      out += per_function[j].first;
      out += "\",\"counters\":";
      out += render_counters_json(per_function[j].second);
      out += "}";
    }
    out += "]}";
  }
  out += "\n],\"total\":";
  out += render_counters_json(driver::aggregate_counters(programs).total);
  out += "}\n";
  return out;
}

bool write_trace(const CommonOptions& common, const telemetry::Tracer& tracer,
                 const char* tool) {
  if (common.trace_out.empty()) return true;
  if (!tracer.write(common.trace_out)) {
    std::fprintf(stderr, "%s: failed to write trace '%s'\n", tool,
                 common.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace hli::tools
