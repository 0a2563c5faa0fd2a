#include "tools/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "workloads/workloads.hpp"

namespace hli::tools {

namespace {

/// `--flag value` or `--flag=value`; advances `i` in the former case.
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

bool parse_jobs(const std::string& text, const char* tool, unsigned& out) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0') {
    std::fprintf(stderr, "%s: --jobs expects a number, got '%s'\n", tool,
                 text.c_str());
    return false;
  }
  out = static_cast<unsigned>(value);
  return true;
}

void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

ParseStatus parse_common_flag(int argc, char** argv, int& i, const char* tool,
                              CommonOptions& out) {
  const std::string arg = argv[i];
  if (arg == "--verify-hli" || arg == "--verify-hli=fatal") {
    out.verify_hli = driver::VerifyMode::Fatal;
    out.verify_hli_set = true;
    return ParseStatus::Handled;
  }
  if (arg == "--verify-hli=warn") {
    out.verify_hli = driver::VerifyMode::Warn;
    out.verify_hli_set = true;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--verify-hli=", 0) == 0) {
    std::fprintf(stderr, "%s: --verify-hli expects 'fatal' or 'warn', got '%s'\n",
                 tool, arg.c_str() + 13);
    return ParseStatus::Error;
  }
  if (arg == "--emit=binary") {
    out.emit = driver::HliEncoding::Binary;
    out.emit_set = true;
    return ParseStatus::Handled;
  }
  if (arg == "--emit=text") {
    out.emit = driver::HliEncoding::Text;
    out.emit_set = true;
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
  if (arg.rfind("--trace-out=", 0) == 0) {
    out.trace_out = arg.substr(12);
    if (out.trace_out.empty()) {
      std::fprintf(stderr, "%s: --trace-out expects a path\n", tool);
      return ParseStatus::Error;
    }
    return ParseStatus::Handled;
  }
  if (arg == "--trace-out") {
    std::string value;
    int before = i;
    if (flag_value(argc, argv, i, "--trace-out", value) && !value.empty()) {
      out.trace_out = value;
      return ParseStatus::Handled;
    }
    i = before;
    std::fprintf(stderr, "%s: --trace-out expects a path\n", tool);
    return ParseStatus::Error;
  }
  if (arg == "--audit-deps" || arg == "--audit-deps=fatal") {
    out.audit_deps = driver::VerifyMode::Fatal;
    out.audit_deps_set = true;
    return ParseStatus::Handled;
  }
  if (arg == "--audit-deps=warn") {
    out.audit_deps = driver::VerifyMode::Warn;
    out.audit_deps_set = true;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--audit-deps=", 0) == 0) {
    std::fprintf(stderr, "%s: --audit-deps expects 'fatal' or 'warn', got '%s'\n",
                 tool, arg.c_str() + 13);
    return ParseStatus::Error;
  }
  if (arg == "--analyze=loops") {
    out.analyze_loops = true;
    out.analyze_loops_set = true;
    return ParseStatus::Handled;
  }
  if (arg.rfind("--analyze=", 0) == 0 || arg == "--analyze") {
    std::fprintf(stderr, "%s: --analyze expects 'loops', got '%s'\n", tool,
                 arg.rfind("--analyze=", 0) == 0 ? arg.c_str() + 10 : "");
    return ParseStatus::Error;
  }
  if (arg == "--irdep-fallback") {
    out.irdep_fallback = true;
    out.irdep_fallback_set = true;
    return ParseStatus::Handled;
  }
  if (arg == "--exec-threads" || arg.rfind("--exec-threads=", 0) == 0) {
    std::string value;
    if (!flag_value(argc, argv, i, "--exec-threads", value)) {
      std::fprintf(stderr, "%s: --exec-threads requires a value\n", tool);
      return ParseStatus::Error;
    }
    char* end = nullptr;
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (value.empty() || end == value.c_str() || *end != '\0' || parsed < 1) {
      std::fprintf(stderr,
                   "%s: --exec-threads expects a positive integer, got '%s'\n",
                   tool, value.c_str());
      return ParseStatus::Error;
    }
    out.exec_threads = static_cast<unsigned>(parsed);
    out.exec_threads_set = true;
    return ParseStatus::Handled;
  }
  if (arg == "--frontend" || arg.rfind("--frontend=", 0) == 0) {
    std::string value;
    if (!flag_value(argc, argv, i, "--frontend", value)) {
      std::fprintf(stderr, "%s: --frontend requires a value\n", tool);
      return ParseStatus::Error;
    }
    const std::optional<frontend::Language> language =
        frontend::language_from_name(value);
    if (!language.has_value()) {
      std::fprintf(stderr,
                   "%s: --frontend expects 'c' or 'basic', got '%s'\n", tool,
                   value.c_str());
      return ParseStatus::Error;
    }
    out.frontend = *language;
    out.frontend_set = true;
    return ParseStatus::Handled;
  }
  if (arg == "--open-world-params") {
    out.open_world = true;
    out.open_world_set = true;
    return ParseStatus::Handled;
  }
  if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
    std::string value;
    if (!flag_value(argc, argv, i, "--jobs", value)) {
      std::fprintf(stderr, "%s: --jobs requires a value\n", tool);
      return ParseStatus::Error;
    }
    return parse_jobs(value, tool, out.jobs) ? ParseStatus::Handled
                                             : ParseStatus::Error;
  }
  return ParseStatus::NotMine;
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
    if (common.frontend_set && *detected != common.frontend) {
      std::fprintf(stderr,
                   "%s: --frontend=%.*s contradicts input '%s', which is a "
                   "%.*s source; drop the flag to auto-detect, or compile it "
                   "in a separate invocation\n",
                   tool,
                   static_cast<int>(frontend::language_name(common.frontend)
                                        .size()),
                   frontend::language_name(common.frontend).data(),
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
  if (!common.frontend_set && inferred.has_value()) {
    common.frontend = *inferred;
    common.frontend_set = true;
  }
  return true;
}

driver::PipelineOptions apply(const CommonOptions& common,
                              const driver::PipelineOptions& base,
                              telemetry::Tracer* tracer) {
  driver::PipelineOptions options = base;
  if (common.verify_hli_set) options = options.with_verify(common.verify_hli);
  if (common.emit_set) options = options.with_encoding(common.emit);
  if (common.audit_deps_set) options = options.with_audit_deps(common.audit_deps);
  if (common.analyze_loops_set) {
    options = options.with_analyze_loops(common.analyze_loops);
  }
  if (common.irdep_fallback_set) {
    options = options.with_irdep_fallback(common.irdep_fallback);
  }
  if (common.exec_threads_set) {
    options = options.with_exec_threads(common.exec_threads);
  }
  if (common.frontend_set) options = options.with_language(common.frontend);
  if (common.open_world_set) {
    options = options.with_open_world_params(common.open_world);
  }
  if (common.stats != StatsFormat::Off) options = options.with_counters();
  if (!common.trace_out.empty() && tracer != nullptr) {
    options = options.with_tracer(tracer);
  }
  return options;
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
