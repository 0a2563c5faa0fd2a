#include "suite.hpp"

#include <sys/resource.h>

#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "hli/serialize.hpp"
#include "replay.hpp"
#include "service/wire.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry.hpp"
#include "workloads/workloads.hpp"

namespace hlibench {

using hli::support::fnv1a64;
using hli::support::fnv1a64_mix;

const std::vector<Program>& suite() {
  static const std::vector<Program> programs = [] {
    std::vector<Program> out;
    for (const auto* list : {&hli::workloads::all_workloads(),
                             &hli::workloads::basic_workloads()}) {
      for (const hli::workloads::Workload& w : *list) {
        out.push_back({w.name, w.source, w.language});
      }
    }
    return out;
  }();
  return programs;
}

hli::driver::PipelineOptions options_for(
    const Program& program, const hli::driver::PipelineOptions& base) {
  return base.with_language(program.language);
}

std::vector<std::size_t> shuffled_round(std::mt19937_64& rng, std::size_t n) {
  // Fisher-Yates on raw engine output, so an order depends only on the
  // seed, not on the standard library's distribution algorithms.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

std::map<std::string, Expected> load_oracle(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read oracle " + path);
  std::map<std::string, Expected> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    Expected expected;
    if (!(fields >> name >> expected.output_hash >> expected.return_value >>
          expected.emit_count)) {
      throw std::runtime_error("malformed oracle line: " + line);
    }
    out[name] = expected;
  }
  for (const Program& program : suite()) {
    if (out.count(program.name) == 0) {
      throw std::runtime_error("oracle has no entry for " + program.name);
    }
  }
  return out;
}

bool matches(const hli::backend::RunResult& run, const Expected& expected) {
  return run.ok && run.output_hash == expected.output_hash &&
         run.return_value == expected.return_value &&
         run.emit_count == expected.emit_count;
}

std::uint64_t compile_digest(const hli::driver::CompiledProgram& compiled) {
  std::uint64_t h = fnv1a64(compiled.hli_text);
  for (const hli::backend::RtlFunction& func : compiled.rtl.functions) {
    h = fnv1a64(func.name, fnv1a64_mix(func.insns.size(), h));
    for (const hli::backend::Insn& insn : func.insns) {
      h = fnv1a64_mix(static_cast<std::uint64_t>(insn.op), h);
      h = fnv1a64_mix(static_cast<std::uint32_t>(insn.rd), h);
      h = fnv1a64_mix(static_cast<std::uint32_t>(insn.rs1), h);
      h = fnv1a64_mix(static_cast<std::uint32_t>(insn.rs2), h);
      h = fnv1a64_mix(static_cast<std::uint64_t>(insn.imm), h);
      h = fnv1a64_mix(static_cast<std::uint32_t>(insn.label), h);
      h = fnv1a64_mix(insn.mem.hli_item, h);
    }
    for (const hli::backend::LoopPlan& plan : func.parexec) {
      h = fnv1a64_mix(plan.loop_beg, h);
      h = fnv1a64_mix(static_cast<std::uint64_t>(plan.distance), h);
    }
  }
  return h;
}

std::uint64_t reply_digest(const std::string& rtl, const std::string& stats) {
  return fnv1a64(stats, fnv1a64(rtl));
}

std::uint64_t direct_digest(const hli::driver::CompiledProgram& compiled) {
  return reply_digest(hli::service::render_rtl(compiled),
                      hli::service::render_program_stats(compiled));
}

std::string fidelity_mismatch(const Program& program,
                              const hli::driver::PipelineOptions& options) {
  const hli::driver::PipelineOptions opts = options_for(program, options);
  const hli::driver::CompiledProgram direct =
      hli::driver::compile_source(program.source, opts);
  const hli::driver::CompiledProgram replayed =
      replay_compile(program.source, opts, nullptr);
  if (hli::service::render_rtl(direct) != hli::service::render_rtl(replayed)) {
    return "RTL dump differs";
  }
  if (direct.hli_text != replayed.hli_text) return "exported HLI differs";
  if (direct.hli.entries.size() != replayed.hli.entries.size()) {
    return "number of imported HLI units differs";
  }
  for (std::size_t i = 0; i < direct.hli.entries.size(); ++i) {
    if (hli::serialize::write_entry(direct.hli.entries[i]) !=
        hli::serialize::write_entry(replayed.hli.entries[i])) {
      return "maintained HLI of unit " + std::to_string(i) + " differs";
    }
  }
  for (std::size_t f = 0; f < direct.rtl.functions.size(); ++f) {
    const auto& a = direct.rtl.functions[f].parexec;
    const auto& b = replayed.rtl.functions[f].parexec;
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].loop_beg == b[i].loop_beg && a[i].loop_end == b[i].loop_end &&
             a[i].doall == b[i].doall && a[i].distance == b[i].distance;
    }
    if (!same) return "parexec plans of " + direct.rtl.functions[f].name + " differ";
  }
  return "";
}

std::map<std::string, double> program_span_totals(
    const Program& program, const hli::driver::PipelineOptions& options) {
  hli::telemetry::Tracer tracer;
  (void)hli::driver::compile_source(
      program.source, options_for(program, options).with_tracer(&tracer));
  // One event per line: {"name":"N","cat":"C","ph":"X","ts":T,"dur":D,...}
  std::map<std::string, double> out;
  std::istringstream lines(tracer.to_json());
  std::string line;
  const auto field = [&line](const std::string& key) -> std::string {
    const std::size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos) return "";
    std::size_t begin = at + key.size() + 3;
    const bool quoted = line[begin] == '"';
    if (quoted) ++begin;
    const std::size_t end = line.find(quoted ? '"' : ',', begin);
    return line.substr(begin, end - begin);
  };
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    if (field("cat") == "function") continue;
    out[field("name")] += std::stod(field("dur")) / 1000.0;
  }
  return out;
}

Usage usage_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime), static_cast<double>(ru.ru_minflt)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace hlibench
