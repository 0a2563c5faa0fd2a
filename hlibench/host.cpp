#include "host.hpp"

#include <unistd.h>

#include <fstream>

namespace hlibench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool instrumented() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(HLIBENCH_SANITIZE).size() > 0;
#endif
}

}  // namespace

std::string build_refusal() {
  const std::string build_type = HLIBENCH_BUILD_TYPE;
  if (build_type == "Debug") return "a Debug build's timings mean nothing";
#ifndef NDEBUG
  return "assertions are on (no NDEBUG): an unoptimized configuration";
#endif
  if (instrumented()) return "a sanitizer build's timings mean nothing";
  return "";
}

std::string host_record(const std::string& revision,
                        const std::string& workload, std::uint64_t seed,
                        bool trace) {
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + quoted(cpu_model()) +
         ", \"compiler\": " + quoted(HLIBENCH_COMPILER) +
         ", \"build_type\": " + quoted(HLIBENCH_BUILD_TYPE) +
         ", \"sanitize\": " + quoted(HLIBENCH_SANITIZE) +
         ", \"revision\": " + quoted(revision) +
         ", \"workload\": " + quoted(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (trace ? "1" : "0") + "}";
}

}  // namespace hlibench
