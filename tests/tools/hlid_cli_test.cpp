// End-to-end CLI tests for hlid's numeric flags: every malformed value
// is a diagnostic naming the flag and exit status 2, decided while the
// arguments are parsed.  Each case also passes --client without a
// --connect, so even a parser that let the value through would end in
// client mode's "wants --connect" error: no case can start a server,
// open a socket or spawn a worker.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "tests/testutil/temp_path.hpp"

namespace {

#ifndef HLID_PATH
#error "HLID_PATH must point at the hlid binary"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved.
};

RunResult run_hlid(const std::string& args) {
  const std::string out_path = hli::testutil::unique_temp_path("hlid.txt");
  const std::string command =
      std::string(HLID_PATH) + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(command.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result.output = std::move(buffer).str();
  std::remove(out_path.c_str());
  return result;
}

struct BadFlag {
  const char* args;
  const char* message;  ///< Must appear in the diagnostic.
};

// ctest names each case by its printed value; print the strings, not the
// struct's bytes (pointers that move with every link).
void PrintTo(const BadFlag& flag, std::ostream* os) {
  *os << flag.args << " -> " << flag.message;
}

class HlidBadNumberTest : public ::testing::TestWithParam<BadFlag> {};

TEST_P(HlidBadNumberTest, ExitsTwoNamingTheFlag) {
  const RunResult result =
      run_hlid(std::string("--client ") + GetParam().args);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find(GetParam().message), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("wants --connect"), std::string::npos)
      << "the value got past argument parsing: " << result.output;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, HlidBadNumberTest,
    ::testing::Values(
        BadFlag{"--port=abc",
                "hlid: --port expects an integer from 0 to 65535, got 'abc'"},
        BadFlag{"--port=65536", "--port expects an integer from 0 to 65535"},
        BadFlag{"--workers=x", "--workers expects an integer"},
        BadFlag{"--workers=-1", "--workers expects an integer"},
        BadFlag{"--compile-jobs=99999999999999999999",
                "--compile-jobs expects an integer"},
        BadFlag{"--cache-size=", "--cache-size expects an integer"},
        BadFlag{"--response-cache-size=+8",
                "--response-cache-size expects an integer"},
        BadFlag{"--connect=127.0.0.1:abc",
                "--connect port expects an integer from 1 to 65535"},
        BadFlag{"--connect=127.0.0.1:0", "--connect port expects an integer"},
        BadFlag{"--connect=nohost", "--connect wants HOST:PORT"},
        BadFlag{"--unroll=abc", "--unroll expects an integer from 2"},
        BadFlag{"--unroll=99999999999999999999", "--unroll expects an integer"},
        BadFlag{"--unroll=1", "--unroll expects an integer from 2"},
        BadFlag{"--jobs=many", "--jobs expects an integer"},
        BadFlag{"--exec-threads=0", "--exec-threads expects an integer from 1"},
        BadFlag{"--workers=257",
                "--workers expects an integer from 0 to 256, got '257'"},
        BadFlag{"--compile-jobs=257",
                "--compile-jobs expects an integer from 0 to 256"},
        BadFlag{"--jobs=257", "--jobs expects an integer from 0 to 256"},
        BadFlag{"--exec-threads=4294967295",
                "--exec-threads expects an integer from 1 to 256"},
        BadFlag{"--cache-shards=8", "unknown option '--cache-shards=8'"}));

}  // namespace
