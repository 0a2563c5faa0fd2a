// Thin blocking client for the hlid compile service: one socket, one
// outstanding request at a time.  `hlid --client` is built on this, as
// are the tests/service/ harness and the hlifuzz service leg.  Throws ServiceError on protocol problems and on Error
// frames from the server (the server's ErrorCode is preserved).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"
#include "service/wire.hpp"

namespace hli::service {

/// One compiled source's results, exactly as the server rendered them.
struct UnitResult {
  std::string rtl;         ///< render_rtl: byte-equal to `hlic --dump-rtl`.
  std::string stats;       ///< render_program_stats (stats + counters).
  std::string verify_log;  ///< VerifyMode::Warn findings ("" when clean).
  std::string audit_log;   ///< audit_deps == Warn findings ("" when clean).
};

struct CompileReply {
  std::uint64_t request_id = 0;
  std::vector<UnitResult> programs;  ///< One per request source, in order.
};

class Client {
 public:
  [[nodiscard]] static Client connect_tcp(const std::string& host, int port);
  [[nodiscard]] static Client connect_unix(const std::string& path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  /// Compiles `sources` remotely.  `store_path` names a server-side
  /// serialized HLI store to import from (empty: the server generates
  /// HLI per request, like a plain compile_source).
  [[nodiscard]] CompileReply compile(const std::vector<std::string>& sources,
                                     const driver::PipelineOptions& options,
                                     const std::string& store_path = "");
  /// Same, with pre-encoded options text (lets tests send bad options).
  [[nodiscard]] CompileReply compile_raw(const std::vector<std::string>& sources,
                                         const std::string& options_text,
                                         const std::string& store_path = "");

  /// The server's service.* counters as `name=value` lines.
  [[nodiscard]] std::string server_counters();
  /// Parses one counter out of server_counters() text (0 if absent).
  [[nodiscard]] static std::uint64_t counter_value(const std::string& text,
                                                   std::string_view name);

  [[nodiscard]] bool ping();
  /// Asks the server to shut down (fire and forget).
  void request_shutdown();

  /// Sends raw bytes as-is — protocol fault-injection hook for tests.
  void send_raw(std::string_view bytes);
  /// Reads the next frame (blocking); throws ServiceError on EOF.
  [[nodiscard]] Frame read_frame();

  void close();

 private:
  explicit Client(int fd) : fd_(fd) {}

  Frame transact(FrameType type, std::string_view payload);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace hli::service
