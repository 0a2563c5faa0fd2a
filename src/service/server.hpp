// hlid compile server (docs/compile-service.md).
//
// Threading model:
//   * one ACCEPTOR thread polls the listen sockets (TCP on 127.0.0.1,
//     optionally AF_UNIX) and spawns a reader thread per connection;
//   * each READER decodes frames off its socket; cheap control frames
//     (Ping/Stats/Shutdown) are answered inline, compile Requests are
//     enqueued on the bounded job queue;
//   * WORKER threads drain the queue; each request batch is compiled
//     through the existing driver::compile_many (which fans units out
//     again), with the server's CompileCache installed as the
//     pipeline's unit cache and hot HliStores shared from the mmap
//     registry — decode-once across requests, not just within one.
//
// Responses are written under a per-connection mutex, so two workers
// finishing requests from one client never interleave frames.  A
// client that disconnects mid-compile just loses its reply: the send
// fails (EPIPE is suppressed), the work still populates the caches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hli/store.hpp"
#include "service/cache.hpp"
#include "service/wire.hpp"

namespace hli::service {

struct ServerOptions {
  /// TCP listener (always on): 127.0.0.1 only; port 0 = ephemeral, read
  /// the bound port back with Server::tcp_port().
  int port = 0;
  /// AF_UNIX listener path; empty = TCP only.  An existing socket file
  /// at the path is replaced.
  std::string unix_path;
  /// Request worker threads (0 = hardware concurrency).
  unsigned workers = 0;
  /// Jobs handed to compile_many per request batch (0 = hardware).
  unsigned compile_jobs = 1;
  /// Unit-cache bound (entries).
  std::size_t cache_entries = 4096;
  /// Whole-response cache bound (entries).
  std::size_t response_entries = 128;
};

class Server {
 public:
  /// Binds and listens; throws ServiceError on socket failure.  Call
  /// start() to begin serving.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  /// Stops accepting, unblocks every connection, drains and joins all
  /// threads.  Idempotent.
  void stop();

  /// Blocks until a client sends a Shutdown frame or stop() is called.
  void wait_for_shutdown();

  [[nodiscard]] int tcp_port() const { return tcp_port_; }
  [[nodiscard]] const std::string& unix_path() const {
    return options_.unix_path;
  }

  /// Merged service.* counter snapshot (server + both cache tiers).
  [[nodiscard]] telemetry::CounterSet counters() const;
  /// Per-request wall-clock latencies, in completion order.
  [[nodiscard]] std::vector<std::uint64_t> latency_samples_us() const;

  [[nodiscard]] CompileCache& unit_cache() { return unit_cache_; }

  /// Units decoded so far by the shared store registered for `path`
  /// (0 when no request has opened it).  This is the decode-once-
  /// across-requests observable: it must not grow when a second request
  /// re-imports units the shared HliStore already decoded.
  [[nodiscard]] std::size_t store_units_decoded(const std::string& path);

 private:
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
  };

  struct Job {
    std::shared_ptr<Connection> conn;
    std::string payload;  ///< Request frame payload (TLV bytes).
  };

  void acceptor_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void handle_request(const Job& job);
  void send_frame(Connection& conn, FrameType type,
                  std::string_view payload);
  void send_error(Connection& conn, std::uint64_t request_id, ErrorCode code,
                  const std::string& message, bool have_request_id);
  /// The mmap'd store for `path`, opened once and shared across all
  /// requests/workers (HliStore decodes each unit exactly once).
  const hli::HliStore* store_for(const std::string& path);
  std::string counters_text() const;

  ServerOptions options_;
  int tcp_fd_ = -1;
  int unix_fd_ = -1;
  int tcp_port_ = 0;

  CompileCache unit_cache_;
  ResponseCache response_cache_;
  mutable telemetry::AtomicCounterSet counters_;
  std::atomic<std::uint64_t> queue_depth_peak_{0};

  mutable std::mutex latency_mutex_;
  std::vector<std::uint64_t> latencies_us_;

  std::mutex store_mutex_;
  std::unordered_map<std::string, std::unique_ptr<hli::HliStore>> stores_;

  std::mutex queue_mutex_;
  std::condition_variable queue_ready_;
  std::deque<Job> queue_;

  std::mutex threads_mutex_;
  std::vector<std::thread> readers_;
  std::vector<std::weak_ptr<Connection>> connections_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace hli::service
