#include "service/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "driver/parallel.hpp"
#include "support/diagnostics.hpp"

namespace hli::service {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// Writes all of `bytes`; false on any failure (peer gone, fd closed).
bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, kSendFlags);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int listen_tcp(int port, int& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ServiceError(ErrorCode::Internal,
                       std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw ServiceError(ErrorCode::Internal, "bind/listen 127.0.0.1:" +
                                                std::to_string(port) + ": " +
                                                error);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr = {};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw ServiceError(ErrorCode::Internal,
                       "unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ServiceError(ErrorCode::Internal,
                       std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // Replace a stale socket file.
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw ServiceError(ErrorCode::Internal,
                       "bind/listen " + path + ": " + error);
  }
  return fd;
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      unit_cache_(options_.cache_entries),
      response_cache_(options_.response_entries) {
  tcp_fd_ = listen_tcp(options_.port, tcp_port_);
  if (!options_.unix_path.empty()) {
    try {
      unix_fd_ = listen_unix(options_.unix_path);
    } catch (...) {
      ::close(tcp_fd_);
      throw;
    }
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  started_ = true;
  const unsigned workers =
      options_.workers != 0 ? options_.workers : driver::default_jobs();
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);

  // Unblock the acceptor (it polls with a timeout) and every reader
  // (shutdown() makes their blocking recv return 0).
  {
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    for (const std::weak_ptr<Connection>& weak : connections_) {
      if (const std::shared_ptr<Connection> conn = weak.lock()) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::vector<std::thread> readers;
    {
      const std::lock_guard<std::mutex> lock(threads_mutex_);
      readers.swap(readers_);
    }
    for (std::thread& reader : readers) {
      if (reader.joinable()) reader.join();
    }
  }
  queue_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(options_.unix_path.c_str());
  }
  tcp_fd_ = unix_fd_ = -1;

  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

telemetry::CounterSet Server::counters() const {
  telemetry::CounterSet merged = counters_.snapshot();
  merged += unit_cache_.counters();
  merged += response_cache_.counters();
  merged.add(service_counters().queue_depth_peak.id(),
             queue_depth_peak_.load(std::memory_order_relaxed));
  return merged;
}

std::vector<std::uint64_t> Server::latency_samples_us() const {
  const std::lock_guard<std::mutex> lock(latency_mutex_);
  return latencies_us_;
}

std::string Server::counters_text() const {
  std::string out;
  for (const auto& [name, value] : counters().nonzero()) {
    out.append(name);
    out.push_back('=');
    out.append(std::to_string(value));
    out.push_back('\n');
  }
  return out;
}

void Server::acceptor_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds++] = {tcp_fd_, POLLIN, 0};
    if (unix_fd_ >= 0) fds[nfds++] = {unix_fd_, POLLIN, 0};
    const int ready = ::poll(fds, nfds, 200 /*ms*/);
    if (ready <= 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;
      auto conn = std::make_shared<Connection>(client);
      const std::lock_guard<std::mutex> lock(threads_mutex_);
      if (stopping_.load(std::memory_order_acquire)) return;
      connections_.push_back(conn);
      readers_.emplace_back(
          [this, conn = std::move(conn)]() mutable { reader_loop(conn); });
    }
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder;
  char buffer[64 * 1024];
  Frame frame;
  while (!stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF or error: client gone (possibly mid-frame) — fine.
    }
    try {
      decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      while (decoder.next(frame)) {
        switch (frame.type) {
          case FrameType::Ping:
            send_frame(*conn, FrameType::Pong, "");
            break;
          case FrameType::Stats: {
            std::string payload;
            append_field(payload, Field::CountersText, counters_text());
            send_frame(*conn, FrameType::StatsReply, payload);
            break;
          }
          case FrameType::Shutdown: {
            {
              const std::lock_guard<std::mutex> lock(shutdown_mutex_);
              shutdown_requested_ = true;
            }
            shutdown_cv_.notify_all();
            break;
          }
          case FrameType::Request: {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_.push_back(Job{conn, std::move(frame.payload)});
            const auto depth = static_cast<std::uint64_t>(queue_.size());
            lock.unlock();
            std::uint64_t peak =
                queue_depth_peak_.load(std::memory_order_relaxed);
            while (depth > peak && !queue_depth_peak_.compare_exchange_weak(
                                       peak, depth, std::memory_order_relaxed)) {
            }
            queue_ready_.notify_one();
            break;
          }
          default:
            counters_.add(service_counters().protocol_errors);
            send_error(*conn, 0, ErrorCode::BadFrame,
                       "unexpected frame type", false);
            break;
        }
      }
    } catch (const ServiceError& e) {
      // Bad magic, version mismatch, oversized or truncated TLV: report
      // once, then drop the connection — the byte stream is unusable.
      counters_.add(service_counters().protocol_errors);
      send_error(*conn, 0, e.code(), e.what(), false);
      break;
    }
  }
  conn->open.store(false, std::memory_order_release);
}

void Server::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_ready_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // stopping_ and drained.
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    handle_request(job);
  }
}

const hli::HliStore* Server::store_for(const std::string& path) {
  const std::lock_guard<std::mutex> lock(store_mutex_);
  const auto it = stores_.find(path);
  if (it != stores_.end()) return it->second.get();
  return stores_.emplace(path, hli::HliStore::open_unique(path))
      .first->second.get();
}

std::size_t Server::store_units_decoded(const std::string& path) {
  const std::lock_guard<std::mutex> lock(store_mutex_);
  const auto it = stores_.find(path);
  return it == stores_.end() ? 0 : it->second->units_decoded();
}

void Server::handle_request(const Job& job) {
  const auto start = std::chrono::steady_clock::now();
  counters_.add(service_counters().requests);
  std::uint64_t request_id = 0;
  bool have_request_id = false;
  try {
    const std::vector<Tlv> fields = parse_fields(job.payload);
    if (const Tlv* id = find_field(fields, Field::RequestId)) {
      request_id = decode_u64(*id);
      have_request_id = true;
    }
    const Tlv* options_field = find_field(fields, Field::Options);
    if (options_field == nullptr) {
      throw ServiceError(ErrorCode::BadRequest, "request without options");
    }
    std::vector<std::string> sources;
    for (const Tlv& field : fields) {
      if (field.id == Field::Source) sources.push_back(field.value);
    }
    if (sources.empty()) {
      throw ServiceError(ErrorCode::BadRequest, "request without sources");
    }
    std::string store_path;
    if (const Tlv* sp = find_field(fields, Field::StorePath)) {
      store_path = sp->value;
    }

    // Request tier: an unchanged (options, store, sources) triple skips
    // even the front-end.  The body is cached WITHOUT the request id,
    // which is prepended fresh per reply.
    std::string response_key =
        ResponseCache::key(options_field->value, store_path, sources);
    std::size_t cached_units = 0;
    if (const std::shared_ptr<const std::string> body =
            response_cache_.lookup(response_key, &cached_units)) {
      // Credit the units this hit avoided recompiling: the acceptance
      // counter service.cache_hits covers both tiers.
      counters_.add(service_counters().cache_hits, cached_units);
      std::string payload;
      append_u64_field(payload, Field::RequestId, request_id);
      payload += *body;
      send_frame(*job.conn, FrameType::Response, payload);
    } else {
      driver::PipelineOptions options = decode_options(options_field->value);
      if (!store_path.empty()) {
        options.hli_store = store_for(store_path);
      }
      options.unit_cache = &unit_cache_;
      const std::vector<driver::CompiledProgram> compiled =
          driver::compile_many(sources, options, options_.compile_jobs);
      std::string response_body;
      std::size_t units = 0;
      for (const driver::CompiledProgram& program : compiled) {
        append_field(response_body, Field::RtlDump, render_rtl(program));
        append_field(response_body, Field::StatsText,
                     render_program_stats(program));
        append_field(response_body, Field::VerifyLog, program.verify_log);
        append_field(response_body, Field::AuditLog, program.audit_log);
        units += program.hli.entries.size();
      }
      std::string payload;
      append_u64_field(payload, Field::RequestId, request_id);
      payload += response_body;
      response_cache_.insert(std::move(response_key), std::move(response_body),
                             units);
      send_frame(*job.conn, FrameType::Response, payload);
    }
  } catch (const ServiceError& e) {
    counters_.add(service_counters().protocol_errors);
    send_error(*job.conn, request_id, e.code(), e.what(), have_request_id);
  } catch (const support::CompileError& e) {
    counters_.add(service_counters().compile_errors);
    send_error(*job.conn, request_id, ErrorCode::CompileFailed, e.what(),
               have_request_id);
  } catch (const std::exception& e) {
    counters_.add(service_counters().compile_errors);
    send_error(*job.conn, request_id, ErrorCode::Internal, e.what(),
               have_request_id);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  const std::lock_guard<std::mutex> lock(latency_mutex_);
  latencies_us_.push_back(static_cast<std::uint64_t>(elapsed.count()));
}

void Server::send_frame(Connection& conn, FrameType type,
                        std::string_view payload) {
  if (!conn.open.load(std::memory_order_acquire)) return;
  const std::string frame = encode_frame(type, payload);
  const std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (!send_all(conn.fd, frame)) {
    conn.open.store(false, std::memory_order_release);
  }
}

void Server::send_error(Connection& conn, std::uint64_t request_id,
                        ErrorCode code, const std::string& message,
                        bool have_request_id) {
  std::string payload;
  if (have_request_id) {
    append_u64_field(payload, Field::RequestId, request_id);
  }
  append_u16_field(payload, Field::ErrorCode,
                   static_cast<std::uint16_t>(code));
  append_field(payload, Field::Message, message);
  send_frame(conn, FrameType::Error, payload);
}

}  // namespace hli::service
