#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "server/line_protocol.h"
#include "util/logging.h"

namespace bigindex {
namespace {

/// write() until done; false on a broken connection.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

TcpServer::TcpServer(QueryService* service, const LabelDictionary* dict,
                     TcpServerOptions options)
    : service_(service),
      dict_(dict),
      options_(options),
      accept_retries_(MetricsRegistry::Global().GetCounter(
          "bigindex_tcp_accept_retries_total",
          "accept() retries after EMFILE, ENFILE or ECONNABORTED")) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      options_.loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status s = Status::IOError(std::string("listen: ") +
                               std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED) {
        // Transient: the pending connection stays queued until finished
        // sessions release their fds (or the next one arrives).
        accept_retries_.Inc();
        BIGINDEX_LOG_EVERY_N(kWarning, 100)
            << "accept on port " << port_ << ": " << std::strerror(errno)
            << "; retrying";
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listen socket shut down (or a fatal accept error)
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    // Join the sessions that have ended. Each marked itself under this
    // lock as its last step, so the joins return at once.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->fd >= 0) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections_.erase(it);
    }
    Connection& connection = connections_.emplace_back(Connection{fd, {}});
    connection.thread = std::thread([this, &connection] {
      ServeConnection(&connection);
    });
  }
}

void TcpServer::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  LineHandler handler(service_, dict_);
  std::string buffer;
  size_t scanned = 0;  // buffer[0, scanned) holds no newline
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // client gone or Stop() shut the socket down
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while (open && (nl = buffer.find('\n', scanned)) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      scanned = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      LineHandler::Result result = handler.Handle(line);
      if (!WriteAll(fd, result.response) || result.close) open = false;
    }
    // What is left is one partial line; past the bound it is refused
    // without waiting for its newline.
    scanned = buffer.size();
    if (open && buffer.size() > kMaxRequestLineBytes) {
      WriteAll(fd, "ERR " +
                       Status::InvalidArgument(
                           "request line exceeds " +
                           std::to_string(kMaxRequestLineBytes) + " bytes")
                           .ToString() +
                       "\n.\n");
      open = false;
    }
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  ::close(fd);
  connection->fd = -1;
}

void TcpServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;  // already stopped
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The acceptor is gone, so the table no longer changes shape; sessions
  // only clear their own fd, under the lock.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const Connection& c : connections_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);  // unblocks its read()
    }
  }
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
  BIGINDEX_LOG(kInfo) << "tcp server on port " << port_ << " stopped";
}

}  // namespace bigindex
