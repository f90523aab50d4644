// Minimal line-protocol TCP front end for a QueryService (a monolithic
// SearchService, a remapped shard worker, or the sharded coordinator).
//
// One acceptor thread plus one thread per connection; each connection is a
// LineHandler session (read a line, write the dot-terminated response
// block). Concurrency, batching, backpressure, and deadlines all live in
// the service behind it — this layer only moves bytes, so a slow or
// hostile client can at worst stall its own connection thread.
//
// A connection closes its own fd when its session ends, and the acceptor
// joins finished sessions before it admits the next one, so a long-lived
// server holds fds and threads only for live connections. A request line
// longer than kMaxRequestLineBytes ends its session with an error. When
// accept() runs out of fds (EMFILE/ENFILE) or the peer aborts
// (ECONNABORTED), the acceptor backs off briefly and retries instead of
// going deaf.

#ifndef BIGINDEX_SERVER_TCP_SERVER_H_
#define BIGINDEX_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>

#include "graph/label_dictionary.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "util/status.h"

namespace bigindex {

/// Longest request line a session buffers, newline excluded. Far above the
/// longest line the repo's own clients send — the coordinator forwarding an
/// UPDATE batch, about 30 bytes per op at the widest ids, so this admits
/// batches of over half a million ops. A session whose pending line passes
/// it gets "ERR InvalidArgument" and is closed, instead of buffering a
/// newline-free stream without limit.
inline constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

struct TcpServerOptions {
  /// 0 = pick an ephemeral port (read it back with port()).
  uint16_t port = 7419;

  /// Loopback only by default; set false to listen on all interfaces.
  bool loopback_only = true;
};

class TcpServer {
 public:
  /// `service` (and `dict`, optional) are borrowed; keep them alive until
  /// Stop() returns.
  TcpServer(QueryService* service, const LabelDictionary* dict,
            TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the acceptor. IOError on bind/listen
  /// failure (e.g. port in use).
  Status Start();

  /// Stops accepting, disconnects every live client, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    int fd;  // -1 once the session has ended and closed it
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);

  QueryService* service_;
  const LabelDictionary* dict_;
  TcpServerOptions options_;
  Counter& accept_retries_;  // bigindex_tcp_accept_retries_total
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex connections_mutex_;  // guards every Connection::fd
  std::list<Connection> connections_;  // only the acceptor and Stop() resize
};

}  // namespace bigindex

#endif  // BIGINDEX_SERVER_TCP_SERVER_H_
