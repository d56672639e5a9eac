// Keep-alive HTTP/1.1 client for the load generator.
//
// net::ApiClient opens one connection per request, which at a few thousand
// status polls per second would churn through ephemeral ports and bill the
// server for connection setup on every poll.  The generator instead holds a
// fixed number of persistent connections (at most nproc), each owned by one
// thread, and reconnects only when the server closes one.
#pragma once

#include <string>

namespace perfbench {

struct Reply {
  int status = 0;
  std::string body;
};

class HttpConnection {
 public:
  explicit HttpConnection(int port) : port_(port) {}
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and reads the whole (Content-Length framed)
  /// response.  Reconnects once if the kept-alive connection was closed by
  /// the server; throws fsyn::Error when the server cannot be reached.
  Reply request(const std::string& method, const std::string& target,
                const std::string& body = std::string());

 private:
  void connect_socket();
  void close_socket();
  bool exchange(const std::string& wire, Reply* reply);

  int port_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the previous response
};

}  // namespace perfbench
