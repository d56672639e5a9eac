#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

#include "util/error.hpp"

namespace perfbench {

HttpConnection::~HttpConnection() { close_socket(); }

void HttpConnection::close_socket() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

void HttpConnection::connect_socket() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw fsyn::Error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    close_socket();
    throw fsyn::Error(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool HttpConnection::exchange(const std::string& wire, Reply* reply) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  char chunk[16384];
  std::size_t header_end = std::string::npos;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  // Status line "HTTP/1.1 NNN reason", then headers; only Content-Length
  // and Connection matter for the endpoints the generator calls.
  const std::string head = buffer_.substr(0, header_end);
  if (head.size() < 12) return false;
  reply->status = std::atoi(head.c_str() + 9);
  std::size_t length = 0;
  bool close_after = false;
  std::size_t line = head.find("\r\n");
  while (line != std::string::npos) {
    const std::size_t next = head.find("\r\n", line + 2);
    const std::string field = head.substr(line + 2, next == std::string::npos
                                                        ? std::string::npos
                                                        : next - line - 2);
    if (strncasecmp(field.c_str(), "content-length:", 15) == 0) {
      length = static_cast<std::size_t>(std::strtoull(field.c_str() + 15, nullptr, 10));
    } else if (strncasecmp(field.c_str(), "connection:", 11) == 0 &&
               field.find("close") != std::string::npos) {
      close_after = true;
    }
    line = next;
  }
  const std::size_t body_start = header_end + 4;
  while (buffer_.size() < body_start + length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  reply->body = buffer_.substr(body_start, length);
  buffer_.erase(0, body_start + length);
  if (close_after) close_socket();
  return true;
}

Reply HttpConnection::request(const std::string& method, const std::string& target,
                              const std::string& body) {
  std::string wire = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    wire += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += body;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) connect_socket();
    Reply reply;
    if (exchange(wire, &reply)) return reply;
    close_socket();  // the server closed the idle connection: retry once
  }
  throw fsyn::Error("request " + method + " " + target + " failed twice");
}

}  // namespace perfbench
