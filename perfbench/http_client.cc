#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace perfbench {

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

bool HttpClient::Connect(uint16_t port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpClient::ReadMore() {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

HttpReply HttpClient::Send(std::string_view method, std::string_view path,
                           std::string_view body, uint64_t request_id) {
  HttpReply reply;
  if (fd_ < 0 && !Connect(port_)) return reply;
  std::string out;
  out.reserve(body.size() + 160);
  out.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (request_id != 0) {
    out.append("X-Request-Id: ").append(std::to_string(request_id)).append(
        "\r\n");
  }
  if (!body.empty() || method == "POST") {
    out.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  out.append("\r\n").append(body);
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return reply;
    }
    sent += static_cast<size_t>(n);
  }

  size_t header_end = std::string::npos;
  while ((header_end = in_.find("\r\n\r\n")) == std::string::npos) {
    if (!ReadMore()) {
      Close();
      return reply;
    }
  }
  // Status line: "HTTP/1.1 200 OK".
  const size_t sp = in_.find(' ');
  if (sp == std::string::npos || sp > header_end) {
    Close();
    return reply;
  }
  const int status = std::atoi(in_.c_str() + sp + 1);
  size_t content_length = 0;
  bool close_after = false;
  size_t line = in_.find("\r\n") + 2;
  while (line < header_end) {
    const size_t eol = in_.find("\r\n", line);
    const std::string_view header(in_.data() + line, eol - line);
    const size_t colon = header.find(':');
    if (colon != std::string_view::npos) {
      const std::string name(header.substr(0, colon));
      std::string_view value = header.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (strcasecmp(name.c_str(), "content-length") == 0) {
        content_length = std::strtoull(std::string(value).c_str(), nullptr, 10);
      } else if (strcasecmp(name.c_str(), "connection") == 0 &&
                 strncasecmp(value.data(), "close", 5) == 0) {
        close_after = true;
      }
    }
    line = eol + 2;
  }
  const size_t body_start = header_end + 4;
  while (in_.size() < body_start + content_length) {
    if (!ReadMore()) {
      Close();
      return reply;
    }
  }
  reply.status = status;
  reply.body = in_.substr(body_start, content_length);
  in_.erase(0, body_start + content_length);
  if (close_after) Close();
  return reply;
}

}  // namespace perfbench
