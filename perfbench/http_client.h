// Blocking HTTP/1.1 keep-alive client: one connection, one request in
// flight, as a closed-loop load generator needs.
#ifndef KPEF_PERFBENCH_HTTP_CLIENT_H_
#define KPEF_PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
  /// HTTP status; 0 when the exchange failed at the transport level.
  int status = 0;
  std::string body;
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY.
  bool Connect(uint16_t port);

  /// Sends one request and reads its whole response. `request_id` (when
  /// nonzero) goes out as an X-Request-Id header. A transport failure
  /// closes the connection and returns status 0; the next call
  /// reconnects.
  HttpReply Send(std::string_view method, std::string_view path,
                 std::string_view body, uint64_t request_id = 0);

 private:
  void Close();
  bool ReadMore();

  uint16_t port_ = 0;
  int fd_ = -1;
  std::string in_;
};

}  // namespace perfbench

#endif  // KPEF_PERFBENCH_HTTP_CLIENT_H_
