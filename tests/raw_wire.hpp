// Raw-socket helpers for the wire-robustness tests of qbss serve and
// qbss route: they put malformed or partial frames on a Unix-domain
// socket, which svc::Client never does.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "svc/protocol.hpp"

namespace qbss::svc {

/// Connects a raw (unframed) Unix-domain socket to `path`, for tests
/// that need to put malformed bytes on the wire.
inline int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline bool send_raw(int fd, const unsigned char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Sends `wire` (a header image) followed by `payload`, then half-closes
/// so the peer never waits on more bytes from us, and returns what came
/// back.
inline ReadResult roundtrip_raw(const std::string& path,
                                const unsigned char wire[kHeaderSize],
                                const std::string& payload,
                                FrameHeader* reply,
                                std::string* reply_payload) {
  const int fd = raw_connect(path);
  EXPECT_GE(fd, 0);
  if (fd < 0) return ReadResult::kError;
  EXPECT_TRUE(send_raw(fd, wire, kHeaderSize));
  if (!payload.empty()) {
    // A server that already rejected the header may close (RST) while
    // we are still writing the body; that is a legal outcome, not a
    // test failure.
    send_raw(fd, reinterpret_cast<const unsigned char*>(payload.data()),
             payload.size());
  }
  ::shutdown(fd, SHUT_WR);
  std::string error;
  const ReadResult rc = read_frame(fd, reply, reply_payload, &error);
  ::close(fd);
  return rc;
}

}  // namespace qbss::svc
