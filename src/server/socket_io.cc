#include "server/socket_io.h"

#include <algorithm>
#include <arpa/inet.h>
#include <array>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "common/crc32.h"
#include "common/macros.h"

namespace qbism::server {

FrameSocket& FrameSocket::operator=(FrameSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status SendAllGathered(iovec* iov, size_t count,
                       const std::function<ssize_t(const msghdr&)>& send_some) {
  for (;;) {
    // Skip the parts already sent (and empty ones).
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return Status::OK();
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = send_some(msg);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("sendmsg: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IOError("sendmsg took no bytes");
    // A short write can end inside any part: resume there.
    for (auto sent = static_cast<size_t>(n); sent > 0 && count > 0;) {
      const size_t took = std::min(sent, iov->iov_len);
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + took;
      iov->iov_len -= took;
      sent -= took;
      if (iov->iov_len == 0) {
        ++iov;
        --count;
      }
    }
  }
}

Status FrameSocket::ReadAll(uint8_t* data, size_t size, bool eof_ok) {
  if (!valid()) return Status::IOError("socket is closed");
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) {
        return Status::Cancelled("connection closed by peer");
      }
      return Status::Corruption("connection closed mid-frame (" +
                                std::to_string(got) + " of " +
                                std::to_string(size) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FrameSocket::SendFrame(MessageType type, uint64_t session,
                              uint64_t request_id,
                              std::initializer_list<PayloadPart> parts) {
  if (!valid()) return Status::IOError("socket is closed");
  size_t payload_bytes = 0;
  uint32_t crc = 0;
  for (PayloadPart part : parts) {
    payload_bytes += part.size();
    crc = Crc32Extend(crc, part.data(), part.size());
  }
  std::array<uint8_t, kHeaderBytes> header =
      EncodeFrameHeader(type, session, request_id,
                        static_cast<uint32_t>(payload_bytes), crc);
  std::vector<iovec> iov;
  iov.reserve(1 + parts.size());
  iov.push_back({header.data(), header.size()});
  for (PayloadPart part : parts) {
    iov.push_back({const_cast<uint8_t*>(part.data()), part.size()});
  }
  return SendAllGathered(iov.data(), iov.size(), [this](const msghdr& msg) {
    return ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
  });
}

Result<FrameHeader> FrameSocket::ReadHeader(uint32_t max_payload) {
  uint8_t header_bytes[kHeaderBytes];
  QBISM_RETURN_NOT_OK(ReadAll(header_bytes, kHeaderBytes, /*eof_ok=*/true));
  return DecodeFrameHeader(header_bytes, kHeaderBytes, max_payload);
}

Status FrameSocket::ReadPayload(uint8_t* data, size_t size) {
  return ReadAll(data, size, /*eof_ok=*/false);
}

Result<Frame> FrameSocket::ReadFrame(uint32_t max_payload) {
  Frame frame;
  QBISM_ASSIGN_OR_RETURN(frame.header, ReadHeader(max_payload));
  frame.payload.resize(frame.header.payload_bytes);
  QBISM_RETURN_NOT_OK(ReadPayload(frame.payload.data(), frame.payload.size()));
  QBISM_RETURN_NOT_OK(VerifyPayload(frame.header, frame.payload));
  return frame;
}

void FrameSocket::ShutdownBoth() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void FrameSocket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<FrameSocket> DialTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status status(StatusCode::kIOError,
                  std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  // Query frames are small and latency matters; an answer is one large
  // frame where Nagle costs nothing either way.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return FrameSocket(fd);
}

}  // namespace qbism::server
