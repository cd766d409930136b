#ifndef QBISM_SERVER_SOCKET_IO_H_
#define QBISM_SERVER_SOCKET_IO_H_

#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>

#include "common/result.h"
#include "server/protocol.h"

namespace qbism::server {

/// One piece of a frame's payload, sent from the caller's memory.
using PayloadPart = std::span<const uint8_t>;

/// The gathered-write loop behind FrameSocket::SendFrame: offers every
/// unsent byte of `iov[0, count)` to `send_some` until all of it is
/// taken. `send_some` has sendmsg(2)'s contract: it may take fewer
/// bytes than offered (a short write, which can end anywhere, inside
/// the frame header too) or return -1 with errno set; EINTR retries,
/// any other errno is an IOError. Consumes `iov`. SendFrame passes
/// sendmsg on its socket; tests pass senders that write short.
Status SendAllGathered(iovec* iov, size_t count,
                       const std::function<ssize_t(const msghdr&)>& send_some);

/// Blocking, whole-frame I/O over a connected TCP socket. Handles
/// partial reads/writes and EINTR; never raises SIGPIPE. A FrameSocket
/// owns its fd and closes it on destruction.
///
/// Read-side status contract (what connection loops dispatch on):
///   Cancelled    orderly EOF at a frame boundary (peer closed cleanly)
///   Corruption   bad magic/version/length/CRC, or EOF mid-frame
///   IOError      errno-level socket failure
class FrameSocket {
 public:
  FrameSocket() = default;
  explicit FrameSocket(int fd) : fd_(fd) {}
  ~FrameSocket() { Close(); }

  FrameSocket(FrameSocket&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  FrameSocket& operator=(FrameSocket&& other) noexcept;
  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends one whole frame whose payload is `parts` back to back. The
  /// parts are checksummed one after another (Crc32Extend) and leave
  /// with the header in one gathered sendmsg, straight from the
  /// caller's memory: no frame-sized buffer is built or copied.
  Status SendFrame(MessageType type, uint64_t session, uint64_t request_id,
                   std::initializer_list<PayloadPart> parts);

  /// Reads and validates the next frame's 36-byte header. The payload
  /// is left on the socket for ReadPayload; its CRC can be checked only
  /// once all of it has been read.
  Result<FrameHeader> ReadHeader(uint32_t max_payload = kMaxFramePayload);

  /// Reads exactly `size` more bytes of the current frame's payload
  /// into `data`, in place; EOF is Corruption. A caller may read one
  /// payload in several pieces (the client reads an answer's fields
  /// straight into their final buffers) and checksums them with
  /// Crc32Extend.
  Status ReadPayload(uint8_t* data, size_t size);

  /// Reads one whole frame: ReadHeader, ReadPayload into the frame's
  /// buffer, then VerifyPayload.
  Result<Frame> ReadFrame(uint32_t max_payload = kMaxFramePayload);

  /// Half-closes both directions (wakes a peer blocked in recv) without
  /// releasing the fd; Close() still must run.
  void ShutdownBoth();
  void Close();

 private:
  /// Reads exactly `size` bytes. `eof_ok` permits a clean EOF before
  /// the first byte (mapped to Cancelled); EOF after it is Corruption.
  Status ReadAll(uint8_t* data, size_t size, bool eof_ok);

  int fd_ = -1;
};

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
Result<FrameSocket> DialTcp(const std::string& host, uint16_t port);

}  // namespace qbism::server

#endif  // QBISM_SERVER_SOCKET_IO_H_
